"""JSON round-trips must reproduce binary floating-point values exactly."""

import json

import numpy as np
import pytest

from allpass import (
    PolyMatrix,
    ScalarPoly,
    b2_polynomial,
    classify,
    det_roots,
    mirror_once,
)
from allpass import jsonio


def roundtrip(obj):
    return json.loads(jsonio.dumps(obj))


def test_poly_roundtrip_real_bit_exact():
    rng = np.random.default_rng(3)
    p = PolyMatrix(rng.standard_normal((4, 3, 3)))
    q = jsonio.poly_from_json(roundtrip(jsonio.poly_to_json(p)))
    assert isinstance(q, PolyMatrix)
    assert np.array_equal(q.coeffs, p.coeffs)


def test_poly_from_json_complex_entries():
    # [re, im] entries are read; a zero imaginary part gives the same bits
    # as the plain number, and any other is refused with its magnitude
    rng = np.random.default_rng(4)
    c = rng.standard_normal((3, 2, 2))
    obj = jsonio.poly_to_json(PolyMatrix(c))
    obj["coeffs"] = np.stack([c, np.zeros_like(c)], -1).tolist()
    q = jsonio.poly_from_json(roundtrip(obj))
    assert q.coeffs.dtype == np.float64
    assert np.array_equal(q.coeffs, c)
    obj["coeffs"][2][1][0][1] = -2.5e-3
    with pytest.raises(ValueError, match="2.500e-03"):
        jsonio.poly_from_json(roundtrip(obj))
    with pytest.raises(ValueError, match="2.500e-03"):
        jsonio.scalar_from_json({"degree": 1, "coeffs": [1.0, [0.5, 2.5e-3]]})


def test_scalar_roundtrip_bit_exact():
    s = ScalarPoly(np.array([0.1, -1.0 / 3.0, np.pi]))
    t = jsonio.scalar_from_json(roundtrip(jsonio.scalar_to_json(s)))
    assert np.array_equal(t.coeffs, s.coeffs)


def test_record_roundtrip(worked_pair):
    rec = det_roots(worked_pair)[0]
    back = jsonio.record_from_json(roundtrip(jsonio.record_to_json(rec)))
    assert back == rec


def test_allpass_roundtrip_preserves_evaluation():
    V = b2_polynomial(0.4 + 0.3j, np.array([1.0, 1.0j]) / np.sqrt(2))
    W = jsonio.allpass_from_json(roundtrip(jsonio.allpass_to_json(V)))
    assert W.method == V.method
    assert W.alpha == V.alpha
    assert np.array_equal(W.num.coeffs, V.num.coeffs)
    assert np.array_equal(W.den.coeffs, V.den.coeffs)
    z = np.exp(0.8j)
    assert np.array_equal(W(z), V(z))


def test_report_field_order(worked_pair):
    rec = det_roots(worked_pair)[0]
    _, rep = mirror_once(worked_pair, rec)
    obj = roundtrip(jsonio.report_to_json(rep))
    assert list(obj) == [
        "mirrored_roots",
        "method",
        "residual_deconv",
        "max_imag",
        "spectral_dev",
        "new_root_residual",
        "degree_in",
        "degree_out",
    ]
    alpha = classify(worked_pair, rec).alpha
    assert obj["mirrored_roots"] == [
        [alpha.real, alpha.imag],
        [alpha.real, -alpha.imag],
    ]


def test_poly_from_json_validates_shape():
    with pytest.raises(ValueError):
        jsonio.poly_from_json({"dim": 2, "degree": 1, "coeffs": [[[1.0, 0.0], [0.0, 1.0]]]})
    with pytest.raises(ValueError):
        jsonio.poly_from_json(
            {"dim": 2, "degree": 0, "coeffs": [[[1.0], [0.0]]]}
        )


def test_entry_with_wrong_arity_rejected():
    with pytest.raises(ValueError):
        jsonio.scalar_from_json({"degree": 0, "coeffs": [[1.0, 2.0, 3.0]]})


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.poly_from_json({"dim": 1, "degree": 0, "coeffs": [[[float("inf")]]]})
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.poly_from_json(
            {"dim": 1, "degree": 0, "coeffs": [[[[0.0, float("nan")]]]]}
        )
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.scalar_from_json({"degree": 0, "coeffs": [float("nan")]})
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.record_from_json(
            {
                "alpha": [float("nan"), 0.0],
                "multiplicity": 1,
                "kind": "real",
                "location": "inside",
            }
        )


def test_awkward_floats_survive():
    # denormals, negative zero, and values with no short decimal form
    vals = [5e-324, -0.0, 0.1 + 0.2, 1.0 / 3.0]
    s = ScalarPoly(np.array(vals))
    t = jsonio.scalar_from_json(roundtrip(jsonio.scalar_to_json(s)))
    assert np.array_equal(t.coeffs, s.coeffs)
    # sign of zero preserved
    assert np.signbit(t.coeffs[1])


def _elementwise_poly(p):
    # the entry-by-entry encoding the array form must reproduce byte for byte
    coeffs = [[[float(v) for v in row] for row in mat] for mat in p.coeffs]
    return {"dim": p.dim, "degree": p.degree, "coeffs": coeffs}


def test_array_encoding_matches_elementwise_bytes():
    rng = np.random.default_rng(7)
    awkward = np.array([5e-324, -0.0, 0.1 + 0.2, 1.0 / 3.0])
    real = rng.standard_normal((3, 2, 2))
    real[0] = awkward.reshape(2, 2)
    p = PolyMatrix(real)
    assert jsonio.dumps(jsonio.poly_to_json(p)) == jsonio.dumps(_elementwise_poly(p))
    s = ScalarPoly(np.concatenate([awkward, real[1, 0]]))
    elementwise = {"degree": s.degree, "coeffs": [float(v) for v in s.coeffs]}
    assert jsonio.dumps(jsonio.scalar_to_json(s)) == jsonio.dumps(elementwise)
