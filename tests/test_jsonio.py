"""JSON round-trips must reproduce binary floating-point values exactly."""

import json

import numpy as np
import pytest

from allpass import (
    PolyMatrix,
    b2_polynomial,
    build_b2,
    classify,
    det_roots,
    mirror_once,
)
from allpass.polymat import CPolyMatrix, ScalarPoly
from allpass import jsonio


def roundtrip(obj):
    return json.loads(jsonio.dumps(obj))


def test_poly_roundtrip_real_bit_exact():
    rng = np.random.default_rng(3)
    p = PolyMatrix(rng.standard_normal((4, 3, 3)))
    q = jsonio.poly_from_json(roundtrip(jsonio.poly_to_json(p)))
    assert isinstance(q, PolyMatrix)
    assert np.array_equal(q.coeffs, p.coeffs)


def test_poly_roundtrip_complex_bit_exact():
    rng = np.random.default_rng(4)
    p = CPolyMatrix(rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
    q = jsonio.poly_from_json(roundtrip(jsonio.poly_to_json(p)))
    assert isinstance(q, CPolyMatrix)
    assert np.array_equal(q.coeffs, p.coeffs)


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


def test_ss_roundtrip_bit_exact():
    ss, _ = build_b2(0.5 + 0.5j, np.array([1.0, 1.0j]) / np.sqrt(2))
    back = jsonio.ss_from_json(roundtrip(jsonio.ss_to_json(ss)))
    for name in "ABCD":
        assert np.array_equal(getattr(back, name), getattr(ss, name))


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


def test_ss_from_json_rejects_non_finite():
    ok = {"A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
    assert jsonio.ss_from_json(ok).D[0, 0] == 0.0
    with pytest.raises(ValueError, match="matrix B"):
        jsonio.ss_from_json(dict(ok, B=[[float("inf")]]))


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
    cplx = isinstance(p, CPolyMatrix)
    coeffs = [
        [[[float(v.real), float(v.imag)] if cplx else float(v) for v in row] for row in mat]
        for mat in p.coeffs
    ]
    return {"dim": p.dim, "degree": p.degree, "coeffs": coeffs}


def test_array_encoding_matches_elementwise_bytes():
    rng = np.random.default_rng(7)
    awkward = np.array([5e-324, -0.0, 0.1 + 0.2, 1.0 / 3.0])
    real = rng.standard_normal((3, 2, 2))
    real[0] = awkward.reshape(2, 2)
    cplx = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    cplx[1] = awkward.reshape(2, 2) - 1j * awkward[::-1].reshape(2, 2)
    for p in (PolyMatrix(real), CPolyMatrix(cplx)):
        assert jsonio.dumps(jsonio.poly_to_json(p)) == jsonio.dumps(_elementwise_poly(p))
    ss, _ = build_b2(0.3 + 0.6j, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    old = {name: [[float(v) for v in row] for row in getattr(ss, name)] for name in "ABCD"}
    assert jsonio.dumps(jsonio.ss_to_json(ss)) == jsonio.dumps(old)
