"""Polynomial-matrix arithmetic against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allpass import PolyMatrix, ScalarPoly, poly_roots, spectral_eval
from allpass.config import DEFAULTS
from allpass.errors import SingularPolynomialMatrix
from allpass.polymat import (
    _conv_coeffs,
    _finite_roots,
    _on_circle,
    det_poly,
)
from conftest import assert_roots_close
from reference import constant, deconvolve, mul, mul_scalar, norm, trimmed_length


def test_eval_monomial():
    # p(z) = I + M z^2 evaluated by hand
    M = np.array([[2.0, -1.0], [0.5, 3.0]])
    coeffs = np.stack([np.eye(2), np.zeros((2, 2)), M])
    p = PolyMatrix(coeffs)
    z = 1.7
    np.testing.assert_allclose(p(z), np.eye(2) + M * z**2, rtol=0, atol=1e-14)


def test_eval_matches_power_sum_oracle():
    rng = np.random.default_rng(3)
    p = PolyMatrix(rng.standard_normal((4, 2, 2)))
    z = 0.7j
    naive = sum(p.coeffs[k] * z**k for k in range(4))
    np.testing.assert_allclose(p(z), naive, atol=1e-14)


def test_eval_real_input_real_output():
    p = PolyMatrix(np.arange(12.0).reshape(3, 2, 2))
    out = p(0.3)
    assert not np.iscomplexobj(out)
    out_c = p(0.3 + 0.1j)
    assert np.iscomplexobj(out_c)


def test_eval_scalar_poly_matches_polyval():
    s = ScalarPoly(np.array([1.0, -2.0, 0.25, 3.0]))
    for z in [0.0, 1.0, -0.7, 2.5 + 0.5j]:
        np.testing.assert_allclose(s(z), np.polyval(s.coeffs[::-1], z), atol=1e-13)


def test_eval_vanishes_at_matrix_root():
    # I - 0.5 I z is singular... no, zero, at z = 2
    coeffs = np.stack([np.eye(2), -0.5 * np.eye(2)])
    out = PolyMatrix(coeffs)(2.0)
    np.testing.assert_array_equal(out, np.zeros((2, 2)))


def test_mul_matches_pointwise_product():
    rng = np.random.default_rng(7)
    p = PolyMatrix(rng.standard_normal((3, 2, 2)))
    q = PolyMatrix(rng.standard_normal((2, 2, 2)))
    prod = mul(p, q)
    assert prod.degree == p.degree + q.degree
    for z in [0.3, -1.2, 0.8 + 0.4j]:
        np.testing.assert_allclose(prod(z), p(z) @ q(z), atol=1e-12)


def test_mul_scalar_matches_pointwise():
    rng = np.random.default_rng(8)
    p = PolyMatrix(rng.standard_normal((3, 2, 2)))
    s = ScalarPoly(np.array([2.0, 0.0, -1.0]))
    prod = mul_scalar(p, s)
    for z in [0.5, -0.25 + 1j]:
        np.testing.assert_allclose(prod(z), p(z) * s(z), atol=1e-12)


def test_constant_wraps_matrix():
    c = constant(np.eye(3))
    assert isinstance(c, PolyMatrix)
    assert c.degree == 0
    np.testing.assert_array_equal(c(2.0), np.eye(3))


def test_det_poly_2x2_cofactor_oracle():
    rng = np.random.default_rng(11)
    p = PolyMatrix(rng.standard_normal((4, 2, 2)))
    d = det_poly(p)
    # independent oracle: convolve the scalar entry polynomials
    c = p.coeffs
    expect = np.convolve(c[:, 0, 0], c[:, 1, 1]) - np.convolve(c[:, 0, 1], c[:, 1, 0])
    np.testing.assert_allclose(d.coeffs, expect[: d.degree + 1], atol=1e-10)


def test_det_poly_scalar_case_identity():
    p = PolyMatrix(np.array([1.0, -3.0, 2.0]).reshape(3, 1, 1))
    d = det_poly(p)
    np.testing.assert_allclose(d.coeffs, [1.0, -3.0, 2.0], atol=1e-12)


def test_det_poly_diagonal_product():
    # det of diag(1 - 0.5 z, 1 - 0.25 z) = product of the diagonal entries
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = np.diag([-0.5, -0.25])
    d = det_poly(PolyMatrix(coeffs))
    np.testing.assert_allclose(d.coeffs, np.convolve([1, -0.5], [1, -0.25]), atol=1e-12)


def test_det_poly_repeated_factor_squares():
    # det of (1 - z) I2 is (1 - z)^2
    coeffs = np.stack([np.eye(2), -np.eye(2)])
    d = det_poly(PolyMatrix(coeffs))
    np.testing.assert_allclose(d.coeffs, [1.0, -2.0, 1.0], atol=1e-12)


def _det3_cofactor(c):
    """Cofactor expansion along the first row, coefficients by convolution."""
    out = np.zeros(3 * (c.shape[0] - 1) + 1)
    for j in range(3):
        cols = [k for k in range(3) if k != j]
        minor = np.convolve(c[:, 1, cols[0]], c[:, 2, cols[1]]) - np.convolve(
            c[:, 1, cols[1]], c[:, 2, cols[0]]
        )
        term = np.convolve(c[:, 0, j], minor)
        out[: term.size] += (-1) ** j * term
    return out


def test_det_poly_3x3_cofactor_oracle():
    rng = np.random.default_rng(12)
    for degree in [1, 2, 3]:
        p = PolyMatrix(rng.standard_normal((degree + 1, 3, 3)))
        d = det_poly(p)
        expect = _det3_cofactor(p.coeffs)
        scale = np.max(np.abs(expect))
        np.testing.assert_allclose(d.coeffs, expect[: d.degree + 1], atol=1e-9 * scale)
        assert np.all(np.abs(expect[d.degree + 1 :]) < 1e-9 * scale)


def test_det_poly_real_output_for_real_input():
    rng = np.random.default_rng(13)
    d = det_poly(PolyMatrix(rng.standard_normal((3, 3, 3))))
    assert not np.iscomplexobj(d.coeffs)


def test_poly_roots_quadratic_formula():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b, c = rng.uniform(-3, 3, size=3)
        if abs(a) < 0.1:
            continue
        disc = complex(b * b - 4 * a * c) ** 0.5
        expect = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], key=lambda z: (z.real, z.imag))
        got = sorted(poly_roots(ScalarPoly(np.array([c, b, a]))), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, expect, atol=1e-8)


def test_poly_roots_conjugate_pairing():
    # (z^2 - z + 0.5)(z - 3): the pair must come out exactly conjugate
    coeffs = np.convolve([0.5, -1.0, 1.0], [-3.0, 1.0])
    roots = poly_roots(ScalarPoly(coeffs))
    complex_roots = [z for z in roots if z.imag != 0]
    assert len(complex_roots) == 2
    assert complex_roots[0] == np.conj(complex_roots[1])


def test_poly_roots_double_real_root_collapses():
    # (z-2)^2 (z-3): the double root perturbs into a conjugate-looking pair
    # that must be recognized as two real copies
    coeffs = np.convolve(np.convolve([-2.0, 1.0], [-2.0, 1.0]), [-3.0, 1.0])
    roots = sorted(poly_roots(ScalarPoly(coeffs)), key=lambda z: z.real)
    assert all(z.imag == 0 for z in roots)
    np.testing.assert_allclose([z.real for z in roots], [2.0, 2.0, 3.0], atol=1e-6)


@pytest.mark.parametrize("a", [1e-3, 0.05, 0.999, -1.2])
def test_poly_roots_near_axis_pair_is_a_double_real_root(a):
    # (z - a)^2 + e^2 with e = 1e-9, or 2e-8 |a| for the smallest a: the
    # companion's eigenvalues are a pair with 0 < Im <= 2e-8 |mu| (below
    # 1e-8 for the two small a), well inside the relative cluster radius of
    # the axis, so they come out as two equal reals
    e = 1e-9 * min(1.0, 20.0 * abs(a))
    coeffs = np.array([a * a + e * e, -2 * a, 1.0])
    raw = _finite_roots(coeffs[:, None, None], DEFAULTS)
    assert 0 < abs(raw.imag).max() <= 2e-8
    roots = poly_roots(ScalarPoly(coeffs))
    assert len(roots) == 2 and roots[0] == roots[1]
    assert roots[0].imag == 0
    assert roots[0].real == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("a, e", [(1e-3, 1e-9), (7.648421813264045e-09, 6.442176872345281e-09)])
def test_poly_roots_small_pair_is_judged_on_its_own_scale(a, e):
    # the fold is relative at every modulus: Im mu at 1e-6 and 0.84 of |mu|
    # is a pair, however close to 0; the second is the pair 1e-8 e^{+-0.7i}
    # that mirroring the far pair of far_root_poly(40, 1e8, True) leaves,
    # which the absolute floor 1e-7 folded into a double real root
    roots = poly_roots(ScalarPoly(np.array([a * a + e * e, -2 * a, 1.0])))
    assert len(roots) == 2 and roots[0] == np.conj(roots[1])
    assert abs(roots[0].imag) == pytest.approx(e, rel=1e-6)
    assert roots[0].real == pytest.approx(a, rel=1e-6)


@pytest.mark.parametrize("a", [0.999, -1.2, 1.001])
def test_poly_roots_pair_outside_cluster_radius_stays_a_pair(a):
    # e = 1e-5 is a hundred cluster radii off the axis at |a| near 1
    e = 1e-5
    roots = poly_roots(ScalarPoly(np.array([a * a + e * e, -2 * a, 1.0])))
    assert len(roots) == 2 and roots[0] == np.conj(roots[1])
    assert abs(roots[0].imag) == pytest.approx(e, rel=1e-6)
    assert roots[0].real == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_norm_is_scale_equivariant(k):
    # the plain sum of squares overflows for k near 512 and underflows for
    # k near -512 (it read inf at k = 600 and 0.0 at k = -600); a power of
    # two scales exactly
    c = np.random.default_rng(5).standard_normal((5, 3, 3))
    assert norm(PolyMatrix(np.ldexp(c, k))) == np.ldexp(norm(PolyMatrix(c)), k)
    assert norm(PolyMatrix(np.zeros((2, 2, 2)))) == 0.0


def test_poly_roots_are_python_complex():
    # the lower member of a pair came back as np.complex128 (from np.conj),
    # the other roots as complex
    a, e = 1e-3, 1e-5
    roots = poly_roots(ScalarPoly([a * a + e * e, -2 * a, 1]))
    roots += poly_roots(ScalarPoly([-0.5, 1.0]))
    assert [type(z) for z in roots] == [complex] * 3
    assert roots[1] == roots[0].conjugate()


def test_poly_roots_scalar_with_zero_leading_coefficients():
    # 1 - 2z stored at degree 3: the two roots at infinity are dropped
    assert poly_roots(ScalarPoly(np.array([1.0, -2.0, 0.0, 0.0]))) == pytest.approx([0.5], abs=1e-15)


def test_poly_roots_matrix_matches_det_reference():
    rng = np.random.default_rng(23)
    p = PolyMatrix(rng.standard_normal((3, 3, 3)))
    assert_roots_close(poly_roots(p), np.roots(det_poly(p).coeffs[::-1]), 1e-8)


def test_poly_roots_zero_polynomial_is_singular():
    with pytest.raises(SingularPolynomialMatrix):
        poly_roots(ScalarPoly(np.zeros(3)))


def test_spectral_eval_hermitian_on_circle():
    rng = np.random.default_rng(19)
    p = PolyMatrix(rng.standard_normal((3, 2, 2)))
    z = np.exp(0.91j)
    f = spectral_eval(p, z)
    np.testing.assert_allclose(f, f.conj().T, atol=1e-12)
    expect = p(z) @ p(1 / np.conj(z)).conj().T
    np.testing.assert_allclose(f, expect, atol=1e-12)


def test_spectral_eval_scalar_hand_value():
    # f(z) = (1 - 0.5 z)(1 - 0.5 / z) at z = 1 is 0.25
    p = PolyMatrix(np.array([1.0, -0.5]).reshape(2, 1, 1))
    f = spectral_eval(p, 1.0)
    np.testing.assert_allclose(f, [[0.25]], atol=1e-14)


def test_spectral_eval_psd_on_circle():
    rng = np.random.default_rng(20)
    p = PolyMatrix(rng.standard_normal((4, 3, 3)))
    scale = np.max(np.abs(p.coeffs)) ** 2
    for k in range(16):
        f = spectral_eval(p, np.exp(2j * np.pi * k / 16))
        assert np.min(np.linalg.eigvalsh(f)) > -1e-10 * scale


def _spectral_points(rng):
    """Points on the unit circle plus a few inside and outside it."""
    angles = 2 * np.pi * rng.random(8)
    return np.concatenate([
        np.exp(1j * angles),
        0.6 * np.exp(1j * angles[:3]),
        1.7 * np.exp(1j * angles[3:6]),
        [-2.0, 0.5],
    ])


@pytest.mark.parametrize("kind", ["real", "1x1"])
def test_spectral_eval_batch_matches_pointwise(kind):
    rng = np.random.default_rng(41)
    if kind == "real":
        p = PolyMatrix(rng.standard_normal((4, 3, 3)))
    else:
        p = PolyMatrix(rng.standard_normal((3, 1, 1)))
    zs = _spectral_points(rng)
    batch = spectral_eval(p, zs)
    assert batch.shape == (zs.size, p.dim, p.dim)
    for k, z in enumerate(zs):
        one = spectral_eval(p, z)
        horner = p(z) @ p(1 / np.conj(z)).conj().T
        scale = np.linalg.norm(one)
        assert np.linalg.norm(batch[k] - one) <= 1e-13 * scale
        assert np.linalg.norm(batch[k] - horner) <= 1e-12 * scale


@pytest.mark.parametrize(
    "kind, shape",
    [("real", (5, 3, 3)), ("1x1", (4, 1, 1)), ("degree>=64", (70, 2, 2))],
)
def test_circle_spectrum_matches_spectral_eval(kind, shape):
    # the spectrum P P^H from one evaluation of p on the circle kernel's
    # half grid, z_0 .. z_32 of the 64th roots of unity, on which
    # verify_allpass evaluates a factor
    rng = np.random.default_rng(44)
    p = PolyMatrix(rng.standard_normal(shape))
    zs, P = _on_circle(p.coeffs, 64)
    np.testing.assert_allclose(zs, np.exp(2j * np.pi * np.arange(33) / 64), atol=1e-15)
    ref = spectral_eval(p, zs)
    got = P @ np.conj(P).transpose(0, 2, 1)
    assert got.shape == (33,) + shape[1:]
    scale = np.max(np.linalg.norm(ref, axis=(1, 2)))
    assert np.max(np.linalg.norm(got - ref, axis=(1, 2))) <= 1e-13 * scale
    # other grid sizes too
    five, P = _on_circle(p.coeffs, 5)
    got = P @ np.conj(P).transpose(0, 2, 1)
    assert got.shape == (3,) + shape[1:]
    np.testing.assert_allclose(got, spectral_eval(p, five), rtol=0, atol=1e-13 * scale)


def test_conv_coeffs_matches_double_loop():
    # the reference adds a[i] @ b[j] into out[i + j], i outer, j inner; the
    # batched version must give the same bits
    rng = np.random.default_rng(45)
    for la, lb, n, k in [(1, 1, 1, 1), (5, 3, 4, 2), (7, 2, 6, 1), (2, 6, 3, 3)]:
        a = rng.standard_normal((la, n, n))[:, :, :k]
        b = rng.standard_normal((lb, k, k)) + 1j * rng.standard_normal((lb, k, k))
        for rhs in (b.real.copy(), b):
            ref = np.zeros((la + lb - 1, n, k), dtype=rhs.dtype)
            for i in range(la):
                for j in range(lb):
                    ref[i + j] += a[i] @ rhs[j]
            np.testing.assert_array_equal(_conv_coeffs(a, rhs), ref)


def test_spectral_eval_shapes():
    rng = np.random.default_rng(42)
    p = PolyMatrix(rng.standard_normal((3, 2, 2)))
    zs = _spectral_points(rng)[:12]
    assert spectral_eval(p, 0.5j).shape == (2, 2)
    assert spectral_eval(p, np.complex128(0.5j)).shape == (2, 2)
    assert spectral_eval(p, zs).shape == (12, 2, 2)
    grid = spectral_eval(p, zs.reshape(3, 4))
    assert grid.shape == (3, 4, 2, 2)
    np.testing.assert_array_equal(grid.reshape(12, 2, 2), spectral_eval(p, zs))
    assert spectral_eval(ScalarPoly([1.0, -0.5]), np.ones(5)).shape == (5, 1, 1)


def test_spectral_eval_rejects_zero_anywhere():
    p = PolyMatrix(np.random.default_rng(43).standard_normal((2, 2, 2)))
    zs = np.exp(2j * np.pi * np.arange(8) / 8)
    with pytest.raises(ValueError):
        spectral_eval(p, 0.0)
    for shape in [(8,), (2, 4)]:
        bad = zs.copy()
        bad[5] = 0.0
        with pytest.raises(ValueError):
            spectral_eval(p, bad.reshape(shape))


def test_deconvolve_roundtrip():
    rng = np.random.default_rng(23)
    p = PolyMatrix(rng.standard_normal((3, 2, 2)))
    d = ScalarPoly(np.array([0.5, -1.5, 1.0]))
    q, resid = deconvolve(mul_scalar(p, d), d)
    assert resid < 1e-12
    np.testing.assert_allclose(q.coeffs, p.coeffs, atol=1e-12)


def test_deconvolve_reports_nonzero_residual():
    p = PolyMatrix(np.array([1.0, 1.0, 1.0]).reshape(3, 1, 1))
    d = ScalarPoly(np.array([-2.0, 1.0]))
    _, resid = deconvolve(p, d)
    # |d_0| > |d_1|, so the division runs from the low end:
    # z^2 + z + 1 = (-1/2 - 3z/4)(z - 2) + 7z^2/4
    assert resid == pytest.approx(1.75)


@pytest.mark.parametrize("a", [0.5, 50.0, 500.0])
def test_deconvolve_exact_for_roots_on_either_side(a):
    # dividing (z - a) from the high end would scale rounding by |a| per
    # coefficient; the low end keeps a root outside the circle exact too
    p = PolyMatrix(np.random.default_rng(0).standard_normal((4, 2, 2)))
    d = ScalarPoly(np.array([-a, 1.0]))
    prod = mul_scalar(p, d)
    q, resid = deconvolve(prod, d)
    assert resid <= 1e-15 * np.max(np.abs(prod.coeffs))
    np.testing.assert_allclose(q.coeffs, p.coeffs, rtol=0, atol=1e-14)


def test_deconvolve_exact_matrix_quotient():
    # ((1 - 2z) I2 (z - 2)) / (z - 2) recovers (1 - 2z) I2 without remainder
    base = PolyMatrix(np.stack([np.eye(2), -2.0 * np.eye(2)]))
    d = ScalarPoly(np.array([-2.0, 1.0]))
    q, resid = deconvolve(mul_scalar(base, d), d)
    assert resid == 0.0
    np.testing.assert_allclose(q.coeffs, base.coeffs, atol=1e-14)


def test_deconvolve_exact_entry_quotient():
    # (z^2 - z + 0.5)(1 + z) expanded by hand, divided back down
    p = PolyMatrix(np.array([0.5, -0.5, 0.0, 1.0]).reshape(4, 1, 1))
    q, resid = deconvolve(p, ScalarPoly(np.array([0.5, -1.0, 1.0])))
    assert resid < 1e-14
    np.testing.assert_allclose(q.coeffs.ravel(), [1.0, 1.0], atol=1e-14)


def test_deconvolve_rejects_degree_zero_divisor():
    p = PolyMatrix(np.ones((2, 1, 1)))
    with pytest.raises(ValueError):
        deconvolve(p, ScalarPoly(np.array([2.0])))


def test_deconvolve_rejects_divisor_beyond_dividend():
    p = PolyMatrix(np.eye(2)[None])
    with pytest.raises(ValueError):
        deconvolve(p, ScalarPoly(np.array([-1.0, 1.0])))


def test_trim_drops_tiny_leading_coefficients():
    coeffs = np.zeros((4, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = 2 * np.eye(2)
    coeffs[3] = 1e-15 * np.ones((2, 2))
    assert trimmed_length(coeffs, DEFAULTS.trim) == 2


def test_trim_is_scale_invariant():
    # trimming is relative to the largest coefficient, so a uniform rescale
    # must not change which degrees survive
    rng = np.random.default_rng(29)
    coeffs = rng.standard_normal((4, 2, 2))
    coeffs[3] *= 1e-14
    a = trimmed_length(coeffs, DEFAULTS.trim)
    b = trimmed_length(1e-30 * coeffs, DEFAULTS.trim)
    assert a == b == 3


def test_polymatrix_shape_validation():
    with pytest.raises(ValueError):
        PolyMatrix(np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        PolyMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        PolyMatrix(np.ones((0, 2, 2)))
    # a 0x0 stack reached the root finder, which died with an IndexError
    # taking the last singular value of an empty matrix
    with pytest.raises(ValueError, match=r"n >= 1"):
        PolyMatrix(np.zeros((2, 0, 0)))


def test_scalar_poly_refuses_complex():
    # PolyMatrix's refusal: test_roots.py::test_complex_coefficients_are_refused
    with pytest.raises(ValueError, match="3.000e-04"):
        ScalarPoly([1.0, 2.0 + 3e-4j])


def test_scalar_poly_zero_imaginary_storage_is_real():
    # PolyMatrix's: test_roots.py::test_complex_storage_of_real_input_gives_real_records
    s = ScalarPoly(np.array([1.0, -0.0, 2.5], dtype=complex))
    assert s.coeffs.dtype == np.float64
    np.testing.assert_array_equal(s.coeffs, [1.0, -0.0, 2.5])


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan_imag"]
)
def test_scalar_poly_refuses_non_finite(bad):
    # PolyMatrix's refusal: test_roots.py::test_non_finite_coefficients_are_refused
    with pytest.raises(ValueError, match="1 of 3 are NaN or infinite"):
        ScalarPoly([1.0, bad, 2.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6))
def test_eval_zero_is_constant_coefficient(coeffs):
    s = ScalarPoly(np.asarray(coeffs))
    assert s(0.0) == coeffs[0]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1000),
)
def test_mul_degree_additive(d1, d2, seed):
    rng = np.random.default_rng(seed)
    p = PolyMatrix(rng.uniform(0.5, 2.0, size=(d1 + 1, 2, 2)))
    q = PolyMatrix(rng.uniform(0.5, 2.0, size=(d2 + 1, 2, 2)))
    assert mul(p, q).degree == d1 + d2
