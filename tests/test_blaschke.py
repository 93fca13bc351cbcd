"""All-pass factor constructions and their defining identities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from allpass import (
    DEFAULTS,
    PolyMatrix,
    RationalAllPass,
    ScalarPoly,
    Tolerances,
    UnitaryParam,
    allpass_from_A,
    b2_consecutive,
    b2_consecutive_from_w,
    b2_polynomial,
    build_b2,
    elementary,
    squared,
    verify_allpass,
)
from allpass.errors import DegenerateW, OnUnitCircle
from conftest import rand_alpha, rand_w

PAIR_CONSTRUCTIONS = {
    "consecutive": b2_consecutive,
    "polynomial": b2_polynomial,
    "statespace": lambda alpha, w, tol=DEFAULTS: build_b2(alpha, w, tol)[1],
}
W_GENERIC = np.array([1.0, 1.0j]) / np.sqrt(2)


def circle_samples(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_elementary_real_values():
    V = elementary(2.0)
    # (1 - 2z)/(z - 2) at z = 1 is 1, at z = -1 is -3/-3 = 1... check directly
    for z in [1.0, -1.0, 0.5j, np.exp(0.3j)]:
        expect = (1 - 2 * z) / (z - 2)
        np.testing.assert_allclose(V(z)[0, 0], expect, atol=1e-14)


def test_elementary_alpha_zero_is_reciprocal():
    V = elementary(0.0)
    np.testing.assert_array_equal(V.num.coeffs.ravel(), [1.0])
    np.testing.assert_array_equal(V.den.coeffs, [0.0, 1.0])
    assert V(2.0)[0, 0] == pytest.approx(0.5)


def test_elementary_unit_modulus_on_circle():
    for alpha in [2.0, -0.3, 0.4 + 0.7j]:
        V = elementary(alpha)
        for z in circle_samples(16):
            assert abs(abs(V(z)[0, 0]) - 1.0) < 1e-12


def test_elementary_rejects_circle_alpha():
    with pytest.raises(OnUnitCircle):
        elementary(np.exp(0.4j))
    with pytest.raises(OnUnitCircle):
        elementary(-1.0)


def test_squared_real_coefficients_and_roots():
    alpha = 0.5 + 0.5j
    V = squared(alpha)
    assert not np.iscomplexobj(V.num.coeffs)
    assert not np.iscomplexobj(V.den.coeffs)
    np.testing.assert_allclose(V.den.coeffs, [0.5, -1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(V.num.coeffs[:, 0, 0], [1.0, -1.0, 0.5], atol=1e-14)
    # numerator vanishes at the mirror targets 1/conj(alpha) = 1 +- i
    num = np.poly1d(V.num.coeffs[::-1, 0, 0])
    assert abs(num(1.0 + 1.0j)) < 1e-13
    assert abs(num(1.0 - 1.0j)) < 1e-13


def test_squared_value_at_one():
    # both numerator and denominator hit 0.5 at z = 1
    assert squared(0.5 + 0.5j)(1.0)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_squared_requires_upper_half_alpha():
    with pytest.raises(ValueError):
        squared(0.5 - 0.5j)
    with pytest.raises(ValueError):
        squared(0.7)


def test_squared_is_allpass_both_sides():
    for alpha in [0.3 + 0.4j, 1.5 + 2.0j]:
        rep = verify_allpass(squared(alpha))
        assert rep.max_residual < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
@example(re=1e-12, im=0.0, theta=0.0)
def test_scalar_factor_unit_modulus_property(re, im, theta):
    alpha = complex(re, im)
    assume(abs(alpha) < 0.95)
    # real roots take the elementary factor, pairs the squared one
    V = squared(alpha) if im > 1e-3 else elementary(complex(re, 0.0))
    z = np.exp(1j * theta)
    assert abs(abs(V(z)[0, 0]) - 1.0) < 1e-12


def test_unitary_param_matrix():
    u = UnitaryParam(0.7, -0.4)
    M = u.matrix()
    np.testing.assert_allclose(M @ M.conj().T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.linalg.det(M), 1.0, atol=1e-14)
    assert M[0, 0] == pytest.approx(np.cos(0.7) * np.exp(-0.4j))
    assert M[1, 0] == pytest.approx(np.sin(0.7))


def test_consecutive_worked_fixture():
    alpha = 0.5 + 0.5j
    # [Re w, Im w] is already the positive-diagonal R = I/sqrt(2), so Q1 = I
    w = np.array([1.0, 1.0j]) / np.sqrt(2)
    V = b2_consecutive(alpha, w)
    assert isinstance(V, RationalAllPass)
    assert V.method == "consecutive"
    rep = verify_allpass(V)
    assert rep.max_residual < 1e-12
    # normalized to the identity at z = 1
    np.testing.assert_allclose(V(1.0), np.eye(2), atol=1e-12)


def test_consecutive_w_validation():
    alpha = 0.5 + 0.5j
    with pytest.raises(ValueError):
        b2_consecutive(alpha, np.array([1.0, 1.0j, 0.0]))  # not a 2-vector
    with pytest.raises(DegenerateW):
        b2_consecutive(alpha, np.zeros(2, dtype=complex))
    bad = np.array([1.0, 1e-9j])
    bad /= np.linalg.norm(bad)
    with pytest.raises(DegenerateW):
        b2_consecutive(alpha, bad)
    # the scale of w does not matter; its sign flips Q1 and so the factor
    w = np.array([0.6 - 0.3j, -0.2 + 0.7j])
    ref = b2_consecutive(alpha, w / np.linalg.norm(w))
    for other, sign in [(3.0 * w, 1.0), (-w, -1.0)]:
        V = b2_consecutive(alpha, other)
        np.testing.assert_allclose(V.num.coeffs, sign * ref.num.coeffs, atol=1e-13)
        assert verify_allpass(V).max_residual < 1e-12


def test_consecutive_realness_residue_small():
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(20):
        side = "inside" if rng.uniform() < 0.5 else "outside"
        V = b2_consecutive_from_w(rand_alpha(rng, side), rand_w(rng))
        worst = max(worst, V.max_imag_pre)
    assert worst < 1e-8


def test_polynomial_real_arithmetic_throughout():
    rng = np.random.default_rng(53)
    for _ in range(10):
        V = b2_polynomial(rand_alpha(rng, "inside"), rand_w(rng))
        assert V.max_imag_pre == 0.0
        assert not np.iscomplexobj(V.num.coeffs)


def test_polynomial_denominator_is_pair_quadratic():
    alpha = rand_alpha(np.random.default_rng(59), "outside")
    V = b2_polynomial(alpha, rand_w(np.random.default_rng(60)))
    expect = [abs(alpha) ** 2, -2 * alpha.real, 1.0]
    np.testing.assert_allclose(V.den.coeffs, expect, atol=1e-12)


def test_polynomial_v0_upper_triangular_positive():
    rng = np.random.default_rng(61)
    V = b2_polynomial(rand_alpha(rng, "inside"), rand_w(rng))
    V0 = V(0.0)
    assert abs(V0[1, 0]) < 1e-12
    assert V0[0, 0].real > 0 and V0[1, 1].real > 0


def test_polynomial_rejects_degenerate_w():
    with pytest.raises(DegenerateW):
        b2_polynomial(0.5 + 0.5j, np.array([1.0 + 0j, 1.0 + 0j]))


def test_column_space_at_alpha_spanned_by_w():
    rng = np.random.default_rng(67)
    for make in [b2_polynomial, b2_consecutive_from_w]:
        alpha = rand_alpha(rng, "inside")
        w = rand_w(rng)
        V = make(alpha, w)
        N = V.num(alpha)
        s = np.linalg.svd(N, compute_uv=False)
        assert s[1] / s[0] < 1e-9
        u = np.linalg.svd(N)[0][:, 0]
        what = w / np.linalg.norm(w)
        # orthogonal component of u relative to span(w)
        assert np.linalg.norm(u - what * (what.conj() @ u)) < 1e-9


def test_num_determinant_vanishes_at_pair_and_mirrors():
    # det num factors as den(z) times the mirrored quadratic, so it is rank
    # deficient at alpha, conj(alpha) and at both reciprocals
    from allpass.polymat import det_poly, eval_poly
    from allpass.statespace import build_b2

    alpha = 0.5 + 0.5j
    w = np.array([1.0, 1.0j]) / np.sqrt(2)
    for V in [b2_polynomial(alpha, w), b2_consecutive_from_w(alpha, w), build_b2(alpha, w)[1]]:
        d = det_poly(V.num)
        # hand expansion of (1 - z + 0.5 z^2)(0.5 - z + z^2) up to a constant
        expect = np.array([0.5, -1.5, 2.25, -1.5, 0.5])
        ratio = d.coeffs[0] / expect[0]
        np.testing.assert_allclose(d.coeffs, ratio * expect, atol=1e-10 * abs(ratio))
        scale = max(abs(eval_poly(d, z)) for z in circle_samples(16))
        for zeta in [alpha, np.conj(alpha), 1 / alpha, 1 / np.conj(alpha)]:
            assert abs(eval_poly(d, zeta)) < 1e-7 * scale


def test_allpass_from_A_closed_form_inside():
    B, T, G = allpass_from_A(0.5 * np.eye(2), "eigs_inside")
    np.testing.assert_allclose(G, (4.0 / 3.0) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(B, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(T, 2.0 * np.eye(2), atol=1e-12)


def test_allpass_from_A_closed_form_outside():
    B, T, G = allpass_from_A(2.0 * np.eye(2), "eigs_outside")
    np.testing.assert_allclose(G, np.eye(2) / 3.0, atol=1e-12)
    np.testing.assert_allclose(B, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(T, 0.5 * np.eye(2), atol=1e-12)


def test_allpass_from_A_direction_validation():
    with pytest.raises(ValueError):
        allpass_from_A(0.5 * np.eye(2), "eigs_outside")
    with pytest.raises(ValueError):
        allpass_from_A(2.0 * np.eye(2), "eigs_inside")
    with pytest.raises(ValueError):
        allpass_from_A(np.eye(2), "sideways")


def test_allpass_from_A_reciprocal_spectrum():
    rng = np.random.default_rng(71)
    for _ in range(10):
        alpha = rand_alpha(rng, "inside")
        lam = 1.0 / alpha
        A = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
        B, _, _ = allpass_from_A(A, "eigs_outside")
        eb = np.sort_complex(np.linalg.eigvals(B))
        ea = np.sort_complex(1.0 / np.linalg.eigvals(A))
        np.testing.assert_allclose(eb, ea, atol=1e-10)


@pytest.mark.parametrize("side", ["inside", "outside"])
def test_constructions_are_allpass(side):
    rng = np.random.default_rng(73 if side == "inside" else 79)
    for _ in range(15):
        alpha = rand_alpha(rng, side)
        w = rand_w(rng)
        for make in [b2_polynomial, b2_consecutive_from_w]:
            rep = verify_allpass(make(alpha, w))
            assert rep.max_residual < 1e-9
            assert rep.det_modulus_dev < 1e-9


def test_poly_and_statespace_coefficients_agree():
    # both normalizations pin V(0) upper triangular with positive diagonal,
    # so the two constructions produce the same representative
    from allpass import build_b2

    rng = np.random.default_rng(83)
    for _ in range(10):
        side = "inside" if rng.uniform() < 0.5 else "outside"
        alpha = rand_alpha(rng, side)
        w = rand_w(rng)
        Vp = b2_polynomial(alpha, w)
        _, Vs = build_b2(alpha, w)
        scale = np.max(np.abs(Vp.num.coeffs))
        np.testing.assert_allclose(Vs.num.coeffs, Vp.num.coeffs, atol=1e-9 * scale)
        np.testing.assert_allclose(Vs.den.coeffs, Vp.den.coeffs, atol=1e-12)


def test_consecutive_vs_polynomial_left_quotient_constant():
    rng = np.random.default_rng(89)
    alpha = rand_alpha(rng, "inside")
    w = rand_w(rng)
    Vc = b2_consecutive_from_w(alpha, w)
    Vp = b2_polynomial(alpha, w)
    zs = circle_samples(16)
    prods = np.stack([np.linalg.solve(Vp(z), Vc(z)) for z in zs])
    mean = prods.mean(axis=0)
    assert np.max(np.abs(prods - mean)) < 1e-8
    M = mean.real
    np.testing.assert_allclose(M.T @ M, np.eye(2), atol=1e-8)


def test_verify_allpass_flags_corruption():
    V = b2_polynomial(0.5 + 0.5j, np.array([1.0, 1.0j]) / np.sqrt(2))
    bad_num = V.num.coeffs.copy()
    bad_num[0, 0, 0] += 0.01
    from allpass import PolyMatrix

    bad = RationalAllPass(
        num=PolyMatrix(bad_num), den=V.den, alpha=V.alpha, method=V.method
    )
    rep = verify_allpass(bad)
    assert rep.max_residual > 1e-4
    assert not rep.ok


def test_verify_allpass_identity_factor():
    from allpass import PolyMatrix
    from allpass.polymat import ScalarPoly

    V = RationalAllPass(
        num=PolyMatrix(np.eye(2)[None]),
        den=ScalarPoly(np.array([1.0])),
        alpha=0.0j,
        method="polynomial",
    )
    rep = verify_allpass(V)
    assert rep.max_residual < 1e-15
    assert rep.max_imag == 0.0
    assert rep.det_modulus_dev < 1e-15
    assert rep.ok


def _verify_pointwise(V, n_samples):
    """Reference: the identity checked one sample at a time through V(z)."""
    worst = det_dev = 0.0
    for z in circle_samples(n_samples):
        M = V(z)
        worst = max(worst, float(np.linalg.norm(M @ M.conj().T - np.eye(V.dim))))
        det_dev = max(det_dev, abs(abs(np.linalg.det(M)) - 1.0))
    return worst, det_dev


@pytest.mark.parametrize("n_samples", [1, 2, 7, 32, 64])
def test_verify_allpass_matches_pointwise_reference(n_samples):
    w = np.array([0.8, 0.3 + 0.5j])
    factors = [make(0.3 + 0.6j, w) for make in PAIR_CONSTRUCTIONS.values()]
    factors += [make(2.0 + 1.5j, w) for make in PAIR_CONSTRUCTIONS.values()]
    factors += [elementary(-0.4), squared(0.2 + 0.7j), elementary(0.3 - 0.4j)]
    # corrupted copies, one of them complex so the residual is not symmetric
    # under z -> conj(z)
    for V in (factors[1], factors[-1]):
        bad = V.num.coeffs.copy()
        bad[1, 0, -1] += 0.05
        factors.append(dataclasses.replace(V, num=type(V.num)(bad)))
    for V in factors:
        worst, det_dev = _verify_pointwise(V, n_samples)
        rep = verify_allpass(V, n_samples=n_samples)
        assert rep.n_samples == n_samples
        assert abs(rep.max_residual - worst) <= 1e-13
        assert abs(rep.det_modulus_dev - det_dev) <= 1e-13


def test_verify_allpass_rejects_pole_on_grid():
    # den = z + 1 vanishes at -1, which is on the grid for even sample counts
    V = RationalAllPass(
        num=PolyMatrix(np.array([[[1.0]], [[1.0]]])),
        den=ScalarPoly([1.0, 1.0]),
        alpha=-1.0 + 0j,
        method="elementary",
    )
    with pytest.raises(ZeroDivisionError):
        verify_allpass(V, n_samples=8)
    with pytest.raises(ZeroDivisionError):
        V(-1.0)
    assert verify_allpass(V, n_samples=7).max_residual < 1e-14


def test_rational_allpass_rejects_circle_pole():
    V = b2_polynomial(0.5 + 0.5j, np.array([1.0, 1.0j]) / np.sqrt(2))
    with pytest.raises(ZeroDivisionError):
        V(0.5 + 0.5j)


@pytest.mark.parametrize("method", sorted(PAIR_CONSTRUCTIONS))
@pytest.mark.parametrize(
    "alpha, w, tol, error",
    [
        (0.5 - 0.5j, W_GENERIC, DEFAULTS, ValueError),
        (0.93j, W_GENERIC, Tolerances(circle=0.2), OnUnitCircle),
        (1.15 + 0.3j, W_GENERIC, Tolerances(circle=0.2), OnUnitCircle),
        (0.5 + 0.5j, np.array([1.0, 1e-3j]), Tolerances(degenerate=1e-3), DegenerateW),
        (0.5 + 0.5j, np.array([1.0, 1e-9j]), DEFAULTS, DegenerateW),
        (0.5 + 0.5j, np.zeros(2, dtype=complex), DEFAULTS, DegenerateW),
    ],
    ids=["lower-half", "circle-inside", "circle-outside", "ratio-at-tol",
         "ratio-below-tol", "zero-w"],
)
def test_pair_constructions_reject_alike(method, alpha, w, tol, error):
    with pytest.raises(error):
        PAIR_CONSTRUCTIONS[method](alpha, w, tol)


@pytest.mark.parametrize("method", sorted(PAIR_CONSTRUCTIONS))
def test_pair_constructions_accept_alike(method):
    # just outside a wide circle band on either side, and just above a
    # raised degeneracy bound: every construction builds an all-pass factor
    tol = Tolerances(circle=0.2, degenerate=1e-3)
    make = PAIR_CONSTRUCTIONS[method]
    for alpha in [0.79 * np.exp(0.9j), 1.21 * np.exp(2.2j)]:
        V = make(alpha, np.array([1.0, 1.1e-3j]), tol)
        assert verify_allpass(V).max_residual < 1e-9


def test_degenerate_w_carries_ratio():
    with pytest.raises(DegenerateW) as exc:
        b2_consecutive(0.5 + 0.5j, np.array([1.0, 2e-4j]), Tolerances(degenerate=1e-3))
    assert exc.value.ratio == pytest.approx(2e-4, rel=1e-12)
    assert exc.value.tol == 1e-3


@pytest.mark.parametrize("ratio", [1e-7, 3e-8])
def test_consecutive_builds_where_classify_calls_generic(ratio):
    # classify calls a pair generic above DEFAULTS.degenerate = 1e-8; the
    # consecutive construction must build there too
    rng = np.random.default_rng(97)
    for k in range(10):
        side = "inside" if k % 2 else "outside"
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        rot1 = np.array([[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]])
        rot2 = np.array([[np.cos(t2), -np.sin(t2)], [np.sin(t2), np.cos(t2)]])
        W = rot1 @ np.diag([1.0, ratio]) @ rot2
        w = (W[:, 0] + 1j * W[:, 1]) / np.linalg.norm(W)
        V = b2_consecutive(rand_alpha(rng, side), w)
        assert verify_allpass(V).max_residual <= 1e-12


def test_verify_allpass_ok_honours_tol():
    V = b2_polynomial(0.5 + 0.5j, W_GENERIC)
    worst = verify_allpass(V).max_residual
    assert worst > 0.0
    assert verify_allpass(V, tol=worst).ok
    assert not verify_allpass(V, tol=0.5 * worst).ok
