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
    b2_consecutive,
    b2_consecutive_from_w,
    b2_polynomial,
    build_b2,
    elementary,
    jsonio,
    squared,
    verify_allpass,
)
from allpass.errors import (
    AllPassError,
    CholeskyNotPD,
    DegenerateW,
    OnUnitCircle,
    ResidualTooLarge,
    ResonantEigenvalues,
)
from allpass.blaschke import _solve_identity, _unitary
from conftest import (
    CROSSING_ALPHA,
    CROSSING_W,
    RECIPROCAL_B,
    mirror_on_kernel,
    patch_consecutive,
    rand_alpha,
    rand_w,
)

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
    for alpha in [2.0, -0.3, 0.4]:
        V = elementary(alpha)
        for z in circle_samples(16):
            assert abs(abs(V(z)[0, 0]) - 1.0) < 1e-12


def test_elementary_rejects_circle_alpha():
    with pytest.raises(OnUnitCircle):
        elementary(np.exp(0.4j))
    with pytest.raises(OnUnitCircle):
        elementary(-1.0)


def test_elementary_refuses_complex_alpha():
    # the factor for a complex root had complex coefficients; a pair takes
    # squared or a 2x2 factor, and only the circle test comes first
    with pytest.raises(ValueError, match="real alpha"):
        elementary(0.3 - 0.4j)
    with pytest.raises(OnUnitCircle):
        elementary(np.exp(0.4j))


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
    M = np.array(_unitary(0.7, -0.4)).reshape(2, 2)
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
    # the all-pass identity solved from A, as b2_polynomial solves it
    B, T, G = _solve_identity(0.5 * np.eye(2))
    np.testing.assert_allclose(G, (4.0 / 3.0) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(B, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(T, 2.0 * np.eye(2), atol=1e-12)


def test_allpass_from_A_closed_form_outside():
    # the same Stein set-up: G = 4 G + I has the negative definite solution
    B, T, G = _solve_identity(2.0 * np.eye(2))
    np.testing.assert_allclose(G, -np.eye(2) / 3.0, atol=1e-12)
    np.testing.assert_allclose(B, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(T, 0.5 * np.eye(2), atol=1e-12)


def test_allpass_from_A_reciprocal_spectrum():
    rng = np.random.default_rng(71)
    for _ in range(10):
        alpha = rand_alpha(rng, "inside")
        lam = 1.0 / alpha
        A = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
        B, _, _ = _solve_identity(A)
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
    factors += [elementary(-0.4), squared(0.2 + 0.7j), elementary(0.3)]
    # corrupted copies of a 2x2 and a scalar factor
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
    # 1/(z + 1) has its pole at -1, on the grid for even sample counts: the
    # report carries the non-finite residual and is not ok; the poles are
    # judged where a factor enters, not here
    V = RationalAllPass(
        num=PolyMatrix(np.array([[[1.0]]])),
        den=ScalarPoly([1.0, 1.0]),
        alpha=-1.0 + 0j,
        method="elementary",
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = verify_allpass(V, n_samples=8)
    assert not rep.ok and not rep.max_residual < 1e12
    assert verify_allpass(V, n_samples=7).max_residual > 1.0
    # the removable (1 + z) / (1 + z) is 1 at every grid point
    V = dataclasses.replace(V, num=PolyMatrix(np.array([[[1.0]], [[1.0]]])))
    assert verify_allpass(V, n_samples=8).ok


def test_rational_allpass_rejects_circle_pole():
    # a factor read from JSON has its poles judged with the circle band of
    # roots; one whose denominator has roots e^{+-0.05i} is refused
    V = b2_polynomial(0.5 + 0.5j, np.array([1.0, 1.0j]) / np.sqrt(2))
    doc = jsonio.allpass_to_json(V)
    doc["den"] = jsonio.scalar_to_json(ScalarPoly([1.0, -2.0 * np.cos(0.05), 1.0]))
    with pytest.raises(OnUnitCircle) as info:
        jsonio.allpass_from_json(doc)
    assert info.value.value <= 1e-15 and info.value.bound == DEFAULTS.circle
    assert jsonio.allpass_from_json(jsonio.allpass_to_json(V)).den.degree == 2
    # V(z) itself divides directly: at its own pole alpha it is huge
    assert np.abs(V(0.5 + 0.5j)).max() > 1e12


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
    assert exc.value.value == pytest.approx(2e-4, rel=1e-12)
    assert exc.value.bound == 1e-3


def kernel_direction(ratio, t1, t2):
    """``w`` whose ``[Re w, Im w]`` is ``rot(t1) diag(1, ratio) rot(t2)``."""
    rot1 = np.array([[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]])
    rot2 = np.array([[np.cos(t2), -np.sin(t2)], [np.sin(t2), np.cos(t2)]])
    W = rot1 @ np.diag([1.0, ratio]) @ rot2
    return W[:, 0] + 1j * W[:, 1]


@pytest.mark.parametrize("ratio", [1e-7, 3e-8])
def test_consecutive_builds_where_classify_calls_generic(ratio):
    # classify calls a pair generic above DEFAULTS.degenerate = 1e-8; the
    # consecutive construction must build there too
    rng = np.random.default_rng(97)
    for k in range(10):
        side = "inside" if k % 2 else "outside"
        w = kernel_direction(ratio, *rng.uniform(0.0, 2.0 * np.pi, size=2))
        w /= np.linalg.norm(w)
        V = b2_consecutive(rand_alpha(rng, side), w)
        assert verify_allpass(V).max_residual <= 1e-12


def test_verify_allpass_ok_honours_tol():
    V = b2_polynomial(0.5 + 0.5j, W_GENERIC)
    worst = verify_allpass(V).max_residual
    assert worst > 0.0
    assert verify_allpass(V, tol=Tolerances(allpass=worst)).ok
    assert not verify_allpass(V, tol=Tolerances(allpass=0.5 * worst)).ok


@settings(max_examples=200, deadline=None)
@given(
    log_r=st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 0.01),
    theta=st.floats(0.01, np.pi - 0.01),
    log_ratio=st.floats(-7.99, 0.0),
    t1=st.floats(0.0, 2.0 * np.pi),
    t2=st.floats(0.0, 2.0 * np.pi),
)
def test_consecutive_property(log_r, theta, log_ratio, t1, t2):
    # |alpha| in [1e-3, 1e3] outside a band around the circle, sigma2/sigma1
    # of [Re w, Im w] in [1e-8, 1]
    alpha = complex(10.0**log_r * np.exp(1j * theta))
    w = kernel_direction(10.0**log_ratio, t1, t2)
    V = b2_consecutive(alpha, w)
    assert verify_allpass(V, 64).max_residual <= DEFAULTS.allpass
    assert V.num.coeffs.dtype == np.float64
    # the mirror certificate bounds the residue relative to the coefficients,
    # which grow like |alpha|^2 (see
    # test_consecutive_residue_is_relative_to_coefficients)
    assert V.max_imag_pre <= DEFAULTS.residual * max(1.0, np.abs(V.num.coeffs).max())
    # both columns of num(alpha) along w: the component off w, relative
    N = V.num(alpha)
    off = np.abs(w[0] * N[1] - w[1] * N[0]) / np.linalg.norm(w)
    assert np.max(off) <= 1e-8 * np.linalg.norm(N)
    np.testing.assert_array_equal(
        V.den.coeffs, [abs(alpha) ** 2, -2.0 * alpha.real, 1.0]
    )


# (method, alpha, w, numerator coefficients): one pair inside the circle,
# one outside, one at sigma2/sigma1 = 1e-4, drawn from seeded generators.
# The polynomial route's factor for the last is off the identity on the
# circle by 1.8e-5, so that entry pins its verify_allpass residual instead.
# Both routes run on Python floats (the 2x2 kit of allpass.statespace), so
# the literals hold the routes to their arithmetic on any IEEE double
# platform; the residual also goes through numpy's evaluation on the grid.
# They were recorded with Python 3.11.7 and numpy 2.4.6 (OpenBLAS, x86-64).
PINNED_ROUTES = [
    (
        "polynomial",  # inside, seed 1
        (-0.020860437750470483+0.5996372587963983j),
        [(-0.010536891010107612+0.6806023827199662j), (-0.726772415526818-0.5084006555789041j)],
        [
            [[0.5016622424845957, -0.2794423728189735], [0.0, 0.7176143020391937]],
            [[-0.07495444601382943, -0.5300935113003689], [0.5300935113003689, -0.07495444601382946]],
            [[0.7176143020391929, -0.0], [0.27944237281897344, 0.5016622424845963]],
        ],
    ),
    (
        "polynomial",  # outside, seed 2
        (1.6129139797609617+1.910106932580387j),
        [(0.4473284802720984-0.2877032376898761j), (0.751342635160165+0.6345142412513667j)],
        [
            [[3.7729466475212496, 0.11496233669081855], [0.0, 1.656530182876062]],
            [[-4.38732544293763, 3.771923447195987], [-3.7719234471959866, -4.38732544293763]],
            [[1.6565301828760617, -9.75781955236954e-17], [-0.1149623366908183, 3.7729466475212496]],
        ],
    ),
    (
        "polynomial",  # ratio, seed 3: not all-pass
        (2.8161120410750398+1.0341726026694835j),
        [(0.6646549659239303+0.7149822232675986j), (0.14758551515904844+0.1589110518473109j)],
        1.785128851140067e-05,
    ),
    (
        "statespace",  # inside, seed 1
        (-0.020860437750470483+0.5996372587963983j),
        [(-0.010536891010107612+0.6806023827199662j), (-0.726772415526818-0.5084006555789041j)],
        [
            [[0.5016622424845959, -0.2794423728189735], [0.0, 0.7176143020391935]],
            [[-0.07495444601382929, -0.5300935113003685], [0.5300935113003689, -0.0749544460138294]],
            [[0.7176143020391933, 1.5987211554602254e-16], [0.27944237281897355, 0.5016622424845959]],
        ],
    ),
    (
        "statespace",  # outside, seed 2
        (1.6129139797609617+1.910106932580387j),
        [(0.4473284802720984-0.2877032376898761j), (0.751342635160165+0.6345142412513667j)],
        [
            [[3.7729466475212496, 0.11496233669081814], [0.0, 1.656530182876062]],
            [[-4.38732544293763, 3.771923447195987], [-3.771923447195987, -4.387325442937633]],
            [[1.6565301828760624, -7.047314121155779e-17], [-0.11496233669081801, 3.7729466475212505]],
        ],
    ),
    (
        "statespace",  # ratio, seed 3
        (2.8161120410750398+1.0341726026694835j),
        [(0.6646549659239303+0.7149822232675986j), (0.14758551515904844+0.1589110518473109j)],
        [
            [[1.0241178501689672, -1.929067036146178], [0.0, 8.78805110028606]],
            [[-5.525416798727653, 1.091676769776619], [-1.0916767697766208, -5.52541679872766]],
            [[8.788051100286074, 3.0600522116230877e-15], [1.9290670361461812, 1.0241178501689692]],
        ],
    ),
]


@pytest.mark.parametrize(
    "method, alpha, w, coeffs", PINNED_ROUTES,
    ids=[f"{m}-{k}" for m in ("polynomial", "statespace")
         for k in ("inside", "outside", "ratio")],
)
def test_routes_pinned_bit_for_bit(method, alpha, w, coeffs):
    def build():
        return PAIR_CONSTRUCTIONS[method](alpha, np.array(w))

    if isinstance(coeffs, float):
        assert verify_allpass(build(), 64).max_residual == coeffs > DEFAULTS.allpass
        # the other routes build the same pair to roundoff
        for make in (b2_consecutive, PAIR_CONSTRUCTIONS["statespace"]):
            assert verify_allpass(make(alpha, np.array(w)), 64).max_residual <= 1e-14
    else:
        np.testing.assert_array_equal(build().num.coeffs, np.array(coeffs))


def test_polynomial_reciprocal_check_is_typed():
    # at sigma2/sigma1 near 1e-5 the entries of A reach 1e5 and B = Gamma0^-1
    # A^-T Gamma0 (similar to A^-1 in exact arithmetic) comes out with
    # B' Gamma0 B - Gamma0 indefinite, an eigenvalue of -5.7 against 48:
    # the T'T Cholesky refuses the pair, which the consecutive factor keeps
    alpha = 0.5655611953367762 + 0.20035102777185076j
    w = [
        0.03480844806410672 + 0.28485272861234023j,
        -0.11622856730779756 - 0.950861827547541j,
    ]
    with pytest.raises(CholeskyNotPD, match="T'T") as exc:
        mirror_on_kernel(alpha, w, "polynomial")
    assert exc.value.bound == 0.0
    assert exc.value.value == pytest.approx(-5.67, abs=0.01)
    _, report = mirror_on_kernel(alpha, w, "consecutive")
    assert report.spectral_dev <= 1e-14
    # at sigma2/sigma1 = 2.2e-4 the factor builds but is not all-pass, and
    # the mirror certificate refuses the step's output, whose spectrum it
    # bounds 8.7e-2 off the input's
    alpha, w = RECIPROCAL_B
    assert verify_allpass(b2_polynomial(alpha, w), 64).max_residual > 1e-3
    with pytest.raises(ResidualTooLarge, match="spectral_dev") as exc:
        mirror_on_kernel(alpha, w, "polynomial")
    assert exc.value.bound == DEFAULTS.residual
    assert exc.value.value == pytest.approx(8.68e-2, rel=0.05)


def test_polynomial_band_crossing_is_typed():
    # the ratio 1.6e-8 passes check_pair, but rounding in inv([Re w, Im w])
    # moves A's eigenvalues from 1/|alpha| = 1.039 to 0.974, inside the
    # circle; A's entries reach 3.6e7, and det A, 1.08 in exact arithmetic,
    # rounds to 1: the resonance test refuses it with its bound
    with pytest.raises(ResonantEigenvalues, match="within 1.0e-08") as exc:
        b2_polynomial(CROSSING_ALPHA, CROSSING_W)
    assert (exc.value.value, exc.value.bound) == (0.0, DEFAULTS.circle)
    # the other routes build the same pair to roundoff
    for make in (b2_consecutive, PAIR_CONSTRUCTIONS["statespace"]):
        V = make(CROSSING_ALPHA, CROSSING_W)
        assert verify_allpass(V, 64).max_residual <= 1e-13


def assert_tripped(exc):
    """A refusal's ``value`` lies at or below its ``bound``: a smallest
    eigenvalue or a distance from resonance."""
    assert exc.value <= exc.bound, exc


def test_pair_routes_return_all_pass_or_refuse():
    # |alpha| = 10^U(-3, 3), arg alpha in (0.02, pi - 0.02), sigma2/sigma1 of
    # [Re w, Im w] = 10^U(-8, 0): the consecutive route builds every pair of
    # these 300 to tol.allpass; the polynomial and state-space routes refuse
    # 79 and 0 with the number that tripped, and return 122 and 65 factors
    # that fail V V^H = I, which a direct caller finds with verify_allpass
    # and the mirror certificate through the output
    rng = np.random.default_rng(20261019)
    refused = {name: 0 for name in PAIR_CONSTRUCTIONS}
    failed = dict(refused)
    for _ in range(300):
        alpha = 10.0 ** rng.uniform(-3, 3) * np.exp(1j * rng.uniform(0.02, np.pi - 0.02))
        w = kernel_direction(10.0 ** rng.uniform(-8, 0), *rng.uniform(0, 2 * np.pi, 2))
        for name, make in PAIR_CONSTRUCTIONS.items():
            try:
                V = make(alpha, w)
            except AllPassError as exc:
                assert_tripped(exc)
                refused[name] += 1
                continue
            failed[name] += not verify_allpass(V, 64).ok
    assert refused["consecutive"] == failed["consecutive"] == 0
    assert min(failed["polynomial"], failed["statespace"]) >= 30


def test_certificate_refuses_a_nan_residual():
    # a numerator so large that V V^H overflows leaves a NaN residual, which
    # compares false against any bound and must still fail the direct
    # caller's certificate, verify_allpass
    V = b2_polynomial(0.5j, W_GENERIC)
    V = dataclasses.replace(V, num=PolyMatrix(1e300 * np.eye(2)[None]))
    with np.errstate(all="ignore"):
        rep = verify_allpass(V, 64)
    assert np.isnan(rep.max_residual) and not rep.ok


def test_consecutive_residue_is_relative_to_coefficients():
    # the coefficients grow like |alpha|^2 and the imaginary residue with
    # them; against an absolute bound of 1e-8, 59 of these 500 pairs were
    # refused although every one builds to roundoff
    rng = np.random.default_rng(4)
    above_absolute = 0
    for _ in range(500):
        alpha = rng.uniform(3e3, 1e4) * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        V = b2_consecutive(alpha, w)
        assert verify_allpass(V, 64).max_residual <= 1e-14
        largest = np.abs(V.num.coeffs).max()
        assert V.max_imag_pre <= 1e-15 * largest
        above_absolute += V.max_imag_pre > DEFAULTS.residual
    assert above_absolute >= 50
    # inside the property's domain: Re w nearly along the axis of rotation
    # at |alpha| = 1e3, residue 2.8e-8, as b2_polynomial and build_b2 build it
    alpha = 1e3 * np.exp(0.01j)
    w = kernel_direction(1e-4, 0.0, np.pi / 2 + 1e-4)
    V = b2_consecutive(alpha, w)
    assert V.max_imag_pre > DEFAULTS.residual
    assert verify_allpass(V, 64).max_residual <= 1e-14
    for make in (b2_polynomial, lambda a, w: build_b2(a, w)[1]):
        assert verify_allpass(make(alpha, w), 64).max_residual <= 1e-10


def test_consecutive_residue_is_reported_not_judged(monkeypatch):
    # the report gives the residue relative to the factor's largest
    # coefficient, which exceeds 1e6 at |alpha| = 3e3; the certificate
    # judges the output, not the factor, so a residue of 2e-8 of it, above
    # tol.residual, is reported and the step returns
    alpha = 3e3 * np.exp(1.0j)
    largest = np.abs(b2_consecutive(alpha, W_GENERIC).num.coeffs).max()
    assert largest > 1e6
    patch_consecutive(monkeypatch, lambda V: dataclasses.replace(V, max_imag_pre=2e-8 * largest))
    _, report = mirror_on_kernel(alpha, W_GENERIC, "consecutive")
    assert report.max_imag == pytest.approx(2e-8, rel=1e-12)
    assert report.max_imag > DEFAULTS.residual
    assert report.spectral_dev <= 1e-12


def test_consecutive_route_makes_no_lapack_call(monkeypatch):
    # the input check takes sigma2/sigma1 of [Re w, Im w] without an SVD,
    # and the construction runs on Python scalars
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call")

    for name in ("svd", "qr", "eig", "eigvals", "solve", "inv", "cholesky", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    V = b2_consecutive(0.4 + 0.5j, np.array([0.8, 0.3 + 0.5j]))
    assert V.num.coeffs.shape == (3, 2, 2)
    with pytest.raises(DegenerateW):
        b2_consecutive(0.4 + 0.5j, np.array([1.0, 1e-9j]))
