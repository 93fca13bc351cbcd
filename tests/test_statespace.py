"""State-space realizations, the Stein solver, and the structural test."""

import numpy as np
import pytest

from allpass import (
    DEFAULTS,
    StateSpace,
    Tolerances,
    build_b2,
    solve_stein,
    structural_blocks,
    verify_allpass,
)
from allpass.errors import (
    CholeskyNotPD,
    DegenerateW,
    OnUnitCircle,
    ResidualTooLarge,
    ResonantEigenvalues,
)
from conftest import mirror_on_kernel, rand_alpha, rand_w, small_pair
from reference import kron_stein, ss_eval, ss_product, ss_star, state_transform


def random_ss(rng, n, p, m):
    return StateSpace(
        A=rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        D=rng.standard_normal((p, m)),
    )


def test_statespace_shape_validation():
    with pytest.raises(ValueError):
        StateSpace(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)), D=np.ones((1, 1)))
    with pytest.raises(ValueError):
        StateSpace(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 3)), D=np.ones((1, 1)))


def test_ss_eval_direct_formula():
    rng = np.random.default_rng(5)
    s = random_ss(rng, 3, 2, 2)
    for z in [0.4, -1.3, 0.2 + 0.7j]:
        expect = s.C @ np.linalg.solve(np.eye(3) / z - s.A, s.B) + s.D
        np.testing.assert_allclose(ss_eval(s, z), expect, atol=1e-12)


def test_ss_eval_at_zero_is_feedthrough():
    rng = np.random.default_rng(6)
    s = random_ss(rng, 3, 2, 2)
    np.testing.assert_allclose(ss_eval(s, 0.0), s.D, atol=0)


def test_ss_eval_no_input_coupling_gives_feedthrough():
    rng = np.random.default_rng(7)
    s = random_ss(rng, 3, 2, 2)
    s = StateSpace(s.A, np.zeros((3, 2)), s.C, s.D)
    for z in [0.3, 2.0, 0.1 - 0.6j]:
        np.testing.assert_allclose(ss_eval(s, z), s.D, atol=0)


def test_ss_eval_zero_state_matrix():
    # with A = 0 the transfer collapses to C z B + D
    rng = np.random.default_rng(8)
    B = rng.standard_normal((2, 2))
    C = rng.standard_normal((2, 2))
    D = rng.standard_normal((2, 2))
    s = StateSpace(np.zeros((2, 2)), B, C, D)
    np.testing.assert_allclose(ss_eval(s, 1.0), C @ B + D, atol=1e-13)
    np.testing.assert_allclose(ss_eval(s, 0.4), 0.4 * C @ B + D, atol=1e-13)


def test_ss_product_matches_pointwise():
    rng = np.random.default_rng(9)
    s1 = random_ss(rng, 2, 2, 3)
    s2 = random_ss(rng, 4, 3, 2)
    prod = ss_product(s1, s2)
    assert prod.A.shape == (6, 6)
    for z in [0.3, 0.9j, -0.5 + 0.2j]:
        np.testing.assert_allclose(
            ss_eval(prod, z), ss_eval(s1, z) @ ss_eval(s2, z), atol=1e-11
        )


def test_ss_product_with_static_gain():
    # a system with no states is a constant gain; the product keeps m1 states
    rng = np.random.default_rng(15)
    s1 = random_ss(rng, 2, 2, 2)
    G = np.array([[2.0, 1.0], [0.0, 3.0]])
    static = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), G)
    prod = ss_product(s1, static)
    assert prod.A.shape == (2, 2)
    np.testing.assert_allclose(prod.D, s1.D @ G, atol=0)
    np.testing.assert_allclose(prod.B, s1.B @ G, atol=0)
    ident = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
    left = ss_product(ident, s1)
    for z in [0.7, 1.4 - 0.2j]:
        np.testing.assert_allclose(ss_eval(left, z), ss_eval(s1, z), atol=1e-12)


def test_ss_star_static_gain():
    G = np.array([[1.0, -2.0], [0.5, 4.0]])
    static = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), G)
    st = ss_star(static)
    np.testing.assert_array_equal(st.D, G.T)


def test_ss_star_scalar_hand_value():
    # k(z) = z/(1 - 0.5 z), so k(1/z) = 1/(z - 0.5); at z = 2 this is 2/3
    s = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    st = ss_star(s)
    np.testing.assert_allclose(ss_eval(st, 2.0), [[1.0 / 1.5]], atol=1e-14)


def test_ss_star_is_para_hermitian_conjugate():
    rng = np.random.default_rng(10)
    s = random_ss(rng, 3, 2, 2)
    st = ss_star(s)
    for z in [0.7, 2.0, 0.4 + 0.3j]:
        expect = ss_eval(s, 1 / np.conj(z)).conj().T
        np.testing.assert_allclose(ss_eval(st, z), expect, atol=1e-10)


def test_state_transform_preserves_transfer_function():
    rng = np.random.default_rng(12)
    s = random_ss(rng, 3, 2, 2)
    M = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    t = state_transform(s, M)
    for z in [0.5, -0.8, 0.3 + 0.4j]:
        np.testing.assert_allclose(ss_eval(t, z), ss_eval(s, z), atol=1e-10)


def test_state_transform_scaling():
    rng = np.random.default_rng(13)
    s = random_ss(rng, 3, 2, 2)
    t = state_transform(s, 2.0 * np.eye(3))
    np.testing.assert_allclose(t.A, s.A, atol=1e-14)
    np.testing.assert_allclose(t.B, 2.0 * s.B, atol=0)
    np.testing.assert_allclose(t.C, 0.5 * s.C, atol=1e-14)
    np.testing.assert_array_equal(t.D, s.D)


def test_solve_stein_closed_forms():
    np.testing.assert_allclose(solve_stein(np.zeros((2, 2)), np.eye(2)), np.eye(2), atol=0)
    X = solve_stein(0.5 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(X, (4.0 / 3.0) * np.eye(2), atol=1e-13)
    # expanding A is legal; X = 4X + I forces a negative definite solution
    X = solve_stein(2.0 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(X, -np.eye(2) / 3.0, atol=1e-13)


def test_solve_stein_residual_random():
    rng = np.random.default_rng(14)
    for _ in range(50):
        A = rng.standard_normal((2, 2))
        rho = max(np.abs(np.linalg.eigvals(A)))
        A *= rng.uniform(0.1, 0.9) / rho
        M = rng.standard_normal((2, 2))
        Q = M + M.T
        X = solve_stein(A, Q)
        resid = np.linalg.norm(X - A.T @ X @ A - Q)
        assert resid < 1e-11 * np.linalg.norm(Q)
        np.testing.assert_allclose(X, X.T, atol=1e-12)


def test_solve_stein_rejects_resonance():
    # eigenvalues 2 and 0.5 multiply to 1, so the operator is singular
    with pytest.raises(ResonantEigenvalues):
        solve_stein(np.diag([2.0, 0.5]), np.eye(2))
    # a complex pair on the circle, lambda^2 = exp(1.4i) != 1, resonates
    # through lambda conj(lambda) = det A = 1
    A = np.array([[np.cos(0.7), np.sin(0.7)], [-np.sin(0.7), np.cos(0.7)]])
    with pytest.raises(ResonantEigenvalues) as info:
        solve_stein(A, np.eye(2))
    assert info.value.value <= 1e-15
    # eigenvalues 1 and 0.3: det A is 0.7 from 1, and lambda_1^2 = 1 is
    # caught by (1 + d)^2 - t^2 = (1 - lambda_1^2) (1 - lambda_2^2) = 0
    with pytest.raises(ResonantEigenvalues) as info:
        solve_stein(np.diag([1.0, 0.3]), np.eye(2))
    assert info.value.value == 0.0


def test_solve_stein_singular_system_is_typed():
    # S J S^-1 for the Jordan block J of eigenvalue 1 and S = [[1, 0], [1e4, 1]]:
    # trace 2 and determinant 1 exactly, so the resonance test reads 0 and
    # refuses it with its bound; no Stein solve is attempted
    A = np.array([[-9999.0, 1.0], [-1e8, 10001.0]])
    with pytest.raises(ResonantEigenvalues, match="within 1.0e-08") as info:
        solve_stein(A, np.eye(2))
    assert info.value.value == 0.0
    assert info.value.bound == DEFAULTS.circle


@pytest.mark.parametrize("radius", [1e-4, 1e-2, 0.5, 2.0, 1e2, 1e4])
def test_solve_stein_matches_kronecker_reference(radius):
    # Gaussian 2x2 A scaled to the spectral radius, 50 draws kept 0.05 or
    # more from resonance: the closed form agrees with the dense Kronecker
    # solve and leaves a residual at roundoff of the terms it balances
    rng = np.random.default_rng(int(round(np.log10(radius) * 10)) + 100)
    kept = 0
    while kept < 50:
        A = rng.standard_normal((2, 2))
        A *= radius / max(abs(np.linalg.eigvals(A)))
        lam = np.linalg.eigvals(A)
        if abs(1.0 - np.outer(lam, lam)).min() < 0.05:
            continue
        kept += 1
        M = rng.standard_normal((2, 2))
        Q = M + M.T
        X, R = solve_stein(A, Q), kron_stein(A, Q)
        assert abs(X - R).max() <= 1e-11 * abs(R).max()
        size = np.linalg.norm(Q) + np.linalg.norm(A) ** 2 * np.linalg.norm(X)
        assert np.linalg.norm(X - A.T @ X @ A - Q) <= 1e-13 * size
        np.testing.assert_array_equal(X, X.T)


def test_solve_stein_judges_with_the_callers_tolerances():
    # eigenvalues 0.5 and 2 (1 + 1e-9): their product is 1e-9 from 1, inside
    # the default circle band and outside a band of 1e-10
    A = np.diag([0.5, 2.0 * (1.0 + 1e-9)])
    with pytest.raises(ResonantEigenvalues):
        solve_stein(A, np.eye(2))
    X = solve_stein(A, np.eye(2), Tolerances(circle=1e-10))
    assert np.linalg.norm(X - A.T @ X @ A - np.eye(2)) <= 1e-6 * np.linalg.norm(X)
    # symmetry is judged relative to the size of Q, however small Q is
    Q = 1e-12 * np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        solve_stein(0.5 * np.eye(2), Q)
    solve_stein(0.5 * np.eye(2), Q, Tolerances(residual=1e-5))
    with pytest.raises(ValueError, match="not symmetric"):
        solve_stein(0.5 * np.eye(2), np.full((2, 2), np.nan))
    # the closed form is for 2x2 only, the size of every pair factor
    for m in (0, 1, 3):
        with pytest.raises(ValueError, match="2x2"):
            solve_stein(0.5 * np.eye(m), np.eye(m))


def test_solve_stein_rejects_asymmetric_q():
    with pytest.raises(ValueError):
        solve_stein(0.5 * np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("radius", [1.0 + 3e-11, 1.0 - 3e-11])
@pytest.mark.parametrize("theta", [0.7, 2.0])
def test_build_b2_takes_the_callers_circle_band(radius, theta):
    # alpha 3e-11 off the circle passes check_pair with circle = 1e-12; the
    # Stein solver's own 1e-10 resonance bound refused it (6e-11 < 1e-10)
    tol = Tolerances(circle=1e-12)
    _, V = build_b2(radius * np.exp(1j * theta), np.array([0.8, 0.3 + 0.5j]), tol)
    assert verify_allpass(V, n_samples=64).max_residual <= 1e-13


def test_build_b2_worked_example():
    # w = (1, i)/sqrt(2) and alpha = 0.5+0.5i give lambda = 1/alpha = 1 - i,
    # so A is the rotation-scaling block [[1, -1], [1, 1]]
    alpha = 0.5 + 0.5j
    w = np.array([1.0, 1.0j]) / np.sqrt(2)
    ss, V = build_b2(alpha, w)
    np.testing.assert_allclose(ss.A, [[1.0, -1.0], [1.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(
        ss.C, np.array([[0.0, -1.0], [1.0, 0.0]]) / np.sqrt(2), atol=1e-12
    )
    assert verify_allpass(V).max_residual < 1e-11


def test_build_b2_transfer_matches_rational():
    rng = np.random.default_rng(15)
    for _ in range(10):
        side = "inside" if rng.uniform() < 0.5 else "outside"
        alpha = rand_alpha(rng, side)
        w = rand_w(rng)
        ss, V = build_b2(alpha, w)
        for _ in range(10):
            z = rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.uniform())
            if abs(z - alpha) < 0.1 or abs(z - np.conj(alpha)) < 0.1:
                continue
            want = V(z)
            got = ss_eval(ss, z)
            scale = max(1.0, float(np.max(np.abs(want))))
            np.testing.assert_allclose(got, want, atol=1e-11 * scale)


def test_build_b2_unitary_on_circle():
    rng = np.random.default_rng(16)
    alpha = rand_alpha(rng, "inside")
    ss, _ = build_b2(alpha, rand_w(rng))
    for z in np.exp(2j * np.pi * np.arange(8) / 8):
        M = ss_eval(ss, z)
        np.testing.assert_allclose(M @ M.conj().T, np.eye(2), atol=1e-11)


def test_build_b2_poles_match_pair():
    from allpass.polymat import poly_roots

    rng = np.random.default_rng(17)
    for side in ["inside", "outside"]:
        alpha = rand_alpha(rng, side)
        _, V = build_b2(alpha, rand_w(rng))
        roots = sorted(poly_roots(V.den), key=lambda r: r.imag)
        np.testing.assert_allclose(roots, [np.conj(alpha), alpha], atol=1e-10)


def test_build_b2_rejects_degenerate_w():
    with pytest.raises(DegenerateW):
        build_b2(0.5 + 0.5j, np.array([1.0 + 0j, -2.0 + 0j]))


def test_build_b2_rejects_circle_alpha():
    with pytest.raises(OnUnitCircle):
        build_b2(np.exp(0.5j), np.array([1.0, 1.0j]) / np.sqrt(2))


def test_build_b2_rejects_lower_half_alpha():
    with pytest.raises(ValueError):
        build_b2(0.5 - 0.5j, np.array([1.0, 1.0j]) / np.sqrt(2))


@pytest.mark.parametrize("seed, residual", [(0, 8.3e-8), (196, 2.6e-6)])
def test_build_b2_small_alpha_loss_is_judged_by_the_output(seed, residual):
    # at |alpha| = 1e-3 with a Gaussian w (sigma2/sigma1 4.9e-3 and 7.3e-4)
    # the factor is off the identity on the circle, which a direct caller
    # sees in verify_allpass; the mirror certificate judges the step's
    # output: seed 0 keeps the spectrum to 9.0e-9 and returns, seed 196 is
    # 2.3e-6 off and is refused
    alpha, w = small_pair(seed)
    rep = verify_allpass(build_b2(alpha, w)[1], 64)
    assert rep.max_residual == pytest.approx(residual, rel=0.05) and not rep.ok
    if seed == 0:
        _, report = mirror_on_kernel(alpha, w, "statespace")
        assert report.spectral_dev == pytest.approx(9.0e-9, rel=0.05)
    else:
        with pytest.raises(ResidualTooLarge, match="spectral_dev") as info:
            mirror_on_kernel(alpha, w, "statespace")
        assert info.value.value == pytest.approx(2.31e-6, rel=0.05)
        assert info.value.bound == DEFAULTS.residual


def test_build_b2_small_alpha_is_all_pass():
    # |alpha| = 1e-3 with kernel directions kept off the degenerate boundary:
    # the Gram matrix is formed without the cancellation of I + C A^-1 X^-1
    # A^-T C' (X < 0 inside the circle), which left 4.7e-8 here
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        alpha = 1e-3 * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
        _, V = build_b2(alpha, rand_w(rng))
        worst = max(worst, verify_allpass(V, 64).max_residual)
    assert worst <= 1e-9


def test_build_b2_singular_inverse_gram_matrix_is_typed():
    # inside the circle D comes from the Cholesky of G^-1 = I - C X^-1 C',
    # positive definite in exact arithmetic; at |alpha| = 1.1e-4 and
    # sigma2/sigma1 = 1.8e-6 rounding leaves it an eigenvalue of -0.9
    # against 6e15 (G at |alpha| > 1 is reached in test_errors)
    alpha = 0.00011077099660186936 + 9.534946094139603e-06j
    w = [0.2132331220600852 + 0.35257546498051506j, -0.47153595687868466 - 0.7796640420874024j]
    with pytest.raises(CholeskyNotPD, match="G\\^-1") as info:
        build_b2(alpha, w)
    assert info.value.value < info.value.bound == 0.0


def test_build_b2_ill_conditioned_stein_solution_verifies():
    # near the real axis with |alpha| > 1, X is close to C'C, whose
    # condition number is (sigma1/sigma2)^2 = 1e14 for this w; the factor
    # built from it is all-pass to roundoff
    ss, V = build_b2(3.0 + 1e-6j, np.array([1.0, 1e-7j]))
    assert np.linalg.cond(solve_stein(ss.A, ss.C.T @ ss.C)) > 1e12
    assert verify_allpass(V, 64).max_residual <= 1e-14


def test_build_b2_singular_stein_solution_is_typed():
    # inside the circle near the real axis, X is numerically singular too,
    # and there the factor built from it is off the identity: the mirror
    # certificate refuses the step's output, whose spectrum it bounds 1.4e-2
    # off the input's
    alpha, w = 0.5 + 1e-10j, np.array([1.0 + 0.5j, 1e-7j])
    lam = 1.0 / alpha
    A = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    C = np.column_stack([w.imag, -w.real]) / np.linalg.norm(w)
    assert np.linalg.cond(solve_stein(A, C.T @ C)) > 1e12
    assert not verify_allpass(build_b2(alpha, w)[1], 64).ok
    with pytest.raises(ResidualTooLarge) as exc:
        mirror_on_kernel(alpha, w, "statespace")
    assert exc.value.bound == DEFAULTS.residual
    assert exc.value.value == pytest.approx(1.45e-2, rel=0.05)


def composed_blocks(ss, X):
    """The blocks of ``structural_blocks`` read off the composed realization
    ``state_transform(ss_product(ss_star(ss), ss), [[I, X], [0, I]])``."""
    m = ss.A.shape[0]
    M = np.eye(2 * m)
    M[:m, m:] = X
    t = state_transform(ss_product(ss_star(ss), ss), M)
    return {
        "coupling_12": np.linalg.norm(t.A[:m, m:]),
        "input_13": np.linalg.norm(t.B[:m, :]),
        "output_32": np.linalg.norm(t.C[:, m:]),
        "feedthrough_33": np.linalg.norm(t.D - np.eye(ss.D.shape[1])),
    }


def test_structural_blocks_match_composed_realization():
    rng = np.random.default_rng(31)
    cases = []
    for k in range(10):
        side = "inside" if k % 2 else "outside"
        ss, _ = build_b2(rand_alpha(rng, side), rand_w(rng))
        cases.append((ss, solve_stein(ss.A, ss.C.T @ ss.C)))
    for n, p, m in [(2, 2, 2), (3, 2, 2), (4, 3, 2), (3, 1, 3)]:
        ss = random_ss(rng, n, p, m)
        ss.A = 0.9 * ss.A / np.max(np.abs(np.linalg.eigvals(ss.A)))
        X = rng.standard_normal((n, n))
        cases.append((ss, X + X.T))
    # the certified blocks are roundoff (1e-16 .. 1e-13), the random ones O(1)
    for ss, X in cases:
        got, ref = structural_blocks(ss, X), composed_blocks(ss, X)
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], rtol=1e-12, atol=1e-13)


def test_structural_blocks_vanish_after_transform():
    rng = np.random.default_rng(18)
    worst = {"coupling_12": 0.0, "input_13": 0.0, "output_32": 0.0, "feedthrough_33": 0.0}
    for _ in range(20):
        side = "inside" if rng.uniform() < 0.5 else "outside"
        alpha = rand_alpha(rng, side)
        w = rand_w(rng)
        ss, _ = build_b2(alpha, w)
        X = solve_stein(ss.A, ss.C.T @ ss.C)
        blocks = structural_blocks(ss, X)
        for key in worst:
            worst[key] = max(worst[key], blocks[key])
    assert worst["coupling_12"] < 1e-11
    assert worst["input_13"] < 1e-11
    assert worst["output_32"] < 1e-11
    assert worst["feedthrough_33"] < 1e-11
