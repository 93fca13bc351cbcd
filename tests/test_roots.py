"""Root detection, kernel extraction, and mirror-plan classification."""

import dataclasses
import warnings

import numpy as np
import pytest

import allpass.roots
from allpass import (
    METHODS,
    PolyMatrix,
    Tolerances,
    classify,
    det_roots,
    mirror_all_inside,
    mirror_set,
)
from allpass.errors import NotARoot, OnUnitCircle, SingularPolynomialMatrix
from allpass.polymat import det_poly
from allpass.roots import (
    CASE_DEGENERATE,
    CASE_GENERIC,
    CASE_REAL,
    RootRecord,
    _triangular_ratio,
    _w_ratio,
    check_off_circle,
    check_pair,
)
from conftest import (
    assert_roots_close,
    backward_error,
    far_root_poly,
    polymatrix_with_inside_pair,
    rand_alpha,
    root_values,
    rotated_diagonal,
    singular_leading_3x3,
)
from reference import complete, kernel_vector, norm


def test_det_roots_worked_pair(worked_pair):
    records = det_roots(worked_pair)
    assert len(records) == 1
    r = records[0]
    assert r.kind == "complex_pair"
    assert r.location == "inside"
    assert r.multiplicity == 1
    np.testing.assert_allclose([r.alpha.real, r.alpha.imag], [0.5, 0.5], atol=1e-10)


def test_det_roots_real_root_outside():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = np.diag([-0.5, 0.0])
    records = det_roots(PolyMatrix(coeffs))
    assert len(records) == 1
    assert records[0].kind == "real"
    assert records[0].location == "outside"
    assert records[0].alpha == pytest.approx(2.0)


def test_det_roots_on_circle_location():
    # z^2 - 2 cos(t) z + 1 has roots exactly on the unit circle
    t = 0.73
    p = PolyMatrix(np.array([1.0, -2 * np.cos(t), 1.0]).reshape(3, 1, 1))
    records = det_roots(p)
    assert len(records) == 1
    assert records[0].location == "on_circle"


def test_det_roots_multiplicity(scalar_halfpair):
    sq = np.convolve(scalar_halfpair.coeffs[:, 0, 0], scalar_halfpair.coeffs[:, 0, 0])
    records = det_roots(PolyMatrix(sq.reshape(-1, 1, 1)))
    assert len(records) == 1
    assert records[0].multiplicity == 2


def test_det_roots_sorted_by_modulus():
    # roots 0.25, 0.5 +- 0.5i, 3
    coeffs = np.convolve(np.convolve([0.5, -1.0, 1.0], [-0.25, 1.0]), [-3.0, 1.0])
    records = det_roots(PolyMatrix(coeffs.reshape(-1, 1, 1)))
    mods = [abs(r.alpha) for r in records]
    assert mods == sorted(mods)
    assert len(records) == 3


def test_det_roots_identically_singular():
    # second row is twice the first for every z
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = [[1.0, 0.0], [2.0, 0.0]]
    coeffs[1] = [[0.0, 1.0], [0.0, 2.0]]
    with pytest.raises(SingularPolynomialMatrix):
        det_roots(PolyMatrix(coeffs))


def test_det_roots_constant_matrix_has_no_roots():
    assert det_roots(PolyMatrix(np.eye(2)[None])) == []


def test_det_roots_singular_leading_hand_case():
    # diag(z - 0.5, 2): C_1 = diag(1, 0) is singular, det p = 2 (z - 0.5),
    # so one of the two roots is at infinity
    coeffs = np.array([np.diag([-0.5, 2.0]), np.diag([1.0, 0.0])])
    records = det_roots(PolyMatrix(coeffs))
    assert len(records) == 1
    r = records[0]
    assert (r.kind, r.multiplicity, r.location) == ("real", 1, "inside")
    assert r.alpha == pytest.approx(0.5, abs=1e-14)


def test_det_roots_singular_leading_matches_det_reference():
    p = singular_leading_3x3()
    ref = np.roots(det_poly(p).coeffs[::-1])
    assert len(ref) == 5
    assert_roots_close(root_values(det_roots(p)), ref, 1e-8)


def test_det_roots_shifts_when_leading_and_constant_are_singular():
    # C_0 and C_2 both singular: det p = 2 z (z - 0.5), a shift past 0
    # carries the companion and the two infinite roots are dropped
    coeffs = np.array(
        [np.diag([0.0, 2.0]), np.diag([-0.5, 0.0]), np.diag([1.0, 0.0])]
    )
    records = det_roots(PolyMatrix(coeffs))
    assert [r.kind for r in records] == ["real", "real"]
    np.testing.assert_allclose([r.alpha.real for r in records], [0.0, 0.5], atol=1e-14)


# diagonals whose constant entries each carry an infinite root with a Jordan
# chain of length q: the shifted companion's magnitude cut left the chains
# as spurious roots, up to 6e8, beside 0 and 0.5 (C_0 and C_q singular),
# 0.3 and 0.5 (C_0 leading) and the three roots of z^3 - 0.7 z + 0.1
JORDAN_FAMILIES = [
    ([[0.0, -0.5, 1.0], [2.0]], [0.0, 0.5]),
    ([[0.15, -0.8, 1.0], [2.0]], [0.3, 0.5]),
    ([[0.1, -0.7, 0.0, 1.0], [1.0], [3.0]], np.sort(np.roots([1.0, 0.0, -0.7, 0.1]))),
]


@pytest.mark.parametrize("diagonal, roots", JORDAN_FAMILIES, ids=["zero", "c0", "cubic"])
def test_infinite_jordan_chains_are_deflated(diagonal, roots):
    for seed in range(20):
        values = root_values(det_roots(rotated_diagonal(diagonal, seed)))
        np.testing.assert_allclose(np.sort(np.real(values)), roots, atol=1e-14)
        assert not np.any(np.imag(values))


@pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-11])
def test_both_ends_nearly_singular_keeps_every_root(eps):
    # diag(z - eps, 1 - eps z, z^2 - 0.5): C_0 and C_q both fail the root
    # test, and after the two infinite roots are deflated a trial shift
    # carries 1/eps, which the parent missed at eps = 1e-9 (a spurious pair
    # near 9e7 in its place)
    p = rotated_diagonal([[-eps, 1.0], [1.0, -eps], [-0.5, 0.0, 1.0]], 0)
    values = root_values(det_roots(p))
    expected = [eps, 0.5 ** 0.5, 0.5 ** 0.5, 1.0 / eps]
    np.testing.assert_allclose(sorted(np.abs(values)), expected, rtol=1e-4)
    assert max(backward_error(p, a) for a in values) <= 1e-14


@pytest.mark.parametrize("t", [1e-165, 1e-200, 1e-300])
def test_tiny_regular_leading_matrix_is_balanced(t):
    # diag(-0.5, 2) + t I z, roots 0.5/t and -2/t: the squared norm of a C_q
    # this small underflowed to zero, so it was not balanced and C_q was
    # deflated as infinite, leaving no roots
    p = PolyMatrix(np.array([np.diag([-0.5, 2.0]), t * np.eye(2)]))
    values = sorted(root_values(det_roots(p)), key=abs)
    np.testing.assert_allclose(values, [0.5 / t, -2.0 / t], rtol=1e-14)
    assert all(v.imag == 0.0 for v in values)


def test_singular_constant_matrix_raises_with_ratio():
    p = PolyMatrix(np.array([[[1.0, 2.0], [2.0, 4.0]]]))
    with pytest.raises(SingularPolynomialMatrix) as info:
        det_roots(p)
    assert info.value.value <= info.value.bound == 1e-6
    assert f"{info.value.value:.3e}" in str(info.value)


def test_complex_storage_of_real_input_gives_real_records():
    # complex storage took the complex branch: two complex_pair records with
    # Im 5.4e-16 and 3.3e-14 stood for four real roots, and mirroring them
    # raised DeconvolutionResidueTooLarge; PolyMatrix now stores it as real
    c = np.random.default_rng(3).standard_normal((3, 2, 2))
    with warnings.catch_warnings():
        # no complex-to-real cast warning
        warnings.simplefilter("error")
        p = PolyMatrix(c.astype(complex))
    np.testing.assert_array_equal(p.coeffs, PolyMatrix(c).coeffs)
    records = det_roots(p)
    assert records == det_roots(PolyMatrix(c))
    assert [r.kind for r in records] == ["real"] * 4
    for method in METHODS:
        q, reports = mirror_all_inside(p, method=method)
        ref, ref_reports = mirror_all_inside(PolyMatrix(c), method=method)
        assert len(reports) == 2
        np.testing.assert_array_equal(q.coeffs, ref.coeffs)
        assert reports == ref_reports


def test_kernel_vector_worked(worked_pair):
    v = kernel_vector(worked_pair(0.5 + 0.5j))
    np.testing.assert_allclose(v, np.array([1.0, 1.0j]) / np.sqrt(2), atol=1e-10)


def test_kernel_vector_phase_anchor_exactly_real():
    rng = np.random.default_rng(31)
    for _ in range(10):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M[:, 0] = 0.0
        M = M.T  # rank-deficient rows
        v = kernel_vector(M.T @ M)
        k = int(np.argmax(np.abs(v)))
        assert v[k].imag == 0.0
        assert v[k].real > 0.0
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)


def test_kernel_vector_zero_matrix():
    v = kernel_vector(np.zeros((3, 3), dtype=complex))
    np.testing.assert_array_equal(v, np.array([1.0, 0.0, 0.0]))


def test_kernel_vector_null_axis():
    v = kernel_vector(np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-14)


def test_orthogonal_completion_keeps_columns():
    rng = np.random.default_rng(37)
    for n, k in [(2, 1), (3, 1), (4, 2)]:
        A = rng.standard_normal((n, k))
        V1, _ = np.linalg.qr(A)
        Q = complete(V1)
        np.testing.assert_allclose(Q[:, :k], V1, atol=1e-14)
        np.testing.assert_allclose(Q.T @ Q, np.eye(n), atol=1e-13)


def test_orthogonal_completion_deterministic():
    rng = np.random.default_rng(41)
    V1, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    Q1 = complete(V1)
    Q2 = complete(V1.copy())
    np.testing.assert_array_equal(Q1, Q2)


def test_orthogonal_completion_axis_goldens():
    Q = complete(np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(Q, np.eye(2))
    # frozen output of the sign-fixed completion; guards the convention
    Q = complete(np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(Q, [[0.0, 1.0], [1.0, 0.0]], atol=0)


def test_classify_generic_worked(worked_pair):
    rec = det_roots(worked_pair)[0]
    plan = classify(worked_pair, rec)
    assert plan.case == CASE_GENERIC
    np.testing.assert_allclose(plan.Q1.T @ plan.Q1, np.eye(2), atol=1e-12)
    # w = R (1, i)', so [Re w, Im w] is the QR factor R
    R = np.column_stack([plan.w.real, plan.w.imag])
    assert R[1, 0] == 0.0
    assert R[0, 0] > 0 and R[1, 1] > 0
    # the kernel here is (1, i)/sqrt(2) up to phase, so R is a scaled identity
    np.testing.assert_allclose(R, np.eye(2) / np.sqrt(2), atol=1e-10)
    # Q1 w reproduces the kernel vector: p(alpha) Q1 w = 0
    resid = worked_pair(rec.alpha) @ plan.Q1 @ plan.w
    assert np.linalg.norm(resid) < 1e-10


def test_classify_is_bit_deterministic(worked_pair):
    rec = det_roots(worked_pair)[0]
    a = classify(worked_pair, rec)
    b = classify(worked_pair, rec)
    assert a.case == b.case
    np.testing.assert_array_equal(a.Q1, b.Q1)
    np.testing.assert_array_equal(a.w, b.w)


def test_generic_plan_reconstruction_identity():
    # Q1 w must be a kernel vector of p(alpha), and the R entries inherit
    # the unit norm of v = Q1 w: a^2 + b^2 + c^2 = |v_r|^2 + |v_i|^2 = 1
    rng = np.random.default_rng(47)
    hits = 0
    for _ in range(10):
        p, records, pairs = polymatrix_with_inside_pair(rng, 2, 2)
        plan = classify(p, pairs[0])
        if plan.case != CASE_GENERIC:
            continue
        hits += 1
        assert np.linalg.norm(p(plan.alpha) @ plan.Q1 @ plan.w) < 1e-12 * norm(p)
        # [Re w, Im w] is the upper-triangular R with entries a, b, c
        assert plan.w.real[1] == 0.0
        sq = plan.w.real[0] ** 2 + plan.w.imag[0] ** 2 + plan.w.imag[1] ** 2
        assert sq == pytest.approx(1.0, abs=1e-12)
    assert hits >= 5


def test_generic_plan_takes_one_qr(monkeypatch):
    # Q1 and R both come from the QR of the n x 2 [Re v, Im v]; no
    # orthogonal completion is formed
    calls = []
    original = allpass.roots._positive_qr

    def counted(B):
        calls.append(B.shape)
        return original(B)

    monkeypatch.setattr(allpass.roots, "_positive_qr", counted)
    rng = np.random.default_rng(48)
    for dim in (2, 3, 5):
        while True:
            p, records, pairs = polymatrix_with_inside_pair(rng, dim, 2)
            calls.clear()
            plan = classify(p, pairs[0])
            if plan.case == CASE_GENERIC:
                break
        assert calls == [(dim, 2)]
        Q1 = plan.Q1
        assert Q1.shape == (dim, 2)
        np.testing.assert_allclose(Q1.T @ Q1, np.eye(2), atol=1e-14)
        assert np.linalg.norm(p(plan.alpha) @ Q1 @ plan.w) < 1e-12 * norm(p)
        assert plan.w.real[1] == 0.0


def test_complex_coefficients_are_refused():
    # det_roots kept only the roots with Im >= 0, which for complex
    # coefficients drops roots that have no conjugate partner: on this input
    # mirror_all_inside returned after 0 steps with a root still inside.
    # PolyMatrix(c) itself dropped the imaginary parts with only a
    # ComplexWarning, and det_roots then found 3 records of Re c
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3, 2, 2)) + 0.3j * rng.standard_normal((3, 2, 2))
    worst = f"{np.max(np.abs(c.imag)):.3e}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for storage in (np.complex128, np.complex64):
            with pytest.raises(ValueError, match=worst):
                PolyMatrix(c.astype(storage))
    # complex storage with zero imaginary parts is a real polynomial
    assert det_roots(PolyMatrix(c.real.astype(complex))) == det_roots(PolyMatrix(c.real))


def test_classify_real_root():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = np.diag([-0.5, 0.0])
    p = PolyMatrix(coeffs)
    plan = classify(p, det_roots(p)[0])
    assert plan.case == CASE_REAL
    # the kernel of diag(1 - 0.5 z, 1) at z = 2 is e1
    np.testing.assert_allclose(np.abs(plan.Q1[:, 0]), [1.0, 0.0], atol=1e-10)


def test_classify_degenerate_scalar(scalar_halfpair):
    plan = classify(scalar_halfpair, det_roots(scalar_halfpair)[0])
    assert plan.case == CASE_DEGENERATE


def test_classify_degenerate_rotated():
    # U diag(z^2 - z + 0.5, 1) U^T has a real kernel direction U e1 at the
    # complex pair, so the pair must classify as degenerate
    t = 0.3
    U = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    coeffs = np.zeros((3, 2, 2))
    for k, c in enumerate([0.5, -1.0, 1.0]):
        coeffs[k] = U @ np.diag([c, 1.0 if k == 0 else 0.0]) @ U.T
    p = PolyMatrix(coeffs)
    rec = [r for r in det_roots(p) if r.kind == "complex_pair"][0]
    plan = classify(p, rec)
    assert plan.case == CASE_DEGENERATE
    np.testing.assert_allclose(np.abs(plan.Q1[:, 0]), np.abs(U[:, 0]), atol=1e-8)


def test_classify_rejects_non_root(worked_pair):
    fake = RootRecord(alpha=5.0 + 5.0j, multiplicity=1, location="outside")
    with pytest.raises(NotARoot):
        classify(worked_pair, fake)


def _sigma_min(p, z):
    return np.linalg.svd(p(z), compute_uv=False)[-1]


def test_classify_polish_never_worse_and_keeps_kind():
    rng = np.random.default_rng(61)
    for dim, degree in [(2, 2), (3, 2), (4, 3), (3, 6)]:
        p = PolyMatrix(rng.standard_normal((degree + 1, dim, dim)))
        for rec in det_roots(p):
            if rec.location == "on_circle":
                continue
            # the detected value, and one knocked off by 1e-9 relative
            nudge = 1e-9 * abs(rec.alpha) * (1.0 if rec.kind == "real" else 1j)
            for alpha in (rec.alpha, rec.alpha + nudge):
                start = RootRecord(alpha, 1, rec.location)
                plan = classify(p, start)
                assert _sigma_min(p, plan.alpha) <= _sigma_min(p, alpha)
                if rec.kind == "real":
                    assert plan.alpha.imag == 0.0
                else:
                    assert plan.alpha.imag > 0.0
                assert abs(plan.alpha - rec.alpha) < 1e-6 * max(1.0, abs(rec.alpha))
            # the knocked-off start must actually move back towards the root
            assert _sigma_min(p, plan.alpha) < 1e-3 * _sigma_min(p, alpha)


def test_classify_tests_the_record_not_the_polished_root(worked_pair):
    # one Newton step from 1e-3 off the pair lands close to it, but the
    # record itself is no root and must still be refused
    near = RootRecord(alpha=0.5 + 0.501j, multiplicity=1, location="inside")
    with pytest.raises(NotARoot):
        classify(worked_pair, near)


def test_classify_works_at_one_scale():
    # 2^-1030 times the seed-5 3x3 of degree 4: the polish's sigma / slope
    # overflowed and three of the seven records raised LinAlgError
    c = np.random.default_rng(5).standard_normal((5, 3, 3))
    tiny, base = PolyMatrix(np.ldexp(c, -1030)), PolyMatrix(c)
    records = det_roots(tiny)
    assert len(records) == 7
    for rec, rec_base in zip(records, det_roots(base)):
        plan, plan_base = classify(tiny, rec), classify(base, rec_base)
        assert plan.case == plan_base.case
        assert plan.alpha == pytest.approx(plan_base.alpha, rel=1e-10)


def test_classify_rejects_circle_root():
    t = 0.73
    p = PolyMatrix(np.array([1.0, -2 * np.cos(t), 1.0]).reshape(3, 1, 1))
    rec = det_roots(p)[0]
    with pytest.raises(OnUnitCircle):
        classify(p, rec)


def test_record_validation():
    for alpha, multiplicity, location in [
        (1.0 + 0.0j, 0, "outside"),
        (0.5, 1, "bogus"),
        # a pair record carries the upper member
        (0.5 - 0.5j, 1, "inside"),
        # a NaN record failed inside classify's SVD
        (complex(np.nan, 0.5), 1, "inside"),
        (complex(0.5, np.inf), 1, "outside"),
    ]:
        with pytest.raises(ValueError):
            RootRecord(alpha, multiplicity, location)


def test_record_kind_follows_alpha():
    assert RootRecord(0.5, 2, "inside").kind == "real"
    assert RootRecord(complex(0.5, -0.0), 1, "inside").kind == "real"
    assert RootRecord(0.5 + 1e-300j, 1, "inside").kind == "complex_pair"
    rec = RootRecord(0.5 + 0.1j, 1, "inside")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.alpha = 0.5


def test_classify_random_pairs_give_unit_w():
    rng = np.random.default_rng(43)
    for _ in range(10):
        alpha = rand_alpha(rng, "inside")
        # build a matrix with that exact pair: diag(quadratic, 1) conjugated
        quad = np.array([abs(alpha) ** 2, -2 * alpha.real, 1.0])
        M = rng.standard_normal((2, 2))
        Q, _ = np.linalg.qr(M)
        coeffs = np.zeros((3, 2, 2))
        for k in range(3):
            coeffs[k] = Q @ np.diag([quad[k], 1.0 if k == 0 else 0.0]) @ Q.T
        p = PolyMatrix(coeffs)
        rec = [r for r in det_roots(p) if r.kind == "complex_pair"][0]
        plan = classify(p, rec)
        # this construction pins the kernel to a real direction
        assert plan.case == CASE_DEGENERATE


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("storage", [float, complex], ids=["PolyMatrix", "complex"])
def test_non_finite_coefficients_are_refused(bad, storage):
    # mirror_all_inside warned and then failed inside the root finder with
    # LinAlgError("SVD did not converge"); no such polynomial is built now
    c = np.random.default_rng(2).standard_normal((3, 2, 2)).astype(storage)
    c[1, 0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="1 of 12 are NaN or infinite"):
            PolyMatrix(c)


def test_non_finite_imaginary_part_is_refused():
    c = np.random.default_rng(2).standard_normal((3, 2, 2)).astype(complex)
    c[0, 1, 1] = complex(1.0, np.nan)
    with pytest.raises(ValueError, match="1 of 12 are NaN or infinite"):
        PolyMatrix(c)


def test_not_a_root_carries_sigma_and_bound(worked_pair):
    # the refusal carries the coefficientwise backward error of alpha against
    # tol.kernel; outside the circle it is read on the reversal at 1/alpha
    # and on p 2^-e, where it is the same number
    alpha = 5.0 + 5.0j
    fake = RootRecord(alpha, multiplicity=1, location="outside")
    with pytest.raises(NotARoot) as info:
        classify(worked_pair, fake)
    assert info.value.value == pytest.approx(backward_error(worked_pair, alpha, "fro"), rel=1e-12)
    assert info.value.bound == Tolerances().kernel
    assert info.value.value > info.value.bound
    assert f"{info.value.value:.3e}" in str(info.value)
    # at the origin the size is ||C_0||, whose square underflows here: it is
    # taken on its own scale, so the refusal carries the backward error 1
    with pytest.raises(NotARoot) as info:
        classify(PolyMatrix(np.array([1e-200, 1.0]).reshape(2, 1, 1)), RootRecord(0.0, 1, "inside"))
    assert info.value.value == pytest.approx(1.0, rel=1e-15)
    # a message alone still makes one, with no numbers
    bare = NotARoot("synthetic")
    assert str(bare) == "synthetic" and bare.value is None and bare.bound is None


def test_far_non_root_is_refused():
    # a record at -1e9 on p with its one far root at 1e8: the normwise test
    # on the reversal, sigma_min <= tol.kernel ||p||, passed it because C_q
    # is small beside ||p||, and mirror_set moved the true root to 1.029e8
    # with every certificate number passing
    p = far_root_poly(40, 1e8, pair=False)
    fake = RootRecord(-1e9, 1, "outside")
    for refuse in (lambda: classify(p, fake), lambda: mirror_set(p, [fake])):
        with pytest.raises(NotARoot) as info:
            refuse()
        assert info.value.value == pytest.approx(0.046, rel=0.01)
        assert info.value.bound == Tolerances().kernel
    # the root that is there still mirrors, to 1e-8
    q, (report,) = mirror_set(p, [det_roots(p)[-1]])
    assert report.mirrored_roots == [1e8]
    assert det_roots(q)[0].alpha == pytest.approx(1e-8, rel=1e-12)


def test_root_test_is_one_number_on_both_sides():
    # the refusal's value is the backward error of z as a root of det p,
    # read at z itself, and the same number as that of 1/z as a root of det
    # of the reversal z^q p(1/z); normwise on the reversal, it read
    # |z|^-q sigma_min(p(z)) / ||p|| outside the circle
    rng = np.random.default_rng(29)
    for _ in range(40):
        n, q = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        p = PolyMatrix(rng.standard_normal((q + 1, n, n)))
        r = 10.0 ** rng.uniform(-2, 2)
        z = r * np.exp(1j * rng.choice([0.0, rng.uniform(0.1, np.pi - 0.1)]))
        if abs(r - 1.0) < 0.1 or backward_error(p, z, "fro") < 1e-3:
            continue
        values = []
        for poly, point in ((p, z), (PolyMatrix(p.coeffs[::-1]), 1 / np.conj(z))):
            side = "inside" if abs(point) < 1.0 else "outside"
            with pytest.raises(NotARoot) as info:
                classify(poly, RootRecord(point, 1, side))
            values.append(info.value.value)
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(backward_error(p, z, "fro"), rel=1e-10)


def test_not_a_root_past_the_float_power():
    # |alpha|^40 = 1e360: the root test's bound and the powers of alpha
    # overflowed; on the reversal at 1/alpha both numbers are finite
    p = PolyMatrix(np.random.default_rng(0).standard_normal((41, 2, 2)))
    with pytest.raises(NotARoot) as info:
        classify(p, RootRecord(1e9, 1, "outside"))
    assert np.isfinite(info.value.value) and np.isfinite(info.value.bound)
    assert info.value.value > info.value.bound > 0.0
    # a true root that far is accepted and polished to its value
    p = far_root_poly(40, 1e8, pair=False)
    assert classify(p, det_roots(p)[-1]).alpha == 1e8


def test_classify_polish_stays_in_range_far_outside():
    # 1e-7 + (z - 0.5)^2 at the real record 0.5 + 1e-9: its backward error
    # is about 1e-7, so it passes the root test, and its Newton step, to
    # about -49.5, would leave the unit disc and is not taken
    p = PolyMatrix(np.array([0.25 + 1e-7, -1.0, 1.0]).reshape(3, 1, 1))
    assert classify(p, RootRecord(0.5 + 1e-9, 1, "inside")).alpha == 0.5 + 1e-9
    # outside, on the reversal: z^38 ((x0^2 + h) z^2 - 2 x0 z + 1) at the
    # real record 1/(x0 + h), x0 = 1e-9 and h ten ulps of it, passes the
    # root test (about 5e-7) and steps from a = x0 + h to about -0.5, so
    # p's own sigma_min falls by (|a_step| / |a|)^40, past the float range:
    # no overflow warning.  That step reaches no root (backward error 1),
    # and mirror_set refuses its division remainder
    x0 = 1e-9
    h = 10 * np.spacing(x0)
    c = np.zeros((41, 1, 1))
    c[38:, 0, 0] = [1.0, -2.0 * x0, x0 * x0 + h]
    assert classify(PolyMatrix(c), RootRecord(1 / (x0 + h), 1, "outside")).case == CASE_REAL
    # the records far out that a small C_q let through are no roots
    for c in (np.array([1.0, 1.0, 1e-10]), np.array([1.0] + [0.0] * 38 + [1e-40, 1e-7])):
        with pytest.raises(NotARoot) as info:
            classify(PolyMatrix(c.reshape(-1, 1, 1)), RootRecord(1e200, 1, "outside"))
        assert info.value.value == pytest.approx(1.0)


def test_on_unit_circle_carries_modulus_and_band():
    t = 0.73
    p = PolyMatrix(np.array([1.0, -2 * np.cos(t), 1.0]).reshape(3, 1, 1))
    rec = det_roots(p)[0]
    tol = Tolerances(circle=1e-6)
    with pytest.raises(OnUnitCircle) as info:
        classify(p, rec, tol)
    gap = abs(abs(rec.alpha) - 1.0)
    assert (info.value.value, info.value.bound) == (gap, 1e-6)
    with pytest.raises(OnUnitCircle) as info:
        mirror_set(p, [rec], tol=tol)
    assert (info.value.value, info.value.bound) == (gap, 1e-6)
    alpha = 0.3 + 0.9j
    with pytest.raises(OnUnitCircle) as info:
        check_off_circle(alpha, Tolerances(circle=0.1))
    assert (info.value.value, info.value.bound) == (abs(abs(alpha) - 1.0), 0.1)
    assert info.value.value <= info.value.bound
    bare = OnUnitCircle("synthetic")
    assert bare.value is None and bare.bound is None


def test_on_circle_is_judged_by_the_calls_band():
    # z^2 + 0.9801 has the pair +-0.99i; located with circle = 0.05 the
    # record says "on_circle", and classify and mirror_set refused it from
    # that stored location even under the default band, with value 0.01
    # above bound 1e-8
    p = PolyMatrix(np.array([0.9801, 0.0, 1.0]).reshape(3, 1, 1))
    wide = Tolerances(circle=0.05)
    (rec,) = det_roots(p, wide)
    assert rec.location == "on_circle"
    assert classify(p, rec).case == CASE_DEGENERATE
    q, (report,) = mirror_set(p, [rec])
    np.testing.assert_allclose(report.mirrored_roots, [0.99j, -0.99j], rtol=1e-14)
    assert [r.location for r in det_roots(q)] == ["outside"]
    np.testing.assert_allclose(det_roots(q)[0].alpha, 1j / 0.99, rtol=1e-12)
    for refuse in (lambda: classify(p, rec, wide), lambda: mirror_set(p, [rec], tol=wide)):
        with pytest.raises(OnUnitCircle) as info:
            refuse()
        assert info.value.value == pytest.approx(0.01, rel=1e-12)
        assert info.value.bound == 0.05
        assert info.value.value <= info.value.bound


def test_finite_roots_takes_one_two_matrix_svd(monkeypatch):
    # the four trial shifts are evaluated, and their SVDs taken, only when
    # C_q and C_0 both fail the root test; a singular C_q adds one SVD of B
    # per deflation round and one of the deflated B, which is regular
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(73)
    c = rng.standard_normal((3, 3, 3))
    singular = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
    for lead, const, expected in [
        (c[2], c[0], [(2, 3, 3)]),
        (singular, c[0], [(2, 3, 3), (6, 6), (5, 5)]),
        (c[2], singular, [(2, 3, 3)]),
        (singular, singular, [(2, 3, 3), (6, 3, 3), (6, 6), (5, 5)]),
    ]:
        calls.clear()
        det_roots(PolyMatrix(np.stack([const, c[1], lead])))
        assert calls == expected


def test_triangular_ratio_is_exact_on_diagonal_input():
    # the ratio-at-tol refusal needs sigma2/sigma1 = 1e-3 exactly for
    # diag(1, 1e-3); an SVD of the 2x2 need not return it
    rng = np.random.default_rng(70)
    for _ in range(2000):
        f, h = 10.0 ** rng.uniform(-150, 150, 2) * rng.choice([-1.0, 1.0], 2)
        ratio = _triangular_ratio(f, 0.0, h)
        assert ratio == min(abs(f), abs(h)) / max(abs(f), abs(h))
        assert _w_ratio(complex(f, 0.0), complex(0.0, h)) == ratio
    assert _triangular_ratio(1.0, 0.0, 1e-3) == 1e-3
    assert _triangular_ratio(0.0, 0.0, 0.0) == 0.0
    assert _w_ratio(0j, 0j) == 0.0
    # Re w = 0: [Re w, Im w] has rank one
    assert _w_ratio(2j, -1j) == 0.0


def test_triangular_ratio_matches_svd():
    # upper triangular inputs over many scales, including off-diagonal
    # entries far above the diagonal (the large-g branch of dlasv2)
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(5000):
        f, g, h = rng.standard_normal(3) * 10.0 ** rng.uniform(-8, 8, 3)
        s = np.linalg.svd(np.array([[f, g], [0.0, h]]), compute_uv=False)
        ratio = _triangular_ratio(f, g, h)
        # sigma2 is accurate to a few ulps relative to sigma1 either way
        worst = max(worst, abs(ratio - s[1] / s[0]))
        assert 0.0 <= ratio <= 1.0
    assert worst <= 1e-15
    # off-diagonal entry beyond 1/eps times the diagonal: sigma1 = |g| and
    # sigma2 = |f h| / |g| to roundoff, on both sides of |h| = 1
    assert _triangular_ratio(1e-20, 1.0, 1e-5) == pytest.approx(1e-25, rel=1e-15)
    assert _triangular_ratio(3.0, 1e17, -2.0) == pytest.approx(6e-34, rel=1e-15)


def test_w_ratio_matches_svd_of_re_im():
    # the Givens step costs at most a few ulps of sigma1 in sigma2, as the
    # SVD's own rounding does, so the ratios agree to a few ulps of one
    rng = np.random.default_rng(72)
    worst = 0.0
    for _ in range(5000):
        x, y = rng.standard_normal((2, 2))
        w = (x + 1j * y) * 10.0 ** rng.uniform(-5, 5)
        if rng.uniform() < 0.5:
            # nearly degenerate: a real direction times a phase, plus a tilt
            tilt = 10.0 ** rng.uniform(-12, -1)
            w = np.exp(1j * rng.uniform(0, np.pi)) * (x + 1j * tilt * y)
        s = np.linalg.svd(np.column_stack([w.real, w.imag]), compute_uv=False)
        worst = max(worst, abs(_w_ratio(*w.tolist()) - s[1] / s[0]))
    assert worst <= 2e-15


def test_check_pair_refuses_non_finite_input():
    with pytest.raises(ValueError, match="alpha must be finite"):
        check_pair(complex(np.nan, 1.0), [1.0, 1j])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="w must be finite"):
            check_pair(0.5 + 0.5j, [1.0, complex(0.0, bad)])
