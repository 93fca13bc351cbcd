"""Root detection, kernel extraction, and mirror-plan classification."""

import numpy as np
import pytest

from allpass import (
    PolyMatrix,
    classify,
    det_roots,
    kernel_vector,
    orthogonal_completion,
)
from allpass.errors import NotARoot, OnUnitCircle, SingularPolynomialMatrix
from allpass.roots import (
    CASE_DEGENERATE,
    CASE_GENERIC,
    CASE_REAL,
    RootRecord,
)
from conftest import polymatrix_with_inside_pair, rand_alpha


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
        Q = orthogonal_completion(V1)
        np.testing.assert_allclose(Q[:, :k], V1, atol=1e-14)
        np.testing.assert_allclose(Q.T @ Q, np.eye(n), atol=1e-13)


def test_orthogonal_completion_deterministic():
    rng = np.random.default_rng(41)
    V1, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    Q1 = orthogonal_completion(V1)
    Q2 = orthogonal_completion(V1.copy())
    np.testing.assert_array_equal(Q1, Q2)


def test_orthogonal_completion_axis_goldens():
    Q = orthogonal_completion(np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(Q, np.eye(2))
    # frozen output of the sign-fixed completion; guards the convention
    Q = orthogonal_completion(np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(Q, [[0.0, 1.0], [1.0, 0.0]], atol=0)


def test_classify_generic_worked(worked_pair):
    rec = det_roots(worked_pair)[0]
    plan = classify(worked_pair, rec)
    assert plan.case == CASE_GENERIC
    np.testing.assert_allclose(plan.Q.T @ plan.Q, np.eye(2), atol=1e-12)
    assert plan.R[1, 0] == 0.0
    assert plan.R[0, 0] > 0 and plan.R[1, 1] > 0
    # the kernel here is (1, i)/sqrt(2) up to phase, so R is a scaled identity
    np.testing.assert_allclose(plan.R, np.eye(2) / np.sqrt(2), atol=1e-10)
    # Q1 w reproduces the kernel vector: p(alpha) Q1 w = 0
    resid = worked_pair(rec.alpha) @ plan.Q[:, :2] @ plan.w
    assert np.linalg.norm(resid) < 1e-10


def test_classify_is_bit_deterministic(worked_pair):
    rec = det_roots(worked_pair)[0]
    a = classify(worked_pair, rec)
    b = classify(worked_pair, rec)
    assert a.case == b.case
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.R, b.R)
    np.testing.assert_array_equal(a.w, b.w)


def test_generic_plan_reconstruction_identity():
    # Q1 w must give back the kernel vector, and the R entries inherit the
    # unit norm of v: a^2 + b^2 + c^2 = |v_r|^2 + |v_i|^2 = 1
    rng = np.random.default_rng(47)
    hits = 0
    for _ in range(10):
        p, records, pairs = polymatrix_with_inside_pair(rng, 2, 2)
        plan = classify(p, pairs[0])
        if plan.case != CASE_GENERIC:
            continue
        hits += 1
        np.testing.assert_allclose(plan.Q[:, :2] @ plan.w, plan.v, atol=1e-12)
        sq = plan.R[0, 0] ** 2 + plan.R[0, 1] ** 2 + plan.R[1, 1] ** 2
        assert sq == pytest.approx(1.0, abs=1e-12)
    assert hits >= 5


def test_classify_real_root():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = np.diag([-0.5, 0.0])
    p = PolyMatrix(coeffs)
    plan = classify(p, det_roots(p)[0])
    assert plan.case == CASE_REAL
    # the kernel of diag(1 - 0.5 z, 1) at z = 2 is e1
    np.testing.assert_allclose(np.abs(plan.v), [1.0, 0.0], atol=1e-10)


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
    np.testing.assert_allclose(np.abs(plan.v), np.abs(U[:, 0]), atol=1e-8)


def test_classify_rejects_non_root(worked_pair):
    fake = RootRecord(alpha=5.0 + 5.0j, multiplicity=1, kind="complex_pair", location="outside")
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
                start = RootRecord(alpha, 1, rec.kind, rec.location)
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
    near = RootRecord(
        alpha=0.5 + 0.501j, multiplicity=1, kind="complex_pair", location="inside"
    )
    with pytest.raises(NotARoot):
        classify(worked_pair, near)


def test_classify_rejects_circle_root():
    t = 0.73
    p = PolyMatrix(np.array([1.0, -2 * np.cos(t), 1.0]).reshape(3, 1, 1))
    rec = det_roots(p)[0]
    with pytest.raises(OnUnitCircle):
        classify(p, rec)


def test_record_validation():
    with pytest.raises(ValueError):
        RootRecord(alpha=1.0 + 0.0j, multiplicity=0, kind="real", location="outside")
    with pytest.raises(ValueError):
        RootRecord(alpha=0.5, multiplicity=1, kind="bogus", location="inside")


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
