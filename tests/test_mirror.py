"""Root mirroring end to end: single steps, selections, and the full sweep."""

import dataclasses

import numpy as np
import pytest

import allpass.mirror
from allpass import (
    METHODS,
    PolyMatrix,
    Tolerances,
    b2_consecutive,
    b2_polynomial,
    build_b2,
    circle_spectrum,
    classify,
    det_roots,
    elementary,
    enumerate_selections,
    mirror_all_inside,
    mirror_once,
    mirror_set,
    spectral_eval,
    squared,
)
from allpass.errors import (
    DeconvolutionResidueTooLarge,
    OnUnitCircle,
    SelectionNotClosed,
)
from allpass.mirror import MirrorReport, _certify, _spectral_deviation
from allpass.roots import CASE_DEGENERATE, CASE_REAL, RootRecord
from conftest import origin_matrix, origin_scalar, polymatrix_with_inside_pair
from reference import deconvolve, mul


def spectral_gap(p, q, n=64):
    """Largest relative deviation between the two spectral densities."""
    worst = 0.0
    for z in np.exp(2j * np.pi * (np.arange(n) + 0.31) / n):
        fp = spectral_eval(p, z)
        fq = spectral_eval(q, z)
        worst = max(worst, np.linalg.norm(fp - fq) / max(np.linalg.norm(fp), 1e-300))
    return worst


def test_mirror_real_root_scalar():
    # 1 - 0.5z has its root at 2; mirroring lands it at 0.5 with the
    # hand-expanded result -0.5 + z
    p = PolyMatrix(np.array([1.0, -0.5]).reshape(2, 1, 1))
    rec = det_roots(p)[0]
    q, rep = mirror_once(p, rec)
    np.testing.assert_allclose(q.coeffs.ravel(), [-0.5, 1.0], atol=1e-12)
    assert rep.mirrored_roots == [rec.alpha]
    assert rep.degree_in == rep.degree_out == 1


def test_mirror_degenerate_scalar(scalar_halfpair):
    rec = det_roots(scalar_halfpair)[0]
    q, rep = mirror_once(scalar_halfpair, rec)
    # hand expansion: (z^2 - z + 0.5) * (1 - z + 0.5 z^2) / (0.5 - z + z^2)
    np.testing.assert_allclose(q.coeffs.ravel(), [1.0, -1.0, 0.5], atol=1e-10)
    roots = sorted(np.roots(q.coeffs.ravel()[::-1]), key=lambda z: z.imag)
    np.testing.assert_allclose(roots, [1 - 1j, 1 + 1j], atol=1e-10)
    assert spectral_gap(scalar_halfpair, q) < 1e-10


@pytest.mark.parametrize("method", METHODS)
def test_mirror_generic_pair_all_methods(worked_pair, method):
    rec = det_roots(worked_pair)[0]
    q, rep = mirror_once(worked_pair, rec, method=method)
    assert isinstance(q, PolyMatrix)
    assert rep.method == method
    assert rep.degree_out <= rep.degree_in
    assert rep.residual_deconv < 1e-10
    assert rep.max_imag < 1e-10
    assert rep.spectral_dev < 1e-10
    assert rep.new_root_residual < 1e-8
    out = det_roots(q)
    assert all(r.location == "outside" for r in out)
    np.testing.assert_allclose(
        [out[0].alpha.real, out[0].alpha.imag], [1.0, 1.0], atol=1e-8
    )


def test_mirror_removes_original_root():
    # a simple mirrored root must reappear at 1/alpha and be gone from alpha
    rng = np.random.default_rng(29)
    for _ in range(5):
        p, records, pairs = polymatrix_with_inside_pair(rng, 2, 2)
        rec = pairs[0]
        if rec.multiplicity != 1:
            continue
        q, rep = mirror_once(p, rec, method="polynomial")
        scale = q.norm()
        moved = np.linalg.svd(q(1 / rec.alpha), compute_uv=False)[-1]
        stayed = np.linalg.svd(q(rec.alpha), compute_uv=False)[-1]
        assert moved < 1e-6 * scale
        assert stayed > 1e-3 * scale
        assert rep.degree_out <= rep.degree_in


def test_method_agreement(worked_pair):
    rec = det_roots(worked_pair)[0]
    outs = [mirror_once(worked_pair, rec, method=m)[0] for m in METHODS]
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert spectral_gap(outs[i], outs[j]) < 1e-8
            ri = sorted(det_roots(outs[i]), key=lambda r: abs(r.alpha))
            rj = sorted(det_roots(outs[j]), key=lambda r: abs(r.alpha))
            assert len(ri) == len(rj)
            for a, b in zip(ri, rj):
                assert abs(a.alpha - b.alpha) < 1e-7


def _spectral_deviation_pointwise(p_new, p_old, n_samples=64):
    """Reference: one Horner evaluation per polynomial, point and side."""
    dev = 0.0
    scale = 0.0
    for z in np.exp(2j * np.pi * np.arange(n_samples) / n_samples):
        w = 1 / np.conj(z)
        s_old = p_old(z) @ p_old(w).conj().T
        s_new = p_new(z) @ p_new(w).conj().T
        dev = max(dev, float(np.linalg.norm(s_new - s_old)))
        scale = max(scale, float(np.linalg.norm(s_old)))
    return dev / scale


@pytest.mark.parametrize("method", METHODS)
def test_spectral_deviation_matches_pointwise_reference(method):
    rng = np.random.default_rng(77)
    for dim, degree in [(2, 2), (3, 2), (4, 3)]:
        p, records, pairs = polymatrix_with_inside_pair(rng, dim, degree)
        inside = [r for r in records if r.location == "inside"]
        for rec in [pairs[0]] + [r for r in inside if r.kind == "real"][:1]:
            q, rep = mirror_once(p, rec, method=method)
            ref = _spectral_deviation_pointwise(q, p)
            dev = _spectral_deviation(circle_spectrum(q), circle_spectrum(p))
            assert abs(dev - ref) <= 1e-15
            assert abs(rep.spectral_dev - ref) <= 1e-15
            # a visibly wrong step, so the normalisation is checked too
            noisy = PolyMatrix(q.coeffs + 1e-3 * rng.standard_normal(q.coeffs.shape))
            ref = _spectral_deviation_pointwise(noisy, p)
            dev = _spectral_deviation(circle_spectrum(noisy), circle_spectrum(p))
            assert abs(dev - ref) <= 1e-15


def _count_calls(monkeypatch, name):
    """Replace ``allpass.mirror.<name>`` by a wrapper; returns the list of
    first arguments it was called with."""
    calls = []
    original = getattr(allpass.mirror, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(allpass.mirror, name, counted)
    return calls


def test_mirror_chain_evaluates_each_polynomial_once(monkeypatch):
    # a k-step chain holds k + 1 polynomials, the input and each step's
    # output; all of them go through one circle evaluation, on the upper half
    # of the 64-point grid, and nothing is stored on any of them
    p = PolyMatrix(np.random.default_rng(3).standard_normal((4, 3, 3)))
    inside = [r for r in det_roots(p) if r.location == "inside"]
    steps = sum(r.multiplicity for r in inside)
    assert steps >= 3
    kernel = _count_calls(monkeypatch, "_on_circle")
    inputs = _count_calls(monkeypatch, "_step")
    q, reports = mirror_set(p, inside, method="consecutive")
    assert len(inputs) == len(reports) == steps
    assert [stack.shape for stack in kernel] == [(4, steps + 1, 3, 3)]
    for step_in, step_out, rep in zip(inputs, inputs[1:] + [q], reports):
        assert list(vars(step_in)) == ["coeffs"]
        fresh = _spectral_deviation(
            circle_spectrum(step_out), circle_spectrum(step_in)
        )
        assert abs(rep.spectral_dev - fresh) <= 1e-15
    assert list(vars(q)) == ["coeffs"]


def test_mirror_all_inside_stores_nothing_on_its_input(monkeypatch):
    p = PolyMatrix(np.random.default_rng(3).standard_normal((4, 3, 3)))
    kernel = _count_calls(monkeypatch, "_on_circle")
    q1, reps1 = mirror_all_inside(p)
    q2, reps2 = mirror_all_inside(p)
    assert len(kernel) == 2 and len(reps1) >= 3
    assert list(vars(p)) == list(vars(q1)) == ["coeffs"]
    np.testing.assert_array_equal(q1.coeffs, q2.coeffs)
    assert reps1 == reps2


@pytest.mark.parametrize("make", [origin_scalar, origin_matrix])
@pytest.mark.parametrize("method", METHODS)
def test_mirror_all_inside_root_at_origin(make, method):
    p = make()
    q, reports = mirror_all_inside(p, method=method)
    assert reports and reports[0].degree_out < reports[0].degree_in
    assert max(r.new_root_residual for r in reports) <= 1e-12
    assert spectral_gap(p, q) < 1e-12
    assert not [r for r in det_roots(q) if r.location == "inside"]


def _reference_certificate(p_in, p_out, rep):
    """``spectral_dev`` from both full 64-point spectra and
    ``new_root_residual`` from one SVD at ``beta = 1/alpha``, graded by the
    step's input degree ``d``; at ``alpha = 0`` (``beta`` infinite) it is
    the coefficient of ``z^d`` in the output."""
    dev = _spectral_deviation(circle_spectrum(p_out), circle_spectrum(p_in))
    alpha, d = rep.mirrored_roots[0], rep.degree_in
    if alpha == 0:
        top = p_out.degree == d
        M = p_out.coeffs[d] if top else np.zeros(p_out.coeffs.shape[1:])
        size = p_out.norm()
    else:
        M = p_out(1 / alpha)
        size = p_out.norm() * max(1.0, abs(1 / alpha)) ** d
    return dev, np.linalg.svd(M, compute_uv=False)[-1] / size


@pytest.mark.parametrize(
    "case", ["gaussian", "complex_storage", "origin_scalar", "origin_matrix"]
)
@pytest.mark.parametrize("method", METHODS)
def test_chain_certificates_match_per_step_reference(monkeypatch, case, method):
    if case == "origin_scalar":
        p = origin_scalar()
    elif case == "origin_matrix":
        p = origin_matrix()
    else:
        p = PolyMatrix(np.random.default_rng(41).standard_normal((4, 3, 3)))
        if case == "complex_storage":
            p = PolyMatrix(p.coeffs.astype(complex))
    inputs = _count_calls(monkeypatch, "_step")
    q, reports = mirror_all_inside(p, method=method)
    assert len(reports) == len(inputs) >= 1
    for step_in, step_out, rep in zip(inputs, inputs[1:] + [q], reports):
        dev, residual = _reference_certificate(step_in, step_out, rep)
        assert abs(rep.spectral_dev - dev) <= 1e-14
        assert abs(rep.new_root_residual - residual) <= 1e-14


def test_chain_certificates_match_reference_far_from_roundoff():
    # unrelated polynomials and points that are no roots: deviations and
    # residuals of order one, so the half grid and the graded evaluation
    # are checked beyond roundoff; 0.4 and 0.3+0.6i take the reversal
    rng = np.random.default_rng(5)
    chain = [PolyMatrix(rng.standard_normal((q + 1, 3, 3))) for q in (3, 3, 2, 1)]
    reports = [
        MirrorReport([a], "elementary", 0.0, 0.0, np.nan, np.nan, p.degree, q.degree)
        for a, p, q in zip([0.4, 0.3 + 0.6j, 2.5], chain, chain[1:])
    ]
    _certify(chain, reports)
    for p, q, rep in zip(chain, chain[1:], reports):
        dev, residual = _reference_certificate(p, q, rep)
        assert dev > 0.1 and residual > 1e-3
        np.testing.assert_allclose(
            [rep.spectral_dev, rep.new_root_residual], [dev, residual], rtol=1e-12
        )


def test_unknown_method_raises_whether_or_not_anything_moves(worked_pair):
    outside = PolyMatrix(np.stack([np.eye(2), np.diag([-0.5, -0.25])]))
    for p in (outside, worked_pair):
        with pytest.raises(ValueError, match="method"):
            mirror_all_inside(p, method="bogus")
        with pytest.raises(ValueError, match="method"):
            mirror_set(p, [], method="bogus")


def test_mirror_set_empty_selection(worked_pair):
    q, reports = mirror_set(worked_pair, [])
    assert reports == []
    np.testing.assert_array_equal(q.coeffs, worked_pair.coeffs)


def test_mirror_set_two_real_roots():
    # diag(1 - 0.5z, 1 - 0.25z) has roots {2, 4}; mirroring both lands
    # them at {0.5, 0.25}
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = np.diag([-0.5, -0.25])
    p = PolyMatrix(coeffs)
    records = det_roots(p)
    q, reports = mirror_set(p, records)
    assert len(reports) == 2
    got = sorted(abs(r.alpha) for r in det_roots(q))
    np.testing.assert_allclose(got, [0.25, 0.5], atol=1e-8)


def test_mirror_set_multiplicity(scalar_halfpair):
    sq = np.convolve(scalar_halfpair.coeffs[:, 0, 0], scalar_halfpair.coeffs[:, 0, 0])
    p = PolyMatrix(sq.reshape(-1, 1, 1))
    rec = det_roots(p)[0]
    assert rec.multiplicity == 2
    q, reports = mirror_set(p, [rec])
    # one report per copy
    assert len(reports) == 2
    out = det_roots(q)
    assert len(out) == 1
    assert out[0].multiplicity == 2
    np.testing.assert_allclose(
        [out[0].alpha.real, out[0].alpha.imag], [1.0, 1.0], atol=1e-6
    )


def test_mirror_set_double_generic_pair():
    # det gains the same pair from two different kernel directions; both
    # copies must move, with the kernel recomputed between applications

    rng = np.random.default_rng(23)
    base, records, pairs = polymatrix_with_inside_pair(rng, 2, 1)
    alpha = pairs[0].alpha
    quad = np.array([abs(alpha) ** 2, -2 * alpha.real, 1.0])
    th = rng.uniform(0, np.pi)
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    coeffs = np.zeros((3, 2, 2))
    for k in range(3):
        coeffs[k] = U @ np.diag([quad[k], 1.0 if k == 0 else 0.0]) @ U.T
    p = mul(base, PolyMatrix(coeffs))
    rec = [
        r
        for r in det_roots(p)
        if r.kind == "complex_pair" and abs(r.alpha - alpha) < 1e-5
    ][0]
    assert rec.multiplicity == 2
    q, reports = mirror_set(p, [rec], method="polynomial")
    assert len(reports) == 2
    assert spectral_gap(p, q) < 1e-10
    after = det_roots(q)
    assert not any(abs(r.alpha - alpha) < 1e-5 for r in after)
    moved = [r for r in after if abs(r.alpha - 1 / np.conj(alpha)) < 1e-5]
    assert sum(r.multiplicity for r in moved) == 2


def test_mirror_set_order_independence():
    # two distinct inside pairs; the final spectral density must not depend
    # on the order the factors are applied in
    a = np.array([0.5, -1.0, 1.0])  # roots 0.5 +- 0.5i
    b = np.array([0.25, -0.5, 1.0])  # roots 0.25 +- 0.433i
    p = PolyMatrix(np.convolve(a, b).reshape(-1, 1, 1))
    records = det_roots(p)
    assert len(records) == 2
    q1, _ = mirror_set(p, list(records))
    q2, _ = mirror_set(p, list(reversed(records)))
    assert spectral_gap(q1, q2) < 1e-8


def test_mirror_set_rejects_malformed_record(worked_pair):
    bad = RootRecord(
        alpha=0.5 - 0.5j, multiplicity=1, kind="complex_pair", location="inside"
    )
    with pytest.raises(SelectionNotClosed):
        mirror_set(worked_pair, [bad])
    # mirror_once is a one-step mirror_set and checks its record the same way
    with pytest.raises(SelectionNotClosed):
        mirror_once(worked_pair, bad)


def test_mirror_all_inside_noop_when_all_outside():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1] = np.diag([-0.5, -0.25])
    p = PolyMatrix(coeffs)
    q, reports = mirror_all_inside(p)
    assert reports == []
    np.testing.assert_array_equal(q.coeffs, p.coeffs)


def test_mirror_all_inside_scalar(scalar_halfpair):
    q, reports = mirror_all_inside(scalar_halfpair)
    assert len(reports) == 1
    out = det_roots(q)
    assert all(r.location == "outside" for r in out)
    np.testing.assert_allclose(abs(out[0].alpha), np.sqrt(2), atol=1e-8)


def test_mirror_all_inside_random_2x2():
    rng = np.random.default_rng(21)
    for _ in range(5):
        p, _, _ = polymatrix_with_inside_pair(rng, 2, 2)
        q, reports = mirror_all_inside(p)
        assert all(r.location == "outside" for r in det_roots(q))
        assert spectral_gap(p, q) < 1e-8
        for rep in reports:
            assert rep.degree_out <= rep.degree_in


def test_mirror_all_inside_high_degree_drain():
    # degree-10 full 3x3 draw: determinant degree 30, nine sequential steps
    rng = np.random.default_rng(911)
    p = PolyMatrix(rng.standard_normal((11, 3, 3)))
    todo = sum(r.multiplicity for r in det_roots(p) if r.location == "inside")
    assert todo >= 6
    q, reports = mirror_all_inside(p, method="statespace")
    assert len(reports) == todo
    assert q.degree == p.degree
    assert not [r for r in det_roots(q) if r.location == "inside"]
    assert spectral_gap(p, q) < 1e-8


def test_mirror_all_inside_rejects_circle_root():
    t = 0.73
    p = PolyMatrix(np.array([1.0, -2 * np.cos(t), 1.0]).reshape(3, 1, 1))
    with pytest.raises(OnUnitCircle):
        mirror_all_inside(p)


def _counting(monkeypatch, name):
    """Wrap ``allpass.mirror.<name>`` so the test can count its calls."""
    original = getattr(allpass.mirror, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(allpass.mirror, name, wrapper)
    return calls


def test_mirror_all_inside_detects_once(monkeypatch):
    rng = np.random.default_rng(911)
    many = PolyMatrix(rng.standard_normal((11, 3, 3)))
    todo = sum(r.multiplicity for r in det_roots(many) if r.location == "inside")
    assert todo >= 6
    none = PolyMatrix(np.stack([np.eye(2), np.diag([-0.5, -0.25])]))
    for p, steps in [(many, todo), (none, 0)]:
        detect = _counting(monkeypatch, "det_roots")
        _, reports = mirror_all_inside(p, method="consecutive")
        assert len(detect) == 1
        assert len(reports) == steps


def test_mirror_all_inside_double_root_drains(scalar_halfpair):
    sq = np.convolve(scalar_halfpair.coeffs[:, 0, 0], scalar_halfpair.coeffs[:, 0, 0])
    p = PolyMatrix(sq.reshape(-1, 1, 1))
    assert det_roots(p)[0].multiplicity == 2
    q, reports = mirror_all_inside(p)
    assert len(reports) == 2
    assert not [r for r in det_roots(q) if r.location == "inside"]
    assert spectral_gap(p, q) < 1e-10


def test_mirror_all_inside_circle_root_raises_before_any_step(monkeypatch):
    # roots 0.5 (inside, first by modulus) and e^{+-0.73i} on the circle
    t = 0.73
    c = np.convolve([-0.5, 1.0], [1.0, -2 * np.cos(t), 1.0])
    p = PolyMatrix(c.reshape(-1, 1, 1))
    records = det_roots(p)
    assert [r.location for r in records] == ["inside", "on_circle"]
    # the inside root comes first, yet no step and no plan starts: every
    # selected record is checked before the first
    plans = _counting(monkeypatch, "classify")
    with pytest.raises(OnUnitCircle):
        mirror_all_inside(p)
    with pytest.raises(OnUnitCircle):
        mirror_set(p, records)
    assert plans == []


@pytest.mark.parametrize("method", METHODS)
def test_mirror_all_inside_high_degree_drain_accuracy(method):
    # the degree-10 3x3 drain above; roots detected once on the input and
    # polished against each intermediate polynomial stay at roundoff
    rng = np.random.default_rng(911)
    p = PolyMatrix(rng.standard_normal((11, 3, 3)))
    q, reports = mirror_all_inside(p, method=method)
    assert max(r.new_root_residual for r in reports) <= 1e-13
    assert spectral_gap(p, q) <= 1e-12


def _far_root_poly(seed, n_small, shrink):
    """2x4 Gaussian draw whose leading matrix loses ``n_small`` singular
    values by ``shrink``, pushing roots far outside the circle."""
    c = np.random.default_rng(seed).standard_normal((5, 2, 2))
    U, s, Vt = np.linalg.svd(c[-1])
    s[-n_small:] *= shrink
    c[-1] = U @ np.diag(s) @ Vt
    return PolyMatrix(c)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "seed,n_small,shrink,kind", [(6, 1, 1e-3, "real"), (9, 2, 1e-2, "complex_pair")]
)
def test_mirror_set_far_outside_root(seed, n_small, shrink, kind, method):
    # a correct root at |alpha| > 200: its backward error, sigma_min(p(alpha))
    # relative to ||p|| |alpha|^4 (the size of p(alpha)), is at roundoff
    p = _far_root_poly(seed, n_small, shrink)
    rec = [r for r in det_roots(p) if abs(r.alpha) > 200][-1]
    assert rec.kind == kind
    sigma = np.linalg.svd(p(rec.alpha), compute_uv=False)[-1]
    assert sigma <= 1e-14 * p.norm() * abs(rec.alpha) ** p.degree
    if kind == "real":
        # far above 1e-6 * ||p||: an unscaled root test would reject it
        assert sigma > 1e-6 * p.norm()
    q, reports = mirror_set(p, [rec], method=method)
    assert len(reports) == 1
    assert reports[0].new_root_residual < 1e-12
    assert spectral_gap(p, q) < 1e-12
    after = [r.alpha for r in det_roots(q)]
    assert any(abs(a - 1 / np.conj(rec.alpha)) < 1e-9 for a in after)
    assert not any(abs(a - rec.alpha) < 1e-6 * abs(rec.alpha) for a in after)


def test_mirror_once_rejects_circle_record(worked_pair):
    bad = RootRecord(
        alpha=np.exp(0.3j), multiplicity=1, kind="complex_pair", location="on_circle"
    )
    with pytest.raises(OnUnitCircle):
        mirror_once(worked_pair, bad)


def _fake_records(m_r, m_c):
    recs = []
    for k in range(m_r):
        recs.append(
            RootRecord(alpha=2.0 + k, multiplicity=1, kind="real", location="outside")
        )
    for k in range(m_c):
        recs.append(
            RootRecord(
                alpha=0.3 + 0.1 * k + 0.4j,
                multiplicity=1,
                kind="complex_pair",
                location="inside",
            )
        )
    return recs


@pytest.mark.parametrize("m_r,m_c", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)])
def test_enumerate_selections_count(m_r, m_c):
    sels = enumerate_selections(_fake_records(m_r, m_c))
    assert len(sels) == 2 ** (m_r + m_c)
    assert [] in [list(s) for s in sels]
    # subsets are distinct
    keys = {tuple(id(r) for r in s) for s in sels}
    assert len(keys) == len(sels)


def _rotation_pair_poly(radius, theta):
    """``z I - M`` with ``M`` a rotation-scaling: a generic pair at
    ``radius * e^{+-i theta}`` with kernel ``(1, -+i)/sqrt(2)``."""
    c, s = np.cos(theta), np.sin(theta)
    M = radius * np.array([[c, -s], [s, c]])
    return PolyMatrix(np.stack([-M, np.eye(2)]))


def test_mirror_set_custom_circle_band_same_for_every_method():
    # det_roots with the default band places the pair inside; every factor
    # construction then applies the caller's wider band and refuses it
    p = _rotation_pair_poly(0.93, 1.1)
    rec = det_roots(p)[0]
    assert rec.location == "inside" and rec.kind == "complex_pair"
    tol = Tolerances(circle=0.2)
    for method in METHODS:
        with pytest.raises(OnUnitCircle):
            mirror_set(p, [rec], method=method, tol=tol)
    # with the same band, detection itself places the pair on the circle
    assert det_roots(p, tol)[0].location == "on_circle"
    # a band that leaves the pair clear lets every method mirror it
    for method in METHODS:
        q, reps = mirror_set(p, [rec], method=method, tol=Tolerances(circle=0.05))
        assert len(reps) == 1 and reps[0].spectral_dev < 1e-12


PAIR_ROUTES = {
    "consecutive": b2_consecutive,
    "polynomial": b2_polynomial,
    "statespace": lambda alpha, w, tol: build_b2(alpha, w, tol)[1],
}


def _rebuild_step(p, record, method):
    """One mirror step from the public parts: classify, the construction,
    and the product ``p Q blockdiag(num, den I)`` divided by ``den``."""
    plan = classify(p, record)
    if plan.case == CASE_REAL:
        V, moved = elementary(plan.alpha.real), [plan.alpha]
    else:
        if plan.case == CASE_DEGENERATE:
            V = squared(plan.alpha)
        else:
            V = PAIR_ROUTES[method](plan.alpha, plan.w, Tolerances())
        moved = [plan.alpha, plan.alpha.conjugate()]
    n, k, d = p.dim, V.dim, V.den.degree
    F = np.zeros((d + 1, n, n))
    F[: V.num.degree + 1, :k, :k] = V.num.coeffs
    F[:, k:, k:] = V.den.coeffs[:, None, None] * np.eye(n - k)
    product = mul(PolyMatrix(p.coeffs @ plan.Q), PolyMatrix(F))
    q, remainder = deconvolve(product, V.den)
    residual = remainder / max(1.0, np.abs(product.coeffs[:, :, :k]).max())

    S_in, S_out = circle_spectrum(p), circle_spectrum(q)
    dev = np.linalg.norm(S_out - S_in, axis=(1, 2)).max()
    dev /= np.linalg.norm(S_in, axis=(1, 2)).max()
    alpha, deg = moved[0], p.degree
    beta = 1.0 / alpha
    sigma = np.linalg.svd(q(beta), compute_uv=False)[-1]
    size = q.norm() * max(1.0, abs(beta)) ** deg
    fields = dict(
        mirrored_roots=moved, method=V.method, residual_deconv=residual,
        max_imag=V.max_imag_pre / max(1.0, np.abs(V.num.coeffs).max()),
        spectral_dev=dev, new_root_residual=sigma / size,
        degree_in=deg, degree_out=q.degree,
    )
    return q, fields


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n,degree,seed", [(3, 2, 308), (4, 4, 404), (6, 4, 604)])
def test_chain_matches_its_public_parts(n, degree, seed, method):
    # every step of mirror_all_inside rebuilt from classify, the factor,
    # mul/deconvolve and circle_spectrum, on the polynomial the previous
    # rebuilt step returned; each chain has real and generic pair steps
    p = PolyMatrix(np.random.default_rng(seed).standard_normal((degree + 1, n, n)))
    q, reports = mirror_all_inside(p, method=method)
    assert {"elementary", method} <= {r.method for r in reports}
    records = sorted(
        (r for r in det_roots(p) if r.location == "inside"),
        key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag),
    )
    steps = [r for r in records for _ in range(r.multiplicity)]
    assert len(reports) == len(steps) >= 2
    current = p
    for rec, rep in zip(steps, reports):
        current, fields = _rebuild_step(current, rec, method)
        assert rep.method == fields["method"]
        for name in ("degree_in", "degree_out"):
            assert getattr(rep, name) == fields[name], name
        np.testing.assert_allclose(
            rep.mirrored_roots, fields["mirrored_roots"], rtol=1e-14
        )
        for name in ("residual_deconv", "max_imag", "spectral_dev"):
            assert abs(getattr(rep, name) - fields[name]) <= 1e-11, name
        assert abs(rep.new_root_residual - fields["new_root_residual"]) <= 1e-11
    scale = np.abs(q.coeffs).max()
    np.testing.assert_allclose(q.coeffs, current.coeffs, rtol=0, atol=1e-11 * scale)


@pytest.mark.parametrize("method", METHODS)
def test_chain_call_pattern(monkeypatch, method):
    # one detection per chain, one plan per step and one construction per
    # step, the route's own for a generic pair
    p = PolyMatrix(np.random.default_rng(45).standard_normal((5, 4, 4)))
    names = ("det_roots", "classify", "elementary", "squared", *(
        "b2_consecutive", "b2_polynomial", "build_b2"))
    calls = {name: _counting(monkeypatch, name) for name in names}
    _, reports = mirror_all_inside(p, method=method)
    real = sum(len(r.mirrored_roots) == 1 for r in reports)
    degenerate = sum(r.method == "squared" for r in reports)
    generic = len(reports) - real - degenerate
    assert real >= 1 and generic >= 3
    route = {"consecutive": "b2_consecutive", "polynomial": "b2_polynomial",
             "statespace": "build_b2"}[method]
    expected = {"det_roots": 1, "classify": len(reports), "elementary": real,
                "squared": degenerate, route: generic}
    assert {name: len(c) for name, c in calls.items()} == {
        name: expected.get(name, 0) for name in names
    }


def test_deconvolution_refusal_carries_residual_and_bound(monkeypatch):
    # a plan 0.1 off the root of z - 0.5: (z - 0.5)(1 - 0.6 z) = -0.5 +
    # 1.3 z - 0.6 z^2 over z - 0.6 leaves 0.064, relative to 1.3
    p = PolyMatrix(np.array([-0.5, 1.0]).reshape(2, 1, 1))
    original = allpass.mirror.classify

    def shifted(p, record, tol):
        plan = original(p, record, tol)
        return dataclasses.replace(plan, alpha=plan.alpha + 0.1)

    monkeypatch.setattr(allpass.mirror, "classify", shifted)
    with pytest.raises(DeconvolutionResidueTooLarge) as info:
        mirror_all_inside(p)
    assert info.value.residual == pytest.approx(0.064 / 1.3, rel=1e-14)
    assert info.value.bound == 1e-6
    assert f"{info.value.residual:.3e}" in str(info.value)
    bare = DeconvolutionResidueTooLarge("synthetic")
    assert bare.residual is None and bare.bound is None
