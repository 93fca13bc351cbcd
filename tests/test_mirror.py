"""Root mirroring end to end: single steps, selections, and the full sweep."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allpass.mirror
from allpass import (
    DEFAULTS,
    METHODS,
    PolyMatrix,
    Tolerances,
    b2_consecutive,
    b2_polynomial,
    build_b2,
    classify,
    det_roots,
    elementary,
    mirror_all_inside,
    mirror_once,
    mirror_set,
    spectral_eval,
    squared,
)
from allpass.errors import (
    AllPassError,
    OnUnitCircle,
    ResidualTooLarge,
    ResonantEigenvalues,
)
from allpass.mirror import MirrorReport, _certify
from allpass.roots import CASE_DEGENERATE, CASE_GENERIC, CASE_REAL, RootRecord
from conftest import (
    CROSSING_ALPHA,
    CROSSING_W,
    backward_error,
    far_root_poly,
    inflate_consecutive,
    mirror_on_kernel,
    origin_matrix,
    origin_scalar,
    past_the_grid,
    patch_consecutive,
    poison_laurent,
    polymatrix_with_inside_pair,
    root_values,
)
from reference import (
    circle_spectrum,
    deconvolve,
    dense_step,
    graded,
    grid_deviation,
    innovations,
    laurent_deviation,
    mul,
    norm,
    step_sum,
)


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
        scale = norm(q)
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
    """One Horner evaluation per polynomial, point and side: the largest
    deviation on the grid over the largest spectrum, a lower bound of the
    certificate's number."""
    dev = 0.0
    scale = 0.0
    for z in np.exp(2j * np.pi * np.arange(n_samples) / n_samples):
        w = 1 / np.conj(z)
        s_old = p_old(z) @ p_old(w).conj().T
        s_new = p_new(z) @ p_new(w).conj().T
        dev = max(dev, float(np.linalg.norm(s_new - s_old)))
        scale = max(scale, float(np.linalg.norm(s_old)))
    return dev / scale


def _certified_deviation(p_new, p_old):
    """``spectral_dev`` of the one-step chain ``p_old -> p_new``, read from
    the report whether or not the certificate refuses it."""
    degrees = p_old.degree, p_new.degree
    report = MirrorReport([2.0], "elementary", 0.0, 0.0, np.nan, np.nan, *degrees)
    try:
        _certify([p_old, p_new], [report], DEFAULTS, 1)
    except ResidualTooLarge:
        pass
    return report.spectral_dev


@pytest.mark.parametrize("method", METHODS)
def test_spectral_deviation_matches_pointwise_reference(method):
    rng = np.random.default_rng(77)
    for dim, degree in [(2, 2), (3, 2), (4, 3)]:
        p, records, pairs = polymatrix_with_inside_pair(rng, dim, degree)
        inside = [r for r in records if r.location == "inside"]
        for rec in [pairs[0]] + [r for r in inside if r.kind == "real"][:1]:
            q, rep = mirror_once(p, rec, method=method)
            ref = laurent_deviation(q, p)
            assert abs(_certified_deviation(q, p) - ref) <= 1e-15
            assert abs(rep.spectral_dev - ref) <= 1e-15
            # a visibly wrong step, so the normalisation is checked too; the
            # grid's value is a lower bound
            noisy = PolyMatrix(q.coeffs + 1e-3 * rng.standard_normal(q.coeffs.shape))
            ref = laurent_deviation(noisy, p)
            assert abs(_certified_deviation(noisy, p) - ref) <= 1e-15
            assert _spectral_deviation_pointwise(noisy, p) <= ref


def test_certificate_sees_past_degree_31():
    # the spectra of this degree-32 pair agree on the 64th roots of unity,
    # where the certificate used to sample them, and differ by 1.069 of the
    # input's over the circle: the lag-32 coefficients carry that
    p_old, p_new = past_the_grid()
    assert _spectral_deviation_pointwise(p_new, p_old) <= 1e-13
    assert _spectral_deviation_pointwise(p_new, p_old, 128) == pytest.approx(2 * math.sqrt(2 / 7))
    report = MirrorReport([0.5], "elementary", 0.0, 0.0, np.nan, np.nan, 32, 32)
    with pytest.raises(ResidualTooLarge, match="step 1 of 1: spectral_dev") as info:
        _certify([p_old, p_new], [report], DEFAULTS, 1)
    assert info.value.value == pytest.approx(2 * math.sqrt(2 / 7), rel=1e-14)
    assert info.value.bound == DEFAULTS.residual


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    degrees=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    size=st.floats(-6.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_bounds_the_sup_with_slack_at_most_2q_plus_1(n, degrees, size, seed):
    # far from roundoff the certificate's number lies between the largest
    # deviation over the circle (read on 4096 points, dense for q <= 6) and
    # 2q + 1 times it, with 1% for the grid's own error
    rng = np.random.default_rng(seed)
    q_old, q_new = degrees
    p_old = PolyMatrix(rng.standard_normal((q_old + 1, n, n)))
    change = 10.0**size * rng.standard_normal((q_new + 1, n, n))
    change[: q_old + 1] += p_old.coeffs[: q_new + 1]
    p_new = PolyMatrix(change)
    bound = _certified_deviation(p_new, p_old)
    sup = grid_deviation(p_new, p_old, 4096)
    assert sup <= 1.01 * bound
    assert bound <= 1.01 * (2 * max(degrees) + 1) * sup


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


def _step_outputs(p, inputs, q):
    """The output of each recorded ``_step`` call: the next call's input,
    and for the last the output ``q`` on the steps' scale, ``2^-e`` times
    that of the input ``p``."""
    e = math.frexp(np.abs(p.coeffs).max())[1]
    return inputs[1:] + [PolyMatrix(np.ldexp(q.coeffs, -e))]


def test_mirror_chain_evaluates_each_polynomial_once(monkeypatch):
    # a k-step chain holds k + 1 polynomials, the input and each step's
    # output; all of them go through one Laurent product, lag by lag, and
    # nothing is stored on any of them
    p = PolyMatrix(np.random.default_rng(3).standard_normal((4, 3, 3)))
    inside = [r for r in det_roots(p) if r.location == "inside"]
    steps = sum(r.multiplicity for r in inside)
    assert steps >= 3
    kernel = _count_calls(monkeypatch, "_laurent")
    inputs = _count_calls(monkeypatch, "_step")
    q, reports = mirror_set(p, inside, method="consecutive")
    assert len(inputs) == len(reports) == steps
    assert [stack.shape for stack in kernel] == [(steps + 1, 3, 4, 3)]
    for step_in, step_out, rep in zip(inputs, _step_outputs(p, inputs, q), reports):
        assert list(vars(step_in)) == ["coeffs"]
        fresh = laurent_deviation(step_out, step_in)
        assert abs(rep.spectral_dev - fresh) <= 1e-15
    assert list(vars(q)) == ["coeffs"]


def test_mirror_all_inside_stores_nothing_on_its_input(monkeypatch):
    p = PolyMatrix(np.random.default_rng(3).standard_normal((4, 3, 3)))
    kernel = _count_calls(monkeypatch, "_laurent")
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
    """``spectral_dev`` from both spectra's Laurent coefficients, lag by lag,
    and ``new_root_residual`` from one SVD at ``beta = 1/alpha``, graded by the
    step's input degree ``d``; at ``alpha = 0`` (``beta`` infinite) it is
    the coefficient of ``z^d`` in the output."""
    dev = laurent_deviation(p_out, p_in)
    alpha, d = rep.mirrored_roots[0], rep.degree_in
    if alpha == 0:
        top = p_out.degree == d
        M = p_out.coeffs[d] if top else np.zeros(p_out.coeffs.shape[1:])
        size = norm(p_out)
    else:
        M = p_out(1 / alpha)
        size = norm(p_out) * max(1.0, abs(1 / alpha)) ** d
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
    for step_in, step_out, rep in zip(inputs, _step_outputs(p, inputs, q), reports):
        dev, residual = _reference_certificate(step_in, step_out, rep)
        assert abs(rep.spectral_dev - dev) <= 1e-14
        assert abs(rep.new_root_residual - residual) <= 1e-14


def test_chain_certificates_match_reference_far_from_roundoff():
    # unrelated polynomials and points that are no roots: deviations and
    # residuals of order one, so the lag products and the graded evaluation
    # are checked beyond roundoff; 0.4 and 0.3+0.6i take the reversal
    rng = np.random.default_rng(5)
    chain = [PolyMatrix(rng.standard_normal((q + 1, 3, 3))) for q in (3, 3, 2, 1)]
    reports = [
        MirrorReport([a], "elementary", 0.0, 0.0, np.nan, np.nan, p.degree, q.degree)
        for a, p, q in zip([0.4, 0.3 + 0.6j, 2.5], chain, chain[1:])
    ]
    # the certificate fills in every report before it refuses the first
    with pytest.raises(ResidualTooLarge, match="step 1 of 3: spectral_dev") as info:
        _certify(chain, reports, DEFAULTS, 3)
    for p, q, rep in zip(chain, chain[1:], reports):
        dev, residual = _reference_certificate(p, q, rep)
        assert dev > 0.1 and residual > 1e-3
        np.testing.assert_allclose(
            [rep.spectral_dev, rep.new_root_residual], [dev, residual], rtol=1e-12
        )
    assert (info.value.value, info.value.bound) == (reports[0].spectral_dev, DEFAULTS.residual)
    # past the spectral bounds, the relocation residual is judged by tol.kernel
    with pytest.raises(ResidualTooLarge, match="step 1 of 3: new_root_residual") as info:
        _certify(chain, reports, Tolerances(residual=1e3), 3)
    assert (info.value.value, info.value.bound) == (reports[0].new_root_residual, DEFAULTS.kernel)


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
    # a lower-half or non-finite record refuses itself when it is built, so
    # neither mirror_set nor mirror_once ever sees one
    for alpha in (0.5 - 0.5j, complex(np.nan, 0.5)):
        with pytest.raises(ValueError):
            mirror_set(worked_pair, [RootRecord(alpha, 1, "inside")])
        with pytest.raises(ValueError):
            mirror_once(worked_pair, RootRecord(alpha, 1, "inside"))


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
    assert sigma <= 1e-14 * norm(p) * abs(rec.alpha) ** p.degree
    if kind == "real":
        # far above 1e-6 * ||p||: an unscaled root test would reject it
        assert sigma > 1e-6 * norm(p)
    q, reports = mirror_set(p, [rec], method=method)
    assert len(reports) == 1
    assert reports[0].new_root_residual < 1e-12
    assert spectral_gap(p, q) < 1e-12
    after = [r.alpha for r in det_roots(q)]
    assert any(abs(a - 1 / np.conj(rec.alpha)) < 1e-9 for a in after)
    assert not any(abs(a - rec.alpha) < 1e-6 * abs(rec.alpha) for a in after)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("q, r, pair", [(40, 1e8, False), (40, 1e8, True), (60, 1e6, True)])
def test_mirror_set_root_past_the_float_power(q, r, pair, method):
    # |alpha|^q is past the float range: classify's root test scaled by it
    # and its powers of alpha overflowed, and the SVD did not converge; on
    # the reversal at 1/alpha the record mirrors, to the root it stands for
    p = far_root_poly(q, r, pair)
    rec = det_roots(p)[-1]
    assert rec.location == "outside" and q * math.log2(abs(rec.alpha)) > 1024
    p_out, (report,) = mirror_set(p, [rec], method=method)
    alpha = r * np.exp(0.7j) if pair else r
    assert report.mirrored_roots[0] == pytest.approx(alpha, rel=1e-14)
    assert report.new_root_residual < 1e-14 and report.spectral_dev < 1e-14
    assert spectral_gap(p, p_out, 256) < 1e-14
    # the far root, and only it, moved inside, next to 0
    after = root_values(det_roots(p_out))
    assert len(after) == len(root_values(det_roots(p)))
    inside = [abs(a) for a in after if abs(a) < 1]
    assert len(inside) == 1 + pair and max(inside) < 2 / r
    assert max(abs(a) for a in after) < r / 10


@pytest.mark.parametrize("method", METHODS)
def test_far_pair_mirrors_out_and_back(method):
    # the far pair 1e8 e^{+-0.7i} of far_root_poly(40, 1e8, True) mirrored to
    # 1e-8 e^{-+0.7i}: det_roots reports that pair as a pair (the absolute
    # fold floor 1e-7 made it a double real root at 7.65e-9, which then
    # refused as NotARoot).  Mirroring it back returns the far pair to 9.3e-8
    # (consecutive) and 2.1e-8 (polynomial) of the detected start; the
    # state-space factor at |alpha| = 1e-8 leaves the spectrum 4.2e-8 off,
    # and the certificate refuses it
    p = far_root_poly(40, 1e8, True)
    far = det_roots(p)[-1]
    out, _ = mirror_set(p, [far], method=method)
    (near,) = [r for r in det_roots(out) if abs(r.alpha) < 1e-6]
    assert near.kind == "complex_pair"
    assert near.alpha == pytest.approx(1e-8 * np.exp(0.7j), rel=1e-6)
    if method == "statespace":
        with pytest.raises(ResidualTooLarge, match="spectral_dev") as info:
            mirror_set(out, [near], method=method)
        assert info.value.value == pytest.approx(4.2e-8, rel=0.05)
        return
    back, (report,) = mirror_set(out, [near], method=method)
    assert report.spectral_dev < 1e-14
    assert det_roots(back)[-1].alpha == pytest.approx(far.alpha, rel=2e-7)
    assert spectral_gap(p, back, 256) < 1e-14


def test_mirror_once_rejects_circle_record(worked_pair):
    bad = RootRecord(alpha=np.exp(0.3j), multiplicity=1, location="on_circle")
    with pytest.raises(OnUnitCircle):
        mirror_once(worked_pair, bad)


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


def _factor(plan, method):
    """The step's factor for a plan, and the roots it moves."""
    if plan.case == CASE_REAL:
        return elementary(plan.alpha.real), [plan.alpha]
    if plan.case == CASE_DEGENERATE:
        V = squared(plan.alpha)
    else:
        V = PAIR_ROUTES[method](plan.alpha, plan.w, Tolerances())
    return V, [plan.alpha, plan.alpha.conjugate()]


def _chain_records(p):
    """The records of ``mirror_all_inside``'s steps, one per copy, in order."""
    records = sorted(
        (r for r in det_roots(p) if r.location == "inside"),
        key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag),
    )
    return [r for r in records for _ in range(r.multiplicity)]


def _rebuild_step(p, record, method):
    """One mirror step from the public parts: classify, the construction,
    and the rank-k form ``p + (p Q1 num / den - p Q1) Q1'``, with ``p Q1``
    and ``num`` in the leading ``k`` columns of square stacks for ``mul``
    and ``deconvolve``."""
    plan = classify(p, record)
    V, moved = _factor(plan, method)
    n, k, Q1 = p.dim, V.dim, plan.Q1
    pq1 = np.zeros(p.coeffs.shape)
    pq1[:, :, :k] = p.coeffs @ Q1
    N = np.zeros((V.num.degree + 1, n, n))
    N[:, :k, :k] = V.num.coeffs
    product = mul(PolyMatrix(pq1), PolyMatrix(N))
    quot, remainder = deconvolve(product, V.den)
    residual = remainder / max(1.0, np.abs(product.coeffs).max())
    delta = -pq1[:, :, :k]
    delta[: quot.degree + 1] += quot.coeffs[:, :, :k]
    q = step_sum(p.coeffs, delta @ Q1.T)

    dev = laurent_deviation(q, p)
    alpha, deg = moved[0], p.degree
    beta = 1.0 / alpha
    sigma = np.linalg.svd(q(beta), compute_uv=False)[-1]
    size = norm(q) * max(1.0, abs(beta)) ** deg
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
    # mul/deconvolve and laurent_deviation, on the polynomial the previous
    # rebuilt step returned; each chain has real and generic pair steps
    p = PolyMatrix(np.random.default_rng(seed).standard_normal((degree + 1, n, n)))
    q, reports = mirror_all_inside(p, method=method)
    assert {"elementary", method} <= {r.method for r in reports}
    steps = _chain_records(p)
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


def _one_step_inputs():
    """``(case, p, record)`` with a real root, a degenerate pair and a
    generic pair inside the circle."""
    rng = np.random.default_rng(1601)
    while True:
        p = PolyMatrix(rng.standard_normal((3, 3, 3)))
        real = [r for r in det_roots(p) if r.kind == "real" and r.location == "inside"]
        if real:
            break
    yield CASE_REAL, p, real[0]
    # U diag((z - a)(z - conj a), 1 + 0.4 z, 2 - 0.3 z) W' has the real
    # kernel W e1 at a
    a = 0.3 + 0.5j
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    W, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    d = np.zeros((3, 3, 3))
    d[:, 0, 0] = [abs(a) ** 2, -2.0 * a.real, 1.0]
    d[:2, 1, 1] = [1.0, 0.4]
    d[:2, 2, 2] = [2.0, -0.3]
    p = PolyMatrix(U @ d @ W.T)
    yield CASE_DEGENERATE, p, det_roots(p)[0]
    while True:
        p, _, pairs = polymatrix_with_inside_pair(rng, 3, 2)
        if classify(p, pairs[0]).case == CASE_GENERIC:
            break
    yield CASE_GENERIC, p, pairs[0]


@pytest.mark.parametrize("method", METHODS)
def test_step_is_the_dense_step_times_q_transpose(method):
    # the rank-k step p + (p Q1 V - p Q1) Q1' is the textbook p Q
    # blockdiag(V, I) times the constant orthogonal Q'
    for case, p, record in _one_step_inputs():
        plan = classify(p, record)
        assert plan.case == case
        q, report = mirror_once(p, record, method=method)
        ref, Q, residual = dense_step(p, plan.Q1, _factor(plan, method)[0])
        assert q.coeffs.shape == ref.coeffs.shape
        gap = np.linalg.norm(q.coeffs - ref.coeffs @ Q.T)
        assert gap <= 1e-13 * np.linalg.norm(ref.coeffs), case
        assert abs(report.residual_deconv - residual) <= 1e-13


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n,degree", [(2, 2), (3, 2), (4, 4), (6, 4)])
def test_chain_matches_the_dense_reference_in_innovations_form(n, degree, method):
    # the outputs differ from the dense chain's by a constant orthogonal
    # right factor, which the innovations form removes
    for seed in range(4):
        p = PolyMatrix(np.random.default_rng(1610 + seed).standard_normal((degree + 1, n, n)))
        q, reports = mirror_all_inside(p, method=method)
        ref = p
        for rec in _chain_records(p):
            plan = classify(ref, rec)
            ref = dense_step(ref, plan.Q1, _factor(plan, method)[0])[0]
        a, b = innovations(q).coeffs, innovations(ref).coeffs
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max(), seed


def test_step_qr_calls(monkeypatch):
    # a real step forms no orthogonal completion and takes no QR; a generic
    # step splits the n x 2 [Re v, Im v] by Gram-Schmidt, with no LAPACK QR
    calls = []
    original = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    steps = {case: (p, record) for case, p, record in _one_step_inputs()}
    for case, expected in [(CASE_REAL, []), (CASE_GENERIC, [])]:
        calls.clear()
        mirror_once(*steps[case])
        assert calls == expected, case


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
    # 1.3 z - 0.6 z^2 over z - 0.6 leaves 0.064, relative to 1.3; the step
    # refuses before it builds an output, and the refusal carries the chain
    # before it, the input alone
    p = PolyMatrix(np.array([-0.5, 1.0]).reshape(2, 1, 1))
    original = allpass.mirror.classify

    def shifted(p, record, tol):
        plan = original(p, record, tol)
        return dataclasses.replace(plan, alpha=plan.alpha + 0.1)

    monkeypatch.setattr(allpass.mirror, "classify", shifted)
    with pytest.raises(ResidualTooLarge, match="step 1 of 1: residual_deconv") as info:
        mirror_all_inside(p)
    assert info.value.value == pytest.approx(0.064 / 1.3, rel=1e-14)
    assert info.value.bound == DEFAULTS.residual
    assert f"{info.value.value:.3e}" in str(info.value)
    np.testing.assert_array_equal(info.value.p_tilde.coeffs, p.coeffs)
    assert info.value.reports == []
    bare = ResidualTooLarge("synthetic")
    assert bare.value is None and bare.bound is None


def test_polynomial_band_crossing_is_typed_through_mirror_once():
    # no triangular w was seen to cross, so the step runs on the crossing w,
    # where det A rounds to 1 and the resonance test refuses with its bound
    with pytest.raises(ResonantEigenvalues, match="within 1.0e-08") as info:
        mirror_on_kernel(CROSSING_ALPHA, CROSSING_W, "polynomial")
    assert (info.value.value, info.value.bound) == (0.0, DEFAULTS.circle)
    # the consecutive route mirrors the pair on the same plan
    q, report = mirror_on_kernel(CROSSING_ALPHA, CROSSING_W, "consecutive")
    assert report.spectral_dev <= 1e-12
    assert report.new_root_residual <= 1e-12


def assert_mirrored(p, q, n_samples=256):
    """``q`` keeps the spectrum of ``p`` to 1e-8 on ``n_samples`` points, and
    no root of ``det q`` is left inside the circle."""
    assert grid_deviation(q, p, n_samples) <= 1e-8
    assert all(r.location == "outside" for r in det_roots(q))


def test_graded_input_refuses_or_keeps_the_spectrum():
    # 3x16 with C_k scaled by 100^k: the state-space factor of step 3 leaves
    # its output 3.7e-8 off its input's spectrum, and the certificate
    # refuses the run with the chain it judged; the polynomial route (3.5e-6
    # off at step 3 with the Kronecker Stein solve) and the consecutive
    # route keep the spectrum
    p = graded(1000, 3, 16, 100)
    with pytest.raises(ResidualTooLarge, match="step 3 of 29: spectral_dev") as info:
        mirror_all_inside(p, method="statespace")
    refusal = info.value
    assert refusal.value == pytest.approx(3.74e-8, rel=0.05)
    assert refusal.bound == DEFAULTS.residual and len(refusal.reports) == 29
    assert isinstance(refusal.p_tilde, PolyMatrix)
    assert all(r.method in ("elementary", "squared", "statespace") for r in refusal.reports)
    for method in ("polynomial", "consecutive"):
        q, _ = mirror_all_inside(p, method=method)
        assert_mirrored(p, q)


@pytest.mark.parametrize("method", ["polynomial", "statespace"])
def test_graded_3x40_mirrors_on_the_stein_routes(method):
    # 3x40 with C_k scaled by 30^k: both Stein routes were refused here, at
    # step 3 with 1.5e-8 (polynomial) and 1.4e-7 (state space), while the
    # polynomial route inverted A inside the circle and the state-space
    # Gram matrix cancelled; the input is scaled by a power of two so that
    # the test's spectra do not overflow
    c = graded(1000, 3, 40, 30).coeffs
    p = PolyMatrix(np.ldexp(c, -math.frexp(abs(c).max())[1]))
    q, reports = mirror_all_inside(p, method=method)
    assert method in {r.method for r in reports}
    assert_mirrored(p, q)


def test_graded_input_judged_by_its_output_returns():
    # g = 100, 3x16, seed 1002: a polynomial factor on the way was 1.3e-8 off
    # the identity on the circle, above tol.allpass, and the run used to be
    # refused; its output keeps the spectrum to 3.7e-10 on 256 points
    p = graded(1002, 3, 16, 100)
    q, reports = mirror_all_inside(p, method="polynomial")
    assert "polynomial" in {r.method for r in reports}
    assert_mirrored(p, q)


@pytest.mark.parametrize("n, q", [(3, 40), (2, 60)])
@pytest.mark.parametrize("g, seed", [(3, 1000), (10, 1001), (100, 1002)])
def test_graded_input_past_degree_16_mirrors(n, q, g, seed):
    # the companion of p itself gave roots with backward errors up to 0.8
    # here, and the runs raised NotARoot or ResidualTooLarge; balanced, every
    # root is found to roundoff.  The input is scaled by a power of two
    # (exact, and the mirror is scale-equivariant) so that the test's
    # spectra of coefficients up to 1e120 do not overflow
    c = graded(seed, n, q, g).coeffs
    p = PolyMatrix(np.ldexp(c, -math.frexp(abs(c).max())[1]))
    values = root_values(det_roots(p))
    assert len(values) == n * q
    assert max(backward_error(p, a) for a in values) <= 1e-12
    p_out, _ = mirror_all_inside(p)
    assert_mirrored(p, p_out, 512)


def test_output_beyond_the_float_range_is_refused():
    # 2^1023 times the seed-5 3x3 of degree 4: its output's largest
    # coefficient is 2.3 * 2^1023, and scaling it back raised a ValueError
    # after an overflow; the refusal carries the exponent, the float range
    # and the reports, which are those of the unscaled input
    c = np.random.default_rng(5).standard_normal((5, 3, 3))
    _, base = mirror_all_inside(PolyMatrix(c))
    with pytest.raises(ResidualTooLarge, match="beyond the float range") as info:
        mirror_all_inside(PolyMatrix(np.ldexp(c, 1023)))
    refusal = info.value
    assert (refusal.value, refusal.bound) == (1025, 1024)
    assert refusal.p_tilde is None and refusal.reports == base


def test_refusal_carries_the_chain():
    # a bound no step meets: step 1 refuses its division remainder, and the
    # refusal holds that number and the chain before the step, the input
    # alone
    p = PolyMatrix(np.random.default_rng(41).standard_normal((4, 3, 3)))
    q, reports = mirror_all_inside(p)
    with pytest.raises(ResidualTooLarge) as info:
        mirror_all_inside(p, tol=Tolerances(residual=1e-300))
    refusal = info.value
    assert refusal.bound == 1e-300 and refusal.value == reports[0].residual_deconv > 1e-300
    assert str(refusal).startswith(f"mirror step 1 of {len(reports)}: residual_deconv")
    np.testing.assert_array_equal(refusal.p_tilde.coeffs, p.coeffs)
    assert refusal.reports == []
    # a bound every remainder meets but the spectrum of a step does not: the
    # certificate refuses the whole chain at the first such step, and the
    # refusal holds the output and the reports the same selection returns at
    # the defaults
    bound = max(r.residual_deconv for r in reports)
    step = next(i for i, r in enumerate(reports, 1) if r.spectral_dev > bound)
    with pytest.raises(ResidualTooLarge) as info:
        mirror_all_inside(p, tol=Tolerances(residual=bound))
    refusal = info.value
    assert refusal.value == reports[step - 1].spectral_dev > bound
    assert str(refusal).startswith(f"mirror step {step} of {len(reports)}: spectral_dev")
    np.testing.assert_array_equal(refusal.p_tilde.coeffs, q.coeffs)
    assert refusal.reports == reports


def test_nan_factor_coefficient_is_refused(monkeypatch):
    # a NaN in a numerator left a NaN remainder, which passed the division
    # check, and the step's output then failed PolyMatrix's finite check
    # with a ValueError; the step now refuses its remainder
    def poison(V):
        num = copy.copy(V.num)
        num.coeffs = np.where(np.arange(3)[:, None, None] == 1, np.nan, V.num.coeffs)
        return dataclasses.replace(V, num=num)

    patch_consecutive(monkeypatch, poison)
    p = PolyMatrix(np.random.default_rng(5).standard_normal((5, 3, 3)))
    with pytest.raises(AllPassError) as info:
        mirror_all_inside(p)
    assert np.isnan(info.value.value) and info.value.bound == DEFAULTS.residual
    assert "residual_deconv nan" in str(info.value)


def test_output_far_above_the_chain_scale_is_refused(monkeypatch):
    # every consecutive numerator times 1e100: a step's output squares to
    # inf in the certificate, whose overflow warning escaped (as an error
    # under this suite's filterwarnings) before ResidualTooLarge was raised
    inflate_consecutive(monkeypatch)
    p = PolyMatrix(np.random.default_rng(5).standard_normal((5, 3, 3)))
    with pytest.raises(ResidualTooLarge, match="spectral_dev inf") as info:
        mirror_all_inside(p)
    assert info.value.bound == DEFAULTS.residual


def test_nan_residual_is_refused_with_the_chain(monkeypatch):
    # a NaN report compares false against any bound and must still refuse;
    # step 2's output enters the numbers of steps 2 and 3
    poison_laurent(monkeypatch, 2)
    p = PolyMatrix(np.random.default_rng(5).standard_normal((5, 3, 3)))
    with pytest.raises(ResidualTooLarge, match="step 2 of 4: spectral_dev nan") as info:
        mirror_all_inside(p)
    assert np.isnan(info.value.value) and info.value.bound == DEFAULTS.residual
    assert [np.isnan(r.spectral_dev) for r in info.value.reports] == [False, True, True, False]


def test_max_imag_is_relative_to_the_factor(monkeypatch):
    # the imaginary residue grows with the coefficients, like |alpha|^2, so
    # the report divides it by the largest of them, and by one when none
    # exceeds one; it is reported, not judged (see test_blaschke)
    factors = []
    patch_consecutive(monkeypatch, lambda V: factors.append(V) or V)
    p = PolyMatrix(np.random.default_rng(5).standard_normal((5, 3, 3)))
    _, reports = mirror_all_inside(p)
    pairs = [r for r in reports if r.method == "consecutive"]
    assert len(pairs) == len(factors) == 2
    for rep, V in zip(pairs, factors):
        assert rep.max_imag == V.max_imag_pre / max(1.0, np.abs(V.num.coeffs).max())


# (seed, n, degree, k): the seed-5 3x3 of degree 4 at the k that broke it,
# and seeded negative k on a 4x4 of degree 3, where the remainder's old
# max(1, ...) floor was active
SCALES = [(5, 3, 4, k) for k in (-300, -256, 256, 300, -500, -480, 480, 500, -1025, -1040)]
SCALES += [(11, 4, 3, int(k)) for k in np.random.default_rng(2201).integers(-500, 0, 4)]


@pytest.mark.parametrize(
    "seed, n, degree, k",
    [pytest.param(*c, id=str(c[3]) if c[0] == 5 else f"4x4-{c[3]}") for c in SCALES],
)
def test_reports_are_scale_invariant(seed, n, degree, k):
    # the spectra square the coefficients: at |k| = 256 their squares
    # underflowed or overflowed and every spectral_dev read 0.0, at k = 300
    # NaN; the remainder was relative to max(1, largest dividend
    # coefficient), and from |k| = 480 the outputs were not 2^k times the
    # base.  At k = -1025 the largest coefficient is subnormal, and the root
    # finder and the mirror raised LinAlgError
    c = np.random.default_rng(seed).standard_normal((degree + 1, n, n))
    p = PolyMatrix(np.ldexp(c, k))
    q0, base = mirror_all_inside(PolyMatrix(c))
    q, reports = mirror_all_inside(p)
    if np.array_equal(np.ldexp(p.coeffs, -k), c):
        np.testing.assert_array_equal(q.coeffs, np.ldexp(q0.coeffs, k))
        assert reports == base
        return
    # subnormal coefficients lose bits: the roots move by that roundoff
    roots = [r.alpha for r in det_roots(p)]
    assert len(roots) == 7
    np.testing.assert_allclose(roots, [r.alpha for r in det_roots(PolyMatrix(c))], rtol=1e-10)
    assert len(reports) == len(base)
    for r in reports:
        assert max(r.residual_deconv, r.max_imag, r.spectral_dev) <= DEFAULTS.residual
        assert r.new_root_residual <= DEFAULTS.kernel


@pytest.mark.parametrize("method", ["consecutive", "polynomial"])
def test_graded_output_holds_every_image(method):
    # the steps of a graded chain meet leading output coefficients far below
    # the largest but far above roundoff; a trim at 1e-12 of the largest would
    # drop them, leaving degree 12 and an image at 7.4e-3, not 7.5e-16
    p = graded(1000, 3, 16, 10)
    q, reports = mirror_all_inside(p, method=method)
    assert q.degree == p.degree
    for report in reports:
        for alpha in report.mirrored_roots:
            assert backward_error(q, 1 / np.conj(alpha), "fro") <= DEFAULTS.kernel


def test_step_keeps_a_genuine_small_leading_coefficient():
    # (z - 0.5)(1 + 1e-10 z): after balancing, C_q is not small, so det_roots
    # finds the far root -1e10 too.  Mirroring 0.5 gives (1 - 0.5 z)(1 + 1e-10
    # z), whose leading -5e-11 is far above the roundoff of the two terms it
    # is summed from, so the step keeps it and the root at -1e10 with it,
    # whatever the caller's trim (the root finder's deflation floor)
    p = PolyMatrix(np.array([-0.5, 1.0 - 0.5e-10, 1e-10]).reshape(3, 1, 1))
    for trim in (DEFAULTS.trim, 1e-9, 1e-3):
        tol = Tolerances(trim=trim)
        assert [r.alpha for r in det_roots(p, tol)] == pytest.approx([0.5, -1e10], rel=1e-14)
        q, (report,) = mirror_all_inside(p, tol=tol)
        assert q.degree == report.degree_out == 2
        np.testing.assert_allclose(q.coeffs.ravel(), [1.0, -0.5 + 1e-10, -5e-11], rtol=1e-14)
        assert [r.alpha for r in det_roots(q, tol)] == pytest.approx([2.0, -1e10], rel=1e-14)
