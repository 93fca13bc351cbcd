"""Root mirroring end to end: single steps, selections, and the full sweep."""

import numpy as np
import pytest

import allpass.mirror
from allpass import (
    METHODS,
    PolyMatrix,
    Tolerances,
    circle_spectrum,
    det_roots,
    enumerate_selections,
    mirror_all_inside,
    mirror_once,
    mirror_set,
    spectral_eval,
)
from allpass.errors import OnUnitCircle, SelectionNotClosed
from allpass.mirror import _spectral_deviation
from allpass.roots import RootRecord
from conftest import polymatrix_with_inside_pair


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
    # a k-step chain holds k + 1 polynomials: the input and each step's output
    p = PolyMatrix(np.random.default_rng(3).standard_normal((4, 3, 3)))
    inside = [r for r in det_roots(p) if r.location == "inside"]
    steps = sum(r.multiplicity for r in inside)
    assert steps >= 3
    kernel = _count_calls(monkeypatch, "circle_spectrum")
    inputs = _count_calls(monkeypatch, "mirror_once")
    q, reports = mirror_set(p, inside, method="consecutive")
    assert len(inputs) == len(reports) == steps
    assert len(kernel) == steps + 1
    # the spectrum a step reads from its input is that input's own
    for step_in, step_out, rep in zip(inputs, inputs[1:] + [q], reports):
        fresh = _spectral_deviation(
            circle_spectrum(step_out), circle_spectrum(step_in)
        )
        assert rep.spectral_dev == fresh


def test_mirror_all_inside_stores_nothing_on_its_input(monkeypatch):
    p = PolyMatrix(np.random.default_rng(3).standard_normal((4, 3, 3)))
    kernel = _count_calls(monkeypatch, "circle_spectrum")
    q1, reps1 = mirror_all_inside(p)
    first = len(kernel)
    q2, reps2 = mirror_all_inside(p)
    assert first == len(reps1) + 1
    assert len(kernel) == 2 * first
    np.testing.assert_array_equal(q1.coeffs, q2.coeffs)


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
    from allpass.polymat import mul

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
    steps = _counting(monkeypatch, "mirror_once")
    with pytest.raises(OnUnitCircle):
        mirror_all_inside(p)
    assert steps == []


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
