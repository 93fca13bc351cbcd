"""Tests of the benchmark itself: seeding, output checks, tracing, percentiles.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import importlib
import json
import sys
import time
import types

import numpy as np
import pytest

import allpass
import metrics
import oracle
import tracer
import workloads
from worker import attempt


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _inputs(name, seed, workdir):
    ops, _ = workloads.build(name, seed, str(workdir))
    return [(op.label, op.inputs) for op in ops]


@pytest.mark.parametrize("name", ["mirror-all", "factor-sweep", "cli-mirror", "envelope"])
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path)
    second = _inputs(name, 7, tmp_path)
    other = _inputs(name, 8, tmp_path)
    assert [label for label, _ in first] == [label for label, _ in second]
    assert all(
        len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
        for (_, a), (_, b) in zip(first, second)
    )
    assert not all(_same(a[0], b[0]) for (_, a), (_, b) in zip(first, other))


def _op(name, label_prefix, seed=3):
    ops, _ = workloads.build(name, seed, ".")
    return next(op for op in ops if op.label.startswith(label_prefix))


def test_mirror_check_rejects_perturbed_output():
    op = _op("mirror-all", "4x4/statespace")
    c_in = op.inputs[0]
    out = op.run()
    assert op.check(out) == []

    bumped = out.copy()
    bumped[0, 0, 0] += 1e-6 * np.abs(out).max()
    assert "spectrum" in op.check(bumped)
    assert op.check(out + 0j) == ["real"]
    # handing back the input unmirrored leaves every root inside
    assert {"inside", "relocation"} <= set(op.check(c_in))


def test_factor_check_rejects_perturbed_factor():
    op = _op("factor-sweep", "pair/polynomial")
    V = op.run()
    alpha, w = op.inputs
    assert op.check(V) == []
    num, den = V.num.coeffs, V.den.coeffs
    assert "allpass" in oracle.check_factor(num * (1 + 1e-6), den, alpha, w)
    # anchored to the wrong direction: the real part of w alone
    assert oracle.check_factor(num, den, alpha, w.real) == ["anchor"]


def test_roots_check_rejects_wrong_listing():
    c = _op("mirror-all", "6x4").inputs[0]
    records = [
        (r.alpha, r.multiplicity, r.kind == "complex_pair")
        for r in allpass.det_roots(allpass.PolyMatrix(c))
    ]
    assert oracle.check_roots(c, records) == []
    moved = [(a + 1e-3, m, pair) for a, m, pair in records]
    assert "detection" in oracle.check_roots(c, moved)
    assert "root_count" in oracle.check_roots(c, records[1:])


def test_cli_check_fails_on_nonzero_exit():
    op = workloads._cli_roots_op(None, "x/roots", "unused.json", np.eye(2)[None])
    assert op.check((5, "")) == ["exit.5"]


def test_attempt_names_failures_by_class():
    def boom():
        raise allpass.NotARoot("synthetic")

    ms, names = attempt(workloads.Op("x", boom, lambda out: []))
    assert names == ["NotARoot"] and ms >= 0.0
    _, names = attempt(workloads.Op("x", lambda: 1, lambda out: ["spectrum"]))
    assert names == ["oracle.spectrum"]


def _targets():
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in tracer.TARGETS
    }


def test_wrappers_restored_after_traced_run():
    before = _targets()
    op = _op("mirror-all", "3x2/consecutive")
    t = tracer.Tracer()
    with t:
        t.op_id = 0
        op.run()
        assert allpass.mirror.det_roots is not before[("allpass.mirror", "det_roots")]
    # also when the traced call raises
    singular = allpass.PolyMatrix(np.zeros((2, 2, 2)))
    with pytest.raises(allpass.SingularPolynomialMatrix):
        with t:
            allpass.mirror_all_inside(singular)
    after = _targets()
    assert all(after[key] is before[key] for key in before)
    assert not t.missing

    start, end = np.array(t.start), np.array(t.end)
    assert np.all(end >= start)
    names = [t.names[i] for i in t.name]
    outer = names.index("mirror.mirror_all_inside")
    inner = names.index("roots.det_roots")
    assert t.parent[inner] == outer


def test_self_time_subtracts_children():
    mod = types.ModuleType("perfbench_fake")

    def inner():
        time.sleep(0.02)

    def outer():
        mod.inner()
        time.sleep(0.01)

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    try:
        t = tracer.Tracer(((mod.__name__, "outer", "outer"), (mod.__name__, "inner", "inner")))
        with t:
            t.op_id = 0
            mod.outer()
        s = t.summary(1)
        assert s["outer"]["self_ms"] == pytest.approx(s["outer"]["ms"] - s["inner"]["ms"])
        assert 9.0 <= s["outer"]["self_ms"] < s["inner"]["ms"]
        copy = tracer.Tracer(())
        copy.absorb(json.loads(json.dumps(t.to_json())), 0)
        assert copy.summary(1) == s
    finally:
        del sys.modules[mod.__name__]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(2000) == 99.5
    assert metrics.tail_percentile(1999) == 98.0
    assert metrics.tail_percentile(500) == 98.0
    assert metrics.tail_percentile(499) == 75.0
    assert metrics.tail_percentile(40) == 75.0
    assert metrics.tail_percentile(39) == 50.0
    assert metrics.tail_percentile(5) == 50.0


def test_failures_rank_above_every_success():
    samples = [(10.0, False)] * 8 + [(0.1, True)] * 2
    assert metrics.ranked_percentile(samples, 50.0, 1e4) == 10.0
    assert metrics.ranked_percentile(samples, 80.0, 1e4) == 10.0
    assert metrics.ranked_percentile(samples, 90.0, 1e4) == 1e4

    # a change that makes ops fail fast cannot read as faster
    healthy = [(10.0, False)] * 10
    failing_fast = [(0.1, True)] * 6 + [(10.0, False)] * 4
    for p in (50.0, 90.0):
        assert metrics.ranked_percentile(failing_fast, p, 1e4) >= metrics.ranked_percentile(
            healthy, p, 1e4
        )


def test_fail_metrics_cover_every_name():
    out = metrics.fail_metrics({"NotARoot": 2, "exit.5": 1, "oracle.spectrum": 3, "LinAlgError": 4})
    assert out["fail.NotARoot"] == 2
    assert out["fail.exit"] == 1
    assert out["fail.oracle.spectrum"] == 3
    assert out["fail.other"] == 4
    assert set(out) <= set(metrics.per_layer_units())
