"""One benchmark process: set up, warm up, then measure (``run.py`` starts it).

Set-up is everything from process start to the first timed op being ready:
interpreter start, ``import allpass``, input generation, one untimed warm-up
op and a ``gc.freeze()`` of everything made so far.  The worker prints the monotonic time at which it was ready, so
the parent, which noted the time it started the process on the same clock,
can compute set-up time.  With ``--setup-only`` it stops there.

Otherwise it runs a closed loop, one caller, until the ops' own timed time
reaches ``--seconds``; each op's output is checked after its clock stops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from collections import Counter

import metrics
import oracle
import workloads
from tracer import Tracer


def attempt(op):
    """Run one op; return its time in ms and its failure names (empty if ok)."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # every failure is a data point, named by class
        return 1e3 * (time.perf_counter() - t0), [type(exc).__name__]
    ms = 1e3 * (time.perf_counter() - t0)
    try:
        names = op.check(out)
    except Exception as exc:  # an unreadable output fails the check
        names = [f"unreadable.{type(exc).__name__}"]
    return ms, [n if n.startswith("exit.") else f"oracle.{n}" for n in names]


def _count(fails: Counter, labels: Counter, op, names):
    for name in names:
        fails[name] += 1
        labels[f"{op.label}:{name}"] += 1


def measure(ops, seconds: float) -> dict:
    samples, fails, labels = [], Counter(), Counter()
    busy_ms, i = 0.0, 0
    while busy_ms < 1e3 * seconds:
        op = ops[i % len(ops)]
        ms, names = attempt(op)
        busy_ms += ms
        samples.append((ms, bool(names)))
        _count(fails, labels, op, names)
        i += 1
    return {"samples": samples, "fails": fails, "labels": labels, "busy_ms": busy_ms}


def end_to_end(result: dict, seconds: float, rss_children: bool) -> dict:
    samples = result["samples"]
    n = len(samples)
    n_fail = sum(failed for _, failed in samples)
    tail_p = metrics.tail_percentile(n)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if rss_children else resource.RUSAGE_SELF)
    return {
        "ops_per_s": (n - n_fail) / (result["busy_ms"] / 1e3),
        "op_ms_p50": metrics.ranked_percentile(samples, 50.0, 1e3 * seconds),
        "op_ms_tail": metrics.ranked_percentile(samples, tail_p, 1e3 * seconds),
        "ok_share": (n - n_fail) / n,
        "fail_share": n_fail / n,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": n,
        "failed": n_fail,
        "tail_percentile": tail_p,
    }


def measure_traced(ops, runner, seconds: float, spans_dir: str) -> dict:
    """Each op runs untraced, then traced, on the same input.

    The untraced runs give the failure counts and the baseline for the
    tracing overhead; the traced runs give the spans.
    """
    tracer = Tracer()
    fails, labels = Counter(), Counter()
    plain_ms = traced_ms = import_ms = 0.0
    cli_verified = [0, 0]
    samples = []
    spans_path = os.path.join(spans_dir, "cli_spans.json")
    j = 0
    while plain_ms + traced_ms < 1e3 * seconds:
        op = ops[j % len(ops)]
        ms, names = attempt(op)
        plain_ms += ms
        samples.append((ms, bool(names)))
        _count(fails, labels, op, names)
        if runner is not None:
            runner.spans_path = spans_path
        with tracer:
            tracer.op_id = j
            t0 = time.perf_counter()
            try:
                op.run()
            except Exception:  # already counted on the untraced run
                pass
            traced_ms += 1e3 * (time.perf_counter() - t0)
        if runner is not None:
            runner.spans_path = None
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(spans_path)
            tracer.absorb(child["spans"], j)
            import_ms += child["import_ms"]
            cli_verified[0] += child["verified"][0]
            cli_verified[1] += child["verified"][1]
        j += 1
    ok, total = oracle.detection_counts(tracer.captures)
    tracer.captures.clear()
    layer = metrics.layer_metrics(tracer, j, (ok + cli_verified[0], total + cli_verified[1]), import_ms)
    layer["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms
    layer["op_ms_tail.percentile"] = metrics.tail_percentile(len(samples))
    layer["op_ms_tail.samples"] = len(samples)
    layer.update(metrics.fail_metrics(fails))
    return {
        "layer": layer, "tracer": tracer, "fails": fails, "labels": labels,
        "attempted": len(samples), "failed": sum(f for _, f in samples),
    }


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']}-{blas['version']}",
        "nproc": os.cpu_count(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", required=True, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops, runner = workloads.build(args.workload, args.seed, args.workdir)
    attempt(ops[0])
    # objects made by imports, generation and this harness are never garbage;
    # freezing them keeps collections inside ops proportional to the ops' own
    # allocations, as they would be without a harness holding thousands of ops
    gc.collect()
    gc.freeze()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out = {"ready": ready, "env": environment()}
    if args.trace:
        res = measure_traced(ops, runner, args.seconds, args.workdir)
        out["layer"] = res["layer"]
        res["tracer"].save(args.spans)
        out["spans_file"] = args.spans
        out["missing_targets"] = sorted(res["tracer"].missing)
    else:
        res = measure(ops, args.seconds)
        out["e2e"] = end_to_end(res, args.seconds, rss_children=runner is not None)
        res["attempted"], res["failed"] = out["e2e"]["attempted"], out["e2e"]["failed"]
    out["attempted"], out["failed"] = res["attempted"], res["failed"]
    out["fail_labels"] = dict(res["labels"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
