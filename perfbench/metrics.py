"""Metric definitions: the failure-ranked latency rule and the per-layer set.

Every name here is listed, with unit and direction, in ``BENCHMARK.json``;
``spec.json`` says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import math
from collections import Counter

WORKLOADS = ("mirror-all", "factor-sweep", "cli-mirror", "envelope")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
}
# envelope ops fail by design; their timings would punish a fix that turns a
# fast failure into real work, so only the shares and set-up are end to end
ENVELOPE_END_TO_END = {"setup_s": "s", "ok_share": "fraction", "fail_share": "fraction"}

# Spaced so that each workload's op count in a 20 s run sits well inside one
# band and the percentile does not flip between runs: cli-mirror (80-130
# ops) reads p75, mirror-all (700-1200) p98, factor-sweep (4000-16000) p99.5.
TAIL_LADDER = (50.0, 75.0, 98.0, 99.5)
TAIL_BEYOND = 10

# failures named in the per-layer set; anything else counts under ".other"
FAIL_CLASSES = (
    "SingularPolynomialMatrix", "NotARoot", "DeconvolutionResidueTooLarge",
    "OnUnitCircle", "DegenerateW", "CholeskyNotPD",
)
FAIL_CHECKS = (
    "spectrum", "relocation", "inside", "root_count", "real",
    "detection", "allpass", "anchor", "report_count",
)

SPAN_MS = (
    ("polymat.spectral_eval.ms", "polymat.spectral_eval", "ms"),
    ("polymat.det_poly.ms", "polymat.det_poly", "ms"),
    ("polymat.poly_roots.ms", "polymat.poly_roots", "ms"),
    ("roots.det_roots.ms", "roots.det_roots", "ms"),
    ("roots.classify.ms", "roots.classify", "ms"),
    ("blaschke.elementary.ms", "blaschke.elementary", "ms"),
    ("blaschke.squared.ms", "blaschke.squared", "ms"),
    ("blaschke.b2_consecutive.ms", "blaschke.b2_consecutive", "ms"),
    ("blaschke.b2_polynomial.ms", "blaschke.b2_polynomial", "ms"),
    ("blaschke.verify_allpass.ms", "blaschke.verify_allpass", "ms"),
    ("statespace.build_b2.ms", "statespace.build_b2", "ms"),
    ("statespace.solve_stein.ms", "statespace.solve_stein", "ms"),
    ("statespace.structural_blocks.ms", "statespace.structural_blocks", "ms"),
    ("mirror.mirror_once.self_ms", "mirror.mirror_once", "self_ms"),
    ("jsonio.read_ms", "jsonio.read", "ms"),
    ("jsonio.write_ms", "jsonio.write", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
)
SPAN_CALLS = (
    ("polymat.spectral_eval.calls", "polymat.spectral_eval"),
    ("roots.det_roots.calls", "roots.det_roots"),
    ("mirror.mirror_once.calls", "mirror.mirror_once"),
)


def per_layer_units() -> dict:
    units = {name: "ms" for name, _, _ in SPAN_MS}
    units.update({name: "count" for name, _ in SPAN_CALLS})
    units.update({
        "roots.verified_root_share": "fraction",
        "mirror.steps_per_op": "count",
        "mirror.detect_per_step": "count",
        "cli.import_ms": "ms",
        "trace.overhead_pct": "%",
        "op_ms_tail.percentile": "pct",
        "op_ms_tail.samples": "count",
    })
    units.update({f"fail.{c}": "count" for c in FAIL_CLASSES + ("other", "exit")})
    units.update({f"fail.oracle.{c}": "count" for c in FAIL_CHECKS})
    return units


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            best = p
    return best


def ranked_percentile(samples, p: float, penalty_ms: float) -> float:
    """Nearest-rank percentile of ``(ms, failed)`` samples.

    A failed op ranks above every success, because it misses any latency
    limit; when the rank lands on one, the value is ``penalty_ms`` (the run's
    whole measuring window), never the failure's own, possibly short, time.
    """
    ok = sorted(ms for ms, failed in samples if not failed)
    n = len(samples)
    k = max(math.ceil(p / 100.0 * n) - 1, 0)
    if k < len(ok):
        return ok[k]
    return max([penalty_ms] + ok)


def fail_metrics(fails: Counter) -> dict:
    out = {f"fail.{c}": 0 for c in FAIL_CLASSES + ("other", "exit")}
    out.update({f"fail.oracle.{c}": 0 for c in FAIL_CHECKS})
    for name, count in fails.items():
        if name.startswith("exit."):
            key = "fail.exit"
        elif f"fail.{name}" in out:
            key = f"fail.{name}"
        else:
            key = "fail.other"
        out[key] += count
    return out


def layer_metrics(tracer, n_ops: int, verified: tuple, import_ms: float) -> dict:
    """Per-op layer numbers from one traced run."""
    s = tracer.summary(n_ops)
    out = {}
    for name, span, key in SPAN_MS:
        out[name] = s.get(span, {}).get(key, 0.0)
    for name, span in SPAN_CALLS:
        out[name] = s.get(span, {}).get("calls", 0.0)
    mirror_ops = tracer.ops_with("mirror.mirror_all_inside") | tracer.ops_with("mirror.mirror_set")
    steps = tracer.count_in("mirror.mirror_once", mirror_ops)
    detects = tracer.count_in("roots.det_roots", mirror_ops)
    out["mirror.steps_per_op"] = steps / max(len(mirror_ops), 1)
    out["mirror.detect_per_step"] = detects / max(steps, 1)
    ok, total = verified
    # no detection at all leaves nothing unverified
    out["roots.verified_root_share"] = ok / total if total else 1.0
    out["cli.import_ms"] = import_ms / max(n_ops, 1)
    return out
