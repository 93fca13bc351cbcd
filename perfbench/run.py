"""Run one benchmark workload and print every metric with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mirror-all and cli-mirror (listed in BENCHMARK.json), factor-sweep
and envelope (cells that fail today); spec.json describes each.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
together with the tracing overhead.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up runs ``SETUP_REPEATS`` times in fresh processes and ``setup_s`` is
their median; the last of them goes on to measure.  BLAS is pinned to one
thread.  Exits nonzero, without a result line, when the library's sources
are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402  (numpy-free, keeps this process light)

SETUP_REPEATS = 5
DEADLINE_S = 170.0
BLAS_THREADS = "1"


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("BLASCHKE_TOL", None)
    return env


def _run_worker(cmd, env, root, deadline):
    """Start a worker in its own process group; kill the group on timeout."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker exceeded the time limit") from None
    except BaseException:  # interrupted: take the worker and its children along
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its workers and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "allpass", "__init__.py")):
        print("error: src/allpass not found; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    env = _env(root)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.npz"),
    ]
    try:
        setups = [
            _run_worker(cmd + ["--setup-only"], env, root, deadline)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        res = _run_worker(cmd, env, root, deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    report(args, res, statistics.median(setups))
    return 0


def report(args, res: dict, setup_s: float):
    env = res["env"]
    print(
        f"# env python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"blas_threads={BLAS_THREADS} nproc={env['nproc']}"
    )
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        values, units = res["layer"], metrics.per_layer_units()
        if res["missing_targets"]:
            print(f"# untraced (name not found): {' '.join(res['missing_targets'])}")
        print(f"# spans written to {os.path.relpath(res['spans_file'])}")
    else:
        e2e = res["e2e"]
        values = dict(e2e, setup_s=setup_s)
        units = metrics.ENVELOPE_END_TO_END if args.workload == "envelope" else metrics.END_TO_END
        print(
            f"# op_ms_tail is p{e2e['tail_percentile']:g} of {e2e['attempted']} ops; "
            f"fail_share {e2e['fail_share']:.6g}"
        )
    for label, count in sorted(res["fail_labels"].items()):
        print(f"# fail {label} {count}")
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
