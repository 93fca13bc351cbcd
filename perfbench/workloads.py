"""Seeded workload generators.

``build(name, seed, workdir)`` returns the list of operations one run cycles
through.  Inputs come only from ``numpy.random.default_rng(seed)``; the library
sees nothing but the generated coefficients (or the JSON files holding them).
Each :class:`Op` pairs a call into the library's public API or the ``allpass``
CLI with the independent check of its output from :mod:`oracle`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from typing import Callable

import numpy as np

import allpass
import oracle

METHODS = ("consecutive", "polynomial", "statespace")

# Mirror grids as ((n, q), inputs per round, methods); every input runs once
# per method.  mirror-all holds the cells that pass today; envelope the
# larger cells that fail today, kept so those defects stay visible.
#
# The polynomial route breaches the 1e-8 spectrum bound when a step meets a
# nearly real kernel ([Re w, Im w] ratio near 1e-4).  With n = 2 that happens
# on about one seed in a hundred (2x3, seed 103), so on the n = 2 cells it
# runs in the envelope workload; for n >= 3 it was not seen in 90 seeds.  The
# n = 2 cells take two inputs per round instead, which also keeps the median
# op inside the cluster of fast cells rather than on the gap to 4x4.
ROBUST_METHODS = ("consecutive", "statespace")
MIRROR_PLAN = (
    ((2, 2), 2, ROBUST_METHODS),
    ((3, 2), 1, METHODS),
    ((2, 3), 2, ROBUST_METHODS),
    ((4, 4), 1, METHODS),
    ((6, 4), 1, METHODS),
)
MIRROR_ROUNDS = 16
ENVELOPE_PLAN = tuple((cell, 1, METHODS) for cell in ((8, 6), (12, 6), (16, 2), (20, 1)))
ENVELOPE_ROUNDS = 3
ENVELOPE_POLYNOMIAL_PLAN = (((2, 2), 1, ("polynomial",)), ((2, 3), 1, ("polynomial",)))
CLI_CELLS = ((4, 4), (6, 4))
CLI_INPUTS_PER_CELL = 3

# sigma2/sigma1 of [Re w, Im w], drawn log-uniformly per construction, and
# the moduli of alpha inside and outside the circle.  Two regions breach the
# all-pass bound today and run in the envelope workload instead: the
# polynomial route below 1e-1 (its residual grows roughly like cond**-6
# inside the circle), and the state-space route at |alpha| near 0.1 (about
# 1e-9 there, worst near the real axis).  Consecutive and state space hold
# down to 1e-5 at |alpha| >= 0.3.
FACTOR_COND = {"consecutive": (1e-5, 1.0), "polynomial": (1e-1, 1.0), "statespace": (1e-5, 1.0)}
FACTOR_RADII = ((0.3, 0.9), (1.1, 5.0))
ENVELOPE_FACTOR = {"polynomial": ((1e-6, 1e-1), (0.3, 0.9)), "statespace": ((1e-3, 1e-1), (0.05, 0.15))}
FACTOR_ROUNDS = 200


@dataclasses.dataclass
class Op:
    """One benchmark operation: ``run()`` calls the library, ``check`` judges it.

    ``check(out)`` returns failure names (``oracle.<check>`` or
    ``exit.<code>``); an exception from ``run`` is a failure named by class.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    inputs: tuple = ()


def gaussian_poly(rng, n: int, q: int) -> np.ndarray:
    return rng.standard_normal((q + 1, n, n))


def _mirror_op(label, c, method):
    moved = oracle.inside_roots(c)
    p = allpass.PolyMatrix(c)

    def run():
        return allpass.mirror_all_inside(p, method=method)[0].coeffs

    return Op(label, run, lambda out: oracle.check_mirror(c, out, moved), (c, method))


def fixed_steps_poly(rng, n: int, q: int) -> np.ndarray:
    """Gaussian ``p`` redrawn until ``n*q // 2`` roots lie inside, of them
    exactly ``2 - k % 2`` real (the commonest count for these cells).

    That fixes the number of mirror steps per input, so run-to-run spread
    reflects the code and the machine rather than the seed's luck.
    """
    k = n * q // 2
    while True:
        c = gaussian_poly(rng, n, q)
        inside = np.array(oracle.inside_roots(c))
        if len(inside) == k and np.sum(np.abs(inside.imag) < 1e-9) == 2 - k % 2:
            return c


def _mirror_grid(rng, plan, rounds, draw=fixed_steps_poly):
    """Ops in rounds that each hold the whole plan once, so any prefix of the
    list (a run stops at its deadline) keeps the plan's mix."""
    ops = []
    for _ in range(rounds):
        round_ = []
        for (n, q), copies, methods in plan:
            for _ in range(copies):
                c = draw(rng, n, q)
                round_ += [_mirror_op(f"{n}x{q}/{m}", c, m) for m in methods]
        ops += [round_[j] for j in rng.permutation(len(round_))]
    return ops


def kernel_direction(rng, cond: float) -> np.ndarray:
    """Unit ``w`` whose ``[Re w, Im w]`` has singular value ratio ``cond``."""
    def rotation():
        t = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    W = rotation() @ np.diag([1.0, cond]) @ rotation().T
    w = W[:, 0] + 1j * W[:, 1]
    return w / np.linalg.norm(w)


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _pair_root(rng, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))


def _factor_op(label, build, alpha, w=None):
    def run():
        V = build()
        allpass.verify_allpass(V)
        return V

    def check(V):
        return oracle.check_factor(V.num.coeffs, V.den.coeffs, alpha, w)

    return Op(label, run, check, (alpha, w))


def _pair_factor_op(method, alpha, w):
    if method == "consecutive":
        build = lambda: allpass.b2_consecutive_from_w(alpha, w)  # noqa: E731
    elif method == "polynomial":
        build = lambda: allpass.b2_polynomial(alpha, w)  # noqa: E731
    else:
        build = lambda: allpass.build_b2(alpha, w)[1]  # noqa: E731
    return _factor_op(f"pair/{method}", build, alpha, w)


def _factor_sweep(rng):
    """Rounds of the three pair constructions plus one scalar factor.

    Rounds alternate inside and outside the circle, and the scalar factor
    between elementary and squared.  Scalar ops are cheaper; one in four
    keeps the median inside the pair ops' cluster, away from the gap where
    it would jump between the two.
    """
    ops = []
    for k in range(FACTOR_ROUNDS):
        radii = FACTOR_RADII[k % 2]
        round_ = []
        for method in METHODS:
            alpha = _pair_root(rng, *radii)
            w = kernel_direction(rng, _log_uniform(rng, *FACTOR_COND[method]))
            round_.append(_pair_factor_op(method, alpha, w))
        if k % 4 < 2:
            a = float(rng.uniform(*radii) * rng.choice([-1.0, 1.0]))
            round_.append(_factor_op("scalar/elementary", lambda a=a: allpass.elementary(a), a))
        else:
            alpha = _pair_root(rng, *radii)
            round_.append(_factor_op("scalar/squared", lambda a=alpha: allpass.squared(a), alpha))
        ops += [round_[j] for j in rng.permutation(len(round_))]
    return ops


def _envelope(rng):
    ops = _mirror_grid(rng, ENVELOPE_PLAN, ENVELOPE_ROUNDS, gaussian_poly)
    ops += _mirror_grid(rng, ENVELOPE_POLYNOMIAL_PLAN, MIRROR_ROUNDS)
    for method, (cond, radii) in ENVELOPE_FACTOR.items():
        for _ in range(24):
            w = kernel_direction(rng, _log_uniform(rng, *cond))
            ops.append(_pair_factor_op(method, _pair_root(rng, *radii), w))
    return ops


# -- CLI workload ---------------------------------------------------------

def poly_json(c: np.ndarray) -> dict:
    return {"dim": c.shape[1], "degree": c.shape[0] - 1, "coeffs": c.tolist()}


def cli_command(args, traced_spans: str | None = None) -> list:
    """argv running the ``allpass`` CLI from source, optionally traced."""
    if traced_spans is None:
        return [sys.executable, "-m", "allpass.cli", *args]
    shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
    return [sys.executable, shim, traced_spans, *args]


class CliRunner:
    """Runs CLI ops as child processes; ``spans_path`` switches on tracing.

    The children inherit the worker's environment, which ``run.py`` set up:
    ``PYTHONPATH`` pointing at the sources and BLAS pinned to one thread.
    """

    def __init__(self):
        self.spans_path = None

    def __call__(self, args):
        proc = subprocess.run(
            cli_command(args, self.spans_path), capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout


def _records(listing):
    return [
        (complex(*r["alpha"]), int(r["multiplicity"]), r["kind"] == "complex_pair")
        for r in listing
    ]


def _cli_roots_op(runner, label, path, c):
    def check(out):
        code, stdout = out
        if code != 0:
            return [f"exit.{code}"]
        return oracle.check_roots(c, _records(json.loads(stdout)))

    return Op(label, lambda: runner(["roots", path]), check, (c,))


def _cli_mirror_op(runner, label, path, c, select, moved, steps, method, out_path):
    args = ["mirror", path, "--select", select, "--method", method, "--out", out_path]
    report_path = os.path.splitext(out_path)[0] + ".report.json"

    def check(out):
        code, _ = out
        if code != 0:
            return [f"exit.{code}"]
        # removed once read, so a later run that writes nothing cannot pass
        with open(out_path, encoding="utf-8") as fh:
            obj = json.load(fh)
        with open(report_path, encoding="utf-8") as fh:
            reports = json.load(fh)
        os.remove(out_path)
        os.remove(report_path)
        failed = oracle.check_mirror(c, np.asarray(obj["coeffs"]), moved)
        if len(reports) != steps:
            failed.append("report_count")
        return failed

    return Op(label, lambda: runner(args), check, (c, select, method))


def _cli_mirror(rng, workdir):
    runner = CliRunner()
    ops = []
    k = 0
    for n, q in CLI_CELLS:
        for i in range(CLI_INPUTS_PER_CELL):
            c = fixed_steps_poly(rng, n, q)
            path = os.path.join(workdir, f"in_{n}x{q}_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(poly_json(c), fh)
            # --select indices refer to the CLI's own root order, which the
            # public det_roots defines; pick two inside records by seed
            records = allpass.det_roots(allpass.PolyMatrix(c))
            inside = [j for j, r in enumerate(records) if r.location == "inside"]
            chosen = sorted(rng.choice(inside, size=min(2, len(inside)), replace=False).tolist())
            moved = []
            for j in chosen:
                r = records[j]
                pair = [r.alpha, r.alpha.conjugate()] if r.kind == "complex_pair" else [r.alpha]
                moved += pair * r.multiplicity
            # one read-only op to two mirror ops keeps the median inside the
            # mirror ops' cluster instead of on the gap between the two kinds
            ops.append(_cli_roots_op(runner, f"{n}x{q}/roots", path, c))
            out_path = os.path.join(workdir, f"out_{n}x{q}_{i}.json")
            for _ in range(2):
                method = METHODS[k % len(METHODS)]
                ops.append(_cli_mirror_op(
                    runner, f"{n}x{q}/mirror-{method}", path, c,
                    ",".join(map(str, chosen)), moved,
                    sum(records[j].multiplicity for j in chosen), method, out_path,
                ))
                k += 1
    return ops, runner


def build(name: str, seed: int, workdir: str):
    """Operations for workload ``name``, and the CLI runner (else ``None``).

    cli-mirror writes its input files into ``workdir``.
    """
    rng = np.random.default_rng(seed)
    if name == "mirror-all":
        ops, runner = _mirror_grid(rng, MIRROR_PLAN, MIRROR_ROUNDS), None
    elif name == "factor-sweep":
        ops, runner = _factor_sweep(rng), None
    elif name == "cli-mirror":
        return _cli_mirror(rng, workdir)
    elif name == "envelope":
        ops, runner = _envelope(rng), None
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops, runner
