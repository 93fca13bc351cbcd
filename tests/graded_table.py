"""The graded table: every inside root of graded inputs mirrored by each method.

Run from the repository root with ``PYTHONPATH=src python tests/graded_table.py``;
pytest does not collect it.  The inputs are ``C_k g^k`` (``reference.graded``)
for ``g`` = 10, 30 and 100, scaled by a power of two so that their spectra
stay in range: cells 3x4, 6x4, 4x8, 6x8 and 3x16 with ``default_rng(1000 ..
1007)``, and 3x40 and 2x60 with ``default_rng(1000 .. 1003)``, 144 runs per
method.  A returned output is right when its spectrum stays within 1e-8 of
the input's on 256 points and ``det_roots`` finds no root of it inside the
circle.  For each method the table prints the right, wrong and refused
counts (refusals by error class), the worst 256-point deviation of a returned
output, and the worst backward error (``conftest.backward_error``) of a
moved root's image ``1/conj(alpha)`` as a root of the output.  It judges
nothing: it exits 0 unless a run raises something other than an
``AllPassError``.
"""

import collections
import math

import numpy as np

from allpass import METHODS, AllPassError, PolyMatrix, det_roots, mirror_all_inside
from conftest import backward_error
from reference import graded, grid_deviation

SMALL = [(3, 4), (6, 4), (4, 8), (6, 8), (3, 16)]
TALL = [(3, 40), (2, 60)]


def inputs():
    for cells, seeds in ((SMALL, range(1000, 1008)), (TALL, range(1000, 1004))):
        for n, q in cells:
            for g in (10, 30, 100):
                for seed in seeds:
                    c = graded(seed, n, q, g).coeffs
                    yield PolyMatrix(np.ldexp(c, -math.frexp(abs(c).max())[1]))


def row(method):
    counts, worst_dev, worst_eta = collections.Counter(), 0.0, 0.0
    for p in inputs():
        try:
            q, reports = mirror_all_inside(p, method=method)
        except AllPassError as exc:
            counts[type(exc).__name__] += 1
            continue
        dev = grid_deviation(q, p, 256)
        right = dev <= 1e-8 and all(r.location == "outside" for r in det_roots(q))
        counts["right" if right else "wrong"] += 1
        worst_dev = max(worst_dev, dev)
        for rep in reports:
            for alpha in rep.mirrored_roots:
                worst_eta = max(worst_eta, backward_error(q, 1 / np.conj(alpha)))
    refused = ", ".join(f"{name} {k}" for name, k in sorted(counts.items()) if name not in ("right", "wrong"))
    return (
        f"{method:<12} {counts['right']:>5} {counts['wrong']:>5}  {worst_dev:>9.2e}  "
        f"{worst_eta:>9.2e}  {refused or '-'}"
    )


if __name__ == "__main__":
    print(f"{'method':<12} {'right':>5} {'wrong':>5}  {'worst dev':>9}  {'worst eta':>9}  refused")
    for method in METHODS:
        print(row(method), flush=True)
