"""State-space realizations k(z) = C (z^-1 I - A)^-1 B + D.

The transfer variable enters through its reciprocal, so eigenvalues of ``A``
inside the unit circle correspond to poles of ``k`` outside it.  The module
holds the realization algebra only: the closed-form 2x2 Stein (discrete
Lyapunov) solver both real-arithmetic pair factors are built from, and
:func:`structural_blocks`, which reads off why the state-space pair factor
(:func:`allpass.blaschke.build_b2`) is all-pass: the blocks of its product
with its adjoint that the Stein solution cancels.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULTS
from .errors import ResonantEigenvalues

__all__ = [
    "StateSpace",
    "solve_stein",
    "structural_blocks",
]


@dataclasses.dataclass
class StateSpace:
    """Real realization (A, B, C, D) of ``C (z^-1 I - A)^-1 B + D``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=np.float64))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=np.float64))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=np.float64))
        m = self.A.shape[0]
        if self.A.shape != (m, m):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != m:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {m}")
        if self.C.shape[1] != m:
            raise ValueError(f"C has {self.C.shape[1]} columns, expected {m}")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValueError(
                f"D must be {(self.C.shape[0], self.B.shape[1])}, got {self.D.shape}"
            )


def solve_stein(A: np.ndarray, Q: np.ndarray, tol=DEFAULTS) -> np.ndarray:
    """Solve the Stein equation ``X = A' X A + Q`` for 2x2 ``A`` and ``Q``.

    ``Q`` must be symmetric to ``tol.residual`` times its largest entry, and
    ``X`` is symmetric; other sizes raise ``ValueError``.  On symmetric 2x2
    matrices ``M: X -> A' X A`` has the eigenvalues ``lambda_i lambda_j``,
    and, with ``t = tr A`` and ``d = det A``, the characteristic polynomial
    ``p(m) = (m - d) (m^2 - (t^2 - 2d) m + d^2)``.  By Cayley-Hamilton ``X =
    s(M) Q / p(1)`` for ``s(m) = (p(m) - p(1)) / (m - 1)``: two products,
    ``A' Q A`` and ``A' (A' Q A) A``, on either side of the circle, and the
    same again on the residual, one step of refinement.  ``p(1) = (1 - d)
    ((1 + d)^2 - t^2)``: :class:`~allpass.errors.ResonantEigenvalues` is
    raised when ``min(|1 - d|, sqrt|(1 + d)^2 - t^2|)``, that is ``|1 -
    lambda_1 lambda_2|`` and, for a complex pair, ``|1 - lambda^2|``, is at
    most ``tol.circle``.
    """
    A = np.asarray(A, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if A.shape != (2, 2) or Q.shape != (2, 2):
        raise ValueError(f"need 2x2 A and Q, got {A.shape}, {Q.shape}")
    sym_err = float(abs(Q - Q.T).max())
    if not sym_err <= tol.residual * float(abs(Q).max()):
        raise ValueError(f"Q is not symmetric (deviation {sym_err:.3e})")
    Q = 0.5 * (Q + Q.T)

    (a, b), (c, e) = A.tolist()
    t, d = a + e, a * e - b * c
    pair = (1.0 + d) ** 2 - t * t
    gap = min(abs(1.0 - d), math.sqrt(abs(pair)))
    if not gap > tol.circle:
        message = f"an eigenvalue product of A is {gap:.3e} from 1, within {tol.circle:.1e}"
        raise ResonantEigenvalues(message, gap, tol.circle)
    # s(m) = m^2 + u m + (1 - d) u + d with u = 1 + d - t^2
    u = 1.0 + d - t * t
    X = np.zeros((2, 2))
    for _ in range(2):
        R = Q - X + A.T @ X @ A
        MR = A.T @ R @ A
        X = X + (A.T @ MR @ A + u * MR + ((1.0 - d) * u + d) * R) / ((1.0 - d) * pair)
    return 0.5 * (X + X.T)


def structural_blocks(ss: StateSpace, X: np.ndarray) -> dict:
    """The blocks that explain why a realization is all-pass.

    Takes the product realization of ``k*(1/z) k(z)``, the adjoint (poles
    mirrored) times ``k``, in the state coordinates ``M = [[I, X], [0, I]]``
    and reads off the blocks that must vanish when ``X`` solves the Stein
    equation tying the realization together: the (1,2) state coupling block,
    the transformed input/output blocks, and the feedthrough deviation
    ``D'D + ... - I``.  The blocks are computed from their closed formulas,
    without forming the product realization.

    Returns a dict of Frobenius norms: ``coupling_12``, ``input_13``,
    ``output_32`` and ``feedthrough_33`` (deviation from identity).
    """
    # the blocks of M (star(ss) ss) M^-1, written out: star(ss) is
    # (As, As C', -B' As, D' - B' As C') with As = A'^-1
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    As = np.linalg.inv(A.T)
    Bs = As @ C.T
    Cs = -B.T @ As
    Ds = D.T - B.T @ Bs
    return {
        "coupling_12": float(np.linalg.norm(Bs @ C + X @ A - As @ X)),
        "input_13": float(np.linalg.norm(Bs @ D + X @ B)),
        "output_32": float(np.linalg.norm(Ds @ C - Cs @ X)),
        "feedthrough_33": float(np.linalg.norm(Ds @ D - np.eye(D.shape[1]))),
    }

