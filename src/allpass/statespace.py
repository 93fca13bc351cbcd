"""State-space realizations k(z) = C (z^-1 I - A)^-1 B + D.

The transfer variable enters through its reciprocal, so eigenvalues of ``A``
inside the unit circle correspond to poles of ``k`` outside it.  The module
holds the realization algebra only: the Stein (discrete Lyapunov) solver the
real-arithmetic pair factors are built from, and :func:`structural_blocks`,
which reads off why the state-space pair factor
(:func:`allpass.blaschke.build_b2`) is all-pass: the blocks of its product
with its adjoint that the Stein solution cancels.
"""

from __future__ import annotations

import dataclasses

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
    """Solve the Stein equation ``X = A' X A + Q`` for symmetric X.

    Parameters
    ----------
    A : (m, m) array, m >= 1
    Q : (m, m) array, symmetric to ``tol.residual`` times its largest entry.
    tol : Tolerances

    Returns
    -------
    X : (m, m) symmetric array.

    Raises
    ------
    ResonantEigenvalues
        If some product of eigenvalues ``lambda_i * lambda_j`` of A is within
        ``tol.circle`` of 1, where the equation is singular, or if the
        Kronecker system turns out singular anyway.

    Notes
    -----
    The equation is solved in Kronecker form, ``(I - kron(A', A')) vec X =
    vec Q``, as one dense linear system, and the solution is symmetrized; no
    series summation is involved, so convergence does not depend on the
    spectral radius of A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    m = A.shape[0]
    if m == 0 or A.shape != (m, m) or Q.shape != (m, m):
        raise ValueError(f"need nonempty square A and Q of equal size, got {A.shape}, {Q.shape}")
    sym_err = float(abs(Q - Q.T).max())
    if not sym_err <= tol.residual * float(abs(Q).max()):
        raise ValueError(f"Q is not symmetric (deviation {sym_err:.3e})")
    Q = 0.5 * (Q + Q.T)

    lam = np.linalg.eigvals(A)
    prods = lam[:, None] * lam[None, :]
    bad = abs(prods - 1.0) <= tol.circle
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ResonantEigenvalues(
            f"eigenvalue product lambda_{i} * lambda_{j} = {prods[i, j]:.12g} "
            f"is within {tol.circle:.1e} of 1; the Stein equation is singular",
            abs(prods - 1.0).min(), tol.circle,
        )

    # kron(A', A') by broadcasting: entry (i m + k, j m + l) is A_ji A_lk
    At = A.T
    kron = (At[:, None, :, None] * At[None, :, None, :]).reshape(m * m, m * m)
    K = np.eye(m * m) - kron
    try:
        X = np.linalg.solve(K, Q.reshape(-1)).reshape(m, m)
    except np.linalg.LinAlgError as err:
        # eigenvalues of an ill-conditioned A carry errors far above the
        # band, so a product can equal 1 exactly although the test above let
        # it pass; the refusal is LAPACK's exact-zero pivot, with no bound
        cond = np.linalg.cond(K)
        raise ResonantEigenvalues(
            f"the Kronecker Stein system is singular (condition number "
            f"{cond:.3e}); some eigenvalue product of A is 1",
            cond, None,
        ) from err
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

