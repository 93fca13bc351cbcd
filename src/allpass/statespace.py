"""State-space realizations k(z) = C (z^-1 I - A)^-1 B + D.

The transfer variable enters through its reciprocal, so eigenvalues of ``A``
inside the unit circle correspond to poles of ``k`` outside it.  The module
builds the 2x2 pair factor in state space and certifies it structurally,
through the Stein (discrete Lyapunov) solver that certificate hinges on.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULTS
from .errors import GramNotPD, ResonantEigenvalues, SingularSteinSolution
from .polymat import PolyMatrix
from .roots import check_pair

__all__ = [
    "StateSpace",
    "solve_stein",
    "build_b2",
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


def solve_stein(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve the Stein equation ``X = A' X A + Q`` for symmetric X.

    Parameters
    ----------
    A : (m, m) array
    Q : (m, m) array, symmetric.

    Returns
    -------
    X : (m, m) symmetric array.

    Raises
    ------
    ResonantEigenvalues
        If some product of eigenvalues ``lambda_i * lambda_j`` of A is within
        1e-10 of 1, where the equation is singular, or if the Kronecker
        system turns out singular anyway; the message then carries its
        condition number.

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
    if A.shape != (m, m) or Q.shape != (m, m):
        raise ValueError(f"need square A and Q of equal size, got {A.shape}, {Q.shape}")
    sym_err = float(abs(Q - Q.T).max()) if m else 0.0
    if sym_err > 1e-8 * max(1.0, float(abs(Q).max()) if m else 1.0):
        raise ValueError(f"Q is not symmetric (deviation {sym_err:.3e})")
    if m == 0:
        return np.zeros((0, 0))
    Q = 0.5 * (Q + Q.T)

    lam = np.linalg.eigvals(A)
    prods = lam[:, None] * lam[None, :]
    bad = abs(prods - 1.0) < 1e-10
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ResonantEigenvalues(
            f"eigenvalue product lambda_{i} * lambda_{j} = {prods[i, j]:.12g} "
            "is within 1e-10 of 1; the Stein equation is singular"
        )

    # kron(A', A') by broadcasting: entry (i m + k, j m + l) is A_ji A_lk
    At = A.T
    kron = (At[:, None, :, None] * At[None, :, None, :]).reshape(m * m, m * m)
    K = np.eye(m * m) - kron
    try:
        X = np.linalg.solve(K, Q.reshape(-1)).reshape(m, m)
    except np.linalg.LinAlgError as err:
        # eigenvalues of a defective A carry errors far above 1e-10, so a
        # product can equal 1 exactly although the test above let it pass
        raise ResonantEigenvalues(
            f"the Kronecker Stein system is singular (condition number "
            f"{np.linalg.cond(K):.3e}); some eigenvalue product of A is 1"
        ) from err
    return 0.5 * (X + X.T)


def structural_blocks(ss: StateSpace, X: np.ndarray) -> dict:
    """Certification residuals for an all-pass candidate.

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


def build_b2(alpha, w, tol=DEFAULTS):
    """All-pass factor for a conjugate root pair, built in state space.

    Parameters
    ----------
    alpha : complex
        Upper-half-plane member of the pair, off the unit circle.
    w : (2,) complex array
        Kernel direction in Q1 coordinates; the numerator's column space at
        ``alpha`` is spanned by it.
    tol : Tolerances
        ``circle`` and ``degenerate`` for :func:`~allpass.roots.check_pair`.

    Returns
    -------
    (StateSpace, RationalAllPass)
        The realization and its rational form with monic denominator
        ``(z - alpha)(z - conj(alpha))``.

    Raises
    ------
    ValueError, OnUnitCircle, DegenerateW
        From :func:`~allpass.roots.check_pair`.
    ResonantEigenvalues
    GramNotPD
        If the Gram matrix fails its Cholesky, or the feedthrough built from
        it fails the structural certification (worst block residual above
        1e-6, carried in the message).
    SingularSteinSolution
        If the Stein solution is numerically singular (condition > 1e12).
    """
    # circular at import time only
    from .blaschke import RationalAllPass, _pair_denominator

    alpha, w = check_pair(alpha, w, tol)
    lam = 1.0 / alpha
    A = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    C = np.column_stack([w.imag, -w.real]) / np.linalg.norm(w)
    X = solve_stein(A, C.T @ C)
    # the 2-norm condition number, from the SVD np.linalg.cond would take
    sv = np.linalg.svd(X, compute_uv=False)
    condX = float(sv[0]) / float(sv[1]) if sv[1] > 0.0 else math.inf
    if not np.isfinite(condX) or condX > 1e12:
        raise SingularSteinSolution(condX, 1e12)
    Ainv = np.linalg.inv(A)
    Xinv = np.linalg.inv(X)
    G = np.eye(2) + C @ Ainv @ Xinv @ Ainv.T @ C.T

    # G is positive definite in exact arithmetic on both sides of the
    # circle: X >= 0 gives G >= I for |alpha| > 1, and for |alpha| < 1,
    # Y = -X > 0 gives G = (I + C Y^-1 C')^-1
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise GramNotPD("Gram matrix is not positive definite") from None
    D = np.linalg.inv(L).T
    B = -Xinv @ Ainv.T @ C.T @ D
    ss = StateSpace(A, B, C, D)
    blocks = structural_blocks(ss, X)
    worst = max(blocks.values())
    if worst > 1e-6:
        raise GramNotPD(
            f"structural certification failed (worst block residual "
            f"{worst:.3e}: {blocks})"
        )

    # rational form over the monic denominator (z - alpha)(z - conj alpha)
    tr = 2.0 * lam.real
    det = abs(lam) ** 2
    scale = abs(alpha) ** 2
    c0 = ss.D
    c1 = ss.C @ ss.B - tr * ss.D
    c2 = ss.C @ (A - tr * np.eye(2)) @ ss.B + det * ss.D
    rat = RationalAllPass(
        num=PolyMatrix(scale * np.array([c0, c1, c2])),
        den=_pair_denominator(alpha),
        alpha=alpha,
        method="statespace",
        w=w.copy(),
        max_imag_pre=0.0,
    )
    return ss, rat
