"""State-space realizations k(z) = C (z^-1 I - A)^-1 B + D.

The transfer variable enters through its reciprocal, so eigenvalues of ``A``
inside the unit circle correspond to poles of ``k`` outside it.  The module
provides the algebra needed to certify all-pass factors structurally:
products, the adjoint ``k*(1/z)``, state coordinate changes, and the Stein
(discrete Lyapunov) solver they all hinge on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import DEFAULTS
from .errors import GramNotPD, ResonantEigenvalues
from .polymat import PolyMatrix
from .roots import check_pair

__all__ = [
    "StateSpace",
    "ss_eval",
    "ss_product",
    "ss_star",
    "state_transform",
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

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    def __call__(self, z):
        return ss_eval(self, z)


def ss_eval(ss: StateSpace, z) -> np.ndarray:
    """Evaluate the transfer function at ``z``.

    ``z = 0`` returns ``D`` (the resolvent term vanishes in the limit).
    """
    zz = complex(z)
    if zz == 0:
        return ss.D.astype(np.complex128)
    m = ss.n_states
    core = np.linalg.solve(np.eye(m) / zz - ss.A, ss.B)
    return ss.C @ core + ss.D


def ss_product(s1: StateSpace, s2: StateSpace) -> StateSpace:
    """Realization of the product ``k1(z) k2(z)``."""
    if s1.B.shape[1] != s2.C.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {s1.B.shape[1]} inputs vs "
            f"{s2.C.shape[0]} outputs"
        )
    m1, m2 = s1.n_states, s2.n_states
    A = np.zeros((m1 + m2, m1 + m2))
    A[:m1, :m1] = s1.A
    A[:m1, m1:] = s1.B @ s2.C
    A[m1:, m1:] = s2.A
    B = np.vstack([s1.B @ s2.D, s2.B])
    C = np.hstack([s1.C, s1.D @ s2.C])
    D = s1.D @ s2.D
    return StateSpace(A, B, C, D)


def ss_star(ss: StateSpace) -> StateSpace:
    """Realization of the adjoint ``k*(1/z)`` (transpose with mirrored poles).

    Requires ``A`` nonsingular; the poles move to their reciprocals, which is
    exactly what makes products ``k* k`` constant for all-pass ``k``.
    """
    At_inv = np.linalg.inv(ss.A.T)
    return StateSpace(
        A=At_inv,
        B=At_inv @ ss.C.T,
        C=-ss.B.T @ At_inv,
        D=ss.D.T - ss.B.T @ At_inv @ ss.C.T,
    )


def state_transform(ss: StateSpace, M: np.ndarray) -> StateSpace:
    """Change state coordinates by an invertible M: (MAM^-1, MB, CM^-1, D)."""
    M = np.asarray(M, dtype=np.float64)
    m = ss.n_states
    if M.shape != (m, m):
        raise ValueError(f"M must be {(m, m)}, got {M.shape}")
    Minv = np.linalg.inv(M)
    return StateSpace(M @ ss.A @ Minv, M @ ss.B, ss.C @ Minv, ss.D)


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
        1e-10 of 1, where the equation is singular, or if the vectorized
        system turns out singular anyway.

    Notes
    -----
    The symmetric unknown is vectorized into its m(m+1)/2 upper-triangle
    entries and the resulting dense linear system is solved directly; no
    series summation is involved, so convergence does not depend on the
    spectral radius of A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    m = A.shape[0]
    if A.shape != (m, m) or Q.shape != (m, m):
        raise ValueError(f"need square A and Q of equal size, got {A.shape}, {Q.shape}")
    sym_err = float(np.max(np.abs(Q - Q.T))) if m else 0.0
    if sym_err > 1e-8 * max(1.0, float(np.max(np.abs(Q))) if m else 1.0):
        raise ValueError(f"Q is not symmetric (deviation {sym_err:.3e})")
    if m == 0:
        return np.zeros((0, 0))
    Q = 0.5 * (Q + Q.T)

    lam = np.linalg.eigvals(A)
    prods = lam[:, None] * lam[None, :]
    bad = np.abs(prods - 1.0) < 1e-10
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ResonantEigenvalues(
            f"eigenvalue product lambda_{i} * lambda_{j} = {prods[i, j]:.12g} "
            "is within 1e-10 of 1; the Stein equation is singular"
        )

    idx = [(i, j) for i in range(m) for j in range(i, m)]
    K = len(idx)
    basis = np.zeros((K, m, m))
    for k, (i, j) in enumerate(idx):
        basis[k, i, j] = 1.0
        basis[k, j, i] = 1.0
    # rows of the dense system: (X - A'XA) restricted to the upper triangle
    mapped = basis - np.einsum("pi,kpq,qj->kij", A, basis, A)
    rows = np.array([[mapped[k, i, j] for k in range(K)] for (i, j) in idx])
    rhs = np.array([Q[i, j] for (i, j) in idx])
    try:
        sol = np.linalg.solve(rows, rhs)
    except np.linalg.LinAlgError as err:
        # eigenvalues of a defective A carry errors far above 1e-10, so a
        # product can equal 1 exactly although the test above let it pass
        raise ResonantEigenvalues(
            f"the vectorized Stein system is singular (condition number "
            f"{np.linalg.cond(rows):.3e}); some eigenvalue product of A is 1"
        ) from err
    X = np.zeros((m, m))
    for k, (i, j) in enumerate(idx):
        X[i, j] = sol[k]
        X[j, i] = sol[k]
    return X


def structural_blocks(ss: StateSpace, X: np.ndarray) -> dict:
    """Certification residuals for an all-pass candidate.

    Forms ``k*(1/z) k(z)`` as one realization, applies the state transform
    ``M = [[I, X], [0, I]]`` and reads off the blocks that must vanish when
    ``X`` solves the Stein equation tying the realization together:
    the (1,2) and (2,1) state coupling blocks, the transformed input/output
    blocks, and the feedthrough deviation ``D'D + ... - I``.

    Returns a dict of Frobenius norms: ``coupling_12``, ``input_13``,
    ``output_32`` and ``feedthrough_33`` (deviation from identity).
    """
    m = ss.n_states
    comp = ss_product(ss_star(ss), ss)
    M = np.eye(2 * m)
    M[:m, m:] = X
    t = state_transform(comp, M)
    return {
        "coupling_12": float(np.linalg.norm(t.A[:m, m:])),
        "input_13": float(np.linalg.norm(t.B[:m, :])),
        "output_32": float(np.linalg.norm(t.C[:, m:])),
        "feedthrough_33": float(np.linalg.norm(t.D - np.eye(ss.D.shape[0]))),
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
        If neither sign of the Gram matrix yields a feedthrough satisfying
        the defining identity.
    numpy.linalg.LinAlgError
        If the Stein solution is numerically singular (condition > 1e12).
    """
    # circular at import time only
    from .blaschke import RationalAllPass, _pair_denominator

    alpha, w = check_pair(alpha, w, tol)
    lam = 1.0 / alpha
    A = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    C = np.column_stack([w.imag, -w.real]) / np.linalg.norm(w)
    X = solve_stein(A, C.T @ C)
    condX = float(np.linalg.cond(X))
    if not np.isfinite(condX) or condX > 1e12:
        raise np.linalg.LinAlgError(
            f"Stein solution X is numerically singular (cond = {condX:.3e})"
        )
    Ainv = np.linalg.inv(A)
    Xinv = np.linalg.inv(X)
    G = np.eye(2) + C @ Ainv @ Xinv @ Ainv.T @ C.T

    def _assemble(gram, sign_note):
        L = np.linalg.cholesky(gram)
        D = np.linalg.inv(L).T
        B = -Xinv @ Ainv.T @ C.T @ D
        ss = StateSpace(A, B, C, D)
        blocks = structural_blocks(ss, X)
        worst = max(blocks.values())
        if worst > 1e-6:
            raise GramNotPD(
                f"structural certification failed with {sign_note} Gram "
                f"(worst block residual {worst:.3e}: {blocks})"
            )
        return ss

    try:
        ss = _assemble(G, "positive")
    except np.linalg.LinAlgError:
        try:
            ss = _assemble(-G, "negated")
        except np.linalg.LinAlgError:
            raise GramNotPD(
                "Gram matrix is indefinite; no sign admits a Cholesky factor"
            ) from None

    # rational form over the monic denominator (z - alpha)(z - conj alpha)
    tr = 2.0 * lam.real
    det = abs(lam) ** 2
    scale = abs(alpha) ** 2
    c0 = ss.D
    c1 = ss.C @ ss.B - tr * ss.D
    c2 = ss.C @ (A - tr * np.eye(2)) @ ss.B + det * ss.D
    rat = RationalAllPass(
        num=PolyMatrix(scale * np.stack([c0, c1, c2])),
        den=_pair_denominator(alpha),
        alpha=alpha,
        method="statespace",
        w=w.copy(),
        max_imag_pre=0.0,
    )
    return ss, rat
