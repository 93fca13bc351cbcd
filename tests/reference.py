"""Reference algebra the tests compare the pipeline against.

Polynomial products and division, the plain kernel vector, and the
state-space product, adjoint and coordinate change.  The package itself
works on fused kernels (``_conv_coeffs``, ``_divide_coeffs``,
``_anchored_kernel``, the closed-form ``structural_blocks``); these are the
textbook forms, kept here so tests can build inputs and check results with
them.
"""

import numpy as np

from allpass.config import DEFAULTS
from allpass.polymat import PolyMatrix, ScalarPoly, _conv_coeffs, _divide_coeffs, trim
from allpass.roots import _anchored_kernel
from allpass.statespace import StateSpace


def constant(matrix) -> PolyMatrix:
    """Wrap a constant square matrix as a degree-0 polynomial."""
    return PolyMatrix(np.asarray(matrix)[None, :, :])


def mul(p, q):
    """Convolution product of two matrix polynomials of equal dimension."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return PolyMatrix(_conv_coeffs(p.coeffs, q.coeffs))


def mul_scalar(p, s: ScalarPoly):
    """Multiply a matrix polynomial by a scalar polynomial."""
    scaled_eye = s.coeffs[:, None, None] * np.eye(p.dim)
    return PolyMatrix(_conv_coeffs(p.coeffs, scaled_eye))


def deconvolve(p, d: ScalarPoly, rtol: float = DEFAULTS.trim):
    """Divide a matrix polynomial by a scalar polynomial.

    Parameters
    ----------
    p : PolyMatrix
        Dividend of degree q.
    d : ScalarPoly
        Divisor with ``1 <= degree(d) <= q`` after trimming.
    rtol : float
        Trim threshold applied to the quotient.

    Returns
    -------
    (quotient, residual)
        Quotient with ``degree = q - degree(d)`` and the largest remainder
        magnitude.  ``quotient * d + remainder == p`` holds to roundoff; when
        every entry of ``p`` is divisible by ``d`` the residual is noise.
        The division runs from the high-degree end, leaving the remainder
        in the lowest ``degree(d)`` coefficients, unless ``|d_0| > |d_lead|``
        (for a linear or pair divisor: roots outside the unit circle); then
        it runs from the low-degree end and the remainder sits in the top.
    """
    dt = d.trim()
    dq = dt.degree
    q = p.degree
    if dq < 1:
        raise ValueError("divisor must have degree >= 1")
    if dq > q:
        raise ValueError(f"divisor degree {dq} exceeds dividend degree {q}")
    quot, residual = _divide_coeffs(p.coeffs, dt.coeffs)
    return trim(PolyMatrix(quot), rtol), residual


def kernel_vector(M: np.ndarray) -> np.ndarray:
    """Unit right-kernel direction of a (nearly) rank-deficient matrix.

    The smallest right singular vector, with a deterministic phase: the
    largest-modulus entry (lowest index on ties) is made real and positive.
    The zero matrix maps to the first basis vector.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"need a square matrix, got shape {M.shape}")
    _, _, vh = np.linalg.svd(M)
    return _anchored_kernel(M, vh)


def ss_eval(ss: StateSpace, z) -> np.ndarray:
    """Evaluate the transfer function at ``z``.

    ``z = 0`` returns ``D`` (the resolvent term vanishes in the limit).
    """
    zz = complex(z)
    if zz == 0:
        return ss.D.astype(np.complex128)
    m = ss.A.shape[0]
    core = np.linalg.solve(np.eye(m) / zz - ss.A, ss.B)
    return ss.C @ core + ss.D


def ss_product(s1: StateSpace, s2: StateSpace) -> StateSpace:
    """Realization of the product ``k1(z) k2(z)``."""
    if s1.B.shape[1] != s2.C.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {s1.B.shape[1]} inputs vs "
            f"{s2.C.shape[0]} outputs"
        )
    m1, m2 = s1.A.shape[0], s2.A.shape[0]
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
    m = ss.A.shape[0]
    if M.shape != (m, m):
        raise ValueError(f"M must be {(m, m)}, got {M.shape}")
    Minv = np.linalg.inv(M)
    return StateSpace(M @ ss.A @ Minv, M @ ss.B, ss.C @ Minv, ss.D)
