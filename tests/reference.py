"""Reference algebra the tests compare the pipeline against.

Polynomial products, division and trimming, the boundary spectrum on the
full grid of roots of unity and its Laurent coefficients, the plain kernel
vector, the orthogonal completion and the dense mirror step ``p Q
blockdiag(V, I)``, the innovations form, the Kronecker Stein solver, and the
state-space product, adjoint and coordinate change.  The package itself
works on fused kernels (``_conv_coeffs``, ``_divide_coeffs``,
``_anchored_kernel``, the rank-k step, the closed-form ``structural_blocks``
and ``solve_stein``), on the upper half of the circle grid and on batched
lag products; these are the textbook forms, kept here so tests can build
inputs and check results with them.
"""

import numpy as np

from allpass.config import DEFAULTS
from allpass.polymat import (
    PolyMatrix,
    ScalarPoly,
    _conv_coeffs,
    _divide_coeffs,
    _trimmed_length,
    spectral_eval,
)
from allpass.roots import _anchored_kernel, _positive_qr
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
    dt = ScalarPoly(d.coeffs[: _trimmed_length(d.coeffs, DEFAULTS.trim)])
    dq = dt.degree
    q = p.degree
    if dq < 1:
        raise ValueError("divisor must have degree >= 1")
    if dq > q:
        raise ValueError(f"divisor degree {dq} exceeds dividend degree {q}")
    quot, residual = _divide_coeffs(p.coeffs, dt.coeffs)
    return trimmed(PolyMatrix(quot), rtol), residual


def trimmed(p, rtol: float = DEFAULTS.trim) -> PolyMatrix:
    """``p`` without the trailing coefficients at most ``rtol`` times its
    largest, as the mirror step trims its output."""
    return PolyMatrix(p.coeffs[: _trimmed_length(p.coeffs, rtol)])


def circle_spectrum(p, n_samples: int = 64) -> np.ndarray:
    """The boundary spectrum ``p(z) p(z)^H`` at every ``n_samples``-th root
    of unity, shape ``(n_samples, n, n)``: :func:`spectral_eval` on the
    grid, where ``1/conj(z) = z``."""
    return spectral_eval(p, np.exp(2j * np.pi * np.arange(n_samples) / n_samples))


def laurent_coeffs(p, q: int) -> np.ndarray:
    """The Laurent coefficients ``R_d = sum_k C_(k+d) C_k'``, ``d = 0 .. q``,
    of the boundary spectrum ``p(z) p(1/z)' = sum_(|d| <= q) R_d z^d``, with
    ``R_-d = R_d'``, one coefficient product at a time; the lags past the
    degree of ``p`` are zero."""
    C = p.coeffs
    R = np.zeros((q + 1,) + C.shape[1:])
    for d in range(q + 1):
        for k in range(p.degree + 1 - d):
            R[d] += C[k + d] @ C[k].T
    return R


def laurent_deviation(p_new, p_old) -> float:
    """The mirror certificate's spectral number: ``sum_(|d| <= q) ||R_d^new -
    R_d^old||_F`` over ``sqrt(sum_(|d| <= q) ||R_d^old||_F^2)``, ``q`` the
    larger degree, lag by lag.  It is at least the largest ``||S_new -
    S_old||_F`` over the circle relative to the largest ``||S_old||_F``, and
    at most ``2q + 1`` times that."""
    q = max(p_new.degree, p_old.degree)
    new, old = laurent_coeffs(p_new, q), laurent_coeffs(p_old, q)
    dev = square = 0.0
    for d in range(-q, q + 1):
        a, b = new[abs(d)], old[abs(d)]
        if d < 0:
            a, b = a.T, b.T
        dev += np.linalg.norm(a - b)
        square += np.linalg.norm(b) ** 2
    return dev / np.sqrt(square)


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


def complete(V1: np.ndarray) -> np.ndarray:
    """Complete the orthonormal columns ``V1`` to a real orthogonal matrix.

    Deterministic: the QR factorisation of ``[V1 | I]`` with a positive R
    diagonal, whose leading columns are then overwritten with ``V1`` itself.
    """
    n, k = V1.shape
    B = np.eye(n, n + k, k)
    B[:, :k] = V1
    Q, _ = _positive_qr(B)
    Q[:, :k] = V1
    return Q


def dense_step(p, Q1, V):
    """The textbook mirror step ``p Q blockdiag(V, I)`` with ``Q`` the
    :func:`complete` of ``Q1``, the factor's denominator divided out.

    Returns ``(p_tilde, Q, residual)``: the output (trimmed), the orthogonal
    ``Q`` and the remainder of the division, relative to the largest
    coefficient of the transformed kernel columns.  The package's rank-k
    step returns ``p_tilde Q'``.
    """
    n, k, d = p.dim, V.dim, V.den.degree
    Q = complete(Q1)
    F = np.zeros((d + 1, n, n))
    F[: V.num.degree + 1, :k, :k] = V.num.coeffs
    F[:, k:, k:] = V.den.coeffs[:, None, None] * np.eye(n - k)
    product = mul(PolyMatrix(p.coeffs @ Q), PolyMatrix(F))
    q, remainder = deconvolve(product, V.den)
    return q, Q, remainder / max(1.0, np.abs(product.coeffs[:, :, :k]).max())


def innovations(p) -> PolyMatrix:
    """``p U`` with the constant orthogonal ``U`` that makes ``p(0) U`` lower
    triangular with a positive diagonal: one QR of ``p(0)'``.  Two outputs
    that differ by a constant orthogonal right factor, and whose ``p(0)`` is
    nonsingular, have the same innovations form."""
    U, _ = _positive_qr(p.coeffs[0].T)
    return PolyMatrix(p.coeffs @ U)


def kron_stein(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The Stein solution of ``X = A' X A + Q`` for any square size, from
    the Kronecker system ``(I - kron(A', A')) vec X = vec Q``, one dense
    solve, symmetrized."""
    m = A.shape[0]
    K = np.eye(m * m) - np.kron(A.T, A.T)
    X = np.linalg.solve(K, Q.reshape(-1)).reshape(m, m)
    return 0.5 * (X + X.T)


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
