"""Matrix polynomials with real coefficients.

A polynomial ``p(z) = sum_k C_k z^k`` is stored as a coefficient tensor of
shape ``(q+1, n, n)`` in ascending powers; scalar polynomials store a 1-D
array the same way.  Instances are immutable after construction (the backing
arrays are marked read-only), so they can be shared freely.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import DEFAULTS
from .errors import SingularPolynomialMatrix

__all__ = [
    "PolyMatrix",
    "ScalarPoly",
    "eval_poly",
    "spectral_eval",
    "det_poly",
    "poly_roots",
]


def _real_coeffs(coeffs) -> np.ndarray:
    """A read-only float64 copy of ``coeffs``, or ``ValueError`` carrying the
    largest imaginary magnitude or the count of non-finite entries.

    Complex storage is accepted when every imaginary part is zero.  Roots of
    a real polynomial come in conjugate pairs, which is what lets
    :func:`~allpass.roots.det_roots` keep only the upper member of each and
    the factors stay real; complex coefficients break both, and a NaN or an
    infinity leaves no root to find.
    """
    arr = np.asarray(coeffs)
    if np.iscomplexobj(arr):
        worst = float(np.max(np.abs(arr.imag), initial=0.0))
        if worst > 0.0:
            raise ValueError(
                f"coefficients must be real; the largest imaginary part "
                f"has magnitude {worst:.3e}"
            )
    else:
        arr = np.asarray(arr, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = arr.size - int(finite.sum())
        raise ValueError(
            f"coefficients must be finite; {bad} of {arr.size} are NaN or infinite"
        )
    arr = np.array(arr.real, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class PolyMatrix:
    """Square matrix polynomial with real coefficients.

    Raises ``ValueError`` for a coefficient that is not a finite real number
    (complex storage with zero imaginary parts is real).
    """

    def __init__(self, coeffs):
        arr = _real_coeffs(coeffs)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(
                f"coefficients must have shape (q+1, n, n), got {arr.shape}"
            )
        if 0 in arr.shape:
            raise ValueError(f"need one coefficient or more and n >= 1, got {arr.shape}")
        self.coeffs = arr

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        return eval_poly(self, z)

    def __repr__(self):
        return f"PolyMatrix(dim={self.dim}, degree={self.degree})"


def _unit_scaled(coeffs: np.ndarray):
    """``(coeffs 2^-e, e)`` with the largest magnitude brought into [1/2, 1)
    (``math.frexp``; ``e = 0`` for zeros): the package's one scale, exact."""
    e = math.frexp(abs(coeffs).max())[1]
    return np.ldexp(coeffs, -e), e


class ScalarPoly:
    """Scalar polynomial with real coefficients in ascending order; refuses
    the same coefficients :class:`PolyMatrix` does."""

    def __init__(self, coeffs):
        arr = _real_coeffs(np.atleast_1d(coeffs))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scalar polynomial needs a 1-D coefficient array")
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        return eval_poly(self, z)

    def __repr__(self):
        return f"ScalarPoly(degree={self.degree}, coeffs={self.coeffs!r})"


def eval_poly(p, z):
    """Evaluate ``p`` at the point ``z``: one product of the coefficient
    stack with the powers ``z^0, ..., z^q``.

    Returns an ``(n, n)`` array for matrix polynomials and a scalar for
    :class:`ScalarPoly`.  Real input evaluated at a real point stays real.
    """
    zz = complex(z)
    if zz.imag == 0.0:
        zz = zz.real
    return _eval_many(p.coeffs, np.array([zz]))[0]


def _eval_many(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient tensor at the 1-D array of points ``zs``."""
    m = coeffs.shape[0]
    powers = zs[:, None] ** np.arange(m)[None, :]
    return (powers @ coeffs.reshape(m, -1)).reshape(zs.shape + coeffs.shape[1:])


def spectral_eval(p, z):
    """Evaluate ``p(z) p(1/conj(z))^H``; on ``|z| = 1`` this is ``p(z) p(z)^H``.

    This product is what stays invariant when roots are mirrored across the
    unit circle.  ``z`` may be a scalar or an array of points: the result is
    a complex array of shape ``z.shape + (n, n)``, so a scalar gives one
    ``(n, n)`` matrix (``(1, 1)`` for a :class:`ScalarPoly`).  All points
    are evaluated together.

    Raises
    ------
    ValueError
        If any point is zero.
    """
    zs = np.asarray(z, dtype=np.complex128)
    if np.any(zs == 0):
        raise ValueError("spectral evaluation needs z != 0")
    coeffs = p.coeffs if p.coeffs.ndim == 3 else p.coeffs[:, None, None]
    flat = zs.reshape(-1)
    left = _eval_many(coeffs, flat)
    right = _eval_many(coeffs, 1.0 / np.conj(flat))
    out = left @ np.conj(right).transpose(0, 2, 1)
    return out.reshape(zs.shape + out.shape[1:])


@functools.lru_cache(maxsize=64)
def _circle_powers(n_samples: int, m: int):
    """The roots of unity ``z_k = exp(2 pi i k / n_samples)``, ``k <=
    n_samples // 2``, and their powers ``z_k^j``, ``j < m``, as read-only
    arrays; the powers come from the grid itself, ``z_k^j = z_(kj mod
    n_samples)``.  Cached: every :func:`~allpass.blaschke.verify_allpass` of
    one sample count evaluates on the same grid."""
    grid = np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    k = np.arange(n_samples // 2 + 1)
    zs, powers = grid[k], grid[np.outer(k, np.arange(m)) % n_samples]
    zs.setflags(write=False)
    powers.setflags(write=False)
    return zs, powers


def _on_circle(coeffs: np.ndarray, n_samples: int):
    """The half grid of :func:`_circle_powers` and a coefficient stack,
    coefficient axis first, at it."""
    m = coeffs.shape[0]
    zs, powers = _circle_powers(n_samples, m)
    values = powers @ coeffs.reshape(m, -1)
    return zs, values.reshape(zs.shape + coeffs.shape[1:])


def det_poly(p) -> ScalarPoly:
    """Determinant of a matrix polynomial as a scalar polynomial.

    ``det p`` at ``n*q + 1`` points on the circle of radius 1.5, interpolated
    by one FFT.  Root detection does not use it; it is a reference for tests.
    """
    m = p.dim * p.degree + 1
    zs = 1.5 * np.exp(2j * np.pi * np.arange(m) / m)
    coeff = np.fft.fft(np.linalg.det(_eval_many(p.coeffs, zs))) / m / 1.5 ** np.arange(m)
    # conjugate-symmetric samples: the imaginary part is FFT noise, and so are
    # the leading coefficients at most DEFAULTS.trim times the largest
    coeff = coeff.real
    keep = np.flatnonzero(abs(coeff) > DEFAULTS.trim * abs(coeff).max())
    return ScalarPoly(coeff[: 1 + np.max(keep, initial=0)])


def _cluster(values, rtol):
    """Greedy clustering of real or complex values, swept in ``(Re, Im)``
    order; returns every value replaced by its cluster's complex mean."""
    clusters = []
    for v in sorted(values, key=lambda c: (c.real, c.imag)):
        if clusters:
            mean, members = clusters[-1]
            if abs(v - mean) <= rtol * max(1.0, abs(v)):
                members.append(v)
                clusters[-1] = (complex(np.mean(members)), members)
                continue
        clusters.append((complex(v), [v]))
    return [mean for mean, members in clusters for _ in members]


# trial shifts s, real so that a real p keeps a real pencil and irregular to
# avoid hand-made roots; s = 0 leads with C_0, so the others serve only when
# C_q and C_0 both fail the singularity test
_SHIFTS = np.array([0.0, 0.3719, -0.5413, 0.7906, -0.2187])


def _finite_roots(coeffs, tol):
    """Finite roots of ``det p`` with multiplicity, for the stack ``coeffs``
    of ``p`` on the unit scale, from one real pencil ``z B - A`` of ``p(gamma
    z)``: ``B = diag(C_q, I, ..., I)`` and ``A`` the block companion.
    ``gamma = (||C_0|| / ||C_q||)^(1/q)`` balances the variable (Fan, Lin and
    Van Dooren, SIMAX 2004), unrounded, when ``log2 gamma`` rounds to a
    nonzero integer ``e`` and ``gamma`` is a float, ``gamma^q`` or not.  The
    lead is whichever of ``C_q`` and ``C_0`` is farther from the singularity
    test (``sigma_min / ||p||`` at most ``tol.kernel``), or of ``C_q`` and
    every ``p(s)`` when both fail it.  Led by ``C_q``, the roots are the
    eigenvalues of ``B^-1 A``; led by ``p(s)``, ``z = s + 1/mu`` for those of
    ``(A - s B)^-1 B``, once staircase rounds (Van Dooren, LAA 1979) have
    deflated the infinite roots, the singular values of ``B`` at most
    ``tol.trim ||p||``."""
    q, n = coeffs.shape[0] - 1, coeffs.shape[1]
    # log2 of gamma^q = ||C_0|| / ||C_q||, each end squared on its own unit
    # scale 2^-e (_unit_scaled), so an end however small is balanced
    (c0, e0), (cq, eq) = _unit_scaled(coeffs[0].ravel()), _unit_scaled(coeffs[-1].ravel())
    s0, sq = c0 @ c0, cq @ cq
    log_ratio = (math.log2(s0) + 2 * e0 - math.log2(sq) - 2 * eq) / 2 if s0 and sq else 0.0
    e = round(log_ratio / q) if q else 0
    gamma = 2.0 ** (log_ratio / q) if e and abs(e) < np.finfo(float).maxexp else 1.0
    if gamma != 1.0:
        # gamma^k C_k as 2^(ke - top) C_k (gamma 2^-e)^k: the exact power of two
        # first, so a subnormal C_q is not rounded; top keeps 2^(ke) C_k below 1
        k = np.arange(q + 1)
        peaks = abs(coeffs).max(axis=(1, 2))
        top = (np.frexp(peaks)[1] + k * e)[peaks > 0].max()
        coeffs = _unit_scaled((np.ldexp(coeffs.T, k * e - top) * math.ldexp(gamma, -e) ** k).T)[0]
    # the singularity test's size: ||p|| for every lead and every |s| < 1
    size = max(math.sqrt(coeffs.ravel() @ coeffs.ravel()), np.finfo(float).tiny)
    ratios = np.linalg.svd(coeffs[[-1, 0]], compute_uv=False)[:, -1] / size
    best = int(np.argmax(ratios))
    if ratios[best] <= tol.kernel:
        leads = np.concatenate([coeffs[-1:], _eval_many(coeffs, _SHIFTS)])
        ratios = np.linalg.svd(leads, compute_uv=False)[:, -1] / size
        best = int(np.argmax(ratios))
    if ratios[best] <= tol.kernel:
        raise SingularPolynomialMatrix(
            "det p(z) vanishes identically: max over trial shifts s of sigma_min"
            f"(p(s)) / ||p|| = {ratios[best]:.3e} <= {tol.kernel:.1e}",
            ratios[best], tol.kernel,
        )
    if q == 0:
        return np.zeros(0, dtype=complex)
    A = np.eye(n * q, k=-n)
    A[:n] = -np.concatenate(coeffs[-2::-1], axis=1)
    if best == 0:
        A[:n] = np.linalg.solve(coeffs[-1], A[:n])
        return gamma * np.linalg.eigvals(A)
    B = np.eye(n * q)
    B[:n, :n] = coeffs[-1]
    # one staircase round: the null columns V2 of B have A V2 = Q1 R with R
    # nonsingular (p is regular), so Q2' (z B - A) V1 is the pencil without
    # those infinite roots; a Jordan chain at infinity takes one round a link
    while ratios[0] <= tol.trim:
        _, sv, vh = np.linalg.svd(B)
        r = np.count_nonzero(sv <= tol.trim * size)
        if r == 0:
            break
        Q2 = np.linalg.qr(A @ vh[-r:].T, mode="complete")[0][:, r:]
        A, B = Q2.T @ A @ vh[:-r].T, Q2.T @ B @ vh[:-r].T
    s = _SHIFTS[best - 1]
    mu = np.linalg.eigvals(np.linalg.solve(A - s * B, B))
    # conj(mu) / |mu|^2 maps an exact conjugate pair to an exact pair
    return gamma * (s + np.conj(mu) / np.abs(mu) ** 2)


def poly_roots(p, tol=DEFAULTS):
    """Finite roots of ``det p`` with multiplicity.

    ``p`` is a matrix polynomial or a :class:`ScalarPoly` (as 1x1); the
    roots are the eigenvalues of one block companion pencil (Mackey, Mackey,
    Mehl and Mehrmann, SIMAX 2006; see :func:`_finite_roots`).  The pencil is
    real and LAPACK returns exact conjugates, so the list is exactly closed
    under conjugation: a root is real when its imaginary part is exactly
    zero, the upper members stand for the pairs, and a pair whose imaginary
    part is within ``tol.cluster * |mu|`` of the axis, relative at every
    modulus, is a split double real root.  Roots within ``tol.cluster``
    (relative) of each other merge into one multiple root.  The pencil is
    formed from ``p 2^-e`` (:func:`_unit_scaled`): the roots are those of
    ``p``, exactly in range, and the singularity test's size is at least
    1/2, so its bound cannot underflow.  When the balancing ``gamma`` is
    itself past the float range, ``C_q`` deflates as infinite and the large
    roots go with it: ``diag(-0.5, 2) + t I z`` with ``t = 10^-310`` has none.

    Raises
    ------
    SingularPolynomialMatrix
        If ``det p`` vanishes identically: ``C_q`` and ``p`` at every trial
        shift, after balancing, fail the singularity test (zero and singular
        constants included).
    """
    coeffs = p.coeffs if p.coeffs.ndim == 3 else p.coeffs[:, None, None]
    raw = _finite_roots(_unit_scaled(coeffs)[0], tol).tolist()
    reals = [r.real for r in raw if r.imag == 0]
    pairs = []
    for mu in (r for r in raw if r.imag > 0):
        if mu.imag <= tol.cluster * abs(mu):
            reals.extend([mu.real] * 2)
        else:
            pairs.append(mu)
    out = _cluster(reals, tol.cluster)
    for mean in _cluster(pairs, tol.cluster):
        out.extend([mean, mean.conjugate()])
    return out


def _conv_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution product of coefficient stacks with compatible shapes."""
    la, lb = a.shape[0], b.shape[0]
    dtype = np.result_type(a.dtype, b.dtype)
    out = np.zeros((la + lb - 1, a.shape[1], b.shape[2]), dtype=dtype)
    # one batched product per coefficient of b; descending j adds the terms
    # of each out[m] in the same order as a loop over i then j would
    for j in range(lb - 1, -1, -1):
        out[j : j + la] += a @ b[j]
    return out


def _divide_coeffs(num: np.ndarray, den: np.ndarray):
    """Synthetic division of a coefficient stack by a 1-D scalar divisor.

    Returns ``(quotient, residual)`` with ``quotient * den + remainder ==
    num`` to roundoff; the residual is the largest remainder magnitude.
    The division runs from the low-degree end when ``|den[0]| > |den[-1]|``
    (for a linear or conjugate-pair divisor: its roots lie outside the unit
    circle), so each step scales rounding by ``1/|root|`` instead of
    ``|root|``; the remainder then sits in the top coefficients.  Each step
    of the recurrence updates every column at once, on the stack flattened
    to one row per coefficient.
    """
    if abs(den[0]) > abs(den[-1]):
        quot, residual = _divide_coeffs(num[::-1], den[::-1])
        return quot[::-1], residual
    dq = den.shape[0] - 1
    lead = den[-1]
    dhat = (den[:dq] / lead)[:, None]
    dtype = np.result_type(num.dtype, den.dtype)
    rem = num.reshape(num.shape[0], -1).astype(dtype)
    # row k is final once the rows above it are done: it is the quotient's
    # coefficient k - dq, and the rows below absorb its multiple of den
    for k in range(rem.shape[0] - 1, dq - 1, -1):
        rem[k - dq : k] -= dhat * rem[k]
    residual = float(abs(rem[:dq]).max()) if dq > 0 else 0.0
    return (rem[dq:] / lead).reshape((-1,) + num.shape[1:]), residual
