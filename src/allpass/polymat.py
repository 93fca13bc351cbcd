"""Matrix polynomials with real coefficients.

A polynomial ``p(z) = sum_k C_k z^k`` is stored as a coefficient tensor of
shape ``(q+1, n, n)`` in ascending powers; scalar polynomials store a 1-D
array the same way.  Instances are immutable after construction (the backing
arrays are marked read-only), so they can be shared freely.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULTS
from .errors import SingularPolynomialMatrix

__all__ = [
    "PolyMatrix",
    "ScalarPoly",
    "eval_poly",
    "spectral_eval",
    "circle_spectrum",
    "det_poly",
    "poly_roots",
    "trim",
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
        if arr.shape[0] == 0:
            raise ValueError("need at least one coefficient matrix")
        self.coeffs = arr

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        return eval_poly(self, z)

    def norm(self) -> float:
        """Frobenius norm of the stacked coefficient tensor."""
        return float(np.linalg.norm(self.coeffs.ravel()))

    def __repr__(self):
        return f"PolyMatrix(dim={self.dim}, degree={self.degree})"


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def trim(self, rtol: float = DEFAULTS.trim) -> "ScalarPoly":
        return trim(self, rtol)

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


def _on_circle(coeffs: np.ndarray, n_samples: int, half: bool = False):
    """The roots of unity ``z_k = exp(2 pi i k / n_samples)`` (``k <=
    n_samples // 2`` if ``half``) and a coefficient stack, coefficient axis
    first, at them; the powers ``z_k^j = z_(kj mod n_samples)`` come from
    the grid itself."""
    grid = np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    k = np.arange(n_samples // 2 + 1 if half else n_samples)
    m = coeffs.shape[0]
    powers = grid[np.outer(k, np.arange(m)) % n_samples]
    values = powers @ coeffs.reshape(m, -1)
    return grid[k], values.reshape(k.shape + coeffs.shape[1:])


def circle_spectrum(p, n_samples: int = 64) -> np.ndarray:
    """Boundary spectrum ``p(z) p(z)^H`` at ``z_k = exp(2 pi i k / n_samples)``.

    On the unit circle ``1/conj(z) = z``, so this is :func:`spectral_eval` on
    the grid of roots of unity from one evaluation of ``p`` instead of two.
    Any degree is exact.  Returns a complex array of shape
    ``(n_samples, n, n)``.
    """
    coeffs = p.coeffs if p.coeffs.ndim == 3 else p.coeffs[:, None, None]
    _, P = _on_circle(coeffs, n_samples)
    return P @ np.conj(P).transpose(0, 2, 1)


def _trimmed_length(coeffs: np.ndarray, rtol: float) -> int:
    """Number of leading coefficients :func:`trim` keeps: up to the last
    whose magnitude exceeds ``rtol`` times the largest, at least one."""
    mags = abs(coeffs.reshape(coeffs.shape[0], -1)).max(axis=1).tolist()
    floor = rtol * max(mags)
    return 1 + max((k for k, m in enumerate(mags) if m > floor), default=0)


def trim(p, rtol: float = DEFAULTS.trim):
    """Drop trailing coefficients whose magnitude is below ``rtol * max``."""
    return type(p)(p.coeffs[: _trimmed_length(p.coeffs, rtol)])


def det_poly(p) -> ScalarPoly:
    """Determinant of a matrix polynomial as a scalar polynomial.

    ``det p`` at ``n*q + 1`` points on the circle of radius 1.5, interpolated
    by one FFT.  Root detection does not use it; it is a reference for tests.
    """
    m = p.dim * p.degree + 1
    zs = 1.5 * np.exp(2j * np.pi * np.arange(m) / m)
    coeff = np.fft.fft(np.linalg.det(_eval_many(p.coeffs, zs))) / m / 1.5 ** np.arange(m)
    # conjugate-symmetric samples: the imaginary part is FFT noise
    return ScalarPoly(coeff.real).trim()


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


# trial shifts s, real so that a real p keeps a real companion and irregular
# to avoid hand-made roots; s = 0 (the reversed polynomial) needs no Taylor
# shift, so the others serve only when C_q and C_0 both fail the root test
_SHIFTS = np.array([0.0, 0.3719, -0.5413, 0.7906, -0.2187])


def _scaled_size(p, z) -> float:
    """``||p|| max(1, |z|)^q``, the size of ``p(z)`` in the root test
    ``sigma_min(p(z)) <= tol.kernel * _scaled_size(p, z)``."""
    return max(p.norm(), np.finfo(float).tiny) * max(1.0, abs(z)) ** p.degree


def _finite_roots(p, tol):
    """Finite roots of ``det p`` with multiplicity, from one monic block
    companion led by whichever of ``C_q`` (ratio ``sigma_min / ||p||``) and
    ``C_0`` is farther from the root test, or of ``C_q`` and every ``p(s)``
    when both fail it.  ``p(s)`` leads the companion of ``mu^q p(s + 1/mu)``:
    ``z = s + 1/mu``, and ``mu`` at most ``tol.trim`` times its largest entry
    are the infinite roots."""
    coeffs, q, n = p.coeffs, p.degree, p.dim
    at_shifts = (_SHIFTS[:, None] ** np.arange(q + 1)) @ coeffs.reshape(q + 1, -1)
    leads = np.concatenate([coeffs[-1:], at_shifts.reshape(-1, n, n)])
    # every |s| < 1, so the root test's size ||p|| max(1, |s|)^q is ||p||
    ratios = np.linalg.svd(leads, compute_uv=False)[:, -1] / _scaled_size(p, 0.0)
    best = int(np.argmax(ratios if max(ratios[:2]) <= tol.kernel else ratios[:2]))
    if ratios[best] <= tol.kernel:
        raise SingularPolynomialMatrix(ratios[best], tol.kernel)
    if q == 0:
        return np.zeros(0, dtype=complex)
    stack = coeffs[::-1]
    if best > 0:
        # Taylor shift p(s + t) = sum_j T_j t^j, T_j = sum_k binom(k, j) s^(k-j) C_k
        s, k = _SHIFTS[best - 1], np.arange(q + 1)
        binom = np.array([[math.comb(c, r) for c in k] for r in k], dtype=float)
        taylor = binom * s ** np.maximum(k[None, :] - k[:, None], 0)
        stack = (taylor @ coeffs.reshape(q + 1, -1)).reshape(coeffs.shape)
    comp = np.eye(n * q, k=-n, dtype=stack.dtype)
    comp[:n] = -np.linalg.solve(stack[0], np.concatenate(stack[1:], axis=1))
    mu = np.linalg.eigvals(comp)
    if best == 0:
        return mu
    mu = mu[np.abs(mu) > tol.trim * np.max(np.abs(comp))]
    # conj(mu) / |mu|^2 maps an exact conjugate pair to an exact pair
    return s + np.conj(mu) / np.abs(mu) ** 2


def poly_roots(p, tol=DEFAULTS):
    """Finite roots of ``det p`` with multiplicity.

    ``p`` is a matrix polynomial or a :class:`ScalarPoly` (as 1x1); the
    roots are the eigenvalues of one block companion (Mackey, Mackey, Mehl
    and Mehrmann, SIMAX 2006; see :func:`_finite_roots`).  For real ``p`` it
    is real and LAPACK returns exact conjugates, so the list is exactly
    closed under conjugation: roots within ``tol.imag`` of the axis snap to
    it, the upper members stand for the pairs, and a pair within the cluster
    radius of the axis is a split double real root.  Roots within
    ``tol.cluster`` (relative) of each other merge into one multiple root.

    Raises
    ------
    SingularPolynomialMatrix
        If ``det p`` vanishes identically: ``C_q`` and ``p`` at every trial
        shift fail the root test (zero and singular constants included).
    """
    if p.coeffs.ndim == 1:
        p = PolyMatrix(p.coeffs[:, None, None])
    raw = _finite_roots(p, tol)
    reals = [float(r.real) for r in raw if abs(r.imag) <= tol.imag]
    pairs = []
    for mu in (complex(r) for r in raw if r.imag > tol.imag):
        if abs(mu.imag) <= tol.cluster * max(1.0, abs(mu)):
            reals.extend([mu.real] * 2)
        else:
            pairs.append(mu)
    out = _cluster(reals, tol.cluster)
    for mean in _cluster(pairs, tol.cluster):
        out.extend([mean, np.conj(mean)])
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
