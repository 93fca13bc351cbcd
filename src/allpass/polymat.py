"""Matrix polynomials with real or complex coefficients.

A polynomial ``p(z) = sum_k C_k z^k`` is stored as a coefficient tensor of
shape ``(q+1, n, n)`` in ascending powers; scalar polynomials store a 1-D
array the same way.  Instances are immutable after construction (the backing
arrays are marked read-only), so they can be shared freely.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULTS
from .errors import ImaginaryResidueTooLarge

__all__ = [
    "PolyMatrix",
    "CPolyMatrix",
    "ScalarPoly",
    "constant",
    "eval_poly",
    "spectral_eval",
    "circle_spectrum",
    "mul",
    "mul_scalar",
    "det_poly",
    "poly_roots",
    "deconvolve",
    "to_real",
    "trim",
]


class _PolyBase:
    """Shared behaviour of the real and complex matrix polynomial types."""

    _dtype: type = np.float64

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=self._dtype)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(
                f"coefficients must have shape (q+1, n, n), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise ValueError("need at least one coefficient matrix")
        arr = arr.copy()
        arr.setflags(write=False)
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
        return f"{type(self).__name__}(dim={self.dim}, degree={self.degree})"


class PolyMatrix(_PolyBase):
    """Square matrix polynomial with real coefficients."""

    _dtype = np.float64


class CPolyMatrix(_PolyBase):
    """Square matrix polynomial with complex coefficients."""

    _dtype = np.complex128

    def max_imag(self) -> float:
        """Largest imaginary magnitude over all coefficients."""
        return float(np.max(np.abs(self.coeffs.imag)))


class ScalarPoly:
    """Scalar polynomial in ascending coefficient order."""

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scalar polynomial needs a 1-D coefficient array")
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128)
        else:
            arr = arr.astype(np.float64)
        arr = arr.copy()
        arr.setflags(write=False)
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


def constant(matrix) -> "PolyMatrix | CPolyMatrix":
    """Wrap a constant square matrix as a degree-0 polynomial."""
    arr = np.asarray(matrix)
    cls = CPolyMatrix if np.iscomplexobj(arr) else PolyMatrix
    return cls(arr[None, :, :])


def eval_poly(p, z):
    """Evaluate ``p`` at the point ``z`` by Horner's scheme.

    Returns an ``(n, n)`` array for matrix polynomials and a scalar for
    :class:`ScalarPoly`.  Real input evaluated at a real point stays real.
    """
    zz = complex(z)
    if np.isrealobj(p.coeffs) and zz.imag == 0.0:
        zz = zz.real
    coeffs = p.coeffs
    acc = np.array(coeffs[-1], dtype=np.result_type(coeffs.dtype, type(zz)))
    for k in range(coeffs.shape[0] - 2, -1, -1):
        acc = acc * zz + coeffs[k]
    if acc.ndim == 0:
        return acc[()]
    return acc


def _eval_many(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient tensor at many points at once."""
    zs = np.asarray(zs, dtype=np.complex128)
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


def _on_circle(p, n_samples: int):
    """The ``n_samples``-th roots of unity and ``p`` at them, shape
    ``(n_samples, n, n)`` (``n = 1`` for a :class:`ScalarPoly`)."""
    zs = np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    coeffs = p.coeffs if p.coeffs.ndim == 3 else p.coeffs[:, None, None]
    return zs, _eval_many(coeffs, zs)


def circle_spectrum(p, n_samples: int = 64) -> np.ndarray:
    """Boundary spectrum ``p(z) p(z)^H`` at ``z_k = exp(2 pi i k / n_samples)``.

    On the unit circle ``1/conj(z) = z``, so this is :func:`spectral_eval` on
    the grid of roots of unity from one evaluation of ``p`` instead of two.
    Any degree is exact.  Returns a complex array of shape
    ``(n_samples, n, n)``.
    """
    _, P = _on_circle(p, n_samples)
    return P @ np.conj(P).transpose(0, 2, 1)


def _wrap_matrix(coeffs: np.ndarray):
    if np.iscomplexobj(coeffs):
        return CPolyMatrix(coeffs)
    return PolyMatrix(coeffs)


def mul(p, q):
    """Convolution product of two matrix polynomials of equal dimension."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return _wrap_matrix(_conv_coeffs(p.coeffs, q.coeffs))


def mul_scalar(p, s: ScalarPoly):
    """Multiply a matrix polynomial by a scalar polynomial."""
    scaled_eye = s.coeffs[:, None, None] * np.eye(p.dim)
    return _wrap_matrix(_conv_coeffs(p.coeffs, scaled_eye))


def trim(p, rtol: float = DEFAULTS.trim):
    """Drop trailing coefficients whose magnitude is below ``rtol * max``."""
    coeffs = p.coeffs
    mags = np.max(np.abs(coeffs.reshape(coeffs.shape[0], -1)), axis=1)
    scale = float(np.max(mags))
    if scale == 0.0:
        return type(p)(coeffs[:1])
    keep = np.nonzero(mags > rtol * scale)[0]
    last = int(keep[-1]) if keep.size else 0
    return type(p)(coeffs[: last + 1])


def det_poly(p) -> ScalarPoly:
    """Determinant of a matrix polynomial as a scalar polynomial.

    ``det p(z)`` has degree at most ``n*q``, so it is recovered exactly from
    ``n*q + 1`` samples.  The samples sit on the circle of radius 1.5 (off the
    unit circle, where later steps will place roots) and the coefficients come
    from one FFT, rescaled by the radius powers.
    """
    n, q = p.dim, p.degree
    m = n * q + 1
    radius = 1.5
    zs = radius * np.exp(2j * np.pi * np.arange(m) / m)
    values = np.linalg.det(_eval_many(p.coeffs, zs))
    coeff = np.fft.fft(values) / m
    coeff = coeff / radius ** np.arange(m)
    if np.isrealobj(p.coeffs):
        # conjugate-symmetric samples: the imaginary part is FFT noise
        coeff = coeff.real
    return ScalarPoly(coeff).trim()


def _cluster(values, rtol):
    """Greedy clustering of real or complex values, swept in ``(Re, Im)``
    order; returns ``(complex mean, count)`` pairs."""
    clusters = []
    for v in sorted(values, key=lambda c: (c.real, c.imag)):
        if clusters:
            mean, members = clusters[-1]
            if abs(v - mean) <= rtol * max(1.0, abs(v)):
                members.append(v)
                clusters[-1] = (complex(np.mean(members)), members)
                continue
        clusters.append((complex(v), [v]))
    return [(mean, len(members)) for mean, members in clusters]


def poly_roots(
    s: ScalarPoly,
    tol_imag: float = DEFAULTS.imag,
    cluster_rtol: float = DEFAULTS.cluster,
):
    """Roots of a scalar polynomial, with closure and multiplicity handling.

    Parameters
    ----------
    s : ScalarPoly
        Polynomial of degree >= 1 after trimming trailing noise.
    tol_imag : float
        Absolute bound under which an imaginary part snaps to zero.
    cluster_rtol : float
        Relative radius merging nearby roots into one multiple root.

    Returns
    -------
    list of complex
        All roots with multiplicity.  For real coefficients the list is
        exactly closed under conjugation: companion-matrix roots within
        ``tol_imag`` of the real axis snap to it, each conjugate pair is
        represented by its upper member before clustering, and a pair within
        the cluster radius of the real axis collapses to a double real root
        (a double real root splits into a tight conjugate pair under the
        companion eigensolver).

    Raises
    ------
    ValueError
        If ``s`` is the zero polynomial.
    """
    st = s.trim()
    if st.degree == 0:
        if float(np.max(np.abs(st.coeffs))) == 0.0:
            raise ValueError("zero polynomial has no root set")
        return []
    raw = np.roots(st.coeffs[::-1])

    if np.iscomplexobj(s.coeffs):
        out = []
        for mean, count in _cluster(list(raw), cluster_rtol):
            out.extend([mean] * count)
        return out

    # LAPACK's real eigensolver returns every non-real root next to its
    # exact conjugate, so the upper members stand for the pairs
    reals = [float(r.real) for r in raw if abs(r.imag) <= tol_imag]
    pairs = [complex(r) for r in raw if r.imag > tol_imag]

    # a pair straddling the axis within cluster radius is a split double real
    kept_pairs = []
    for mu in pairs:
        if abs(mu.imag) <= cluster_rtol * max(1.0, abs(mu)):
            reals.extend([float(mu.real)] * 2)
        else:
            kept_pairs.append(mu)

    out = []
    for mean, count in _cluster(reals, cluster_rtol):
        out.extend([mean] * count)
    for mean, count in _cluster(kept_pairs, cluster_rtol):
        out.extend([mean, np.conj(mean)] * count)
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
    ``|root|``; the remainder then sits in the top coefficients.
    """
    if abs(den[0]) > abs(den[-1]):
        quot, residual = _divide_coeffs(num[::-1], den[::-1])
        return quot[::-1], residual
    dq = den.shape[0] - 1
    lead = den[-1]
    dhat = den / lead
    dtype = np.result_type(num.dtype, den.dtype)
    rem = num.astype(dtype).copy()
    length = num.shape[0]
    quot = np.zeros((length - dq,) + num.shape[1:], dtype=dtype)
    for k in range(length - 1, dq - 1, -1):
        c = rem[k].copy()
        quot[k - dq] = c
        for j in range(1, dq + 1):
            rem[k - j] -= c * dhat[dq - j]
        rem[k] = 0.0
    residual = float(np.max(np.abs(rem[:dq]))) if dq > 0 else 0.0
    return quot / lead, residual


def deconvolve(p, d: ScalarPoly, rtol: float = DEFAULTS.trim):
    """Divide a matrix polynomial by a scalar polynomial.

    Parameters
    ----------
    p : PolyMatrix or CPolyMatrix
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
    return trim(_wrap_matrix(quot), rtol), residual


def to_real(p, tol: float = DEFAULTS.real) -> PolyMatrix:
    """Project complex coefficients to their real parts.

    Raises :class:`ImaginaryResidueTooLarge` if any imaginary magnitude
    exceeds ``tol``; a real input passes through unchanged.
    """
    if isinstance(p, PolyMatrix):
        return p
    mx = p.max_imag()
    if mx > tol:
        raise ImaginaryResidueTooLarge(mx, tol, "projecting coefficients to real")
    return PolyMatrix(p.coeffs.real)
