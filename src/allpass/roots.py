"""Determinantal root detection and per-root mirror planning.

``det_roots`` finds where ``det p(z)`` vanishes and folds conjugate pairs
into single records; ``classify`` turns one record into everything the factor
constructions need: the kernel direction, the orthonormal real columns that
span it, and the generic/degenerate/real case split.  ``check_pair`` is the
one validation of a factor construction's input, with the same circle band
and degeneracy test.
"""

from __future__ import annotations

import cmath
import collections
import dataclasses
import math
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import DegenerateW, NotARoot, OnUnitCircle
from .polymat import _unit_scaled, poly_roots
from .polymat import det_poly  # noqa: F401  (perfbench/tracer.py wraps it here)

__all__ = [
    "RootRecord",
    "MirrorPlan",
    "det_roots",
    "classify",
    "check_off_circle",
    "check_pair",
]

LOCATION_INSIDE = "inside"
LOCATION_ON_CIRCLE = "on_circle"
LOCATION_OUTSIDE = "outside"

KIND_REAL = "real"
KIND_COMPLEX = "complex_pair"

CASE_REAL = "real_root"
CASE_DEGENERATE = "degenerate_pair"
CASE_GENERIC = "generic_pair"


@dataclasses.dataclass(frozen=True)
class RootRecord:
    """One determinantal root; a complex record stands for the conjugate pair.

    ``alpha`` is finite with ``Im(alpha) >= 0``: a pair record carries its
    upper member.  ``kind`` follows from it: ``"real"`` when the imaginary
    part is exactly zero, else ``"complex_pair"``.
    """

    alpha: complex
    multiplicity: int
    location: str

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not cmath.isfinite(self.alpha) or self.alpha.imag < 0:
            raise ValueError(f"alpha must be finite with Im >= 0, got {self.alpha}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if self.location not in (
            LOCATION_INSIDE,
            LOCATION_ON_CIRCLE,
            LOCATION_OUTSIDE,
        ):
            raise ValueError(f"unknown location {self.location!r}")

    @property
    def kind(self) -> str:
        return KIND_REAL if self.alpha.imag == 0 else KIND_COMPLEX


@dataclasses.dataclass
class MirrorPlan:
    """Everything one mirroring step needs about a single root.

    ``case`` selects the factor type.  ``alpha`` is the record's own root,
    or its Newton polish against ``p`` when that lowers its backward error
    (see :func:`classify`), then within roundoff of the record.  The
    orthonormal real columns ``Q1`` (``n x k``, ``k`` the size of the step's
    factor ``V``) span the kernel of ``p(alpha)`` from its unit vector
    ``v``: ``Re v`` normalised for a real root; for a pair, from the QR split
    ``(Re v, Im v) = Q1 R``, ``[Re v, Im v] (r00, r01)'`` normalised for a
    degenerate one (its largest entry positive), and for a generic one that
    Q1, with ``w = R (1, i)'``, so ``Q1 w = v`` (``R`` is ``[Re w, Im w]``).
    The step applies the all-pass ``I + Q1 (V - I) Q1'``, with no
    orthogonal completion of ``Q1``.
    """

    case: str
    alpha: complex
    Q1: np.ndarray
    w: Optional[np.ndarray] = None


def _locate(alpha: complex, tol_circle: float) -> str:
    r = abs(alpha)
    if abs(r - 1.0) <= tol_circle:
        return LOCATION_ON_CIRCLE
    return LOCATION_INSIDE if r < 1.0 else LOCATION_OUTSIDE


def det_roots(p, tol=DEFAULTS):
    """Detect the roots of ``det p(z)`` and return them as records.

    The roots come from :func:`~allpass.polymat.poly_roots`.  Conjugate
    pairs collapse to one record with ``Im(alpha) > 0``.  Records are sorted
    by ``(|alpha|, Re, Im)`` so that indices into the list are stable; the
    CLI's ``--select`` indices refer to this order.
    A record is real exactly when :func:`~allpass.polymat.poly_roots`
    returns its root with a zero imaginary part.
    ``tol`` supplies ``kernel``, ``trim`` and ``cluster`` to
    :func:`~allpass.polymat.poly_roots` and the circle band (``circle``).

    Raises
    ------
    SingularPolynomialMatrix
        If ``det p(z)`` vanishes identically.
    """
    values = poly_roots(p, tol)
    records = []
    for z, count in collections.Counter(z for z in values if z.imag >= 0).items():
        records.append(RootRecord(z, count, _locate(z, tol.circle)))
    records.sort(key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag))
    return records


def check_off_circle(alpha, tol=DEFAULTS) -> complex:
    """Return ``alpha`` as a complex number, or raise :class:`OnUnitCircle`
    if it lies within ``tol.circle`` of the unit circle (the band
    :func:`det_roots` uses)."""
    alpha = complex(alpha)
    if _locate(alpha, tol.circle) == LOCATION_ON_CIRCLE:
        raise OnUnitCircle(
            f"|alpha| = {abs(alpha):.12g} lies on the unit circle",
            abs(abs(alpha) - 1.0), tol.circle,
        )
    return alpha


def _triangular_ratio(f: float, g: float, h: float) -> float:
    """``sigma2/sigma1`` of the upper triangular ``[[f, g], [0, h]]``, zero
    for the zero matrix.

    From ``sigma1 sigma2 = fh`` and ``sigma1^2 + sigma2^2 = F = f^2 + g^2 +
    h^2`` for ``f, h >= 0``, on entries scaled to the largest: ``2fh / (F +
    sqrt(((f-h)^2 + g^2)((f+h)^2 + g^2)))``, to a few ulps; exact on a diagonal.
    """
    f, g, h = abs(f), abs(g), abs(h)
    if g == 0.0:
        return min(f, h) / max(f, h) if f or h else 0.0
    e = math.frexp(max(f, g, h))[1]
    f, g, h = math.ldexp(f, -e), math.ldexp(g, -e), math.ldexp(h, -e)
    root = math.sqrt(((f - h) ** 2 + g * g) * ((f + h) ** 2 + g * g))
    return 2.0 * f * h / (f * f + g * g + h * h + root)


def _w_ratio(w0: complex, w1: complex) -> float:
    """``sigma2/sigma1`` of ``[Re w, Im w]`` for ``w = (w0, w1)``: a Givens
    rotation makes it upper triangular.  Zero when ``Re w = 0``."""
    r = math.hypot(w0.real, w1.real)
    if r == 0.0:
        return 0.0
    c, s = w0.real / r, w1.real / r
    return _triangular_ratio(r, c * w0.imag + s * w1.imag, c * w1.imag - s * w0.imag)


def check_pair(alpha, w=None, tol=DEFAULTS):
    """Validate the input of a pair factor construction.

    ``alpha`` and ``w`` must be finite and ``alpha`` must lie in the open
    upper half plane (else ``ValueError``) and off the circle by more than
    ``tol.circle`` (else :class:`OnUnitCircle`).  A kernel direction ``w``
    must pass the test :func:`classify` uses to call a pair generic,
    ``sigma2/sigma1`` of ``[Re w, Im w]`` above ``tol.degenerate``, here
    from a Givens rotation and :func:`_triangular_ratio` instead of an SVD;
    else :class:`DegenerateW` carries the ratio.  Returns ``alpha`` as a
    complex number and ``w`` as a ``(2,)`` complex array (``None`` when no
    ``w`` is given).
    """
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha.imag <= 0:
        raise ValueError(
            f"alpha must lie in the open upper half-plane, got {alpha}; "
            "real roots take the elementary factor"
        )
    check_off_circle(alpha, tol)
    if w is None:
        return alpha, None
    w = np.asarray(w, dtype=np.complex128).reshape(2)
    w0, w1 = w.tolist()
    if not (cmath.isfinite(w0) and cmath.isfinite(w1)):
        raise ValueError(f"w must be finite, got {w}")
    ratio = _w_ratio(w0, w1)
    if ratio <= tol.degenerate:
        raise DegenerateW(
            "w and conj(w) are numerically dependent (sigma2/sigma1 = "
            f"{ratio:.3e} <= {tol.degenerate:.1e}); use the squared scalar factor",
            ratio, tol.degenerate,
        )
    return alpha, w


def _anchored_kernel(M: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """Unit right-kernel direction of ``M`` from its right singular vectors
    ``vh``: the smallest one, with a deterministic phase (the largest-modulus
    entry, lowest index on ties, made real and positive).  The zero matrix
    maps to the first basis vector."""
    if not M.any():
        e1 = np.zeros(M.shape[0], dtype=M.dtype)
        e1[0] = 1.0
        return e1
    v = np.conj(vh[-1])
    idx = int(abs(v).argmax())
    phase = v[idx] / abs(v[idx])
    v = v * np.conj(phase)
    # pin the anchor entry exactly onto the real axis
    v[idx] = abs(v[idx])
    return v


def _value(flat: np.ndarray, z: complex, norms):
    """``p(z)`` from the real stack ``flat`` (one row per coefficient), the
    powers ``z^k`` as Python scalars (real at a real ``z``), and the size
    ``sum_k |z|^k ||C_k||_F`` of the backward error from the norms."""
    x = z.real if z.imag == 0.0 else z
    powers = [1.0]
    for _ in norms[1:]:
        powers.append(powers[-1] * x)
    return np.dot(powers, flat), powers, sum(abs(w) * s for w, s in zip(powers, norms))


def classify(p, record: RootRecord, tol=DEFAULTS) -> MirrorPlan:
    """Build the mirror plan for one root record.

    Parameters
    ----------
    p : PolyMatrix
        Real matrix polynomial with ``det p(alpha) = 0``.
    record : RootRecord
        The root to plan for; must not sit on the unit circle.
    tol : Tolerances
        ``||alpha| - 1| > tol.circle`` is required, as
        :func:`check_off_circle` judges it, whatever band located the
        record.  Alpha is accepted as a root when its coefficientwise
        backward error (Tisseur, LAA 2000) is at most ``tol.kernel``:
        ``sigma_min(p(a)) <= tol.kernel * sum_k |a|^k ||C_k||_F`` on the
        stack below, compared without dividing, so a zero stack at the
        origin passes.  The number is the same for ``p`` at ``alpha`` and
        for its reversal at ``1/alpha``, so the test means one thing on both
        sides of the circle.  A pair whose ``sigma2/sigma1`` of ``(Re v, Im
        v)`` is at most ``tol.degenerate`` counts as degenerate (kernel
        direction is a complex multiple of a real vector).

    Returns
    -------
    MirrorPlan
        Everything runs on ``p 2^-e`` (:func:`~allpass.polymat._unit_scaled`)
        at ``a = alpha``, or outside the circle on its reversal ``z^q p(1/z)``
        at ``a = 1/alpha``: ``a^q p(alpha)``, the same kernel, no power of
        ``|alpha|``.  Each ``||C_k||_F`` is one ``hypot`` reduction, free of
        underflow.  Unless the record's backward error is already at most
        ``eps``, the roundoff of the SVD that measures it, ``a`` takes one
        Newton step; the step is kept when its backward error is lower,
        ``sigma_step * size < sigma * size_step``, and a real root stays
        real, a pair member in its half plane, and ``a`` on its side of the
        circle, nonzero outside it.  The plan's ``alpha`` and kernel come
        from the point kept: the record's own ``alpha`` when no step is.
        The kernel ``v`` is split into ``(Re v, Im v) = Q1 R`` by a
        two-column Gram-Schmidt, reorthogonalised once; a degenerate pair
        takes ``r00 Re v + r01 Im v`` normalised, no SVD of its own.

    Raises
    ------
    OnUnitCircle
        If the record's root lies within ``tol.circle`` of the circle.
    NotARoot
        If the backward error of ``alpha`` exceeds ``tol.kernel``.
    """
    alpha = check_off_circle(record.alpha, tol)
    outside = abs(alpha) > 1.0
    c = _unit_scaled(p.coeffs)[0]
    flat = c.reshape(c.shape[0], -1)[:: -1 if outside else 1]
    norms = np.hypot.reduce(flat, axis=1).tolist()
    a = 1.0 / alpha if outside else alpha
    M, powers, size = _value(flat, a, norms)
    M = M.reshape(c.shape[1:])
    svd = np.linalg.svd(M)
    smin = svd[1][-1]
    if smin > tol.kernel * size:
        eta = smin / max(size, np.finfo(float).tiny)
        message = f"backward error of {alpha} as a root = {eta:.3e} exceeds {tol.kernel:.1e}"
        raise NotARoot(message, eta, tol.kernel)
    if smin > np.finfo(float).eps * size:
        # one Newton step on det p (Tisseur, LAA 2000): with the smallest
        # singular triplet p(a) v = sigma u, u^H p(z) v is sigma at a with
        # slope u^H p'(a) v, so the step is a - sigma / slope
        dp = np.dot([k * x for k, x in enumerate(powers[:-1], 1)], flat[1:])
        slope = complex(np.conj(svd[0][:, -1]) @ dp.reshape(M.shape) @ np.conj(svd[2][-1]))
        step = a - smin / slope if slope != 0 else a
        if record.kind == KIND_REAL:
            step = complex(step.real)
        # never across the circle, nor to infinity
        moves = step != a and abs(step) < 1.0 and (step != 0 or not outside)
        if moves and (record.kind == KIND_REAL or step.imag * a.imag > 0):
            M_step, _, size_step = _value(flat, step, norms)
            M_step = M_step.reshape(M.shape)
            svd_step = np.linalg.svd(M_step)
            if svd_step[1][-1] * size < smin * size_step:
                M, svd = M_step, svd_step
                alpha = 1.0 / step if outside else step
    v = _anchored_kernel(M, svd[2])

    if record.kind == KIND_REAL:
        vr = np.real(v)
        vr = vr / math.sqrt(vr @ vr)
        return MirrorPlan(CASE_REAL, complex(alpha.real), vr[:, None])

    # (Re v, Im v) = Q1 R by Gram-Schmidt with one reorthogonalisation; R
    # has the singular values of [Re v, Im v], and its r11 is zero when v is
    # a complex multiple of a real vector (always for a single entry)
    x, y = v.real.tolist(), v.imag.tolist()
    r00 = math.hypot(*x)
    q0 = [t / r00 for t in x]
    r01 = 0.0
    for _ in range(2):
        h = sum(s * t for s, t in zip(q0, y))
        r01 += h
        y = [t - h * s for s, t in zip(q0, y)]
    r11 = math.hypot(*y)
    if r11 == 0.0 or _triangular_ratio(r00, r01, r11) <= tol.degenerate:
        # kernel direction is e^{i phi} times a real vector: [Re v, Im v]
        # (r00, r01)' is its leading left singular vector, up to scale and
        # r11; the anchor entry is real and positive, so it stays positive
        vr = r00 * v.real + r01 * v.imag
        vr = vr / math.sqrt(vr @ vr)
        return MirrorPlan(CASE_DEGENERATE, alpha, vr[:, None])
    Q1 = np.array([q0, [t / r11 for t in y]]).T
    return MirrorPlan(CASE_GENERIC, alpha, Q1, np.array([complex(r00, r01), complex(0.0, r11)]))
