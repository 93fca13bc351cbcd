"""Determinantal root detection and per-root mirror planning.

``det_roots`` finds where ``det p(z)`` vanishes and folds conjugate pairs
into single records; ``classify`` turns one record into everything the factor
constructions need: the kernel direction, its orthogonal completion, and the
generic/degenerate/real case split.  ``check_pair`` is the one validation of
a factor construction's input, with the same circle band and degeneracy test.
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
from .polymat import _scaled_size, poly_roots
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


@dataclasses.dataclass
class RootRecord:
    """One determinantal root; a complex record stands for the conjugate pair.

    ``alpha`` has a strictly positive imaginary part for ``kind ==
    "complex_pair"`` and is real for ``kind == "real"``.
    """

    alpha: complex
    multiplicity: int
    kind: str
    location: str

    def __post_init__(self):
        self.alpha = complex(self.alpha)
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if self.kind not in (KIND_REAL, KIND_COMPLEX):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.location not in (
            LOCATION_INSIDE,
            LOCATION_ON_CIRCLE,
            LOCATION_OUTSIDE,
        ):
            raise ValueError(f"unknown location {self.location!r}")


@dataclasses.dataclass
class MirrorPlan:
    """Everything one mirroring step needs about a single root.

    ``case`` selects the factor type.  ``alpha`` is the record's root after
    one Newton polish against ``p`` (see :func:`classify`), so it can differ
    from the record's value in the last digits.  ``v`` is the unit kernel
    vector of ``p(alpha)``; ``Q`` is a real orthogonal matrix whose leading
    columns carry the kernel directions.  In the generic case the first two
    columns of ``Q`` equal the Q1 of the QR factorisation
    ``(Re v, Im v) = Q1 R``, and ``w = R (1, i)'`` expresses ``v`` in the Q1
    coordinates: ``Q1 w = v`` (so ``R`` is ``[Re w, Im w]``).
    """

    case: str
    alpha: complex
    v: np.ndarray
    Q: np.ndarray
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
    ``tol`` supplies ``kernel``, ``trim``, ``imag`` and ``cluster`` to
    :func:`~allpass.polymat.poly_roots` and the circle band (``circle``).

    Raises
    ------
    SingularPolynomialMatrix
        If ``det p(z)`` vanishes identically; carries the best ratio.
    """
    values = poly_roots(p, tol)
    records = []
    for z, count in collections.Counter(z for z in values if z.imag >= 0).items():
        kind = KIND_REAL if z.imag == 0 else KIND_COMPLEX
        records.append(RootRecord(z, count, kind, _locate(z, tol.circle)))
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
            abs(alpha),
            tol.circle,
        )
    return alpha


# LAPACK's dlamch('E'), the relative machine precision dlasv2 tests against
_EPS = np.finfo(float).eps / 2


def _triangular_ratio(f: float, g: float, h: float) -> float:
    """``sigma2/sigma1`` of the upper triangular ``[[f, g], [0, h]]``, zero
    for the zero matrix.

    The singular values come from the formulas of LAPACK's ``dlasv2``
    (Demmel and Kahan), accurate to a few ulps and exact on a diagonal
    matrix; only their moduli are needed, so the signs are dropped.
    """
    fa, ga, ha = abs(f), abs(g), abs(h)
    if ha > fa:
        fa, ha = ha, fa
    if ga == 0.0:
        smin, smax = ha, fa
    elif ga > fa and fa / ga < _EPS:
        smin, smax = (fa / (ga / ha) if ha > 1.0 else fa / ga * ha), ga
    else:
        d = fa - ha
        el = 1.0 if d == fa else d / fa
        m = ga / fa
        t = 2.0 - el
        s = math.sqrt(t * t + m * m)
        r = m if el == 0.0 else math.sqrt(el * el + m * m)
        a = 0.5 * (s + r)
        smin, smax = ha / a, fa * a
    return smin / smax if smax > 0.0 else 0.0


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
        raise DegenerateW(ratio, tol.degenerate)
    return alpha, w


def _positive_qr(B: np.ndarray):
    """QR factorisation ``B = Q1 R`` with the diagonal of ``R`` nonnegative."""
    Q1, R = np.linalg.qr(B)
    signs = np.where(R.diagonal() < 0, -1.0, 1.0)
    return Q1 * signs, R * signs[:, None]


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


def _value_and_slope(coeffs: np.ndarray, z: complex) -> np.ndarray:
    """``p(z)`` and ``p'(z)``, stacked, for a real coefficient stack: one
    product with the powers of ``z``, real at a real ``z``."""
    m = coeffs.shape[0]
    k = np.arange(m)
    powers = (z.real if z.imag == 0.0 else z) ** k
    weights = np.zeros((2, m), powers.dtype)
    weights[0], weights[1, 1:] = powers, k[1:] * powers[:-1]
    return (weights @ coeffs.reshape(m, -1)).reshape((2,) + coeffs.shape[1:])


def _complete(V1: np.ndarray) -> np.ndarray:
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


def classify(p, record: RootRecord, tol=DEFAULTS) -> MirrorPlan:
    """Build the mirror plan for one root record.

    Parameters
    ----------
    p : PolyMatrix
        Real matrix polynomial with ``det p(alpha) = 0``.
    record : RootRecord
        The root to plan for; must not sit on the unit circle.
    tol : Tolerances
        ``sigma_min(p(alpha)) <= tol.kernel * ||p|| * max(1, |alpha|)^q``
        (``q`` the degree of ``p``, the natural size of an evaluation at
        ``alpha``) is required for alpha to be accepted as a root.  A pair
        whose ``sigma2/sigma1`` of ``(Re v, Im v)`` is at most
        ``tol.degenerate`` counts as degenerate (kernel direction is a
        complex multiple of a real vector).

    Returns
    -------
    MirrorPlan
        After the root test, the record's ``alpha`` takes one Newton step
        through the smallest singular triplet of ``p(alpha)``; the step is
        kept when it lowers ``sigma_min`` and keeps a real root real and a
        pair member in the upper half plane.  The plan's ``alpha`` and
        kernel come from the point kept.

    Raises
    ------
    OnUnitCircle
        If the record's location is on the circle.
    NotARoot
        If ``p(alpha)`` is far from singular.
    """
    if record.location == LOCATION_ON_CIRCLE:
        raise OnUnitCircle(
            f"root {record.alpha} lies on the unit circle; mirroring is undefined",
            abs(record.alpha),
            tol.circle,
        )
    alpha = record.alpha
    coeffs = p.coeffs
    M, dp = _value_and_slope(coeffs, alpha)
    svd = np.linalg.svd(M)
    smin = svd[1][-1]
    bound = tol.kernel * _scaled_size(p, alpha)
    if smin > bound:
        raise NotARoot(
            f"sigma_min(p({alpha})) = {smin:.3e} exceeds "
            f"{tol.kernel:.1e} * ||p|| * max(1, |alpha|)^{p.degree} = {bound:.3e}",
            float(smin),
            bound,
        )
    # one Newton step on det p (Tisseur, LAA 2000): with the smallest singular
    # triplet p(alpha) v = sigma u, u^H p(z) v is sigma at alpha with slope
    # u^H p'(alpha) v, so the step is alpha - sigma / slope
    slope = complex(np.conj(svd[0][:, -1]) @ dp @ np.conj(svd[2][-1]))
    step = alpha - smin / slope if slope != 0 else alpha
    if record.kind == KIND_REAL:
        step = complex(step.real)
    if step != alpha and (record.kind == KIND_REAL or step.imag > 0):
        M_step = _value_and_slope(coeffs, step)[0]
        svd_step = np.linalg.svd(M_step)
        if svd_step[1][-1] < smin:
            alpha, M, svd = step, M_step, svd_step
    v = _anchored_kernel(M, svd[2])

    if record.kind == KIND_REAL:
        vr = np.real(v)
        vr = vr / np.linalg.norm(vr)
        return MirrorPlan(
            case=CASE_REAL, alpha=alpha, v=vr.astype(complex), Q=_complete(vr[:, None])
        )

    # one QR of [Re v, Im v | I]: its leading columns are the Q1 of
    # [Re v, Im v] = Q1 R, the rest complete them to an orthogonal Q, and
    # R's leading 2x2 block has the singular values of [Re v, Im v]
    n = v.shape[0]
    B = np.eye(n, n + 2, 2)
    B[:, 0], B[:, 1] = v.real, v.imag
    Q, R = _positive_qr(B)
    r = R[:2, :2].tolist()
    # a single entry is always a complex multiple of a real one
    if n == 1 or _triangular_ratio(r[0][0], r[0][1], r[1][1]) <= tol.degenerate:
        # kernel direction is e^{i phi} times a real vector: re-phase onto it
        U, _, _ = np.linalg.svd(B[:, :2])
        u = U[:, 0]
        phase = complex(u @ v.real, u @ v.imag)
        phase = phase / abs(phase)
        v_aligned = v * np.conj(phase)
        vr = np.real(v_aligned)
        vr = vr / np.linalg.norm(vr)
        idx = int(abs(vr).argmax())
        if vr[idx] < 0:
            vr = -vr
            v_aligned = -v_aligned
        return MirrorPlan(
            case=CASE_DEGENERATE, alpha=alpha, v=v_aligned, Q=_complete(vr[:, None])
        )
    w = np.array([complex(*r[0]), complex(0.0, r[1][1])])
    return MirrorPlan(case=CASE_GENERIC, alpha=alpha, v=v, Q=Q, w=w)
