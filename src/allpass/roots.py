"""Determinantal root detection and per-root mirror planning.

``det_roots`` finds where ``det p(z)`` vanishes and folds conjugate pairs
into single records; ``classify`` turns one record into everything the factor
constructions need: the kernel direction, its orthogonal completion, and the
generic/degenerate/real case split.  ``check_pair`` is the one validation of
a factor construction's input, with the same circle band and degeneracy test.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import DegenerateW, NotARoot, OnUnitCircle
from .polymat import PolyMatrix, _scaled_size, eval_poly, poly_roots
from .polymat import det_poly  # noqa: F401  (perfbench/tracer.py wraps it here)

__all__ = [
    "RootRecord",
    "MirrorPlan",
    "det_roots",
    "kernel_vector",
    "classify",
    "check_real",
    "check_off_circle",
    "check_pair",
    "orthogonal_completion",
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

    The roots come from :func:`~allpass.polymat.poly_roots` on the real
    coefficients (complex storage with zero imaginary parts gives the same
    records).  Conjugate pairs collapse to one record with ``Im(alpha) >
    0``.  Records are sorted by ``(|alpha|, Re, Im)`` so that indices into
    the list are stable; the CLI's ``--select`` indices refer to this order.
    ``tol`` supplies ``kernel``, ``trim``, ``imag`` and ``cluster`` to
    :func:`~allpass.polymat.poly_roots` and the circle band (``circle``).

    Raises
    ------
    ValueError
        If a coefficient of ``p`` is not real (see :func:`check_real`).
    SingularPolynomialMatrix
        If ``det p(z)`` vanishes identically; carries the best ratio.
    """
    check_real(p)
    values = poly_roots(PolyMatrix(p.coeffs.real), tol)
    records = []
    for z, count in collections.Counter(z for z in values if z.imag >= 0).items():
        kind = KIND_REAL if z.imag == 0 else KIND_COMPLEX
        records.append(RootRecord(z, count, kind, _locate(z, tol.circle)))
    records.sort(key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag))
    return records


def check_real(p) -> None:
    """Raise ``ValueError`` if a coefficient of ``p`` has a nonzero imaginary
    part; the message carries the largest imaginary magnitude.

    Roots of a real polynomial come in conjugate pairs, which is what lets
    :func:`det_roots` keep only the upper member of each and the factors
    stay real; complex coefficients break both.
    """
    if np.iscomplexobj(p.coeffs):
        worst = float(np.max(np.abs(p.coeffs.imag)))
        if worst > 0.0:
            raise ValueError(
                f"coefficients must be real; the largest imaginary part "
                f"has magnitude {worst:.3e}"
            )


def check_off_circle(alpha, tol=DEFAULTS) -> complex:
    """Return ``alpha`` as a complex number, or raise :class:`OnUnitCircle`
    if it lies within ``tol.circle`` of the unit circle (the band
    :func:`det_roots` uses)."""
    alpha = complex(alpha)
    if _locate(alpha, tol.circle) == LOCATION_ON_CIRCLE:
        raise OnUnitCircle(
            f"|alpha| = {abs(alpha):.12g} lies on the unit circle"
        )
    return alpha


def _w_ratio(v: np.ndarray) -> float:
    """``sigma2/sigma1`` of ``[Re v, Im v]``.

    Zero when ``v`` is a complex multiple of a real vector, which is always
    the case for a single entry and for ``v = 0``.
    """
    s = np.linalg.svd(np.column_stack([v.real, v.imag]), compute_uv=False)
    if s.shape[0] < 2 or s[0] == 0.0:
        return 0.0
    return float(s[1] / s[0])


def check_pair(alpha, w=None, tol=DEFAULTS):
    """Validate the input of a pair factor construction.

    ``alpha`` must lie in the open upper half plane (else ``ValueError``)
    and off the circle by more than ``tol.circle`` (else
    :class:`OnUnitCircle`).  A kernel direction ``w`` must pass the test
    :func:`classify` uses to call a pair generic, ``sigma2/sigma1`` of
    ``[Re w, Im w]`` above ``tol.degenerate``; else :class:`DegenerateW`
    carries the ratio.  Returns ``alpha`` as a complex number and ``w`` as
    a ``(2,)`` complex array (``None`` when no ``w`` is given).
    """
    alpha = complex(alpha)
    if alpha.imag <= 0:
        raise ValueError(
            f"alpha must lie in the open upper half-plane, got {alpha}; "
            "real roots take the elementary factor"
        )
    check_off_circle(alpha, tol)
    if w is None:
        return alpha, None
    w = np.asarray(w, dtype=np.complex128).reshape(2)
    ratio = _w_ratio(w)
    if ratio <= tol.degenerate:
        raise DegenerateW(ratio, tol.degenerate)
    return alpha, w


def _positive_qr(B: np.ndarray):
    """QR factorisation ``B = Q1 R`` with the diagonal of ``R`` nonnegative."""
    Q1, R = np.linalg.qr(B)
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    return Q1 * signs, R * signs[:, None]


def _anchored_kernel(M: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """:func:`kernel_vector` of ``M`` from its right singular vectors ``vh``."""
    if float(np.max(np.abs(M))) == 0.0:
        e1 = np.zeros(M.shape[0], dtype=M.dtype)
        e1[0] = 1.0
        return e1
    v = np.conj(vh[-1])
    idx = int(np.argmax(np.abs(v)))
    phase = v[idx] / abs(v[idx])
    v = v * np.conj(phase)
    # pin the anchor entry exactly onto the real axis
    v[idx] = abs(v[idx])
    return v


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


def orthogonal_completion(V1: np.ndarray) -> np.ndarray:
    """Complete semi-orthogonal columns to a full real orthogonal matrix.

    Deterministic: the completion is the QR factorisation of ``[V1 | I]``
    with the sign convention that the R diagonal is positive, and the
    leading columns are overwritten with ``V1`` itself.
    """
    V1 = np.atleast_2d(np.asarray(V1, dtype=np.float64))
    if V1.shape[0] < V1.shape[1]:
        raise ValueError(f"more columns than rows: {V1.shape}")
    n, k = V1.shape
    gram_err = float(np.max(np.abs(V1.T @ V1 - np.eye(k))))
    if gram_err > 1e-10:
        raise ValueError(
            f"columns are not orthonormal (deviation {gram_err:.3e})"
        )
    Q, _ = _positive_qr(np.hstack([V1, np.eye(n)]))
    Q[:, :k] = V1
    return Q


def _newton_polish(p, kind: str, alpha: complex, svd):
    """One Newton step on ``det p`` from ``alpha``, kept only if it helps.

    With the smallest singular triplet ``p(alpha) v = sigma u``, the scalar
    ``u^H p(z) v`` equals ``sigma`` at ``alpha`` and has derivative
    ``u^H p'(alpha) v`` there, so the step is
    ``alpha - sigma / (u^H p'(alpha) v)`` (Tisseur, LAA 2000).  A real root
    stays real and a pair member must stay in the upper half plane.

    Returns the polished ``(alpha, M, svd)`` if the step lowers
    ``sigma_min``, else ``None``.
    """
    if p.degree == 0:
        return None
    U, s, vh = svd
    k = np.arange(1, p.degree + 1)[:, None, None]
    dp = eval_poly(type(p)(p.coeffs[1:] * k), alpha)
    denom = complex(np.conj(U[:, -1]) @ dp @ np.conj(vh[-1]))
    if denom == 0:
        return None
    step = alpha - s[-1] / denom
    if kind == KIND_REAL:
        step = complex(step.real)
    elif step.imag <= 0:
        return None
    M = np.atleast_2d(eval_poly(p, step))
    polished = np.linalg.svd(M)
    if polished[1][-1] < s[-1]:
        return step, M, polished
    return None


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
    ValueError
        If a coefficient of ``p`` is not real (see :func:`check_real`).
    OnUnitCircle
        If the record's location is on the circle.
    NotARoot
        If ``p(alpha)`` is far from singular.
    """
    check_real(p)
    if record.location == LOCATION_ON_CIRCLE:
        raise OnUnitCircle(
            f"root {record.alpha} lies on the unit circle; mirroring is undefined"
        )
    alpha = record.alpha
    M = np.atleast_2d(eval_poly(p, alpha))
    svd = np.linalg.svd(M)
    smin = svd[1][-1]
    bound = tol.kernel * _scaled_size(p, alpha)
    if smin > bound:
        raise NotARoot(
            f"sigma_min(p({alpha})) = {smin:.3e} exceeds "
            f"{tol.kernel:.1e} * ||p|| * max(1, |alpha|)^{p.degree} = {bound:.3e}"
        )
    polished = _newton_polish(p, record.kind, alpha, svd)
    if polished is not None:
        alpha, M, svd = polished
    v = _anchored_kernel(M, svd[2])

    if record.kind == KIND_REAL:
        vr = np.real(v)
        vr = vr / np.linalg.norm(vr)
        Q = orthogonal_completion(vr[:, None])
        return MirrorPlan(case=CASE_REAL, alpha=alpha, v=vr.astype(complex), Q=Q)

    B = np.column_stack([v.real, v.imag])
    if _w_ratio(v) <= tol.degenerate:
        # kernel direction is e^{i phi} times a real vector: re-phase onto it
        U, _, _ = np.linalg.svd(B)
        u = U[:, 0]
        phase = complex(u @ v.real, u @ v.imag)
        phase = phase / abs(phase)
        v_aligned = v * np.conj(phase)
        vr = np.real(v_aligned)
        vr = vr / np.linalg.norm(vr)
        idx = int(np.argmax(np.abs(vr)))
        if vr[idx] < 0:
            vr = -vr
            v_aligned = -v_aligned
        Q = orthogonal_completion(vr[:, None])
        return MirrorPlan(
            case=CASE_DEGENERATE, alpha=alpha, v=v_aligned, Q=Q
        )

    # one QR of [B | I]: its leading columns are the Q1 of B = Q1 R and the
    # rest complete them to an orthogonal Q
    Q, R = _positive_qr(np.hstack([B, np.eye(B.shape[0])]))
    w = R[:2, :2] @ np.array([1.0, 1.0j])
    return MirrorPlan(case=CASE_GENERIC, alpha=alpha, v=v, Q=Q, w=w)
