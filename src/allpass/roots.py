"""Determinantal root detection and per-root mirror planning.

``det_roots`` finds where ``det p(z)`` vanishes and folds conjugate pairs
into single records; ``classify`` turns one record into everything the factor
constructions need: the kernel direction, its orthogonal completion, and the
generic/degenerate/real case split.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import NotARoot, OnUnitCircle, SingularPolynomialMatrix
from .polymat import det_poly, eval_poly, poly_roots

__all__ = [
    "RootRecord",
    "MirrorPlan",
    "det_roots",
    "kernel_vector",
    "classify",
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
    coordinates: ``Q1 w = v``.
    """

    case: str
    alpha: complex
    v: np.ndarray
    Q: np.ndarray
    R: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None


def _locate(alpha: complex, tol_circle: float) -> str:
    r = abs(alpha)
    if abs(r - 1.0) <= tol_circle:
        return LOCATION_ON_CIRCLE
    return LOCATION_INSIDE if r < 1.0 else LOCATION_OUTSIDE


def det_roots(
    p,
    tol_imag: float = DEFAULTS.imag,
    cluster_rtol: float = DEFAULTS.cluster,
    tol_circle: float = DEFAULTS.circle,
):
    """Detect the roots of ``det p(z)`` and return them as records.

    Conjugate pairs collapse to one record with ``Im(alpha) > 0``.  Records
    are sorted by ``(|alpha|, Re, Im)`` so that indices into the list are
    stable; the CLI's ``--select`` indices refer to this order.

    Raises
    ------
    SingularPolynomialMatrix
        If ``det p(z)`` is identically zero (below noise at every degree).
    """
    d = det_poly(p)
    scale = max(1.0, p.norm()) ** p.dim
    if float(np.max(np.abs(d.coeffs))) <= 1e-10 * scale:
        raise SingularPolynomialMatrix(
            "det p(z) vanishes identically; the matrix polynomial is singular"
        )
    if d.degree == 0:
        return []
    values = poly_roots(d, tol_imag=tol_imag, cluster_rtol=cluster_rtol)

    counts: dict[complex, int] = {}
    for z in values:
        if z.imag < 0:
            continue
        counts[z] = counts.get(z, 0) + 1

    records = []
    for z, count in counts.items():
        kind = KIND_REAL if z.imag == 0 else KIND_COMPLEX
        records.append(
            RootRecord(
                alpha=z,
                multiplicity=count,
                kind=kind,
                location=_locate(z, tol_circle),
            )
        )
    records.sort(key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag))
    return records


def _anchored_kernel(M: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """Kernel direction of ``M`` from its right singular vectors ``vh``.

    The last right singular vector, with a deterministic phase: the
    largest-modulus entry (lowest index on ties) is made real and positive.
    The zero matrix maps to the first basis vector.
    """
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
    M = np.hstack([V1, np.eye(n)])
    Q, R = np.linalg.qr(M, mode="complete")
    signs = np.sign(np.diag(R[:n, :n]))
    signs[signs == 0] = 1.0
    Q = Q * signs[None, :]
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


def classify(
    p,
    record: RootRecord,
    tol_kernel: float = DEFAULTS.kernel,
    tol_degenerate: float = DEFAULTS.degenerate,
) -> MirrorPlan:
    """Build the mirror plan for one root record.

    Parameters
    ----------
    p : PolyMatrix
        Real matrix polynomial with ``det p(alpha) = 0``.
    record : RootRecord
        The root to plan for; must not sit on the unit circle.
    tol_kernel : float
        ``sigma_min(p(alpha)) <= tol_kernel * ||p|| * max(1, |alpha|)^q``
        (``q`` the degree of ``p``, the natural size of an evaluation at
        ``alpha``) is required for alpha to be accepted as a root.
    tol_degenerate : float
        Relative bound on the second singular value of ``(Re v, Im v)``
        below which the pair counts as degenerate (kernel direction is a
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
            f"root {record.alpha} lies on the unit circle; mirroring is undefined"
        )
    alpha = record.alpha
    M = np.atleast_2d(eval_poly(p, alpha))
    svd = np.linalg.svd(M)
    smin = svd[1][-1]
    bound = tol_kernel * max(p.norm(), np.finfo(float).tiny)
    bound *= max(1.0, abs(alpha)) ** p.degree
    if smin > bound:
        raise NotARoot(
            f"sigma_min(p({alpha})) = {smin:.3e} exceeds "
            f"{tol_kernel:.1e} * ||p|| * max(1, |alpha|)^{p.degree} = {bound:.3e}"
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
    s = np.linalg.svd(B, compute_uv=False)
    # a 1-dimensional kernel can only be a complex multiple of a real vector
    if s.shape[0] < 2 or s[1] <= tol_degenerate * s[0]:
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

    Q1, R = np.linalg.qr(B)
    for i in range(2):
        if R[i, i] < 0:
            R[i, :] = -R[i, :]
            Q1[:, i] = -Q1[:, i]
    w = R @ np.array([1.0, 1.0j])
    Q = orthogonal_completion(Q1)
    return MirrorPlan(case=CASE_GENERIC, alpha=alpha, v=v, Q=Q, R=R, w=w)
