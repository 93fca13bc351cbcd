"""The mirroring pipeline: move determinantal roots across the unit circle.

One step takes a real matrix polynomial ``p`` and a root record, plans the
kernel geometry, builds the matching all-pass factor ``V``, and returns

    p_tilde = p Q blockdiag(V, I)

with the factor's denominator divided back out of the transformed columns,
so the output is again a real matrix polynomial of no higher degree.  The
boundary product ``p(z) p(1/conj z)^H`` is untouched while the selected root
moves from ``alpha`` to ``1/alpha``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .blaschke import b2_consecutive, b2_polynomial, elementary, squared
from .config import DEFAULTS
from .errors import (
    DeconvolutionResidueTooLarge,
    OnUnitCircle,
    SelectionNotClosed,
)
from .polymat import PolyMatrix, _conv_coeffs, _divide_coeffs, circle_spectrum, trim

# not called here, but the benchmark's tracer (perfbench/tracer.py) looks up
# ``allpass.mirror.spectral_eval``, so the name must stay
from .polymat import spectral_eval  # noqa: F401
from .roots import (
    CASE_DEGENERATE,
    CASE_REAL,
    KIND_COMPLEX,
    KIND_REAL,
    LOCATION_INSIDE,
    LOCATION_ON_CIRCLE,
    RootRecord,
    classify,
    det_roots,
)
from .statespace import build_b2

__all__ = [
    "MirrorReport",
    "mirror_once",
    "mirror_set",
    "mirror_all_inside",
    "enumerate_selections",
]

METHODS = ("consecutive", "polynomial", "statespace")


@dataclasses.dataclass
class MirrorReport:
    """Residual bookkeeping for one mirroring step.

    mirrored_roots
        The root values moved in this step (both members for a pair): the
        Newton-polished ``alpha`` of the step's plan, within roundoff of the
        record that was selected.
    residual_deconv
        Largest remainder left by dividing out the factor denominator,
        relative to the largest dividend coefficient.  The division runs
        from the high-degree end for a root inside the circle and from the
        low-degree end for one outside (see
        :func:`~allpass.polymat.deconvolve`), so the recurrence never
        amplifies rounding by ``|alpha|``.
    max_imag
        Imaginary residue of the factor's numerator before projection to
        real coefficients (zero for the real-arithmetic constructions).
    spectral_dev
        Largest deviation of the boundary product from that of the step's
        input, normalized by the largest boundary product magnitude of the
        step's input, over the 64th roots of unity.
    new_root_residual
        ``sigma_min(p_tilde(1/alpha))`` normalized by
        ``||p_tilde|| * max(1, |1/alpha|)^degree`` (the natural size of an
        evaluation there); small means the root really relocated.
    """

    mirrored_roots: list
    method: str
    residual_deconv: float
    max_imag: float
    spectral_dev: float
    new_root_residual: float
    degree_in: int
    degree_out: int


def _spectral_deviation(s_new, s_old) -> float:
    """Relative deviation between two :func:`circle_spectrum` results."""
    dev = float(np.max(np.linalg.norm(s_new - s_old, axis=(1, 2))))
    scale = float(np.max(np.linalg.norm(s_old, axis=(1, 2))))
    return dev / max(scale, np.finfo(float).tiny)


def _relocation_residual(p_new, beta) -> float:
    M = np.atleast_2d(np.asarray(p_new(beta)))
    sig = np.linalg.svd(M, compute_uv=False)
    scale = p_new.norm() * max(1.0, abs(beta)) ** p_new.degree
    return float(sig[-1]) / max(scale, np.finfo(float).tiny)


def mirror_once(
    p: PolyMatrix,
    record: RootRecord,
    method: str = "polynomial",
    tol=DEFAULTS,
):
    """Mirror one copy of one root (or conjugate pair) of ``p``.

    Multiplicity on the record is ignored here: one factor application moves
    one copy, and repeated copies need the kernel recomputed in between (see
    :func:`mirror_set`).

    Parameters
    ----------
    p : PolyMatrix
    record : RootRecord
        Root to mirror; must be off the unit circle.
    method : {"consecutive", "polynomial", "statespace"}
        Construction used for a generic complex pair; real and degenerate
        roots always take the scalar factors.
    tol : Tolerances
        Passed to :func:`classify` and to every factor construction.

    Returns
    -------
    (PolyMatrix, MirrorReport)
        The polynomial carries its :func:`~allpass.polymat.circle_spectrum`,
        which a following step on it reads instead of evaluating it again.

    Raises
    ------
    OnUnitCircle, NotARoot, DegenerateW
    DeconvolutionResidueTooLarge
        If dividing out the factor denominator leaves a remainder far above
        noise, which means the root structure did not match the factor.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    plan = classify(p, record, tol)

    if plan.case == CASE_REAL:
        V = elementary(plan.alpha.real, tol)
        mirrored = [plan.alpha]
        beta = 1.0 / plan.alpha.real
    else:
        # the constructions stay module globals looked up per call (no
        # dispatch table), so a wrapper set on this module sees every call
        if plan.case == CASE_DEGENERATE:
            V = squared(plan.alpha, tol)
        elif method == "consecutive":
            V = b2_consecutive(plan.alpha, plan.w, tol)
        elif method == "polynomial":
            V = b2_polynomial(plan.alpha, plan.w, tol)
        else:
            _, V = build_b2(plan.alpha, plan.w, tol)
        mirrored = [plan.alpha, np.conj(plan.alpha)]
        beta = 1.0 / plan.alpha

    k = V.dim
    # classify checked that p is real, even in complex storage
    pq = np.matmul(p.coeffs.real, plan.Q)
    block = pq[:, :, :k]
    rest = pq[:, :, k:]

    raw = _conv_coeffs(block, V.num.coeffs)
    quot, resid_abs = _divide_coeffs(raw, V.den.coeffs)
    resid = resid_abs / max(1.0, float(np.max(np.abs(raw))))
    if resid > 1e-6:
        raise DeconvolutionResidueTooLarge(
            f"dividing out the factor denominator left relative remainder "
            f"{resid:.3e}; the selected root does not match the factor"
        )

    assembled = np.concatenate([quot, rest], axis=2)
    p_new = trim(PolyMatrix(assembled))
    # p_new is this step's own object, so its spectrum rides along to the next
    # step; a polynomial built elsewhere carries none and is evaluated here on
    # every call, with nothing stored on it
    p_new._boundary_spectrum = circle_spectrum(p_new)
    s_in = getattr(p, "_boundary_spectrum", None)
    if s_in is None:
        s_in = circle_spectrum(p)

    report = MirrorReport(
        mirrored_roots=[complex(x) for x in mirrored],
        method=V.method,
        residual_deconv=resid,
        max_imag=V.max_imag_pre,
        spectral_dev=_spectral_deviation(p_new._boundary_spectrum, s_in),
        new_root_residual=_relocation_residual(p_new, beta),
        degree_in=p.degree,
        degree_out=p_new.degree,
    )
    return p_new, report


def _validate_selection(selection):
    for rec in selection:
        if rec.multiplicity < 1:
            raise SelectionNotClosed(
                f"record for {rec.alpha} has multiplicity {rec.multiplicity}"
            )
        if rec.kind == KIND_COMPLEX and rec.alpha.imag <= 0:
            raise SelectionNotClosed(
                f"complex record must carry the upper-half-plane member, "
                f"got {rec.alpha}"
            )
        if rec.kind == KIND_REAL and rec.alpha.imag != 0:
            raise SelectionNotClosed(
                f"real record has nonzero imaginary part: {rec.alpha}"
            )


def mirror_set(
    p: PolyMatrix,
    selection,
    method: str = "polynomial",
    tol=DEFAULTS,
):
    """Mirror every root in a selection, one copy at a time.

    Records are processed in ascending ``|alpha|`` (ties by real then
    imaginary part) and a record of multiplicity m is applied m times, with
    the kernel recomputed from the current polynomial before each copy.

    Returns the final polynomial and the reports of every step.
    """
    _validate_selection(selection)
    ordered = sorted(
        selection, key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag)
    )
    current = p
    reports = []
    for rec in ordered:
        for _ in range(rec.multiplicity):
            single = dataclasses.replace(rec, multiplicity=1)
            current, rep = mirror_once(current, single, method=method, tol=tol)
            reports.append(rep)
    return current, reports


def mirror_all_inside(
    p: PolyMatrix,
    method: str = "polynomial",
    tol=DEFAULTS,
):
    """Mirror every determinantal root inside the unit circle.

    The roots are detected once, on the input, and the inside records go
    through :func:`mirror_set` (ascending ``|alpha|``, one copy per step).
    A step moves only its own root, so the other records stay valid; each
    is polished against the current polynomial by :func:`classify` before
    its own step.

    Raises
    ------
    OnUnitCircle
        If a root sits on the circle, where no mirror exists; checked
        before any step runs.
    """
    records = det_roots(p, tol)
    for rec in records:
        if rec.location == LOCATION_ON_CIRCLE:
            raise OnUnitCircle(
                f"root {rec.alpha} lies on the unit circle; "
                "mirroring cannot move it"
            )
    inside = [r for r in records if r.location == LOCATION_INSIDE]
    return mirror_set(p, inside, method=method, tol=tol)


def enumerate_selections(records):
    """All subsets of a root record list, including the empty selection.

    With ``m_r`` real and ``m_c`` complex-pair records this is
    ``2**(m_r + m_c)`` selections; multiplicities are not expanded
    (a record is either taken, with all its copies, or left).
    """
    records = list(records)
    K = len(records)
    if K > 16:
        raise ValueError(f"{K} records would enumerate {2**K} selections")
    out = []
    for mask in range(1 << K):
        out.append([records[i] for i in range(K) if (mask >> i) & 1])
    return out
