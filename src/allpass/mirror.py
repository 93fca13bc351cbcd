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
from .errors import DeconvolutionResidueTooLarge, OnUnitCircle, SelectionNotClosed
from .polymat import PolyMatrix, _conv_coeffs, _divide_coeffs, _on_circle
from .polymat import _trimmed_length

# not called here, but the benchmark's tracer (perfbench/tracer.py) looks up
# ``allpass.mirror.spectral_eval``, so the name must stay
from .polymat import spectral_eval  # noqa: F401
from .roots import (
    CASE_DEGENERATE,
    CASE_REAL,
    KIND_COMPLEX,
    KIND_REAL,
    LOCATION_ON_CIRCLE,
    LOCATION_OUTSIDE,
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

_TINY = np.finfo(float).tiny

# relative division remainder above which a step's root and factor disagree
_DECONV_BOUND = 1e-6


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
        :func:`~allpass.polymat._divide_coeffs`), so the recurrence never
        amplifies rounding by ``|alpha|``.
    max_imag
        Imaginary residue of the factor's numerator before projection to
        real coefficients, over ``max(1, largest |coefficient|)`` of the
        numerator: the number :func:`~allpass.blaschke.b2_consecutive`
        bounds by ``tol.real`` (zero for the real-arithmetic constructions).
    spectral_dev
        Largest deviation of the boundary product from that of the step's
        input, normalized by the largest boundary product magnitude of the
        step's input, over the 64th roots of unity (both are real, so the
        upper half, ``z_0 .. z_32``, attains both maxima).
    new_root_residual
        ``sigma_min(p_tilde(1/alpha))`` normalized by ``||p_tilde|| *
        max(1, |1/alpha|)^degree_in`` (the natural size of an evaluation
        there); small means the root really relocated.  For ``|alpha| < 1``
        it is ``sigma_min(z^d p_tilde(1/z))`` at ``alpha`` over ``||p_tilde||``
        (``d = degree_in``): the same number, finite at ``alpha = 0``.
    """

    mirrored_roots: list
    method: str
    residual_deconv: float
    max_imag: float
    spectral_dev: float
    new_root_residual: float
    degree_in: int
    degree_out: int


def _spectral_deviation(s_new, s_old):
    """Relative deviation of boundary spectra, point axis first, batch axes kept."""
    dev = np.max(np.linalg.norm(s_new - s_old, axis=(-2, -1)), axis=0)
    scale = np.max(np.linalg.norm(s_old, axis=(-2, -1)), axis=0)
    return dev / np.maximum(scale, _TINY)


def _certify(chain, reports) -> None:
    """Fill in ``spectral_dev`` and ``new_root_residual`` of every report from
    ``chain``, the input and each step's output: one product of their real
    coefficient stacks, zero-padded to one length, on the upper half of the
    64-point grid, and one batched evaluation and SVD at the moved roots."""
    m = max(p.degree for p in chain) + 1
    stack = np.zeros((m, len(chain)) + chain[0].coeffs.shape[1:])
    for i, p in enumerate(chain):
        stack[: p.degree + 1, i] = p.coeffs
    _, P = _on_circle(stack, 64, half=True)
    S = P @ np.conj(P).swapaxes(-1, -2)
    devs = _spectral_deviation(S[:, 1:], S[:, :-1])

    # each output as a polynomial of degree d = degree_in: at beta = 1/alpha
    # if |beta| <= 1, else its reversal z^d p_tilde(1/z) at alpha
    points = []
    graded = np.zeros((len(reports), m, stack[0, 0].size))
    for i, rep in enumerate(reports):
        alpha, d = rep.mirrored_roots[0], rep.degree_in
        out = stack[: d + 1, i + 1].reshape(d + 1, -1)
        if abs(alpha) < 1.0:
            points.append(alpha)
            graded[i, : d + 1] = out[::-1]
        else:
            points.append(1.0 / alpha)
            graded[i, : d + 1] = out
    powers = np.array(points)[:, None, None] ** np.arange(m)
    values = (powers @ graded).reshape((len(reports),) + stack.shape[2:])
    sigma = np.linalg.svd(values, compute_uv=False)[:, -1].tolist()
    for rep, p_new, dev, sig in zip(reports, chain[1:], devs.tolist(), sigma):
        rep.spectral_dev = dev
        rep.new_root_residual = sig / max(p_new.norm(), _TINY)


def _step(p: PolyMatrix, record: RootRecord, method: str, tol):
    """One uncertified mirror step; :func:`_certify` fills in its report."""
    plan = classify(p, record, tol)

    if plan.case == CASE_REAL:
        V = elementary(plan.alpha.real, tol)
        mirrored = [plan.alpha]
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

    k = V.dim
    pq = np.matmul(p.coeffs, plan.Q)
    raw = _conv_coeffs(pq[:, :, :k], V.num.coeffs)
    quot, resid_abs = _divide_coeffs(raw, V.den.coeffs)
    resid = resid_abs / max(1.0, float(abs(raw).max()))
    if resid > _DECONV_BOUND:
        raise DeconvolutionResidueTooLarge(
            f"dividing out the factor denominator left relative remainder "
            f"{resid:.3e}; the selected root does not match the factor",
            resid,
            _DECONV_BOUND,
        )

    # the factor for alpha = 0 is 1/z, with a constant numerator: its
    # quotient is one coefficient short of the input, so pad it with zeros
    pq[:, :, :k] = 0.0
    pq[: quot.shape[0], :, :k] = quot
    p_new = PolyMatrix(pq[: _trimmed_length(pq, DEFAULTS.trim)])
    return p_new, MirrorReport(
        mirrored_roots=[complex(x) for x in mirrored],
        method=V.method,
        residual_deconv=resid,
        max_imag=V.max_imag_pre / max(1.0, float(abs(V.num.coeffs).max())),
        spectral_dev=np.nan,
        new_root_residual=np.nan,
        degree_in=p.degree,
        degree_out=p_new.degree,
    )


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
        The output and the report of :func:`mirror_set` on the one record.

    Raises
    ------
    SelectionNotClosed, OnUnitCircle, NotARoot, DegenerateW
    DeconvolutionResidueTooLarge
        If dividing out the factor denominator leaves a remainder far above
        noise, which means the root structure did not match the factor.
    """
    one = dataclasses.replace(record, multiplicity=1)
    p_new, (report,) = mirror_set(p, [one], method, tol)
    return p_new, report


def _validate_selection(selection, method, tol):
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
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
        if rec.location == LOCATION_ON_CIRCLE:
            raise OnUnitCircle(
                f"root {rec.alpha} lies on the unit circle; mirroring cannot move it",
                abs(rec.alpha),
                tol.circle,
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
    The method and every record are checked before the first step, also
    with nothing to move, and the chain is certified in one pass after the
    last (see :class:`MirrorReport`).

    Returns the final polynomial and the reports of every step.
    """
    _validate_selection(selection, method, tol)
    ordered = sorted(
        selection, key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag)
    )
    chain, reports = [p], []
    for rec in ordered:
        for _ in range(rec.multiplicity):
            p_new, rep = _step(chain[-1], rec, method, tol)
            chain.append(p_new)
            reports.append(rep)
    if reports:
        _certify(chain, reports)
    return chain[-1], reports


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
    # on-circle records go along for mirror_set to refuse before any step
    records = [r for r in det_roots(p, tol) if r.location != LOCATION_OUTSIDE]
    return mirror_set(p, records, method, tol)


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
