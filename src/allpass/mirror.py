"""The mirroring pipeline: move determinantal roots across the unit circle.

One step takes a real matrix polynomial ``p`` and a root record, plans the
kernel geometry, builds the matching ``k x k`` all-pass factor ``V``, and
returns

    p_tilde = p (I + Q1 (V - I) Q1') = p + (p Q1 V - p Q1) Q1'

where the ``k <= 2`` orthonormal real columns ``Q1`` span the kernel
directions: ``I + Q1 (V - I) Q1'`` is itself a real all-pass function, so no
orthogonal completion of ``Q1`` is formed.  The factor's denominator is
divided back out of ``p Q1 num``, so the output is again a real matrix
polynomial of no higher degree.  The boundary product ``p(z) p(1/conj
z)^H`` is untouched while the selected root moves from ``alpha`` to
``1/alpha``.  The textbook step ``p Q blockdiag(V, I)``, with ``Q`` any
orthogonal completion of ``Q1``, gives the same output times the constant
orthogonal ``Q'``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .blaschke import b2_consecutive, b2_polynomial, build_b2, elementary, squared
from .config import DEFAULTS
from .errors import ResidualTooLarge
from .polymat import PolyMatrix, _conv_coeffs, _divide_coeffs
from .polymat import _trimmed_length, _unit_scaled

# not called here, but the benchmark's tracer (perfbench/tracer.py) looks up
# ``allpass.mirror.spectral_eval``, so the name must stay
from .polymat import spectral_eval  # noqa: F401
from .roots import (
    CASE_DEGENERATE,
    CASE_REAL,
    LOCATION_OUTSIDE,
    RootRecord,
    check_off_circle,
    classify,
    det_roots,
)

__all__ = [
    "MirrorReport",
    "mirror_once",
    "mirror_set",
    "mirror_all_inside",
]

METHODS = ("consecutive", "polynomial", "statespace")

_TINY = np.finfo(float).tiny
_MAX_EXP = np.finfo(float).maxexp


@dataclasses.dataclass
class MirrorReport:
    """Residual bookkeeping for one mirroring step.

    mirrored_roots
        The root values moved in this step (both members for a pair): the
        Newton-polished ``alpha`` of the step's plan, within roundoff of the
        record that was selected.
    residual_deconv
        Largest remainder left by dividing out the factor denominator,
        relative to the largest dividend coefficient; it vanishes exactly
        when ``p Q1 num`` does at the step's roots.  The division runs
        from the high-degree end for a root inside the circle and from the
        low-degree end for one outside (see
        :func:`~allpass.polymat._divide_coeffs`), so the recurrence never
        amplifies rounding by ``|alpha|``.
    max_imag
        Imaginary residue of the factor's numerator before projection to
        real coefficients (``max_imag_pre`` of
        :func:`~allpass.blaschke.b2_consecutive`), over ``max(1, largest
        |coefficient|)`` of the numerator; zero for the real-arithmetic
        constructions.  Reported, not judged: it describes the factor.
    spectral_dev
        Deviation of the boundary spectrum ``S = sum_d R_d z^d`` from that of
        the step's input, from their Laurent coefficients, ``|d| <= q`` the
        larger degree: ``sum_d ||R_d^new - R_d^old||_F`` over ``sqrt(sum_d
        ||R_d^old||_F^2)``, the root mean square of ``||S_old||_F``.  It
        bounds ``max ||S_new - S_old||_F / max ||S_old||_F`` over the circle
        and exceeds it by a factor of at most ``2q + 1``.
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


def _judge(step, name, value, bound) -> None:
    """Refuse ``value`` of step ``step = (i, n)`` unless it is at most
    ``bound``; NaN refuses too."""
    if not value <= bound:
        message = f"mirror step {step[0]} of {step[1]}: {name} {value:.3e} exceeds {bound:.3e}"
        raise ResidualTooLarge(message, value, bound)


def _squares(x):
    """Squared Frobenius norms over the last two axes."""
    return np.add.reduce(x * x, axis=(-2, -1))


def _laurent(X):
    """The Laurent coefficients ``R_d = sum_k C_(k+d) C_k'``, ``d = 0 .. m -
    1``, of the spectrum ``p(z) p(1/z)' = sum_d R_d z^d`` (``R_-d = R_d'``) of
    each real polynomial of a stack ``X[i, :, k] = C_k`` of shape ``(batch,
    n, m, n)``: one batched product per lag, on each ``[C_0 | C_1 | ...]``."""
    batch, n, m = X.shape[:3]
    X = X.reshape(batch, n, m * n)
    R = np.empty((m, batch, n, n))
    for d in range(m):
        np.matmul(X[..., d * n :], X[..., : (m - d) * n].swapaxes(-1, -2), out=R[d])
    return R


def _certify(chain, reports, tol, n) -> None:
    """Fill in ``spectral_dev`` and ``new_root_residual`` of every report from
    ``chain``, the input and each step's output: the Laurent coefficients of
    their spectra (:func:`_laurent`), zero-padded to one length, and one
    batched evaluation and SVD at the moved roots.  Then raise at the first
    number the certificate of :func:`mirror_set` refuses, as step ``i`` of
    ``n``."""
    m = max(p.degree for p in chain) + 1
    X = np.zeros((len(chain), chain[0].dim, m, chain[0].dim))
    for i, p in enumerate(chain):
        X[i, :, : p.degree + 1] = p.coeffs.transpose(1, 0, 2)
    # every lag d > 0 counts twice, for R_d and R_-d
    twice = np.full(m, 2.0)
    twice[0] = 1.0
    # an output far above the chain's scale squares to inf (its numbers
    # then read inf or NaN, which _judge refuses) without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        R = _laurent(X)
        rms = np.sqrt(twice @ _squares(R))
        devs = twice @ np.sqrt(_squares(R[:, 1:] - R[:, :-1])) / np.maximum(rms[:-1], _TINY)
        drifts = twice @ np.sqrt(_squares(R[:, 1:] - R[:, :1])) / max(rms[0], _TINY)
        # ||p||_F^2 = trace R_0
        norms = np.sqrt(np.trace(R[0, 1:], axis1=-2, axis2=-1))

    # each output at beta = 1/alpha if |beta| <= 1, else its reversal z^d
    # p_tilde(1/z) at alpha (d = degree_in): powers beta^k, or alpha^|d - k|,
    # where k > d meets a zero coefficient
    point = np.array([rep.mirrored_roots[0] for rep in reports], dtype=complex)
    inside = abs(point) < 1.0
    np.divide(1.0, point, out=point, where=~inside)
    d = np.array([rep.degree_in for rep in reports]) * inside
    powers = point[:, None] ** abs(d[:, None] - np.arange(m))
    values = (powers[:, None, None] @ X[1:])[:, :, 0]
    sigma = np.linalg.svd(values, compute_uv=False)[:, -1]
    residuals = sigma / np.maximum(norms, _TINY)
    for rep, dev, residual in zip(reports, devs.tolist(), residuals.tolist()):
        rep.spectral_dev, rep.new_root_residual = dev, residual

    for i, (rep, drift) in enumerate(zip(reports, drifts.tolist()), 1):
        for name, value, bound in (
            ("spectral_dev", rep.spectral_dev, tol.residual),
            ("drift from the input spectrum", drift, tol.residual),
            ("new_root_residual", rep.new_root_residual, tol.kernel),
        ):
            _judge((i, n), name, value, bound)


def _step(p: PolyMatrix, record: RootRecord, method: str, tol, step):
    """Mirror step ``step = (i, n)``; it judges its own division remainder,
    and :func:`_certify` fills in the rest of its report."""
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

    Q1 = plan.Q1
    pq1 = p.coeffs @ Q1
    raw = _conv_coeffs(pq1, V.num.coeffs)
    quot, resid_abs = _divide_coeffs(raw, V.den.coeffs)
    resid = resid_abs / max(float(abs(raw).max()), _TINY)
    _judge(step, "residual_deconv", resid, tol.residual)

    # p + (p Q1 V - p Q1) Q1'; the factor for alpha = 0 is 1/z, with a
    # constant numerator: its quotient is one coefficient short of the input
    pq1 = -pq1
    pq1[: quot.shape[0]] += quot
    out = p.coeffs + pq1 @ Q1.T
    p_new = PolyMatrix(out[: _trimmed_length(out, tol.trim)])
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
    method: str = "consecutive",
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
        Construction used for a generic complex pair (default
        ``"consecutive"``); real and degenerate roots always take the scalar
        factors.
    tol : Tolerances
        Passed to :func:`classify` and to every factor construction.

    Returns
    -------
    (PolyMatrix, MirrorReport)
        The output and the report of :func:`mirror_set` on the one record.

    Raises
    ------
    OnUnitCircle, NotARoot, DegenerateW
    ResidualTooLarge
        If the step fails the judgement of :func:`mirror_set`.
    """
    one = dataclasses.replace(record, multiplicity=1)
    p_new, (report,) = mirror_set(p, [one], method, tol)
    return p_new, report


def _validate_selection(selection, method, tol):
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    for rec in selection:
        check_off_circle(rec.alpha, tol)


def mirror_set(
    p: PolyMatrix,
    selection,
    method: str = "consecutive",
    tol=DEFAULTS,
):
    """Mirror every root in a selection, one copy at a time.

    Records are processed in ascending ``|alpha|`` (ties by real then
    imaginary part) and a record of multiplicity m is applied m times, with
    the kernel recomputed from the current polynomial before each copy.
    The method and every record are checked before the first step, also
    with nothing to move, and the chain is certified in one pass after the
    last (see :class:`MirrorReport`).

    The steps run on ``p 2^-e`` (:func:`~allpass.polymat._unit_scaled`),
    and the output is multiplied back by ``2^e``: powers of two are exact,
    so ``2^k p`` gives ``2^k`` times the output of ``p`` wherever both are
    normal, and the same reports.  An output that would reach ``2^1024``
    raises ``ResidualTooLarge``: its binary exponent over 1024, no ``p_tilde``.

    The judgement is of the output, not of the factors.  Each step's
    ``residual_deconv`` (judged by the step, before it builds its output)
    and ``spectral_dev``, and each output's drift from the input spectrum
    (the same number against the input), must be at most ``tol.residual``,
    and its ``new_root_residual`` at most ``tol.kernel``; else
    :class:`~allpass.errors.ResidualTooLarge` is raised at the first, NaN
    included, after the chain before a refused step is certified.  It
    carries that chain's last output and reports as ``p_tilde`` and
    ``reports``.  A step also refuses as :func:`classify` and the factor
    constructions do.

    A pass proves, at every degree, that over the whole circle each
    output's spectrum deviates from its input's, and from the chain
    input's, by at most ``tol.residual`` times the latter's largest norm;
    the numbers overstate that ratio by at most ``2q + 1``.

    Returns the final polynomial and the reports of every step.
    """
    _validate_selection(selection, method, tol)
    ordered = sorted(
        selection, key=lambda r: (abs(r.alpha), r.alpha.real, r.alpha.imag)
    )
    steps = [rec for rec in ordered for _ in range(rec.multiplicity)]
    scaled, e = _unit_scaled(p.coeffs)
    chain, reports, refusal = [PolyMatrix(scaled)], [], None
    try:
        for i, rec in enumerate(steps, 1):
            p_new, rep = _step(chain[-1], rec, method, tol, (i, len(steps)))
            chain.append(p_new)
            reports.append(rep)
    except ResidualTooLarge as exc:
        refusal = exc
    try:
        if reports:
            _certify(chain, reports, tol, len(steps))
    except ResidualTooLarge as exc:
        refusal = exc
    # the output's binary exponent: its largest coefficient is below 2^top
    top = e + int(np.frexp(abs(chain[-1].coeffs).max())[1])
    p_out = PolyMatrix(np.ldexp(chain[-1].coeffs, e)) if top <= _MAX_EXP else None
    if p_out is None and refusal is None:
        message = f"mirror output: 2^{top - 1} or more is beyond the float range 2^{_MAX_EXP}"
        refusal = ResidualTooLarge(message, top, _MAX_EXP)
    if refusal is not None:
        refusal.p_tilde, refusal.reports = p_out, reports
        raise refusal
    return p_out, reports


def mirror_all_inside(
    p: PolyMatrix,
    method: str = "consecutive",
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

