"""Rational all-pass factors with real coefficients.

On the unit circle an all-pass factor is pointwise unitary; multiplying a
polynomial column block by it moves a determinantal root ``alpha`` to
``1/alpha`` while leaving the boundary spectrum untouched.  Real roots take
the scalar factor ``(1 - alpha z)/(z - alpha)``; conjugate pairs with a real
kernel direction take its squared real-coefficient form; generic pairs take a
2x2 factor built either from a product of four elementary steps interleaved
with constant unitaries (``b2_consecutive``), from a polynomial identity in a
companion-like matrix A (``b2_polynomial``), or in state space
(:func:`allpass.statespace.build_b2`).

Every construction has the shape ``(alpha, [w,] tol=DEFAULTS)``: the pair
member ``alpha`` in the upper half plane, the kernel direction ``w`` the
2x2 factors anchor to, and a :class:`~allpass.config.Tolerances`.  Their
input is validated once, by :func:`allpass.roots.check_pair`.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import CholeskyNotPD, ImaginaryResidueTooLarge, ReciprocalSpectrumMismatch
from .polymat import PolyMatrix, ScalarPoly, _on_circle, eval_poly
from .roots import check_off_circle, check_pair
from .statespace import solve_stein

__all__ = [
    "RationalAllPass",
    "VerifyReport",
    "elementary",
    "squared",
    "b2_consecutive",
    "b2_consecutive_from_w",
    "allpass_from_A",
    "b2_polynomial",
    "verify_allpass",
]


def _unitary(phi1: float, phi2: float) -> tuple:
    """Entries of the special unitary with angles ``phi1`` and ``phi2``,
    row-major, as Python scalars::

        [[cos(phi1) e^{+i phi2},  -sin(phi1)],
         [sin(phi1),               cos(phi1) e^{-i phi2}]]
    """
    c, s = math.cos(phi1), math.sin(phi1)
    e = cmath.exp(1j * phi2)
    return (c * e, -s, s, c * e.conjugate())


@dataclasses.dataclass
class RationalAllPass:
    """All-pass factor ``num(z) / den(z)`` with monic denominator.

    ``alpha`` is the mirrored root (upper-half-plane member for a pair);
    ``w`` is the kernel direction the 2x2 constructions were anchored to,
    when there is one.  ``max_imag_pre`` records the largest imaginary
    coefficient residue seen before projection to real (identically zero for
    constructions that work in real arithmetic throughout).
    """

    num: PolyMatrix
    den: ScalarPoly
    alpha: complex
    method: str
    w: Optional[np.ndarray] = None
    max_imag_pre: float = 0.0

    @property
    def dim(self) -> int:
        return self.num.dim

    def __call__(self, z) -> np.ndarray:
        num = np.atleast_2d(eval_poly(self.num, z))
        return self._quotient(z, num, eval_poly(self.den, z))

    def _quotient(self, z, num, den) -> np.ndarray:
        """``num / den`` from their values at the points ``z``; raises
        ``ZeroDivisionError`` at the first point where ``den`` vanishes."""
        z, den = np.asarray(z), np.asarray(den)
        # relative check: at the pole itself rounding leaves a residue of
        # order eps * scale, which is still a vanishing denominator
        scale = float(np.max(np.abs(self.den.coeffs)))
        scale = scale * np.maximum(1.0, np.abs(z)) ** self.den.degree
        vanishes = np.abs(den) <= 1e-12 * np.maximum(scale, 1e-300)
        if np.any(vanishes):
            raise ZeroDivisionError(f"denominator vanishes at z = {z[vanishes][0]}")
        return num / den[..., None, None]


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Residuals of the defining all-pass identity on circle samples.

    ``ok`` is ``max_residual <= tol`` for the ``tol`` the report was made
    with.
    """

    max_residual: float
    det_modulus_dev: float
    n_samples: int
    ok: bool


def elementary(alpha, tol=DEFAULTS) -> RationalAllPass:
    """Real scalar factor ``(1 - alpha z) / (z - alpha)`` for a real root.

    Raises :class:`OnUnitCircle` for ``alpha`` on the circle and
    ``ValueError`` for a complex one: a pair takes :func:`squared` or a 2x2
    factor, whose coefficients stay real.
    """
    alpha = check_off_circle(alpha, tol)
    if alpha.imag != 0.0:
        raise ValueError(
            f"elementary factor needs a real alpha, got {alpha}; "
            "a conjugate pair takes a pair factor"
        )
    a = alpha.real
    # alpha = 0 is the 1/z factor; any other alpha, however small, keeps
    # the -alpha z term so the numerator matches the denominator z - alpha
    num = PolyMatrix([[[1.0]], [[-a]]] if a != 0.0 else [[[1.0]]])
    den = ScalarPoly([-a, 1.0])
    return RationalAllPass(num=num, den=den, alpha=alpha, method="elementary")


def _pair_denominator(alpha: complex) -> ScalarPoly:
    """The monic ``(z - alpha)(z - conj alpha)`` every pair factor divides by."""
    return ScalarPoly([abs(alpha) ** 2, -2.0 * alpha.real, 1.0])


def squared(alpha, tol=DEFAULTS) -> RationalAllPass:
    """Real scalar factor mirroring a conjugate pair with real kernel.

    The product of the two elementary factors for ``alpha`` and
    ``conj(alpha)``: numerator ``1 - 2 Re(alpha) z + |alpha|^2 z^2`` over the
    monic ``(z - alpha)(z - conj alpha)``.
    """
    alpha, _ = check_pair(alpha, tol=tol)
    den = _pair_denominator(alpha)
    # the numerator z^2 den(1/z) is the denominator with its coefficients reversed
    num = PolyMatrix(den.coeffs[::-1].reshape(3, 1, 1))
    return RationalAllPass(num=num, den=den, alpha=alpha, method="squared")


def _mm(x, y):
    """Product of two 2x2 matrices held row-major as 4-tuples of scalars."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _lift(coeffs, a):
    """Coefficients of ``P(z) diag(1 - conj(a) z, z - a)`` from those of
    ``P(z)`` (4-tuples, ascending): two diagonal column scalings."""
    b = -a.conjugate()
    zero = (0.0,) * 4
    lo = [(x[0], -a * x[1], x[2], -a * x[3]) for x in coeffs] + [zero]
    hi = [zero] + [(b * x[0], x[1], b * x[2], x[3]) for x in coeffs]
    return [tuple(u + v for u, v in zip(x, y)) for x, y in zip(lo, hi)]


def b2_consecutive(alpha, w, tol=DEFAULTS) -> RationalAllPass:
    """2x2 factor as a product of elementary steps and constant unitaries.

    Parameters
    ----------
    alpha : complex
        Upper-half-plane member of the root pair.
    w : (2,) complex array
        Kernel direction; the numerator's column space at ``alpha`` is
        spanned by it.
    tol : Tolerances
        ``circle`` and ``degenerate`` for :func:`~allpass.roots.check_pair`,
        ``real`` for the projection to real coefficients: the imaginary
        residue may be at most ``tol.real`` times the largest modulus among
        the numerator's coefficients, or ``tol.real`` when none exceeds one.

    Notes
    -----
    The QR split ``(Re w, Im w) = |w| Q1 R`` (positive diagonal) gives
    ``a^2 + b^2 + c^2 = 1`` for ``(a, b, c) = (R00, R01, R11)``, and the
    product below is anchored to ``R (1, i)'``; ``Q1`` is embedded into the
    numerator so that the column space at ``alpha`` is spanned by ``w``.
    The factor is assembled as ``Q1 V_beta diag(B_+, 1) V_gamma
    diag(B_-, 1) V_delta`` with ``B_+-`` the elementary factors of the pair.
    ``V_beta`` aligns the column space at ``alpha`` with ``R (1, i)'``;
    ``V_gamma`` is derived from the conjugate spanning condition at
    ``conj(alpha)`` (first column proportional to
    ``diag(B(conj alpha; alpha)^-1, 1) V_beta^H conj(R (1, i)')``,
    phase-fixed so its second entry is real nonnegative); ``V_delta``
    normalizes the product to the identity at ``z = 1``.  Those two
    conditions pin the factor to a real-coefficient representative, so the
    imaginary residue before projection is pure roundoff; it is recorded in
    ``max_imag_pre``.  Everything is 2x2, so it runs on Python scalars:
    a Givens rotation for the QR and ``diag(B_+-, 1)`` times the
    denominator, ``diag(1 - conj(a) z, z - a)``, as column scalings.

    Raises
    ------
    ValueError, OnUnitCircle, DegenerateW
        From :func:`~allpass.roots.check_pair`.
    ImaginaryResidueTooLarge
        If the assembled product fails to be real to that bound, which it
        carries in ``tol``.
    """
    alpha, w = check_pair(alpha, w, tol)
    w0, w1 = w.tolist()
    x0, y0, x1, y1 = w0.real, w0.imag, w1.real, w1.imag
    # Givens QR of [[x0, y0], [x1, y1]]; check_pair rejects Re w = 0, and
    # the sign flip keeps R11 positive
    r00 = math.hypot(x0, x1)
    cq, sq = x0 / r00, x1 / r00
    r11 = cq * y1 - sq * y0
    sgn = 1.0 if r11 >= 0.0 else -1.0
    Q1 = (cq, -sq * sgn, sq, cq * sgn)
    nw = math.hypot(x0, y0, x1, y1)
    a, b, c = r00 / nw, (cq * y0 + sq * y1) / nw, sgn * r11 / nw

    ap, am = alpha, alpha.conjugate()
    V_beta = _unitary(math.atan2(c, math.hypot(a, b)), math.atan2(-a, b))

    # spanning condition at conj(alpha): V_gamma's first column is g / |g|
    # times the phase that makes its second entry real nonnegative, so its
    # angles are those of |g1| / |g0| and of g0 conj(g1)
    t0, t1 = complex(a, -b), complex(0.0, -c)
    g0 = (V_beta[0].conjugate() * t0 + V_beta[2].conjugate() * t1) / (1.0 - am * am)
    g1 = (V_beta[1].conjugate() * t0 + V_beta[3].conjugate() * t1) / (am - ap)
    V_gamma = _unitary(math.atan2(abs(g1), abs(g0)), cmath.phase(g0 * g1.conjugate()))

    # V_delta = W1^H for W1 = V_beta diag(B_+(1), 1) V_gamma diag(B_-(1), 1)
    ep, em = (1.0 - am) / (1.0 - ap), (1.0 - ap) / (1.0 - am)
    u = _mm((V_beta[0] * ep, V_beta[1], V_beta[2] * ep, V_beta[3]), V_gamma)
    V_delta = tuple(x.conjugate() for x in (u[0] * em, u[2] * em, u[1], u[3]))

    prod = _lift([_mm(x, V_gamma) for x in _lift([V_beta], ap)], am)
    prod = [_mm(x, V_delta) for x in prod]
    num = [_mm(Q1, [x.real for x in m]) for m in prod]
    # the coefficients grow like |alpha|^2, so the residue is judged
    # relative to the largest of the factor's (absolute up to size one)
    max_imag = max(abs(x.imag) for m in prod for x in m)
    bound = tol.real * max(1.0, max(abs(x) for m in num for x in m))
    if max_imag > bound:
        raise ImaginaryResidueTooLarge(
            max_imag, bound, "projecting coefficients to real"
        )
    return RationalAllPass(
        num=PolyMatrix(np.array(num).reshape(3, 2, 2)),
        den=_pair_denominator(alpha),
        alpha=alpha,
        method="consecutive",
        w=w.copy(),
        max_imag_pre=max_imag,
    )


# kept as an alias because the acceptance tests and the benchmark call the
# w-anchored construction by this name
b2_consecutive_from_w = b2_consecutive


def allpass_from_A(A: np.ndarray, direction: str, tol=DEFAULTS):
    """Solve the all-pass polynomial identity for a given companion matrix.

    For ``V(z) = (I - Az)^-1 (I - Bz) T^-1`` to be all-pass, the Gram matrix
    ``Gamma0`` must solve a Stein equation, ``B = Gamma0^-1 A^-T Gamma0``,
    and ``T'T`` must equal ``B' Gamma0 B - Gamma0`` (eigenvalues of A inside
    the circle) or its negative (outside).

    Parameters
    ----------
    A : (2, 2) array, nonsingular.
    direction : {"eigs_inside", "eigs_outside"}
        Declared location of A's spectrum relative to the unit circle;
        validated strictly.  The roots the factor mirrors are the
        reciprocals of A's eigenvalues, and each must lie off the circle by
        more than ``tol.circle``: ``|lambda| (1 + tol.circle) < 1`` inside,
        ``|lambda| (1 - tol.circle) > 1`` outside.
    tol : Tolerances

    Returns
    -------
    (B, T, Gamma0)
        ``T`` is upper triangular with positive diagonal (the transposed
        Cholesky factor of ``T'T``).

    Raises
    ------
    CholeskyNotPD
        If the computed ``T'T`` is not positive definite.
    ReciprocalSpectrumMismatch
        If the eigenvalues of ``B`` miss the reciprocals of A's by more than
        ``1e-8 max(1, max |1/lambda|)``.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2):
        raise ValueError(f"A must be 2x2, got {A.shape}")
    if direction not in ("eigs_inside", "eigs_outside"):
        raise ValueError(
            f"direction must be 'eigs_inside' or 'eigs_outside', got {direction!r}"
        )
    inside = direction == "eigs_inside"
    eigs = np.linalg.eigvals(A)
    moduli = np.abs(eigs)
    if not (
        moduli * (1.0 + tol.circle) < 1.0 if inside
        else moduli * (1.0 - tol.circle) > 1.0
    ).all():
        raise ValueError(f"direction {direction} but |eigs| = {sorted(moduli)}")
    if inside:
        Gamma0 = solve_stein(A, np.eye(2))
    else:
        M = np.linalg.inv(A)
        Gamma0 = solve_stein(M, M.T @ M)
    B = np.linalg.solve(Gamma0, np.linalg.solve(A.T, Gamma0))
    TtT = B.T @ Gamma0 @ B - Gamma0
    if not inside:
        TtT = -TtT
    try:
        L = np.linalg.cholesky(TtT)
    except np.linalg.LinAlgError:
        raise CholeskyNotPD(
            f"T'T is not positive definite (eigs {np.linalg.eigvalsh(TtT)})"
        ) from None
    T = L.T

    # B is similar to A^-1, so its spectrum must be the reciprocals of A's
    eb = np.sort_complex(np.linalg.eigvals(B))
    ea = np.sort_complex(1.0 / eigs)
    deviation = float(abs(eb - ea).max())
    bound = 1e-8 * max(1.0, float(abs(ea).max()))
    if deviation > bound:
        raise ReciprocalSpectrumMismatch(deviation, bound)
    return B, T, Gamma0


def b2_polynomial(alpha, w, tol=DEFAULTS) -> RationalAllPass:
    """2x2 factor from the polynomial identity, real arithmetic throughout.

    ``A`` realizes multiplication by ``1/alpha`` on the real coordinates of
    ``w``, so its similarity to a rotation-scaling block keeps everything
    real and its eigenvector for ``1/alpha`` is ``w`` itself.  The numerator
    is ``|alpha|^2 adj(I - Az) (I - Bz) T^-1`` over the monic pair
    denominator; its column space at ``alpha`` is spanned by ``w`` because
    the adjugate of the singular ``I - A alpha`` has rank one with columns
    in the eigenvector direction.  The input is validated by
    :func:`~allpass.roots.check_pair`.
    """
    alpha, w = check_pair(alpha, w, tol)
    Wm = np.column_stack([w.real, w.imag])
    lam = 1.0 / alpha
    rot = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    A = Wm @ rot @ np.linalg.inv(Wm)
    direction = "eigs_outside" if abs(alpha) < 1.0 else "eigs_inside"
    B, T, _ = allpass_from_A(A, direction, tol)
    Tinv = np.linalg.inv(T)
    At = A - np.trace(A) * np.eye(2)
    scale = abs(alpha) ** 2
    coeffs = scale * np.array([Tinv, (At - B) @ Tinv, -At @ B @ Tinv])
    return RationalAllPass(
        num=PolyMatrix(coeffs),
        den=_pair_denominator(alpha),
        alpha=alpha,
        method="polynomial",
        w=w.copy(),
        max_imag_pre=0.0,
    )


def verify_allpass(
    V: RationalAllPass, n_samples: int = 32, tol: float = DEFAULTS.allpass
) -> VerifyReport:
    """Check the defining identity at the ``n_samples``-th roots of unity.

    ``num`` and ``den`` are each evaluated once on that grid.  Reports the
    worst Frobenius deviation of ``V(z) V(z)^H`` from the identity, the worst
    deviation of ``|det V(z)|`` from 1, and whether the worst deviation is at
    most ``tol``.  A denominator that vanishes on the grid raises
    ``ZeroDivisionError``, as ``V(z)`` does.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    zs, num = _on_circle(V.num.coeffs, n_samples)
    _, den = _on_circle(V.den.coeffs, n_samples)
    M = V._quotient(zs, num, den)
    gram = M @ np.conj(M).transpose(0, 2, 1) - np.eye(V.dim)
    worst = float(np.max(np.linalg.norm(gram, axis=(1, 2))))
    det_dev = float(np.max(np.abs(np.abs(np.linalg.det(M)) - 1.0)))
    return VerifyReport(
        max_residual=worst,
        det_modulus_dev=det_dev,
        n_samples=n_samples,
        ok=bool(worst <= tol),
    )
