"""Rational all-pass factors with real coefficients.

On the unit circle an all-pass factor is pointwise unitary; multiplying a
polynomial column block by it moves a determinantal root ``alpha`` to
``1/alpha`` while leaving the boundary spectrum untouched.  Real roots take
the scalar factor ``(1 - alpha z)/(z - alpha)``; conjugate pairs with a real
kernel direction take its squared real-coefficient form; generic pairs take a
2x2 factor built either from a product of four elementary steps interleaved
with constant unitaries (``b2_consecutive``), from a polynomial identity in a
companion-like matrix A (``b2_polynomial``), or in state space
(``build_b2``).  The last two solve a Stein equation
(:func:`allpass.statespace.solve_stein`) in real arithmetic and take the
Cholesky factor of a Gram matrix.  No construction certifies its factor:
the mirror pipeline judges its output (:func:`allpass.mirror.mirror_set`),
and a direct caller checks ``V V^H = I`` with :func:`verify_allpass`.

Every construction has the shape ``(alpha, [w,] tol=DEFAULTS)``: the pair
member ``alpha`` in the upper half plane, the kernel direction ``w`` the
2x2 factors anchor to, and a :class:`~allpass.config.Tolerances`.  Their
input is validated once, by :func:`allpass.roots.check_pair`.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .config import DEFAULTS
from .errors import CholeskyNotPD
from .polymat import PolyMatrix, ScalarPoly, _on_circle, eval_poly
from .roots import check_off_circle, check_pair
from .statespace import StateSpace, solve_stein

__all__ = [
    "RationalAllPass",
    "VerifyReport",
    "elementary",
    "squared",
    "b2_consecutive",
    "b2_consecutive_from_w",
    "b2_polynomial",
    "build_b2",
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
    ``max_imag_pre`` records the largest imaginary coefficient residue seen
    before projection to real (zero for the real-arithmetic constructions).
    Poles are judged with the circle band of roots where a factor enters, in
    every construction and in :func:`~allpass.jsonio.allpass_from_json`.
    """

    num: PolyMatrix
    den: ScalarPoly
    alpha: complex
    method: str
    max_imag_pre: float = 0.0

    @property
    def dim(self) -> int:
        return self.num.dim

    def __call__(self, z) -> np.ndarray:
        return np.atleast_2d(eval_poly(self.num, z)) / eval_poly(self.den, z)


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
        ``circle`` and ``degenerate`` for :func:`~allpass.roots.check_pair`.

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
    ``max_imag_pre``, and the mirror report gives it relative to the
    largest coefficient modulus (:attr:`~allpass.mirror.MirrorReport.max_imag`).
    Everything is 2x2, so it runs on Python scalars:
    a Givens rotation for the QR and ``diag(B_+-, 1)`` times the
    denominator, ``diag(1 - conj(a) z, z - a)``, as column scalings.

    Raises
    ------
    ValueError, OnUnitCircle, DegenerateW
        From :func:`~allpass.roots.check_pair`.
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
    return RationalAllPass(
        num=PolyMatrix(np.array(num).reshape(3, 2, 2)),
        den=_pair_denominator(alpha),
        alpha=alpha,
        method="consecutive",
        max_imag_pre=max(abs(x.imag) for m in prod for x in m),
    )


# kept as an alias because the acceptance tests and the benchmark call the
# w-anchored construction by this name
b2_consecutive_from_w = b2_consecutive


def _solve_identity(A, tol=DEFAULTS):
    """``(B, T, Gamma0)`` making ``(I - Az)^-1 (I - Bz) T^-1`` all-pass for a
    2x2 ``A``: ``Gamma0 = A' Gamma0 A + I``, ``B = Gamma0^-1 A^-T Gamma0``
    and ``T'T = B' Gamma0 B - Gamma0``, on either side of the circle
    (``Gamma0`` is negative definite when ``A``'s eigenvalues lie outside)."""
    Gamma0 = solve_stein(A, np.eye(2), tol)
    B = np.linalg.solve(Gamma0, np.linalg.solve(A.T, Gamma0))
    return B, _cholesky(B.T @ Gamma0 @ B - Gamma0, "T'T").T, Gamma0


def _cholesky(M: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of ``M``, positive definite in exact arithmetic.

    Raises :class:`~allpass.errors.CholeskyNotPD` with the smallest
    eigenvalue of ``M`` when rounding has made it indefinite.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        spectrum = np.linalg.eigvalsh(M)
        msg = f"{name} is not positive definite (eigs {spectrum})"
        raise CholeskyNotPD(msg, spectrum[0], 0.0) from None


def b2_polynomial(alpha, w, tol=DEFAULTS) -> RationalAllPass:
    """2x2 factor from the polynomial identity, real arithmetic throughout.

    ``A`` realizes multiplication by ``1/alpha`` on the real coordinates of
    ``w``, so its similarity to a rotation-scaling block keeps everything
    real and its eigenvector for ``1/alpha`` is ``w`` itself.  The numerator
    is ``|alpha|^2 adj(I - Az) (I - Bz) T^-1`` over the monic pair
    denominator; its column space at ``alpha`` is spanned by ``w`` because
    the adjugate of the singular ``I - A alpha`` has rank one with columns
    in the eigenvector direction.  The input is validated by
    :func:`~allpass.roots.check_pair`; the factor is not certified here.
    """
    alpha, w = check_pair(alpha, w, tol)
    Wm = np.column_stack([w.real, w.imag])
    lam = 1.0 / alpha
    rot = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    A = Wm @ rot @ np.linalg.inv(Wm)
    B, T, _ = _solve_identity(A, tol)
    Tinv = np.linalg.inv(T)
    At = A - np.trace(A) * np.eye(2)
    scale = abs(alpha) ** 2
    coeffs = scale * np.array([Tinv, (At - B) @ Tinv, -At @ B @ Tinv])
    return RationalAllPass(PolyMatrix(coeffs), _pair_denominator(alpha), alpha, "polynomial")


def build_b2(alpha, w, tol=DEFAULTS):
    """All-pass factor for a conjugate root pair, built in state space.

    Parameters
    ----------
    alpha : complex
        Upper-half-plane member of the pair, off the unit circle.
    w : (2,) complex array
        Kernel direction in Q1 coordinates; the numerator's column space at
        ``alpha`` is spanned by it.
    tol : Tolerances
        ``circle`` and ``degenerate`` for :func:`~allpass.roots.check_pair`,
        ``circle`` and ``residual`` for :func:`~allpass.statespace.solve_stein`.

    Returns
    -------
    (StateSpace, RationalAllPass)
        The realization and its rational form with monic denominator
        ``(z - alpha)(z - conj(alpha))``; neither is certified here.

    Raises
    ------
    ValueError, OnUnitCircle, DegenerateW
        From :func:`~allpass.roots.check_pair`.
    ResonantEigenvalues
        From :func:`~allpass.statespace.solve_stein`.
    CholeskyNotPD
        If the Stein solution or the Gram matrix fails its Cholesky.
    """
    alpha, w = check_pair(alpha, w, tol)
    lam = 1.0 / alpha
    A = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    C = np.column_stack([w.imag, -w.real]) / np.linalg.norm(w)
    X = solve_stein(A, C.T @ C, tol)
    # X is definite with the sign of |alpha| - 1: its Cholesky factor gives
    # X^-1, or refuses where rounding has left X singular
    sign = 1.0 if abs(alpha) > 1.0 else -1.0
    Linv = np.linalg.inv(_cholesky(sign * X, "Stein solution X"))
    Xinv = sign * (Linv.T @ Linv)
    Ainv = np.linalg.inv(A)
    # D is upper triangular with D D' = G^-1 for the Gram matrix G > 0: G =
    # I + C A^-1 X^-1 A^-T C' >= I for |alpha| > 1; for |alpha| < 1, where
    # that sum cancels, the Cholesky of G^-1 = I - C X^-1 C' >= I reversed
    if abs(alpha) < 1.0:
        H = np.eye(2) - C @ Xinv @ C.T
        D = _cholesky(H[::-1, ::-1], "Gram matrix G^-1")[::-1, ::-1]
    else:
        G = np.eye(2) + C @ Ainv @ Xinv @ Ainv.T @ C.T
        D = np.linalg.inv(_cholesky(G, "Gram matrix G")).T
    B = -Xinv @ Ainv.T @ C.T @ D
    ss = StateSpace(A, B, C, D)

    # rational form over the monic denominator (z - alpha)(z - conj alpha)
    tr = 2.0 * lam.real
    det = abs(lam) ** 2
    scale = abs(alpha) ** 2
    c0 = ss.D
    c1 = ss.C @ ss.B - tr * ss.D
    c2 = ss.C @ (A - tr * np.eye(2)) @ ss.B + det * ss.D
    num = PolyMatrix(scale * np.array([c0, c1, c2]))
    return ss, RationalAllPass(num, _pair_denominator(alpha), alpha, "statespace")


def verify_allpass(
    V: RationalAllPass, n_samples: int = 32, tol: float = DEFAULTS.allpass
) -> VerifyReport:
    """Check the defining identity at the ``n_samples``-th roots of unity.

    Reports the worst Frobenius deviation of ``V(z) V(z)^H`` from the
    identity, the worst deviation of ``|det V(z)|`` from 1, and whether the
    worst deviation is at most ``tol``.  The coefficients are real, so
    ``V(conj z) = conj V(z)`` and both maxima are attained on the upper half
    of the grid, ``z_0 .. z_(n_samples // 2)``: ``num`` and ``den`` are each
    evaluated once there.  Poles are not judged here: one on the grid that
    does not cancel leaves a non-finite or huge residual, not ``ok``.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    _, num = _on_circle(V.num.coeffs, n_samples)
    _, den = _on_circle(V.den.coeffs, n_samples)
    M = num / den[:, None, None]
    gram = M @ np.conj(M).transpose(0, 2, 1) - np.eye(V.dim)
    worst = float(np.max(np.linalg.norm(gram, axis=(1, 2))))
    det_dev = float(np.max(np.abs(np.abs(np.linalg.det(M)) - 1.0)))
    return VerifyReport(
        max_residual=worst,
        det_modulus_dev=det_dev,
        n_samples=n_samples,
        ok=bool(worst <= tol),
    )
