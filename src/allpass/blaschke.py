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

import dataclasses
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import CholeskyNotPD
from .polymat import (
    CPolyMatrix,
    PolyMatrix,
    ScalarPoly,
    _on_circle,
    constant,
    eval_poly,
    mul,
    to_real,
)
from .roots import _positive_qr, check_off_circle, check_pair
from .statespace import solve_stein

__all__ = [
    "UnitaryParam",
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


@dataclasses.dataclass(frozen=True)
class UnitaryParam:
    """Two-angle parametrization of a special 2x2 unitary.

    ``matrix()`` returns::

        [[cos(phi1) e^{+i phi2},  -sin(phi1)],
         [sin(phi1),               cos(phi1) e^{-i phi2}]]
    """

    phi1: float
    phi2: float

    def matrix(self) -> np.ndarray:
        c, s = np.cos(self.phi1), np.sin(self.phi1)
        e = np.exp(1j * self.phi2)
        return np.array([[c * e, -s], [s, c * np.conj(e)]])


@dataclasses.dataclass
class RationalAllPass:
    """All-pass factor ``num(z) / den(z)`` with monic denominator.

    ``alpha`` is the mirrored root (upper-half-plane member for a pair);
    ``w`` is the kernel direction the 2x2 constructions were anchored to,
    when there is one.  ``max_imag_pre`` records the largest imaginary
    coefficient residue seen before projection to real (identically zero for
    constructions that work in real arithmetic throughout).
    """

    num: "PolyMatrix | CPolyMatrix"
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
    max_imag: float
    det_modulus_dev: float
    n_samples: int
    ok: bool


def elementary(alpha, tol=DEFAULTS) -> RationalAllPass:
    """Scalar factor ``(1 - conj(alpha) z) / (z - alpha)``.

    Real for real ``alpha``; the complex variant only appears as an internal
    building block.
    """
    alpha = check_off_circle(alpha, tol)
    if alpha.imag == 0.0:
        a = alpha.real
        # alpha = 0 is the 1/z factor; any other alpha, however small, keeps
        # the -alpha z term so the numerator matches the denominator z - alpha
        num = PolyMatrix([[[1.0]], [[-a]]] if a != 0.0 else [[[1.0]]])
        den = ScalarPoly([-a, 1.0])
    else:
        num = CPolyMatrix(np.array([[[1.0]], [[-np.conj(alpha)]]]))
        den = ScalarPoly(np.array([-alpha, 1.0], dtype=complex))
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
        ``real`` for the projection to real coefficients.

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
    ``max_imag_pre``.

    Raises
    ------
    ValueError, OnUnitCircle, DegenerateW
        From :func:`~allpass.roots.check_pair`.
    ImaginaryResidueTooLarge
        If the assembled product fails to be real to ``tol.real``.
    """
    alpha, w = check_pair(alpha, w, tol)
    Q1, R = _positive_qr(np.column_stack([w.real, w.imag]))
    R = R / float(np.linalg.norm(w))
    a, b, c = R[0, 0], R[0, 1], R[1, 1]

    ap, am = alpha, np.conj(alpha)

    beta = UnitaryParam(
        phi1=float(np.arctan2(c, np.hypot(a, b))),
        phi2=float(np.arctan2(-a, b)),
    )
    V_beta = beta.matrix()

    # spanning condition at conj(alpha): first column of V_gamma
    g = V_beta.conj().T @ np.array([a - 1j * b, -1j * c])
    g = np.array([g[0] / (1.0 - am * am), g[1] / (am - ap)])
    g = g / np.linalg.norm(g)
    g = g * np.conj(g[1] / abs(g[1]))
    gamma = UnitaryParam(
        phi1=float(np.arctan2(g[1].real, abs(g[0]))),
        phi2=float(np.angle(g[0])) if abs(g[0]) > 0 else 0.0,
    )
    V_gamma = gamma.matrix()

    def elem_at_one(al):
        return (1.0 - np.conj(al)) / (1.0 - al)

    W1 = (
        V_beta
        @ np.diag([elem_at_one(ap), 1.0])
        @ V_gamma
        @ np.diag([elem_at_one(am), 1.0])
    )
    V_delta = W1.conj().T

    def lift(al):
        # diag(B(z; al), 1) times the denominator: diag(1 - conj(al) z, z - al)
        return CPolyMatrix(
            np.array([[[1.0, 0.0], [0.0, -al]], [[-np.conj(al), 0.0], [0.0, 1.0]]])
        )

    prod = mul(constant(V_beta), lift(ap))
    prod = mul(prod, constant(V_gamma))
    prod = mul(prod, lift(am))
    prod = mul(prod, constant(V_delta))
    return RationalAllPass(
        num=PolyMatrix(Q1 @ to_real(prod, tol.real).coeffs),
        den=_pair_denominator(alpha),
        alpha=alpha,
        method="consecutive",
        w=w.copy(),
        max_imag_pre=prod.max_imag(),
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
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2):
        raise ValueError(f"A must be 2x2, got {A.shape}")
    if direction not in ("eigs_inside", "eigs_outside"):
        raise ValueError(
            f"direction must be 'eigs_inside' or 'eigs_outside', got {direction!r}"
        )
    inside = direction == "eigs_inside"
    moduli = np.abs(np.linalg.eigvals(A))
    if not np.all(
        moduli * (1.0 + tol.circle) < 1.0 if inside
        else moduli * (1.0 - tol.circle) > 1.0
    ):
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
    ea = np.sort_complex(1.0 / np.linalg.eigvals(A))
    if np.max(np.abs(eb - ea)) > 1e-8 * max(1.0, float(np.max(np.abs(ea)))):
        raise ArithmeticError(
            f"eigenvalues of B {eb} are not the reciprocals of A's {ea}; "
            "the Stein solve is unreliable here"
        )
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
    coeffs = scale * np.stack([Tinv, (At - B) @ Tinv, -At @ B @ Tinv])
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
    deviation of ``|det V(z)|`` from 1, the coefficient imaginary residue
    (zero for real factors), and whether the worst deviation is at most
    ``tol``.  A denominator that vanishes on the grid raises
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
    if isinstance(V.num, CPolyMatrix):
        max_imag = V.num.max_imag()
    else:
        max_imag = 0.0
    return VerifyReport(
        max_residual=worst,
        max_imag=max_imag,
        det_modulus_dev=det_dev,
        n_samples=n_samples,
        ok=bool(worst <= tol),
    )
