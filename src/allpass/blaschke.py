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
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import CholeskyNotPD, DegenerateW, OnUnitCircle
from .polymat import (
    CPolyMatrix,
    PolyMatrix,
    ScalarPoly,
    constant,
    eval_poly,
    mul,
    to_real,
)
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
        d = eval_poly(self.den, z)
        # relative check: at the pole itself rounding leaves a residue of
        # order eps * scale, which is still a vanishing denominator
        scale = float(np.max(np.abs(self.den.coeffs)))
        scale *= max(1.0, abs(z)) ** self.den.degree
        if abs(d) <= 1e-12 * max(scale, 1e-300):
            raise ZeroDivisionError(f"denominator vanishes at z = {z}")
        return np.atleast_2d(eval_poly(self.num, z)) / d


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Residuals of the defining all-pass identity on circle samples."""

    max_residual: float
    max_imag: float
    det_modulus_dev: float
    n_samples: int

    @property
    def ok(self) -> bool:
        return self.max_residual < DEFAULTS.allpass


def _check_off_circle(alpha: complex, tol_circle: float):
    if abs(abs(alpha) - 1.0) <= tol_circle:
        raise OnUnitCircle(
            f"|alpha| = {abs(alpha):.12g} lies on the unit circle"
        )


def elementary(alpha) -> RationalAllPass:
    """Scalar factor ``(1 - conj(alpha) z) / (z - alpha)``.

    Real for real ``alpha``; the complex variant only appears as an internal
    building block.
    """
    alpha = complex(alpha)
    _check_off_circle(alpha, DEFAULTS.circle)
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


def squared(alpha) -> RationalAllPass:
    """Real scalar factor mirroring a conjugate pair with real kernel.

    The product of the two elementary factors for ``alpha`` and
    ``conj(alpha)``: numerator ``1 - 2 Re(alpha) z + |alpha|^2 z^2`` over the
    monic ``(z - alpha)(z - conj alpha)``.
    """
    alpha = complex(alpha)
    if alpha.imag <= 0:
        raise ValueError(
            f"alpha must lie in the open upper half-plane, got {alpha}; "
            "real roots take the elementary factor"
        )
    _check_off_circle(alpha, DEFAULTS.circle)
    ar, m2 = alpha.real, abs(alpha) ** 2
    num = PolyMatrix(np.array([[[1.0]], [[-2.0 * ar]], [[m2]]]))
    den = ScalarPoly([m2, -2.0 * ar, 1.0])
    return RationalAllPass(num=num, den=den, alpha=alpha, method="squared")


def _pair_denominator(alpha: complex) -> ScalarPoly:
    return ScalarPoly([abs(alpha) ** 2, -2.0 * alpha.real, 1.0])


def _validate_pair(alpha) -> complex:
    alpha = complex(alpha)
    if alpha.imag <= 0:
        raise ValueError(
            f"alpha must lie in the open upper half-plane, got {alpha}"
        )
    _check_off_circle(alpha, DEFAULTS.circle)
    return alpha


def b2_consecutive(
    alpha,
    R: np.ndarray,
    tol_real: float = DEFAULTS.real,
) -> RationalAllPass:
    """2x2 factor as a product of elementary steps and constant unitaries.

    Parameters
    ----------
    alpha : complex
        Upper-half-plane member of the root pair.
    R : (2, 2) array
        Upper-triangular factor from the kernel QR, positive diagonal,
        ``a^2 + b^2 + c^2 = 1`` for ``(a, b, c) = (R00, R01, R11)``.  The
        anchoring direction is ``w = R (1, i)'``.

    Notes
    -----
    The factor is assembled as ``V_beta diag(B_+, 1) V_gamma diag(B_-, 1)
    V_delta`` with ``B_+-`` the elementary factors of the pair.  ``V_beta``
    aligns the column space at ``alpha`` with ``w``; ``V_gamma`` is derived
    from the conjugate spanning condition at ``conj(alpha)`` (first column
    proportional to ``diag(B(conj alpha; alpha)^-1, 1) V_beta^H conj(w)``,
    phase-fixed so its second entry is real nonnegative); ``V_delta``
    normalizes the product to the identity at ``z = 1``.  Those two
    conditions pin the factor to a real-coefficient representative, so the
    imaginary residue before projection is pure roundoff; it is recorded in
    ``max_imag_pre``.

    Raises
    ------
    DegenerateW
        If ``c < 1e-6``: the pair is (near) degenerate and belongs to the
        squared scalar factor.
    ImaginaryResidueTooLarge
        If the assembled product fails to be real to ``tol_real``.
    """
    alpha = _validate_pair(alpha)
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (2, 2):
        raise ValueError(f"R must be 2x2, got {R.shape}")
    if abs(R[1, 0]) > 1e-12:
        raise ValueError("R must be upper triangular")
    a, b, c = R[0, 0], R[0, 1], R[1, 1]
    if a <= 0 or c < 0:
        raise ValueError("R must have a positive diagonal")
    nrm = a * a + b * b + c * c
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"R must come from a unit kernel vector, |R|^2 = {nrm}")
    if c < 1e-6:
        raise DegenerateW(
            f"R[1,1] = {c:.3e} is numerically zero: w = R(1,i)' and its "
            "conjugate are dependent; use the squared scalar factor"
        )

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

    lift_plus = CPolyMatrix(
        np.array(
            [[[1.0, 0.0], [0.0, -ap]], [[-am, 0.0], [0.0, 1.0]]],
            dtype=complex,
        )
    )
    lift_minus = CPolyMatrix(
        np.array(
            [[[1.0, 0.0], [0.0, -am]], [[-ap, 0.0], [0.0, 1.0]]],
            dtype=complex,
        )
    )
    prod = mul(constant(V_beta), lift_plus)
    prod = mul(prod, constant(V_gamma))
    prod = mul(prod, lift_minus)
    prod = mul(prod, constant(V_delta))
    max_imag_pre = prod.max_imag()
    num = to_real(prod, tol_real)
    return RationalAllPass(
        num=num,
        den=_pair_denominator(alpha),
        alpha=alpha,
        method="consecutive",
        w=R @ np.array([1.0, 1.0j]),
        max_imag_pre=max_imag_pre,
    )


def b2_consecutive_from_w(alpha, w, tol_real: float = DEFAULTS.real) -> RationalAllPass:
    """Consecutive-product factor anchored directly to a kernel direction.

    Runs the QR split ``(Re w, Im w) = Q1 R`` and embeds ``Q1`` into the
    numerator, so the column space at ``alpha`` is spanned by ``w`` itself
    rather than by ``R (1, i)'``.  This is the shape the comparison against
    the other two constructions needs.
    """
    w = np.asarray(w, dtype=np.complex128).reshape(2)
    Q1, R = np.linalg.qr(np.column_stack([w.real, w.imag]))
    for i in range(2):
        if R[i, i] < 0:
            R[i, :] = -R[i, :]
            Q1[:, i] = -Q1[:, i]
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        raise ValueError("w must be nonzero")
    V = b2_consecutive(alpha, R / nw, tol_real=tol_real)
    num = to_real(mul(constant(Q1), V.num), tol_real)
    return RationalAllPass(
        num=num,
        den=V.den,
        alpha=V.alpha,
        method="consecutive",
        w=w.copy(),
        max_imag_pre=V.max_imag_pre,
    )


def allpass_from_A(A: np.ndarray, direction: str):
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
        validated strictly.

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
    moduli = np.abs(np.linalg.eigvals(A))
    if direction == "eigs_inside":
        if not np.all(moduli < 1.0 - DEFAULTS.circle):
            raise ValueError(
                f"direction eigs_inside but |eigs| = {sorted(moduli)}"
            )
        Gamma0 = solve_stein(A, np.eye(2))
        B = np.linalg.solve(Gamma0, np.linalg.solve(A.T, Gamma0))
        TtT = B.T @ Gamma0 @ B - Gamma0
    elif direction == "eigs_outside":
        if not np.all(moduli > 1.0 + DEFAULTS.circle):
            raise ValueError(
                f"direction eigs_outside but |eigs| = {sorted(moduli)}"
            )
        M = np.linalg.inv(A)
        Gamma0 = solve_stein(M, M.T @ M)
        B = np.linalg.solve(Gamma0, np.linalg.solve(A.T, Gamma0))
        TtT = Gamma0 - B.T @ Gamma0 @ B
    else:
        raise ValueError(
            f"direction must be 'eigs_inside' or 'eigs_outside', got {direction!r}"
        )
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


def b2_polynomial(
    alpha,
    w,
    tol_degenerate: float = DEFAULTS.degenerate,
) -> RationalAllPass:
    """2x2 factor from the polynomial identity, real arithmetic throughout.

    ``A`` realizes multiplication by ``1/alpha`` on the real coordinates of
    ``w``, so its similarity to a rotation-scaling block keeps everything
    real and its eigenvector for ``1/alpha`` is ``w`` itself.  The numerator
    is ``|alpha|^2 adj(I - Az) (I - Bz) T^-1`` over the monic pair
    denominator; its column space at ``alpha`` is spanned by ``w`` because
    the adjugate of the singular ``I - A alpha`` has rank one with columns
    in the eigenvector direction.
    """
    alpha = _validate_pair(alpha)
    w = np.asarray(w, dtype=np.complex128).reshape(2)
    Wm = np.column_stack([w.real, w.imag])
    sv = np.linalg.svd(Wm, compute_uv=False)
    if sv[1] <= tol_degenerate * sv[0]:
        raise DegenerateW(
            "w and conj(w) are numerically dependent "
            f"(sigma2/sigma1 = {sv[1] / sv[0]:.3e}); use the squared scalar factor"
        )
    lam = 1.0 / alpha
    rot = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    A = Wm @ rot @ np.linalg.inv(Wm)
    direction = "eigs_outside" if abs(alpha) < 1.0 else "eigs_inside"
    B, T, _ = allpass_from_A(A, direction)
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


def verify_allpass(V: RationalAllPass, n_samples: int = 32) -> VerifyReport:
    """Check the defining identity on equispaced unit-circle samples.

    Reports the worst Frobenius deviation of ``V(z) V(z)^H`` from the
    identity, the worst deviation of ``|det V(z)|`` from 1, and the
    coefficient imaginary residue (zero for real factors).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n = V.dim
    worst = 0.0
    det_dev = 0.0
    for k in range(n_samples):
        z = np.exp(2j * np.pi * k / n_samples)
        M = V(z)
        worst = max(worst, float(np.linalg.norm(M @ M.conj().T - np.eye(n))))
        det_dev = max(det_dev, abs(abs(np.linalg.det(M)) - 1.0))
    if isinstance(V.num, CPolyMatrix):
        max_imag = V.num.max_imag()
    else:
        max_imag = 0.0
    return VerifyReport(
        max_residual=worst,
        max_imag=max_imag,
        det_modulus_dev=det_dev,
        n_samples=n_samples,
    )
