"""Exception types raised by the library.

Everything domain-specific derives from :class:`AllPassError` so callers can
catch one base class; plumbing mistakes (bad shapes, bad arguments) stay plain
``ValueError``/``numpy.linalg.LinAlgError``.
"""


class AllPassError(Exception):
    """Base class for all domain errors raised by this package."""


class ImaginaryResidueTooLarge(AllPassError):
    """A complex intermediate refused to project to real coefficients.

    Carries the offending residue in ``max_imag``.
    """

    def __init__(self, max_imag, tol, context=""):
        self.max_imag = float(max_imag)
        self.tol = float(tol)
        msg = (
            f"imaginary residue {self.max_imag:.3e} exceeds tolerance "
            f"{self.tol:.3e}"
        )
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class SingularPolynomialMatrix(AllPassError):
    """det p(z) vanishes identically: ``p(s)`` fails the root test at every
    trial shift ``s``.  Carries the best ``sigma_min(p(s)) / (||p|| max(1,
    |s|)^q)`` in ``ratio`` and the bound it failed in ``tol``."""

    def __init__(self, ratio, tol):
        self.ratio, self.tol = float(ratio), float(tol)
        super().__init__(
            "det p(z) vanishes identically: max over trial shifts s of sigma_min"
            f"(p(s)) / (||p|| max(1, |s|)^q) = {self.ratio:.3e} <= {self.tol:.1e}"
        )


class NotARoot(AllPassError):
    """The supplied alpha is not a determinantal root of the matrix.

    Carries ``sigma_min(p(alpha))`` in ``sigma`` and the root-test bound it
    exceeded in ``bound`` (both ``None`` when raised with a message only).
    """

    def __init__(self, message, sigma=None, bound=None):
        super().__init__(message)
        self.sigma, self.bound = sigma, bound


class OnUnitCircle(AllPassError):
    """A root sits on the unit circle, where mirroring is undefined.

    Carries the root's modulus in ``modulus`` and the half-width of the
    circle band it fell in, ``tol.circle``, in ``band`` (both ``None`` when
    raised with a message only).
    """

    def __init__(self, message, modulus=None, band=None):
        super().__init__(message)
        self.modulus, self.band = modulus, band


class DegenerateW(AllPassError):
    """w and its conjugate are (numerically) linearly dependent.

    The pair must be handled by the squared scalar factor instead of a
    full 2x2 construction.  Carries ``sigma2/sigma1`` of ``[Re w, Im w]`` in
    ``ratio`` and the bound it failed in ``tol``.
    """

    def __init__(self, ratio, tol):
        self.ratio = float(ratio)
        self.tol = float(tol)
        super().__init__(
            "w and conj(w) are numerically dependent (sigma2/sigma1 = "
            f"{self.ratio:.3e} <= {self.tol:.1e}); use the squared scalar factor"
        )


class ResonantEigenvalues(AllPassError):
    """The Stein equation X = A'XA + Q is singular: some lambda_i*lambda_j = 1."""


class SingularSteinSolution(AllPassError):
    """The Stein solution X of the state-space construction is numerically
    singular.  Carries its condition number in ``cond`` and the bound it
    exceeded in ``tol``."""

    def __init__(self, cond, tol):
        self.cond, self.tol = float(cond), float(tol)
        super().__init__(
            f"Stein solution X is numerically singular (cond = {self.cond:.3e} "
            f"> {self.tol:.1e})"
        )


class ReciprocalSpectrumMismatch(AllPassError):
    """The polynomial construction's B is not similar to A^-1: the largest
    distance between B's eigenvalues and the reciprocals of A's is
    ``deviation``, over the bound ``tol``, so the Stein solve is unreliable."""

    def __init__(self, deviation, tol):
        self.deviation, self.tol = float(deviation), float(tol)
        super().__init__(
            "eigenvalues of B miss the reciprocals of A's by "
            f"{self.deviation:.3e} > {self.tol:.3e}; the Stein solve is "
            "unreliable here"
        )


class CholeskyNotPD(AllPassError):
    """A Gram matrix that must be positive definite failed its Cholesky."""


class GramNotPD(AllPassError):
    """The state-space Gram matrix G is not positive definite, or the factor
    built from its Cholesky (D'GD = I) fails the structural certification."""


class SelectionNotClosed(AllPassError):
    """A root selection contains a malformed or conjugation-breaking record."""


class DeconvolutionResidueTooLarge(AllPassError):
    """Polynomial division left a remainder too large to be numerical noise.

    Carries the relative remainder in ``residual`` and the bound it exceeded
    in ``bound`` (both ``None`` when raised with a message only).
    """

    def __init__(self, message, residual=None, bound=None):
        super().__init__(message)
        self.residual, self.bound = residual, bound
