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
    """The supplied alpha is not a determinantal root of the matrix."""


class OnUnitCircle(AllPassError):
    """A root sits on the unit circle, where mirroring is undefined."""


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


class CholeskyNotPD(AllPassError):
    """A Gram matrix that must be positive definite failed its Cholesky."""


class GramNotPD(AllPassError):
    """The state-space Gram matrix G is not positive definite, or the factor
    built from its Cholesky (D'GD = I) fails the structural certification."""


class SelectionNotClosed(AllPassError):
    """A root selection contains a malformed or conjugation-breaking record."""


class DeconvolutionResidueTooLarge(AllPassError):
    """Polynomial division left a remainder too large to be numerical noise."""
