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
    """det p(z) vanishes identically; there is no root set to work with."""


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
    """The state-space Gram matrix admits no sign that makes D'GD = I solvable."""


class SelectionNotClosed(AllPassError):
    """A root selection contains a malformed or conjugation-breaking record."""


class DeconvolutionResidueTooLarge(AllPassError):
    """Polynomial division left a remainder too large to be numerical noise."""
