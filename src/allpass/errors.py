"""Exception types raised by the library.

Everything domain-specific derives from :class:`AllPassError` so callers can
catch one base class; plumbing mistakes (bad shapes, bad arguments) stay plain
``ValueError``/``numpy.linalg.LinAlgError``.

Every refusal has one shape, ``AllPassError(message, value, bound)``: the
number the failed check compared and what it was compared against, stored as
floats (``None`` when not given).  A subclass names the check and says what
its ``value`` measures.
"""


class AllPassError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message, value=None, bound=None):
        super().__init__(message)
        self.value = None if value is None else float(value)
        self.bound = None if bound is None else float(bound)


class SingularPolynomialMatrix(AllPassError):
    """det p(z) vanishes identically: ``value`` is the best ``sigma_min(p(s))
    / (||p|| max(1, |s|)^q)`` over the trial shifts ``s``."""


class NotARoot(AllPassError):
    """alpha is not a determinantal root: ``value`` is ``sigma_min(p(alpha))``."""


class OnUnitCircle(AllPassError):
    """A root sits on the unit circle, where mirroring is undefined:
    ``value`` is its distance ``||alpha| - 1|`` from the circle."""


class DegenerateW(AllPassError):
    """w and its conjugate are numerically dependent, so the pair takes the
    squared scalar factor: ``value`` is ``sigma2/sigma1`` of ``[Re w, Im w]``."""


class ResonantEigenvalues(AllPassError):
    """The 2x2 Stein equation X = A'XA + Q is singular: ``value`` is the
    smallest ``|1 - lambda_i lambda_j|`` over the eigenvalues of ``A``, as
    :func:`~allpass.statespace.solve_stein` reads it from ``tr A`` and ``det
    A``, and ``bound`` is ``tol.circle``."""


class CholeskyNotPD(AllPassError):
    """A Gram matrix that must be positive definite failed its Cholesky
    (``T'T`` of the polynomial identity, or ``G`` of the state-space
    factor): ``value`` is its smallest eigenvalue, ``bound`` is 0."""


class ResidualTooLarge(AllPassError):
    """A mirror failed its judgement: ``value`` is the first number over its
    bound (NaN included), ``bound`` is ``tol.residual``, or ``tol.kernel``
    for a relocation residual; for an output beyond the float range,
    ``value`` is its binary exponent and ``bound`` the largest one.
    ``p_tilde`` and ``reports`` hold the last output of the chain that was
    judged (``None`` beyond the float range) and the report of each step."""
