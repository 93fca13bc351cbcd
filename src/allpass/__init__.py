"""Mirror determinantal roots of real matrix polynomials at the unit circle.

The package builds real-coefficient all-pass (inner-function) factors whose
multiplication relocates selected roots of ``det p(z)`` to their reciprocals
without changing ``p(z) p(1/conj(z))^H``.
"""

__version__ = "0.1.0"

from .config import DEFAULTS, Tolerances
from .errors import (
    AllPassError,
    CholeskyNotPD,
    DeconvolutionResidueTooLarge,
    DegenerateW,
    GramNotPD,
    ImaginaryResidueTooLarge,
    NotARoot,
    OnUnitCircle,
    ReciprocalSpectrumMismatch,
    ResonantEigenvalues,
    SelectionNotClosed,
    SingularPolynomialMatrix,
    SingularSteinSolution,
)
from .polymat import (
    PolyMatrix,
    ScalarPoly,
    circle_spectrum,
    poly_roots,
    spectral_eval,
    trim,
)
from .roots import (
    MirrorPlan,
    RootRecord,
    classify,
    det_roots,
)
from .blaschke import (
    RationalAllPass,
    VerifyReport,
    allpass_from_A,
    b2_consecutive,
    b2_consecutive_from_w,
    b2_polynomial,
    elementary,
    squared,
    verify_allpass,
)
from .statespace import (
    StateSpace,
    build_b2,
    solve_stein,
    structural_blocks,
)
from .mirror import (
    METHODS,
    MirrorReport,
    enumerate_selections,
    mirror_all_inside,
    mirror_once,
    mirror_set,
)

__all__ = [
    "DEFAULTS",
    "Tolerances",
    "AllPassError",
    "CholeskyNotPD",
    "DeconvolutionResidueTooLarge",
    "DegenerateW",
    "GramNotPD",
    "ImaginaryResidueTooLarge",
    "NotARoot",
    "OnUnitCircle",
    "ReciprocalSpectrumMismatch",
    "ResonantEigenvalues",
    "SelectionNotClosed",
    "SingularPolynomialMatrix",
    "SingularSteinSolution",
    "PolyMatrix",
    "ScalarPoly",
    "poly_roots",
    "spectral_eval",
    "circle_spectrum",
    "trim",
    "MirrorPlan",
    "RootRecord",
    "classify",
    "det_roots",
    "RationalAllPass",
    "VerifyReport",
    "allpass_from_A",
    "b2_consecutive",
    "b2_consecutive_from_w",
    "b2_polynomial",
    "elementary",
    "squared",
    "verify_allpass",
    "StateSpace",
    "build_b2",
    "solve_stein",
    "structural_blocks",
    "METHODS",
    "MirrorReport",
    "enumerate_selections",
    "mirror_all_inside",
    "mirror_once",
    "mirror_set",
]
