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
    DegenerateW,
    NotARoot,
    OnUnitCircle,
    ResidualTooLarge,
    ResonantEigenvalues,
    SingularPolynomialMatrix,
)
from .polymat import (
    PolyMatrix,
    ScalarPoly,
    poly_roots,
    spectral_eval,
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
    b2_consecutive,
    b2_consecutive_from_w,
    b2_polynomial,
    build_b2,
    elementary,
    squared,
    verify_allpass,
)
from .statespace import (
    StateSpace,
    solve_stein,
    structural_blocks,
)
from .mirror import (
    METHODS,
    MirrorReport,
    mirror_all_inside,
    mirror_once,
    mirror_set,
)

__all__ = [
    "DEFAULTS",
    "Tolerances",
    "AllPassError",
    "CholeskyNotPD",
    "DegenerateW",
    "NotARoot",
    "OnUnitCircle",
    "ResidualTooLarge",
    "ResonantEigenvalues",
    "SingularPolynomialMatrix",
    "PolyMatrix",
    "ScalarPoly",
    "poly_roots",
    "spectral_eval",
    "MirrorPlan",
    "RootRecord",
    "classify",
    "det_roots",
    "RationalAllPass",
    "VerifyReport",
    "b2_consecutive",
    "b2_consecutive_from_w",
    "b2_polynomial",
    "build_b2",
    "elementary",
    "squared",
    "verify_allpass",
    "StateSpace",
    "solve_stein",
    "structural_blocks",
    "METHODS",
    "MirrorReport",
    "mirror_all_inside",
    "mirror_once",
    "mirror_set",
]
