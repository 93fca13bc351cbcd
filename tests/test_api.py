"""The public names of the package."""

import allpass


def test_public_names():
    # what the pipeline, the CLI, the benchmark and the acceptance tests use;
    # the reference algebra the tests compare against is in reference.py
    assert allpass.__all__ == [
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
    for name in allpass.__all__:
        assert hasattr(allpass, name), name
