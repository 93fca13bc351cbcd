"""The public names of the package and how its modules import each other."""

import ast
from pathlib import Path

import allpass

SRC = Path(allpass.__file__).parent


def test_public_names():
    # what the pipeline, the CLI, the benchmark and the acceptance tests use;
    # the reference algebra the tests compare against is in reference.py
    assert allpass.__all__ == [
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
    for name in allpass.__all__:
        assert hasattr(allpass, name), name


def imported_modules(node):
    """The modules an ``import`` or ``from ... import`` node names, with
    the package's relative imports spelled ``allpass.<module>``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module is None:
        return [f"allpass.{alias.name}" for alias in node.names]
    return [f"allpass.{node.module}"]


def test_imports_are_module_level_and_acyclic():
    # every import runs once, when the module loads; the realization algebra
    # in statespace is a leaf under the pair constructions in blaschke
    late = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late |= {
                    (path.name, node.lineno)
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert late == set()
    tree = ast.parse((SRC / "statespace.py").read_text())
    names = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_modules(node)
    ]
    assert "allpass.blaschke" not in names
