"""One refusal shape: every AllPassError carries the number that tripped it.

Every ``raise`` of an ``AllPassError`` subclass in the package passes the
message, ``value`` and ``bound``, no subclass has a constructor of its own,
and each raise site is reached by one input below, which asserts both
numbers.  The pair factors of the polynomial and state-space routes share
one raise site, the Cholesky of their Gram matrix; a factor that is not
all-pass is refused by the mirror certificate, through its effect on the
output.
"""

import ast
import collections
import inspect
from pathlib import Path

import numpy as np
import pytest

import allpass
from allpass import errors
from allpass import (
    PolyMatrix,
    Tolerances,
    b2_polynomial,
    build_b2,
    classify,
    det_roots,
    mirror_once,
    mirror_set,
)
from allpass.mirror import MirrorReport, _certify
from allpass.roots import RootRecord, check_off_circle, check_pair
from allpass.statespace import solve_stein
from conftest import (
    CROSSING_ALPHA,
    CROSSING_W,
    RECIPROCAL_B,
    mirror_on_kernel,
    past_the_grid,
    small_pair,
)

SRC = Path(allpass.__file__).parent
DOMAIN = {
    name
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.AllPassError)
}


def raise_sites():
    """``(module, line, class name, argument count)`` of every ``raise
    <AllPassError subclass>(...)`` in the package."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            if isinstance(func, ast.Name) and func.id in DOMAIN:
                n_args = len(node.exc.args) + len(node.exc.keywords)
                sites.append((path.stem, node.lineno, func.id, n_args))
    return sites


def test_error_classes_share_one_constructor():
    for name in DOMAIN - {"AllPassError"}:
        assert "__init__" not in vars(getattr(errors, name)), name
    exc = errors.NotARoot("m", np.float64(2.0), 1)
    assert (str(exc), exc.value, exc.bound) == ("m", 2.0, 1.0)
    assert type(exc.value) is float and type(exc.bound) is float


def test_every_raise_passes_message_value_and_bound():
    sites = raise_sites()
    assert len(sites) >= 7
    assert [s for s in sites if s[3] != 3] == []


def shifted_root():
    # the root test is relative to ||p||, which the 1e6 (z - 10) block
    # dominates, so it accepts 0.45 for the root 0.5 of (z - 0.5)(z - 3); one
    # Newton step leaves it 1e-3 off, and the division, relative to the
    # coefficients it divides, leaves 4.3e-4 against tol.residual = 1e-8
    coeffs = np.zeros((3, 2, 2))
    coeffs[:, 0, 0] = [1.5, -3.5, 1.0]
    coeffs[:2, 1, 1] = [-1e7, 1e6]
    rec = RootRecord(0.45, 1, "inside")
    mirror_once(PolyMatrix(coeffs), rec)


def degree_32_change():
    # a change of degree 32, which no 64-point grid sees
    report = MirrorReport([0.5], "elementary", 0.0, 0.0, np.nan, np.nan, 32, 32)
    _certify(list(past_the_grid()), [report], Tolerances(), 1)


CIRCLE = PolyMatrix(np.array([1.0, -2 * np.cos(0.7), 1.0]).reshape(3, 1, 1))
ON_CIRCLE = RootRecord(np.exp(0.7j), 1, "on_circle")

# (module, class, input) for every raise site
SITES = {
    "singular": ("polymat", errors.SingularPolynomialMatrix,
                 lambda: det_roots(PolyMatrix(np.array([[[1.0, 2.0], [2.0, 4.0]]])))),
    "off-circle": ("roots", errors.OnUnitCircle,
                   lambda: check_off_circle(0.3 + 0.9j, Tolerances(circle=0.1))),
    "degenerate": ("roots", errors.DegenerateW,
                   lambda: check_pair(0.5 + 0.5j, [1.0, 2e-4j], Tolerances(degenerate=1e-3))),
    "not-a-root": ("roots", errors.NotARoot,
                   lambda: classify(CIRCLE, RootRecord(3.0, 1, "outside"))),
    "cholesky": ("blaschke", errors.CholeskyNotPD, lambda: b2_polynomial(
        0.5655611953367762 + 0.20035102777185076j,
        [0.03480844806410672 + 0.28485272861234023j, -0.11622856730779756 - 0.950861827547541j],
    )),
    "reciprocal-B": ("mirror", errors.ResidualTooLarge,
                     lambda: mirror_on_kernel(*RECIPROCAL_B, "polynomial")),
    "resonant": ("statespace", errors.ResonantEigenvalues,
                 lambda: solve_stein(np.diag([2.0, 0.5]), np.eye(2))),
}
# callers that refuse through a site above: classify and mirror_set judge a
# record's root by check_off_circle, build_b2 takes its Gram matrix's
# Cholesky as b2_polynomial does, a mirror step judges its division
# remainder as the certificate judges its numbers, the certificate refuses
# a change of degree 32 or a step whose state-space factor is off the identity
# (at |alpha| = 1e-3, and where a Stein solution of condition 1.5e14 leaves
# the output 1.4e-2 off the input spectrum), on a w near the degenerate
# boundary the A that b2_polynomial forms has determinant 1 to rounding, and
# a defective A with trace 2 and determinant 1 meets the resonance bound
ROUTED = {
    "classify-circle": ("roots", errors.OnUnitCircle, lambda: classify(CIRCLE, ON_CIRCLE)),
    "selection-circle": ("roots", errors.OnUnitCircle,
                         lambda: mirror_set(CIRCLE, [ON_CIRCLE])),
    "deconvolution": ("mirror", errors.ResidualTooLarge, shifted_root),
    "degree-32": ("mirror", errors.ResidualTooLarge, degree_32_change),
    "gram-cholesky": ("blaschke", errors.CholeskyNotPD, lambda: build_b2(
        -7369.524344523711 + 1087.3723034507145j,
        [0.27243435677770883 + 0.6670369902467501j, 0.26217976147852295 + 0.6419524496413068j],
    )),
    "gram-blocks": ("mirror", errors.ResidualTooLarge,
                    lambda: mirror_on_kernel(*small_pair(196), "statespace")),
    "stein-cond": ("mirror", errors.ResidualTooLarge,
                   lambda: mirror_on_kernel(0.5 + 1e-10j, [1.0 + 0.5j, 1e-7j], "statespace")),
    "reciprocal-A": ("statespace", errors.ResonantEigenvalues,
                     lambda: b2_polynomial(CROSSING_ALPHA, CROSSING_W)),
    "resonant-jordan": ("statespace", errors.ResonantEigenvalues,
                        lambda: solve_stein(np.array([[-9999.0, 1.0], [-1e8, 10001.0]]), np.eye(2))),
}
INPUTS = {**SITES, **ROUTED}


def raised_at(info):
    """``(module, line)`` of the frame that raised."""
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).stem, tb.tb_lineno


@pytest.mark.parametrize("site", sorted(INPUTS))
def test_raise_site_carries_value_and_bound(site):
    module, cls, run = INPUTS[site]
    with pytest.raises(cls) as info:
        run()
    assert type(info.value) is cls
    assert raised_at(info)[0] == module
    assert isinstance(info.value.value, float)
    assert isinstance(info.value.bound, float)


def test_every_raise_site_is_reached():
    lines = collections.Counter()
    for module, cls, run in SITES.values():
        with pytest.raises(cls) as info:
            run()
        lines[raised_at(info)] += 1
    sites = collections.Counter((m, line) for m, line, _, _ in raise_sites())
    assert lines == sites
