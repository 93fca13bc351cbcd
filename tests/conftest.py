"""Shared fixtures and random-instance generators."""

import dataclasses

import numpy as np
import pytest

import allpass.mirror
from allpass import PolyMatrix, det_roots, mirror_once
from allpass.errors import SingularPolynomialMatrix
from allpass.roots import CASE_GENERIC, MirrorPlan, RootRecord


def rand_alpha(rng, side="inside"):
    """Upper-half-plane pair member with margins from the axis and circle.

    The angular margin keeps the pair away from the real axis, where the
    kernel degenerates; the radial split matches the two modulus ranges the
    constructions must cover.
    """
    if side == "inside":
        r = rng.uniform(0.1, 0.9)
    elif side == "outside":
        r = rng.uniform(1.1, 5.0)
    else:
        raise ValueError(f"side must be inside or outside, got {side!r}")
    theta = rng.uniform(0.1, np.pi - 0.1)
    return complex(r * np.exp(1j * theta))


def rand_w(rng, min_ratio=0.05):
    """Unit kernel direction whose real and imaginary parts stay independent."""
    while True:
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = np.stack([w.real, w.imag], axis=1)
        s = np.linalg.svd(b, compute_uv=False)
        if s[1] > min_ratio * s[0]:
            return w / np.linalg.norm(w)


# a valid pair near the degenerate boundary: sigma2/sigma1 of [Re w, Im w] is
# 1.6e-8, and b2_polynomial's A = Wm rot inv(Wm) comes out with eigenvalue
# modulus 0.974 where 1/|alpha| is 1.039
CROSSING_ALPHA = -0.15513715005622325 + 0.9502534925617604j
CROSSING_W = np.array(
    [-0.11806368624135133 + 0.6476911326462257j, 0.1349808666942894 - 0.7404980272148007j]
)


# a pair whose polynomial factor builds but is off the identity on the
# circle: sigma2/sigma1 of [Re w, Im w] is 2.2e-4, and the mirror
# certificate refuses the step's output
RECIPROCAL_B = (
    0.08699955019985547 + 0.13102763523972255j,
    [-0.8998896073571936 + 0.33529317243434625j, 0.2612541489970938 - 0.09758843190767374j],
)


def past_the_grid():
    """``(p_old, p_new) = ([[z^32, 0], [1, 1]], [[1, 0], [z^32, 1]])``: their
    spectra differ by ``z^-32 - z^32`` off the diagonal, which is zero on
    the 64th roots of unity and reaches ``2 sqrt 2`` elsewhere, against a
    spectrum of constant norm ``sqrt 7``."""
    old, new = np.zeros((2, 33, 2, 2))
    old[32, 0, 0] = old[0, 1, 0] = old[0, 1, 1] = 1.0
    new[0, 0, 0] = new[32, 1, 0] = new[0, 1, 1] = 1.0
    return PolyMatrix(old), PolyMatrix(new)


def poison_laurent(patch, member):
    """Make the certificate's lag products of chain member ``member`` NaN
    (``patch`` is a ``pytest.MonkeyPatch``)."""
    laurent = allpass.mirror._laurent

    def poisoned(stack):
        R = laurent(stack)
        R[:, member] = np.nan
        return R

    patch.setattr(allpass.mirror, "_laurent", poisoned)


def small_pair(seed):
    """A pair member at ``|alpha| = 1e-3`` and a Gaussian kernel direction,
    where the state-space factor is off the identity on the circle."""
    rng = np.random.default_rng(seed)
    alpha = 1e-3 * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
    return alpha, rng.standard_normal(2) + 1j * rng.standard_normal(2)


def patch_consecutive(patch, change):
    """Route every consecutive factor the pipeline builds through ``change``
    (``patch`` is a ``pytest.MonkeyPatch``)."""
    build = allpass.mirror.b2_consecutive
    patch.setattr(allpass.mirror, "b2_consecutive", lambda alpha, w, tol: change(build(alpha, w, tol)))


def inflate_consecutive(patch):
    """Scale the numerator of every consecutive factor the pipeline builds by
    1e100, so that a step's output is far above the chain's scale and its
    spectrum's squares overflow (``patch`` is a ``pytest.MonkeyPatch``)."""
    patch_consecutive(patch, lambda V: dataclasses.replace(V, num=PolyMatrix(1e100 * V.num.coeffs)))


def mirror_on_kernel(alpha, w, method):
    """``mirror_once`` of the pair ``alpha`` of a 2x2 ``p`` with ``p(alpha) w
    = 0``, on the plan with ``Q1 = I``, so the step builds its factor on this
    exact ``w`` (classify's own ``w`` is triangular, ``[Re w, Im w] = R``).

    ``p = [[s, 0], [l, 1]]`` with ``s = (z - alpha)(z - conj alpha)`` and
    real ``l = c0 + c1 z`` through ``l(alpha) = -w1 / w0``.
    """
    w = np.asarray(w, dtype=complex)
    lw = -w[1] / w[0]
    c1 = lw.imag / alpha.imag
    coeffs = np.zeros((3, 2, 2))
    coeffs[:, 0, 0] = [abs(alpha) ** 2, -2.0 * alpha.real, 1.0]
    coeffs[:2, 1, 0] = [lw.real - c1 * alpha.real, c1]
    coeffs[0, 1, 1] = 1.0
    plan = MirrorPlan(case=CASE_GENERIC, alpha=alpha, Q1=np.eye(2), w=w)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allpass.mirror, "classify", lambda p, record, tol: plan)
        return mirror_once(PolyMatrix(coeffs), RootRecord(alpha, 1, "inside"), method)


def origin_scalar():
    """``z (z - 0.5)``: an exact root at the origin, detected as 0."""
    return PolyMatrix(np.array([0.0, -0.5, 1.0]).reshape(3, 1, 1))


def origin_matrix():
    """``Q diag(z, 2) Q'``: its root at the origin polishes to about 1e-17,
    moves to about 1e17 and leaves the output with degree 0."""
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    return PolyMatrix(
        np.stack([Q @ np.diag([0.0, 2.0]) @ Q.T, Q @ np.diag([1.0, 0.0]) @ Q.T])
    )


def random_polymatrix(rng, dim, degree):
    return PolyMatrix(rng.standard_normal((degree + 1, dim, dim)))


def polymatrix_with_inside_pair(rng, dim, degree, margin=0.05):
    """Rejection-sample a real matrix whose determinant has a complex pair
    strictly inside the circle, with every root clear of the circle itself."""
    while True:
        p = random_polymatrix(rng, dim, degree)
        try:
            records = det_roots(p)
        except SingularPolynomialMatrix:
            continue
        if any(abs(abs(r.alpha) - 1.0) < margin for r in records):
            continue
        pairs = [
            r
            for r in records
            if r.kind == "complex_pair"
            and r.location == "inside"
            and abs(r.alpha) < 1.0 - margin
        ]
        if pairs:
            return p, records, pairs


@pytest.fixture
def worked_pair():
    """p(z) = [[1-2z, 1], [1-z, z]]; det = -2(z^2 - z + 0.5).

    The root pair is 0.5 +- 0.5i and the kernel at 0.5+0.5i is (1, i)/sqrt(2)
    up to phase, so R = diag(1/sqrt(2), 1/sqrt(2)).
    """
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = [[1.0, 1.0], [1.0, 0.0]]
    coeffs[1] = [[-2.0, 0.0], [-1.0, 1.0]]
    return PolyMatrix(coeffs)


@pytest.fixture
def scalar_halfpair():
    """p(z) = z^2 - z + 0.5 as a 1x1 matrix; roots 0.5 +- 0.5i."""
    return PolyMatrix(np.array([0.5, -1.0, 1.0]).reshape(3, 1, 1))


def singular_leading_3x3(seed=5):
    """Seeded 3x3 of degree 2 whose leading matrix has rank 2 exactly.

    The leading matrix has dyadic entries and its third row is the sum of the
    first two, so ``det C_2 = 0`` in exact arithmetic: ``det p`` has degree
    5, not 6, and ``p`` has one root at infinity.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3, 3, 3))
    c[2] = np.round(8 * c[2]) / 8
    c[2, 2] = c[2, 0] + c[2, 1]
    return PolyMatrix(c)


def rotated_diagonal(diagonal, seed):
    """``Qa diag(d_1(z), ..., d_n(z)) Qb`` for scalar polynomials ``d_i``
    given as ascending coefficient lists, with orthogonal ``Qa`` and ``Qb``
    from the QR factors of Gaussians from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    n, m = len(diagonal), max(len(d) for d in diagonal)
    Qa, Qb = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    D = np.zeros((m, n, n))
    for i, d in enumerate(diagonal):
        D[: len(d), i, i] = d
    return PolyMatrix(Qa @ D @ Qb)


def backward_error(p, a):
    """Coefficientwise backward error of ``a`` as a root of ``det p``:
    ``sigma_min(p(a)) / sum_k ||C_k|| |a|^k``."""
    norms = np.linalg.norm(p.coeffs, 2, axis=(1, 2))
    size = norms @ abs(a) ** np.arange(p.degree + 1)
    return np.linalg.svd(p(a), compute_uv=False)[-1] / size


def root_values(records):
    """Every root value the records stand for, with multiplicity."""
    out = []
    for r in records:
        members = [r.alpha] if r.kind == "real" else [r.alpha, r.alpha.conjugate()]
        out.extend(members * r.multiplicity)
    return out


def assert_roots_close(got, ref, rtol):
    """Same count, and every root within ``rtol`` (relative) of one in the
    other list, both ways."""
    assert len(got) == len(ref)
    for a, others in ((got, ref), (ref, got)):
        for z in a:
            assert min(abs(z - w) for w in others) <= rtol * abs(z)
