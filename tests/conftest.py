"""Shared fixtures and random-instance generators."""

import numpy as np
import pytest

from allpass import PolyMatrix, det_roots
from allpass.errors import SingularPolynomialMatrix


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
