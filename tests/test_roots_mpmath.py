"""Detected roots against a 50-digit reference that shares no code with them.

The reference expands ``det p`` by cofactors, multiplying the entry
polynomials by convolution in ``mpmath`` at 50 digits, and solves the scalar
polynomial with ``mpmath.polyroots``.  The 2x2 singular value ratio that
decides a degenerate pair is checked at 50 digits too.
"""

import mpmath
import numpy as np
import pytest

from allpass import PolyMatrix, det_roots
from allpass.roots import _triangular_ratio
from conftest import assert_roots_close, root_values, singular_leading_3x3


def _mp_conv(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mp_add(a, b):
    m = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0] * (m - len(a)), b + [0] * (m - len(b)))]


def _mp_det(entries):
    """Cofactor expansion along the first row of a matrix of coefficient lists."""
    if len(entries) == 1:
        return entries[0][0]
    total = [mpmath.mpf(0)]
    for j, head in enumerate(entries[0]):
        minor = _mp_det([row[:j] + row[j + 1 :] for row in entries[1:]])
        term = _mp_conv(head, minor)
        total = _mp_add(total, term if j % 2 == 0 else [-x for x in term])
    return total


def _mp_roots(p):
    c = p.coeffs
    n = c.shape[1]
    with mpmath.workdps(50):
        entries = [[[mpmath.mpf(float(x)) for x in c[:, i, j]] for j in range(n)] for i in range(n)]
        d = _mp_det(entries)
        while d[-1] == 0:
            d.pop()
        return [complex(z) for z in mpmath.polyroots(d[::-1], maxsteps=200, extraprec=200)]


def _double_pair():
    half = np.array([0.5, -1.0, 1.0])
    return PolyMatrix(np.convolve(half, half).reshape(-1, 1, 1))


@pytest.mark.parametrize(
    "make",
    [
        _double_pair,
        lambda: PolyMatrix(np.random.default_rng(21).standard_normal((3, 2, 2))),
        singular_leading_3x3,
    ],
    ids=["double-pair", "2x2-degree-2", "singular-leading-3x3"],
)
def test_records_match_mpmath_reference(make):
    p = make()
    assert_roots_close(root_values(det_roots(p)), _mp_roots(p), 1e-12)


def test_triangular_ratio_matches_mpmath():
    # sigma2/sigma1 of [[f, g], [0, h]] from mpmath's SVD at 50 digits, on
    # entries spread over 1e+-20; the dlasv2 port reached 4.8 ulps here
    rng = np.random.default_rng(72)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(3000):
            f, g, h = rng.standard_normal(3) * 10.0 ** rng.uniform(-20, 20, 3)
            s = mpmath.svd_r(mpmath.matrix([[f, g], [0, h]]), compute_uv=False)
            exact = min(s) / max(s)
            ulps = abs(_triangular_ratio(f, g, h) - exact) / np.spacing(float(exact))
            worst = max(worst, float(ulps))
    assert worst <= 4.0
