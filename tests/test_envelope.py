"""The stated operating envelope, end to end on its largest cells.

Root detection is one block-companion eigenproblem, which reaches cells
where the determinant's coefficients span many orders of magnitude.  Each
run must succeed and leave a correct polynomial, checked here without the
library's own residual reports.
"""

import numpy as np
import pytest

from allpass import METHODS, PolyMatrix, det_roots, mirror_all_inside
from conftest import root_values
from reference import norm

CELLS = [(10, 10), (12, 6), (16, 2), (20, 1), (30, 3)]


def _horner(c, zs):
    """``p(z)`` at each point of ``zs`` by Horner's scheme: ``(m, n, n)``."""
    acc = np.broadcast_to(c[-1], (zs.size,) + c.shape[1:]).astype(complex)
    for k in range(c.shape[0] - 2, -1, -1):
        acc = acc * zs[:, None, None] + c[k]
    return acc


def _backward_error(p, alpha):
    """``sigma_min(p(alpha)) / (||p|| max(1, |alpha|)^q)``."""
    smin = np.linalg.svd(p(alpha), compute_uv=False)[-1]
    return smin / (norm(p) * max(1.0, abs(alpha)) ** p.degree)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n,q", CELLS)
def test_envelope_cell_mirrors_every_inside_root(n, q, seed, method):
    c = np.random.default_rng(1000 + seed).standard_normal((q + 1, n, n))
    p = PolyMatrix(c)
    before = det_roots(p)
    out, reports = mirror_all_inside(p, method=method)
    after = det_roots(out)
    for poly, records in ((p, before), (out, after)):
        assert max(_backward_error(poly, r.alpha) for r in records) <= 1e-12
        assert len(root_values(records)) == n * q
    assert sum(r.multiplicity for r in before if r.location == "inside") == len(reports)
    assert not [r for r in after if r.location == "inside"]
    zs = np.exp(2j * np.pi * (np.arange(64) + 0.31) / 64)
    a, b = _horner(c, zs), _horner(out.coeffs, zs)
    s_in = a @ np.conj(a).transpose(0, 2, 1)
    s_out = b @ np.conj(b).transpose(0, 2, 1)
    dev = np.linalg.norm(s_out - s_in, axis=(1, 2)).max()
    assert dev <= 1e-8 * np.linalg.norm(s_in, axis=(1, 2)).max()
