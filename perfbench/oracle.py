"""Output checks for the benchmark, independent of the library's own reports.

Everything here works on plain coefficient arrays of shape ``(q+1, n, n)``
(ascending powers) with numpy alone, so a defect in the library's evaluation,
root finding or residual bookkeeping cannot hide itself.  Each ``check_*``
function returns the list of failed check names; an empty list means the
output is correct.

Bounds are the ones the library and CLI document, never looser:
``RESIDUAL_TOL`` is the CLI's ``mirror`` default (spectral deviation),
``ALLPASS_TOL`` the ``verify`` default and ``Tolerances.allpass``,
``RELOCATION_TOL`` the CLI's relocation bound, and ``DETECT_TOL`` the
library's ``Tolerances.kernel`` test for accepting a root (applied here to
the scaled ratio of :func:`sigma_ratio`).
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_TOL = 1e-8
ALLPASS_TOL = 1e-9
RELOCATION_TOL = 1e-6
DETECT_TOL = 1e-6
ANCHOR_TOL = 1e-8

SPECTRUM_SAMPLES = 256
FACTOR_SAMPLES = 64


def circle(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def eval_many(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Horner evaluation of a coefficient stack at many points: ``(m, n, n)``."""
    zs = np.asarray(zs, dtype=np.complex128)[:, None, None]
    acc = np.broadcast_to(coeffs[-1], (zs.shape[0],) + coeffs.shape[1:]).astype(complex)
    for k in range(coeffs.shape[0] - 2, -1, -1):
        acc = acc * zs + coeffs[k]
    return acc


def spectral_dev(c_in: np.ndarray, c_out: np.ndarray, m: int = SPECTRUM_SAMPLES) -> float:
    """Largest change of ``p p^H`` on the circle, relative to the input's size."""
    zs = circle(m)
    a, b = eval_many(c_in, zs), eval_many(c_out, zs)
    s_in = a @ np.conj(np.swapaxes(a, 1, 2))
    s_out = b @ np.conj(np.swapaxes(b, 1, 2))
    dev = np.linalg.norm(s_out - s_in, axis=(1, 2)).max()
    return float(dev / max(np.linalg.norm(s_in, axis=(1, 2)).max(), np.finfo(float).tiny))


# roots farther out than this count as infinite (a dropped determinant degree)
FINITE_LIMIT = 1e6
SHIFTS = tuple(0.6 * np.exp(1j * t) for t in (0.7, 2.1, 3.9, 5.3))


def roots(coeffs: np.ndarray) -> np.ndarray:
    """Finite roots of ``det p``, from a shifted and inverted block companion.

    With ``z = s + 1/mu``, ``mu^q p(s + 1/mu) = r(mu)`` has leading matrix
    ``p(s)``, invertible for a shift ``s`` off the roots, so the monic
    companion of ``r`` exists even when the leading matrix of ``p`` is
    singular; its zero eigenvalues are the infinite roots of ``p``.  Of a few
    fixed shifts, the one with the best conditioned ``p(s)`` is used.
    """
    q, n = coeffs.shape[0] - 1, coeffs.shape[1]
    if q == 0:
        return np.zeros(0, dtype=complex)
    s = min(SHIFTS, key=lambda z: np.linalg.cond(eval_many(coeffs, np.array([z]))[0]))
    # coefficient m of r is sum_k C_k binom(k, j) s^j with j = m - q + k
    r = np.zeros((q + 1, n, n), dtype=complex)
    for k in range(q + 1):
        for j in range(k + 1):
            r[j + q - k] += coeffs[k] * (math.comb(k, j) * s ** j)
    lead_inv = np.linalg.inv(r[-1])
    comp = np.zeros((n * q, n * q), dtype=complex)
    comp[n:, :-n] = np.eye(n * (q - 1))
    for k in range(q):
        comp[:n, n * (q - 1 - k): n * (q - k)] = -lead_inv @ r[k]
    mu = np.linalg.eigvals(comp)
    z = s + 1.0 / mu[np.abs(mu) > 1.0 / FINITE_LIMIT]
    return z[np.abs(z) < FINITE_LIMIT]


def _inside(z) -> int:
    return int(np.sum(np.abs(z) < 1.0))


def sigma_ratio(coeffs: np.ndarray, z: complex) -> float:
    """``sigma_min(p(z)) / (||p|| * max(1, |z|)^q)``: zero at a root.

    The denominator is the natural size of an evaluation at ``z`` (the
    library's ``new_root_residual`` uses it too), so the ratio is a backward
    error that stays meaningful for roots far outside the circle.
    """
    M = eval_many(coeffs, np.array([z]))[0]
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    norm = np.linalg.norm(coeffs.ravel()) * max(1.0, abs(z)) ** (coeffs.shape[0] - 1)
    return float(smin / max(norm, np.finfo(float).tiny))


def _real_finite(c) -> bool:
    c = np.asarray(c)
    return bool(np.isrealobj(c) and np.all(np.isfinite(c)))


def check_mirror(c_in: np.ndarray, c_out, moved) -> list[str]:
    """Check one mirroring result.

    ``moved`` lists every root value that should have been relocated, with
    multiplicity and both members of each conjugate pair.  The output must be
    real, keep the boundary spectrum, keep the total root count, have exactly
    ``len(moved)`` fewer roots inside the circle, and vanish (to the
    relocation bound) at each ``1/conj(alpha)``.
    """
    if not _real_finite(c_out):
        return ["real"]
    c_out = np.asarray(c_out, dtype=float)
    failed = []
    if spectral_dev(c_in, c_out) > RESIDUAL_TOL:
        failed.append("spectrum")
    roots_out = roots(c_out)
    if len(roots_out) != c_in.shape[1] * (c_in.shape[0] - 1):
        failed.append("root_count")
    if _inside(roots_out) != _inside(roots(c_in)) - len(moved):
        failed.append("inside")
    targets = [1.0 / np.conj(complex(a)) for a in moved]
    if any(sigma_ratio(c_out, t) > RELOCATION_TOL for t in targets):
        failed.append("relocation")
    return failed


def inside_roots(c_in: np.ndarray) -> list[complex]:
    """Independent list of the roots ``mirror_all_inside`` must move."""
    return [complex(r) for r in roots(c_in) if abs(r) < 1.0]


def check_roots(c_in: np.ndarray, records) -> list[str]:
    """Check a ``roots`` listing: every record is a root, and the count adds up.

    ``records`` are ``(alpha, multiplicity, is_pair)`` triples.
    """
    failed = []
    if any(sigma_ratio(c_in, a) > DETECT_TOL for a, _, _ in records):
        failed.append("detection")
    total = sum(m * (2 if pair else 1) for _, m, pair in records)
    if total != c_in.shape[1] * (c_in.shape[0] - 1):
        failed.append("root_count")
    inside = sum(m * (2 if pair else 1) for a, m, pair in records if abs(a) < 1.0)
    if inside != _inside(roots(c_in)):
        failed.append("inside")
    return failed


def check_factor(num: np.ndarray, den: np.ndarray, alpha: complex, w=None) -> list[str]:
    """Check an all-pass factor ``num(z)/den(z)`` built for ``alpha``.

    The factor must have real coefficients, satisfy ``V V^H = I`` on the
    circle, and be anchored: for a 2x2 factor the columns of ``num(alpha)``
    lie along ``w``; for a scalar factor ``num`` vanishes at ``1/conj(alpha)``.
    """
    if not (_real_finite(num) and _real_finite(den)):
        return ["real"]
    failed = []
    zs = circle(FACTOR_SAMPLES)
    N = eval_many(num, zs)
    d = np.polyval(den[::-1], zs)
    V = N / d[:, None, None]
    eye = np.eye(num.shape[1])
    resid = np.linalg.norm(V @ np.conj(np.swapaxes(V, 1, 2)) - eye, axis=(1, 2)).max()
    if not resid <= ALLPASS_TOL:
        failed.append("allpass")
    scale = np.linalg.norm(num.ravel())
    if w is None:
        z0 = 1.0 / np.conj(complex(alpha))
        at = eval_many(num, np.array([z0]))[0]
        anchor = np.linalg.norm(at) / (scale * max(1.0, abs(z0)) ** (num.shape[0] - 1))
    else:
        w = np.asarray(w, dtype=complex) / np.linalg.norm(w)
        at = eval_many(num, np.array([complex(alpha)]))[0]
        off = at - np.outer(w, np.conj(w) @ at)
        anchor = np.linalg.norm(off) / max(np.linalg.norm(at), np.finfo(float).tiny)
    if not anchor <= ANCHOR_TOL:
        failed.append("anchor")
    return failed


def detection_counts(captures) -> tuple[int, int]:
    """``(verified, total)`` over captured ``det_roots(p) -> records`` calls."""
    ok = total = 0
    for _, p, records in captures:
        for r in records:
            total += 1
            ok += sigma_ratio(p.coeffs, r.alpha) <= DETECT_TOL
    return ok, total
