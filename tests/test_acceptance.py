"""End-to-end acceptance properties for the whole package.

One numbered test per property, tolerances stated inline; the module is
budgeted to stay fast on a laptop, single-threaded.
"""

import time

import numpy as np
import pytest

from allpass import (
    PolyMatrix,
    b2_consecutive_from_w,
    b2_polynomial,
    build_b2,
    det_roots,
    mirror_once,
    mirror_set,
    solve_stein,
    spectral_eval,
    structural_blocks,
    verify_allpass,
)
from allpass.blaschke import _solve_identity
from conftest import polymatrix_with_inside_pair, rand_alpha, rand_w


def _sweep(rng, count):
    """Half-inside, half-outside (alpha, w) instances."""
    for k in range(count):
        side = "inside" if k % 2 == 0 else "outside"
        yield rand_alpha(rng, side), rand_w(rng)


def _all_three(alpha, w):
    yield "consecutive", b2_consecutive_from_w(alpha, w)
    yield "polynomial", b2_polynomial(alpha, w)
    yield "statespace", build_b2(alpha, w)[1]


def test_01_allpass_identity_three_constructions():
    """max over 32 circle samples of ||V(z)V(1/conj(z))^H - I||_F < 1e-9
    for 200 random pairs on both sides of the circle, all constructions."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for alpha, w in _sweep(rng, 200):
        for _, V in _all_three(alpha, w):
            worst = max(worst, verify_allpass(V, n_samples=32).max_residual)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst all-pass residual {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_02_realness_residues():
    """Pre-projection imaginary residue < 1e-8 for the consecutive
    construction and < 1e-13 for the two that stay in real arithmetic."""
    rng = np.random.default_rng(102)
    worst = {"consecutive": 0.0, "polynomial": 0.0, "statespace": 0.0}
    for alpha, w in _sweep(rng, 200):
        for name, V in _all_three(alpha, w):
            worst[name] = max(worst[name], V.max_imag_pre)
            assert not np.iscomplexobj(V.num.coeffs)
    assert worst["consecutive"] < 1e-8, f"consecutive residue {worst['consecutive']:.3e}"
    assert worst["polynomial"] < 1e-13
    assert worst["statespace"] < 1e-13


def test_03_column_space_condition():
    """num(alpha) has numerical rank one with column space along w:
    sigma_2/sigma_1 < 1e-7 and the sine of the angle to w < 1e-7,
    200 random instances, all constructions."""
    rng = np.random.default_rng(103)
    worst_ratio = 0.0
    worst_sine = 0.0
    for alpha, w in _sweep(rng, 200):
        what = w / np.linalg.norm(w)
        for _, V in _all_three(alpha, w):
            N = V.num(alpha)
            U, s, _ = np.linalg.svd(N)
            worst_ratio = max(worst_ratio, s[1] / s[0])
            u = U[:, 0]
            sine = np.linalg.norm(u - what * (what.conj() @ u))
            worst_sine = max(worst_sine, sine)
    assert worst_ratio < 1e-7, f"worst sigma ratio {worst_ratio:.3e}"
    assert worst_sine < 1e-7, f"worst sine {worst_sine:.3e}"


def test_04_cross_method_equivalence():
    """Method quotients are constant real orthogonal matrices over 16
    circle samples: deviation from the mean < 1e-8 and mean^T mean = I
    to 1e-8, 100 random instances."""
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    zs = np.exp(2j * np.pi * (np.arange(16) + 0.17) / 16)
    for alpha, w in _sweep(rng, 100):
        Vc = b2_consecutive_from_w(alpha, w)
        Vp = b2_polynomial(alpha, w)
        Vs = build_b2(alpha, w)[1]
        quotients = {
            "poly_vs_ss": np.stack([Vp(z) @ np.linalg.inv(Vs(z)) for z in zs]),
            "cons_vs_poly": np.stack([np.linalg.solve(Vp(z), Vc(z)) for z in zs]),
        }
        for name, prod in quotients.items():
            mean = prod.mean(axis=0)
            dev = np.max(np.abs(prod - mean))
            assert dev < 1e-8, f"{name}: sample deviation {dev:.3e}"
            M = mean.real
            gram_dev = np.max(np.abs(M.T @ M - np.eye(2)))
            assert gram_dev < 1e-8, f"{name}: orthogonality deviation {gram_dev:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_05_end_to_end_mirroring():
    """100 random real 2x2 and 3x3 matrices of degree <= 3 with a complex
    pair strictly inside: after mirroring those pairs the spectral density
    is unchanged to 1e-8 over 64 samples, sigma_min(p_tilde(1/alpha)) <
    1e-6 * ||p_tilde||, and the output is real."""
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    worst_dev = 0.0
    worst_reloc = 0.0
    for k in range(100):
        dim = 2 if k % 2 == 0 else 3
        degree = int(rng.integers(1, 4))
        p, _, pairs = polymatrix_with_inside_pair(rng, dim, degree)
        q, _ = mirror_set(p, pairs, method="polynomial")

        assert isinstance(q, PolyMatrix)
        assert not np.iscomplexobj(q.coeffs)

        dev = 0.0
        for z in np.exp(2j * np.pi * (np.arange(64) + 0.41) / 64):
            fp = spectral_eval(p, z)
            fq = spectral_eval(q, z)
            dev = max(dev, np.linalg.norm(fq - fp) / np.linalg.norm(fp))
        worst_dev = max(worst_dev, dev)

        qnorm = q.norm()
        for rec in pairs:
            target = 1.0 / rec.alpha
            smin = np.linalg.svd(q(target), compute_uv=False)[-1]
            worst_reloc = max(worst_reloc, smin / qnorm)
    elapsed = time.perf_counter() - start
    assert worst_dev < 1e-8, f"worst spectral deviation {worst_dev:.3e}"
    assert worst_reloc < 1e-6, f"worst relocation residual {worst_reloc:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_06_scalar_sanity():
    """z^2 - z + 0.5 mirrors to the hand-expanded real quadratic with
    roots 1 +- i, and |p_tilde| = |p| on the circle to 1e-10."""
    p = PolyMatrix(np.array([0.5, -1.0, 1.0]).reshape(3, 1, 1))
    rec = det_roots(p)[0]
    q, _ = mirror_once(p, rec)
    # oracle from expanding (z^2 - z + 0.5)(0.5 z^2 - z + 1)/(z^2 - z + 0.5)
    np.testing.assert_allclose(q.coeffs.ravel(), [1.0, -1.0, 0.5], atol=1e-10)
    roots = sorted(np.roots(q.coeffs.ravel()[::-1]), key=lambda z: z.imag)
    np.testing.assert_allclose(roots, [1.0 - 1.0j, 1.0 + 1.0j], atol=1e-10)
    for theta in np.linspace(0.0, 2 * np.pi, 37):
        z = np.exp(1j * theta)
        assert abs(abs(q(z)[0, 0]) - abs(p(z)[0, 0])) < 1e-10


def test_07_gram_closed_forms():
    """Hand-derived solutions of the all-pass polynomial identity for
    scaled identity matrices, to 1e-12; one Stein set-up on both sides of
    the circle, negative definite outside."""
    B, T, G = _solve_identity(0.5 * np.eye(2))
    np.testing.assert_allclose(G, (4.0 / 3.0) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(B, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(T, 2.0 * np.eye(2), atol=1e-12)
    B, T, G = _solve_identity(2.0 * np.eye(2))
    np.testing.assert_allclose(G, -np.eye(2) / 3.0, atol=1e-12)
    np.testing.assert_allclose(B, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(T, 0.5 * np.eye(2), atol=1e-12)


def test_08_structural_blocks():
    """After the Stein-solution state transform, the off blocks of the
    composed realization of V*(1/z)V(z) vanish below 1e-11 and the
    feedthrough block is the identity to 1e-11, 100 instances."""
    rng = np.random.default_rng(108)
    worst = 0.0
    for alpha, w in _sweep(rng, 100):
        ss, _ = build_b2(alpha, w)
        X = solve_stein(ss.A, ss.C.T @ ss.C)
        blocks = structural_blocks(ss, X)
        worst = max(worst, *blocks.values())
    assert worst < 1e-11, f"worst structural residual {worst:.3e}"


def test_09_stein_solver():
    """||X - A^T X A - Q|| < 1e-11 ||Q|| on 500 well-conditioned random
    instances with spectral radius in [0.1, 0.9] or [1.1, 5], plus the
    closed forms A=0 -> X=Q and A=0.5I -> X=(4/3)Q."""
    rng = np.random.default_rng(109)
    done = 0
    while done < 500:
        A = rng.standard_normal((2, 2))
        rho = max(np.abs(np.linalg.eigvals(A)))
        if rho == 0.0:
            continue
        target = rng.uniform(0.1, 0.9) if done % 2 == 0 else rng.uniform(1.1, 5.0)
        A *= target / rho
        eigs = np.linalg.eigvals(A)
        prods = np.abs(1.0 - np.outer(eigs, eigs))
        if prods.min() < 0.05:
            continue
        M = rng.standard_normal((2, 2))
        Q = M + M.T
        X = solve_stein(A, Q)
        resid = np.linalg.norm(X - A.T @ X @ A - Q)
        assert resid < 1e-11 * np.linalg.norm(Q), f"residual {resid:.3e}"
        done += 1
    np.testing.assert_allclose(solve_stein(np.zeros((2, 2)), np.eye(2)), np.eye(2), atol=0)
    np.testing.assert_allclose(
        solve_stein(0.5 * np.eye(2), np.eye(2)), (4.0 / 3.0) * np.eye(2), atol=1e-13
    )
