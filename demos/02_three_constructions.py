"""One conjugate pair, three routes to the same 2x2 all-pass factor.

A generic complex pair with kernel direction w needs a genuinely 2x2
factor.  The package builds it three ways:

  consecutive -- a chain of complex elementary factors and constant
                 unitaries whose product turns out real;
  polynomial  -- a linear-algebra solve for the matrix coefficients,
                 never leaving real arithmetic;
  statespace  -- a realization (A, B, C, D) whose transfer function is
                 the factor, again all real.

They agree up to a constant orthogonal factor; the polynomial and
state-space normalizations even coincide exactly.
"""

import numpy as np

from allpass import (
    b2_consecutive,
    b2_polynomial,
    build_b2,
    verify_allpass,
)

alpha = 0.45 + 0.35j
w = np.array([1.0, 0.5 - 0.8j])
w = w / np.linalg.norm(w)
print(f"pair {alpha} / {np.conj(alpha)}, kernel direction {np.round(w, 4)}")

factors = {
    "consecutive": b2_consecutive(alpha, w),
    "polynomial": b2_polynomial(alpha, w),
    "statespace": build_b2(alpha, w)[1],
}

print("\nper-construction diagnostics")
for name, V in factors.items():
    rep = verify_allpass(V, n_samples=32)
    print(f"  {name:12s} all-pass residual {rep.max_residual:.2e}   "
          f"pre-projection imag {V.max_imag_pre:.2e}")

# All three share the same denominator, the real quadratic of the pair.
print("\ndenominator (same for all):", factors["polynomial"].den.coeffs)

# The numerator's column space at alpha is the line through w: that is what
# makes the factor compatible with the kernel of the matrix being mirrored.
for name, V in factors.items():
    N = V.num(alpha)
    s = np.linalg.svd(N, compute_uv=False)
    print(f"  {name:12s} sigma_2/sigma_1 at alpha = {s[1] / s[0]:.2e}")

# Method quotients on the circle are constant orthogonal matrices.
zs = np.exp(2j * np.pi * np.arange(8) / 8)
Vp, Vs, Vc = factors["polynomial"], factors["statespace"], factors["consecutive"]

quot_ps = np.stack([Vp(z) @ np.linalg.inv(Vs(z)) for z in zs])
print("\npolynomial vs statespace: quotient is the identity itself")
print(np.round(quot_ps.mean(axis=0).real, 10))

quot_cp = np.stack([np.linalg.solve(Vp(z), Vc(z)) for z in zs])
O = quot_cp.mean(axis=0).real
print("consecutive vs polynomial: constant orthogonal quotient")
print(np.round(O, 6))
print("  O^T O =", np.round(O.T @ O, 12).tolist())
print("  spread over samples:", np.max(np.abs(quot_cp - quot_cp.mean(axis=0))))
