"""Mirroring the determinantal roots of a polynomial matrix, step by step.

p(z) is a real 2x2 matrix polynomial.  det p vanishes at a complex pair
inside the unit circle; we relocate that pair to its reciprocal conjugates
outside, keeping the spectral density p(z) p(1/conj(z))^H on the circle
unchanged.  This is the move that turns an arbitrary spectral factor into
the canonical one without zeros inside the circle.
"""

import numpy as np

from allpass import (
    PolyMatrix,
    classify,
    det_roots,
    mirror_all_inside,
    mirror_once,
    spectral_eval,
)

# p(z) = [[1-2z, 1], [1-z, z]]: det = -2(z^2 - z + 0.5), roots 0.5 +- 0.5i
coeffs = np.zeros((2, 2, 2))
coeffs[0] = [[1.0, 1.0], [1.0, 0.0]]
coeffs[1] = [[-2.0, 0.0], [-1.0, 1.0]]
p = PolyMatrix(coeffs)

records = det_roots(p)
print("roots of det p:")
for r in records:
    print(f"  {r.alpha:+.6f}  multiplicity {r.multiplicity}  {r.kind}  {r.location}")

# The kernel of p(alpha) decides which factor applies: a real direction
# degenerates to the scalar squared factor, a genuinely complex one needs
# the full 2x2 construction.
plan = classify(p, records[0])
print("\nmirror plan:", plan.case)
# the step applies the all-pass I + Q1 (V - I) Q1' through the k real
# orthonormal columns Q1 that span the kernel (k = 2 for a generic pair);
# w holds the kernel direction in their coordinates, so Q1 w is the
# kernel vector of p(alpha)
print("  kernel columns Q1:\n", np.round(plan.Q1, 6))
print("  kernel vector Q1 w:", np.round(plan.Q1 @ plan.w, 6))

q, report = mirror_once(p, records[0], method="polynomial")
print("\nafter one mirror step:")
print("  mirrored:", [f"{z:+.4f}" for z in report.mirrored_roots])
print("  deconvolution residual:", f"{report.residual_deconv:.2e}")
print("  imaginary residue:     ", f"{report.max_imag:.2e}")
print("  spectral deviation:    ", f"{report.spectral_dev:.2e}")
print("  residual at new roots: ", f"{report.new_root_residual:.2e}")

print("\nroots of det p_tilde:")
for r in det_roots(q):
    print(f"  {r.alpha:+.6f}  {r.location}")

# Spot-check spectral invariance at a few circle points.
print("\nspectral density match on the circle:")
for theta in [0.3, 1.1, 2.5]:
    z = np.exp(1j * theta)
    gap = np.linalg.norm(spectral_eval(q, z) - spectral_eval(p, z))
    print(f"  theta={theta:.1f}: deviation {gap:.2e}")

# ---------------------------------------------------------------------------
# The full sweep: keep mirroring until nothing is left inside.  Works the
# same for larger matrices and higher degrees.
rng = np.random.default_rng(42)
big = PolyMatrix(rng.standard_normal((4, 3, 3)))
out, reports = mirror_all_inside(big, method="statespace")
print(f"\nrandom 3x3 of degree 3: {len(reports)} mirror steps")
for r in det_roots(out):
    print(f"  {r.alpha:+.6f}  |alpha| = {abs(r.alpha):.4f}  {r.location}")
