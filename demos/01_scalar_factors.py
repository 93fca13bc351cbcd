"""Scalar building blocks: the elementary factor and its squared variant.

An all-pass factor has unit modulus everywhere on the unit circle, so
multiplying a polynomial by it leaves |p| unchanged there while moving a
root from alpha to 1/conj(alpha).  This script shows both facts directly.
"""

import numpy as np

from allpass import elementary, squared, verify_allpass

# ---------------------------------------------------------------------------
# A real root at 2, mirrored to 1/2.
V = elementary(2.0)
print("elementary factor for alpha = 2")
print("  numerator  coefficients:", V.num.coeffs.ravel())
print("  denominator coefficients:", V.den.coeffs)

thetas = np.linspace(0.0, np.pi, 7)
mods = [abs(V(np.exp(1j * t))[0, 0]) for t in thetas]
print("  |V| on the circle:", np.round(mods, 12))

# The numerator vanishes at the mirror target 1/2.
num = np.poly1d(V.num.coeffs[::-1].ravel())
print("  numerator at the target 0.5:", num(0.5))

# ---------------------------------------------------------------------------
# A complex root alone would need the elementary factor
# (1 - conj(alpha) z)/(z - alpha), whose coefficients are not real, so
# elementary() refuses it.  For a pair alpha, conj(alpha) the product of the
# two elementary factors has real coefficients again: the squared factor.
alpha = 0.5 + 0.5j
print("\ncomplex elementary factor for alpha =", alpha)
print("  numerator coefficients would be complex:", np.array([1.0, -np.conj(alpha)]))
try:
    elementary(alpha)
except ValueError as exc:
    print("  elementary refuses it:", exc)

Vsq = squared(alpha)
print("squared factor for the pair alpha, conj(alpha)")
print("  numerator   (real):", Vsq.num.coeffs.ravel())
print("  denominator (real):", Vsq.den.coeffs)

rep = verify_allpass(Vsq)
print("  all-pass residual over circle samples:", rep.max_residual)

# Its zeros are the mirror targets 1/conj(alpha) = 1 +- i.
zeros = np.roots(Vsq.num.coeffs[::-1].ravel())
print("  numerator zeros:", np.round(zeros, 12))
