"""Why the state-space construction works: the structural certificate.

The 2x2 factor is realized as k(z) = C (z^-1 I - A)^-1 B + D.  The product
k*(1/z) k(z) has a realization of twice the state dimension; if k is
all-pass that product is identically the identity, which means a suitable
change of state coordinates must wipe out all coupling blocks at once.
The right coordinates come from the Stein equation X = A^T X A + C^T C.
"""

import numpy as np

from allpass import build_b2, solve_stein, structural_blocks


def transfer(A, B, C, D, z):
    """C (z^-1 I - A)^-1 B + D at one point z != 0."""
    return C @ np.linalg.solve(np.eye(A.shape[0]) / z - A, B) + D


alpha = 0.5 + 0.5j
w = np.array([1.0, 1.0j]) / np.sqrt(2)
ss, V = build_b2(alpha, w)
A, B, C, D = ss.A, ss.B, ss.C, ss.D

print("realization for alpha =", alpha)
print("A =\n", A)
print("B =\n", np.round(B, 6))
print("C =\n", np.round(C, 6))
print("D =\n", np.round(D, 6))

# A's eigenvalues are 1/alpha and its conjugate: the factor's poles in 1/z.
print("\neigenvalues of A:", np.linalg.eigvals(A), " (1/alpha =", 1 / alpha, ")")

# The transfer function matches the rational form everywhere.
z = 0.3 + 0.2j
print("max |k(z) - V(z)| at a test point:", np.max(np.abs(transfer(A, B, C, D, z) - V(z))))

# The adjoint k*(1/z) transposes k and mirrors its poles: with As = A'^-1 it
# is realized by (As, As C', -B' As, D' - B' As C').
As = np.linalg.inv(A.T)
Bs, Cs = As @ C.T, -B.T @ As
Ds = D.T - B.T @ Bs

# Compose k*(1/z) k(z): the adjoint's states, then k's.  4 states, and on the
# circle it is the identity.
Ac = np.block([[As, Bs @ C], [np.zeros((2, 2)), A]])
Bc = np.vstack([Bs @ D, B])
Cc = np.hstack([Cs, Ds @ C])
Dc = Ds @ D
print("\ncomposed product has", Ac.shape[0], "states")
zc = np.exp(0.7j)
print("product on the circle:\n", np.round(transfer(Ac, Bc, Cc, Dc, zc).real, 12))

# Before the transform, the composed realization is dense.
print("\ncomposed A before the state transform:\n", np.round(Ac, 4))

# The Stein solution produces the certificate coordinates M = [[I, X], [0, I]].
X = solve_stein(A, C.T @ C)
M = np.eye(4)
M[:2, 2:] = X
print(
    "\ncomposed A after the transform (block triangular):\n",
    np.round(M @ Ac @ np.linalg.inv(M), 12),
)

# structural_blocks reads the blocks that must vanish straight from their
# closed formulas, without composing anything.
blocks = structural_blocks(ss, X)
print("\ncertificate block norms (all should vanish):")
for name, val in blocks.items():
    print(f"  {name:16s} {val:.2e}")
