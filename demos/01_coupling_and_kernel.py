"""Walkthrough: cyclic coupling matrices and their matrix functions.

The squeeze generator couples each mode to its two ring neighbours, so
everything starts from the adjacency matrix of the n-cycle.  A is
circulant, so its eigenvectors are Fourier modes and every matrix function
(exponentials of multiples of A) is the circulant whose first row is the
inverse DFT of f(a_k); this script shows the structures and the identities
they satisfy.
"""
import numpy as np

from nmodesqueeze import build_coupling, build_kernel, expm_taylor, sum_identities

np.set_printoptions(precision=6, suppress=True)

# The adjacency pattern: 0/1 ring for n >= 3, doubled entries for n = 2
# because the cyclic sum wraps onto the same pair twice.
for n in (2, 3, 4, 5):
    coupling = build_coupling(n)
    print(f"n = {n}: A =")
    print(coupling.entries)
    print("eigenvalues:", np.sort(coupling.eigenvalues)[::-1])
    print()

# Every eigenvalue lies in [-2, 2] and the all-ones vector always has
# eigenvalue 2 (row sums are 2); that one fact drives the collective
# variance identities later on.

# The kernel bundles Lambda = exp(-lambda A), the Gram matrix
# exp(-2 lambda A), N = (1 + gram)/2 and the determinants.
kernel = build_kernel(build_coupling(3), 0.1)
print("n = 3, lambda = 0.1")
print("Lambda:")
print(kernel.Lambda)
print("gram (diagonal u, off-diagonal v):")
print(kernel.gram)
print(f"det Lambda = {kernel.detLambda:.12f}  (trace A = 0 forces exactly 1)")
print(f"det N      = {kernel.detN:.12f}")
print("product of cosh(lambda a_k):", np.prod(np.cosh(0.1 * kernel.coupling.eigenvalues)))
print()

# All-entries sums of the Gram matrix and its inverse collapse to
# n exp(-+4 lambda): the ones vector is an eigenvector, nothing else
# survives the summation.
sum_g, sum_ginv = sum_identities(kernel)
print(f"sum_ij gram        = {sum_g:.12f}  vs 3 exp(-0.4) = {3 * np.exp(-0.4):.12f}")
print(f"sum_ij gram^-1     = {sum_ginv:.12f}  vs 3 exp(+0.4) = {3 * np.exp(0.4):.12f}")
print()

# Spectral evaluation agrees with an independent scaling-and-squaring
# Taylor exponential to near machine precision.
taylor = expm_taylor(-0.1 * kernel.coupling.entries.astype(float))
print("max |spectral - Taylor| =", np.max(np.abs(kernel.Lambda - taylor)))
