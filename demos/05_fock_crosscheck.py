"""Walkthrough: the truncated Fock-space brute force.

Nothing here trusts a closed form: the squeeze generator is built from
truncated ladder operators, each one diagonal of the flat-index matrix,
and its exponential is applied to the vacuum as a truncated Taylor series
of matrix-vector products, in numpy alone.  The result is compared
against the analytic two-photon state, the variance formulas, and the
displaced-parity Wigner values.  Tail masses are measured and reported so every tolerance
is accounted for.
"""
import math

import numpy as np

from nmodesqueeze import (
    build_coupling,
    build_kernel,
    build_space,
    evolve_vacuum,
    generator,
    normalized,
    overlap,
    squeezed_vacuum,
    tail_mass,
    two_photon_expand,
    vacuum,
    variance_numeric,
    wigner_from_kernel,
    wigner_numeric,
    wigner_value_alpha,
)

# Evolve the vacuum with the honest truncated generator...
space = build_space(3, 9)
base = build_coupling(3)
lam = 0.15
evolved = evolve_vacuum(generator(space, base, lam))
print(f"n=3, cutoff=9, lambda={lam}")
print(f"evolved norm (unitarity): {evolved.norm:.15f}")

# ...and compare with the analytic squeezed vacuum expanded on the same basis.
analytic = two_photon_expand(squeezed_vacuum(build_kernel(base, lam)), space)
print(f"analytic tail mass:       {tail_mass(analytic):.3e}")
print(f"|<evolved|analytic>|:     {abs(overlap(evolved, analytic)):.15f}")
print()

# Collective variances from truncated matrices converge to the closed
# values as the cutoff grows.
print(f"{'cutoff':>7} {'varX1 numeric':>14} {'varX2 numeric':>14} {'tail':>9}")
for cutoff in (5, 7, 9):
    sp = build_space(3, cutoff)
    psi = two_photon_expand(squeezed_vacuum(build_kernel(base, lam)), sp)
    unit = normalized(psi)
    print(f"{cutoff:>7} {variance_numeric(unit, 'X1'):>14.9f} "
          f"{variance_numeric(unit, 'X2'):>14.9f} {tail_mass(psi):>9.2e}")
print(f"{'closed':>7} {math.exp(-4 * lam) / 4:>14.9f} {math.exp(4 * lam) / 4:>14.9f}")
print()

# Displaced-parity Wigner values against the Gaussian form.
space8 = build_space(3, 8)
kernel01 = build_kernel(base, 0.1)
psi8 = two_photon_expand(squeezed_vacuum(kernel01), space8)
wig = wigner_from_kernel(kernel01)
rng = np.random.default_rng(1)
print(f"{'alpha':>34} {'parity oracle':>14} {'Gaussian form':>14}")
for _ in range(4):
    alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
    alpha *= 0.4 / np.linalg.norm(alpha)
    label = np.array2string(np.round(alpha, 2), separator=",")
    print(f"{label:>34} {wigner_numeric(psi8, alpha):>14.9f} "
          f"{wigner_value_alpha(wig, alpha):>14.9f}")
print()

# Vacuum sanity point: W(alpha) = pi^-n exp(-2 |alpha|^2).
space_vac = build_space(2, 20)
value = wigner_numeric(vacuum(space_vac), np.array([0.5, 0.0]))
print(f"vacuum W(0.5, 0) = {value:.9f} vs closed {math.pi**-2 * math.exp(-0.5):.9f}")
