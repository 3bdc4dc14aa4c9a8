"""Walkthrough: Gaussian Wigner functions of the squeezed vacua.

W(q, p) = pi^-n exp(-qt exp(+2 lambda A) q - pt exp(-2 lambda A) p):
peak pi^-n at the origin, squeezed along the collective q direction,
stretched along the collective p direction.  The hand-derived three- and
four-mode closed forms evaluate to the same numbers, and Gauss-Hermite
quadrature confirms unit normalization.
"""
import math

import numpy as np

from nmodesqueeze import (
    build_coupling,
    build_kernel,
    normalization_by_quadrature,
    wigner3_closed,
    wigner4_closed,
    wigner_from_kernel,
    wigner_value_alpha,
    wigner_values,
)

kernel = build_kernel(build_coupling(3), 0.1)
wig = wigner_from_kernel(kernel)
print(f"peak value W(0,0) = {wigner_value_alpha(wig, np.zeros(3))!r}")
print(f"pi^-3             = {math.pi**-3!r}")
print()

# A slice along the collective direction q1 = q2 = q3 (most squeezed) and
# along a single-mode direction, at p = 0: each slice is one call on an
# array of points, one point per row.
s = np.linspace(0.0, 1.0, 6)
collective_q = np.repeat(s[:, None], 3, axis=1)
single_q = np.zeros((s.size, 3))
single_q[:, 0] = s
p = np.zeros((s.size, 3))
collective = wigner_values(wig, collective_q, p)
single = wigner_values(wig, single_q, p)
print(f"{'s':>5} {'W(s,s,s, 0)':>14} {'W(s,0,0, 0)':>14}")
for row in zip(s, collective, single):
    print("{:>5.2f} {:>14.9f} {:>14.9f}".format(*row))
print()

# The closed form takes the same rows, as alpha = (q + ip)/sqrt(2).
closed = wigner3_closed(0.1, (single_q + 1j * p) / math.sqrt(2.0))
print(f"closed vs generic along the single-mode slice: "
      f"max relative difference {np.max(np.abs(closed - single) / single):.1e}")
print()

# The hand-derived closed forms agree with the generic Gaussian form at any
# point; alpha = (q + ip)/sqrt(2).
alpha = np.array([0.5, 0.0, 0.0])
print(f"closed 3-mode form: {wigner3_closed(0.1, alpha):.12f}")
print(f"generic form:       {wigner_value_alpha(wig, alpha):.12f}")
wig4 = wigner_from_kernel(build_kernel(build_coupling(4), 0.2))
alpha4 = np.array([0.3 + 0.1j, 0.0, -0.2j, 0.1])
print(f"closed 4-mode form: {wigner4_closed(0.2, alpha4):.12f}")
print(f"generic form:       {wigner_value_alpha(wig4, alpha4):.12f}")
print()

# Unit normalization over all of phase space by Gauss-Hermite quadrature.
# W has no q-p cross block, so the 2n-axis rule is a q-block rule times a
# p-block rule, each over n axes.
wig2 = wigner_from_kernel(build_kernel(build_coupling(2), 0.2))
total = normalization_by_quadrature(wig2, nodes_per_axis=40)
print(f"quadrature of W over 4-dimensional phase space: {total:.12f}")
