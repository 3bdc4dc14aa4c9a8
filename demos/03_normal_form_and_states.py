"""Walkthrough: the normally ordered squeeze and its vacuum image.

The squeeze factors into a pure-creation exponential, a normally ordered
mixed factor, and a pure-annihilation exponential.  On the vacuum only
the creation block survives, giving a two-photon state
norm * exp(at~ F at / 2)|0> whose matrix F is -tanh(lambda A).  The
hand-derived three- and four-mode scalars are compared against the generic
pipeline at the end.
"""
import numpy as np

from nmodesqueeze import (
    baseline_two_mode,
    build_coupling,
    build_kernel,
    four_mode_closed,
    normal_form,
    squeezed_vacuum,
    three_mode_closed,
)

np.set_printoptions(precision=6, suppress=True)

kernel = build_kernel(build_coupling(3), 0.2)
form = normal_form(kernel)
print("n = 3, lambda = 0.2")
print(f"prefactor prod_k sech(lambda a_k)^1/2 = {form.prefactor:.9f}")
print("creation block -tanh(lambda A):")
print(form.creMat)
print("mixed block sech(lambda A) - I:")
print(form.crossMat)
print("annihilation block tanh(lambda A):")
print(form.annMat)
print()

# Vacuum image: two-photon matrix F = creation block, norm = prefactor.
state = squeezed_vacuum(kernel)
closed = three_mode_closed(0.2)
print("three-mode squeezed vacuum:")
print(f"  F diagonal   {state.F[0, 0]:.9f}  vs A1/3    {closed.A1 / 3:.9f}")
print(f"  F off-diag   {state.F[0, 1]:.9f}  vs -2A2/3  {-2 * closed.A2 / 3:.9f}")
print(f"  norm         {state.norm:.9f}  vs A3      {closed.A3:.9f}")
print()

# The two-mode member of the family IS the standard two-mode squeeze at
# doubled parameter: the ring wraps both directions onto the same pair.
member = squeezed_vacuum(build_kernel(build_coupling(2), 0.3))
target = baseline_two_mode(0.6)
print("two-mode member at lambda=0.3 vs standard squeeze at 0.6:")
print(f"  F ring entry {member.F[0, 1]:.12f} vs {target.F[0, 1]:.12f}")
print(f"  norm         {member.norm:.12f} vs {target.norm:.12f}")
print()

# Four modes: the state couples only the two interleaved pairs.
state4 = squeezed_vacuum(build_kernel(build_coupling(4), 0.3))
closed4 = four_mode_closed(0.3)
print("four-mode squeezed vacuum at lambda=0.3:")
print(state4.F)
print(f"ring entries are -tanh(2 lambda)/2 = {-closed4.stateTanh / 2:.9f};")
print("the diagonal and the opposite pairs (1,3), (2,4) vanish, so the")
print("state is NOT a product of two standard two-mode squeezed states.")
print(f"norm = {state4.norm:.9f} = sech(2 lambda)")
