"""Every construction route, with exact verification after each step.

Flat tables exist whenever m and n are both even, and for every n once
4 divides m.  The routes compose: a boolean quadratic form, the product
construction for even/even types, the quaternary folding of a boolean
witness, direct sums, and modulus lifts.
"""

import random

from gbflab import (construct_boolean_bent, construct_even_even,
                    construct_mod4_from_bent, direct_sum, is_gbf,
                    lift_modulus)

bent = construct_boolean_bent(4)
print("boolean quadratic form on 4 variables:", bent.values)
print("  flat:", is_gbf(bent))

ee = construct_even_even(6, 2)
print("\nproduct construction {6,2} (g = 0, sigma = id):", ee.values)
print("  flat:", is_gbf(ee))
rng = random.Random(7)
g = [rng.randrange(10) for _ in range(4)]
sigma = list(range(4))
rng.shuffle(sigma)
randomized = construct_even_even(10, 4, g=g, sigma=sigma)
print("randomized g, sigma at {10,4} (seed 7): flat =", is_gbf(randomized))

quaternary = construct_mod4_from_bent(construct_boolean_bent(4))
print("\nquaternary folding of the 4-variable form -> type "
      f"{quaternary.gbf_type}: {quaternary.values}")
print("  flat:", is_gbf(quaternary))

double = direct_sum(quaternary, quaternary)
print("\ndirect sum of two copies -> type", double.gbf_type,
      "flat:", is_gbf(double))

lifted = lift_modulus(quaternary, 3)
print("lift by 3 -> type", lifted.gbf_type, "values", lifted.values[:8])
print("  flat:", is_gbf(lifted))
