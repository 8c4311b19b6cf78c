"""Tour of the exact cyclotomic layer.

Elements of Z[zeta_m] are integer coefficient vectors over the powers of
zeta_m.  Nothing here ever touches a float: products are integer
convolutions and equality goes through reduction modulo the m-th
cyclotomic polynomial.
"""

from gbflab import CycInt, cyclotomic_poly, zeta_pow

print("cyclotomic polynomials")
for m in (1, 2, 3, 4, 6, 12):
    print(f"  m={m:>2}: coefficients {cyclotomic_poly(m)}")

print("\nvanishing sums of roots of unity")
print("  1 + z3 + z3^2          =", CycInt(3, (1, 1, 1)).canonical())
print("  sum of all 7th roots   =", CycInt(7, (1,) * 7).as_integer())
print("  z6^3 (a sixth root)    =", zeta_pow(6, 3).as_integer())

print("\nexact squared absolute values")
a = zeta_pow(4, 0) + zeta_pow(4, 1)     # 1 + i
print("  |1 + z4|^2 =", a.abs_square().as_integer())
b = zeta_pow(3, 0) + zeta_pow(3, 1)
print("  |1 + z3|^2 =", b.abs_square().as_integer())

print("\nthe Galois action permutes coefficients: zeta -> zeta^a")
alpha = CycInt(7, (1, 2, 0, 0, -1, 0, 3))
print("  alpha          =", alpha.coeffs)
print("  galois(alpha,2)=", alpha.galois(2).coeffs)
print("  conj = galois(., m-1):", alpha.conj() == alpha.galois(6))
print("  applying a=2 three times is the identity (2^3 = 1 mod 7):",
      alpha.galois(2).galois(2).galois(2) == alpha)
