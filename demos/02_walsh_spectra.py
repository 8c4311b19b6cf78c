"""Walsh spectra of small function tables, computed exactly.

A table f: Z_2^n -> Z_m has Walsh values W(y) = sum_x (-1)^(x.y) zeta^f(x),
ring elements of Z[zeta_m].  The table is generalized bent exactly when
every |W(y)|^2 equals 2^n; Parseval forces the average to be 2^n, so flat
is as low as the maximum can go.
"""

from gbflab import CycInt, is_gbf, table, walsh

classic = table(2, 2, [0, 0, 0, 1])          # x1*x2
print("classic bent table x1*x2:", classic.values)
for y, w in enumerate(walsh(classic)):
    print(f"  W({y}) = {w.canonical().coeffs}  |W|^2 = {w.abs_square().as_integer()}")
print("is_gbf:", is_gbf(classic))

quaternary = table(4, 1, [0, 1])
print("\nquaternary pair [0, 1]: spectrum in Z[i]")
for y, w in enumerate(walsh(quaternary)):
    print(f"  W({y}) = {w.canonical().coeffs}  |W|^2 = {w.abs_square().as_integer()}")

print("\nParseval on a random-looking table mod 5")
f = table(5, 2, [0, 3, 1, 2])
sp = walsh(f)
total = CycInt.zero(5)
for w in sp:
    total = total + w.abs_square()
print("  sum over y of |W(y)|^2 =", total.as_integer(), "= 4^n =", 4 ** 2)
print("  is_gbf:", is_gbf(f), "(flat needs every |W|^2 = 4, not just the sum)")
