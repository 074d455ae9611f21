"""A tour of the closed-form engine, with the oracle watching over it.

Squares never fail in three variables.  Cubes fail exactly when a small
arithmetic condition on the exponent multiset holds, and then only in one
degree with a one-dimensional cokernel.  On uniform powers (s copies of t)
the general classification reduces to: s even and s-1 dividing t.  The same
machinery settles SLP questions in three variables (`slp_verdict` on a cube
plus s copies of t fails exactly when s is odd and t >= s) and WLP questions
in four.
"""

import leflab as L
from leflab import theory

print("cube classification on uniform powers t^s (F = fails, . = maximal):")
print("      t:", " ".join(f"{t:2d}" for t in range(2, 16)))
for s in range(4, 9):
    row = []
    for t in range(2, 16):
        verdict = theory.classify_cube(L.ExponentSpec(3, (t,) * s))
        row.append(" F" if verdict.status == theory.FAILS else " .")
    print(f"  s={s:2d} ", " ".join(row).replace("  ", " "))

print("\nspot-check (6, 5) against the exact oracle:")
spec = L.ExponentSpec(3, (5,) * 6)
sample = L.sample_ideal(spec)
print("  theory: ", theory.classify_cube(spec).failing_degrees)
print("  oracle: ", L.lefschetz_scan(sample, 3))

print("\nSLP after quotienting by a general cube, uniform powers:")
for s, t in ((5, 5), (5, 4), (4, 100), (7, 9)):
    answer = theory.slp_verdict(L.ExponentSpec(3, (3,) + (t,) * s))
    print(f"  s={s}, t={t}: SLP={answer.verdict.status == theory.MAXIMAL}")

answer = theory.slp_verdict(L.ExponentSpec(3, (3,) + (5,) * 5))
print("per-power evidence for (5^5):")
for b, verdict in answer.checks:
    print(f"  extra power b={b}: {verdict.status} {verdict.failing_degrees or ''}")

print("\nWLP in four variables, one cube plus s copies of t:")
for s, t in ((4, 3), (5, 6), (6, 5), (6, 7)):
    verdict = theory.wlp_cube_uniform_4vars(s, t)
    where = f" at degree {verdict.failing_degrees[0]}" if verdict.failures else ""
    print(f"  s={s}, t={t}: {verdict.status}{where}")
