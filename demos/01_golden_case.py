"""Four general cubes in three variables: the smallest interesting failure.

The quotient by four cubes of general linear forms has Hilbert function
[1, 3, 6, 6, 3].  Multiplication by a general linear form, and by its
square, always has maximal rank here.  The cube is different: between
degrees 1 and 4 the two graded pieces both have dimension 3, yet the map
misses being an isomorphism by exactly one.
"""

import sys

import leflab as L

spec = L.ExponentSpec(num_vars=3, exponents=(3, 3, 3, 3))
sample = L.sample_ideal(spec, seed=0)

hd = L.hilbert_function(sample)
print("exponents:      ", spec.exponents)
print("hilbert function", list(hd), "  regularity", L.regularity(sample))

scans = {}
for k in (1, 2, 3):
    failures = scans[k] = L.lefschetz_scan(sample, k)
    label = "maximal rank everywhere" if not failures else f"fails at {failures}"
    print(f"multiplication by a general power k={k}: {label}")

report = L.mult_rank_report(sample, k=3, j=4)
print("\nthe failing map, degree 1 -> 4 under a general cube:")
print(f"  domain dim {report.dim_domain}, codomain dim {report.dim_codomain}")
print(f"  rank {report.rank} (kernel {report.kernel_dim}, cokernel {report.cokernel_dim})")

verdict = L.classify_cube(spec)
print("\nclosed-form engine agrees:", verdict.status, "at degrees", verdict.failing_degrees)
print("witness data:", dict(verdict.witness))

observed = tuple(f.degree for f in scans[3])
if observed != verdict.failing_degrees:
    sys.exit(f"theory fails at {verdict.failing_degrees}, the oracle at {observed}")
