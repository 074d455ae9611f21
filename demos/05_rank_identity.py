"""Two independent routes to every rank.

The dimension-drop route counts what multiplying by a power of a concrete
linear form adds to the ideal.  The quotient-coordinate route builds the
induced matrix on standard monomials and row-reduces it.  They must agree
exactly, form by form, degree by degree; together with the fat-point
duality this triple-checks the oracle's arithmetic.
"""

import sys

import numpy as np

import leflab as L
from leflab import mult_matrix_on_quotient, rank_with_form
from leflab.oracle import random_form
from leflab.linsys import dual_system, system_dim

spec = L.ExponentSpec(3, (2, 3, 3, 4))
sample = L.sample_ideal(spec, seed=1)
print("exponents", spec.exponents, " hilbert", list(L.hilbert_function(sample)))

form = random_form(sample.field, 3, np.random.default_rng(5))
print("\none concrete cube of a random form, degree by degree:")
mismatches = 0
for j in range(3, L.regularity(sample) + 1):
    drop = rank_with_form(sample, form, 3, j)
    induced = mult_matrix_on_quotient(sample, form, 3, j)
    rank = L.matrix_rank(induced)
    print(
        f"  into degree {j}: induced matrix {induced.rows}x{induced.cols},"
        f" rank {rank} == dimension drop {drop}"
    )
    mismatches += rank != drop

print("\nand the third route, through plane curves:")
for j in range(0, L.regularity(sample) + 1):
    dim, _ = system_dim(dual_system(spec, j))
    quotient = L.quotient_dim(sample, j)
    print(f"  degree {j}: quotient dim {quotient} == dual system dim {dim}")
    mismatches += quotient != dim

sys.exit(f"the routes disagree {mismatches} times" if mismatches else 0)
