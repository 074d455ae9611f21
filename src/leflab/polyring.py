"""Graded pieces of a polynomial ring and multiplication-map matrices.

Only linear algebra on single graded pieces is needed: a fixed monomial
order, coordinates of powers of linear forms, and the matrix of
"multiply by f" from one graded piece to another.  No division, GCDs or
Groebner machinery.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, prod

import numpy as np

from .modp import DenseMatrix, PrimeField


@dataclass(frozen=True)
class LinearFormRep:
    """A linear form by its coefficient tuple; at least one entry nonzero."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.coeffs):
            raise ValueError("linear form must be nonzero")

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)


def monomial_basis(num_vars: int, degree: int) -> np.ndarray:
    """Exponents of the degree-`degree` monomials, one read-only row each.

    The order is graded-lexicographic with the first variable largest, fixed
    so that coordinate vectors and matrices are reproducible across runs.
    There are C(degree+num_vars-1, num_vars-1) rows.
    """
    if num_vars < 1 or degree < 0:
        raise ValueError("need num_vars >= 1 and degree >= 0")
    return ci_basis((None,) * num_vars, degree)


# Bounded: keyed by shapes, not samples, but the fat-point oracle adds one
# entry per plane system's coordinate caps.  From cold caches `verify --a-max
# 8` leaves 1,644 entries (1,211 for whole caps tuples, the rest for their
# suffixes), `verify --k 1 --a-max 8` 1,798, `hilbert --powers 200,200,200`
# 1,794, the CI's four-variable WLP sweep 3,176 and the six-variable scan of
# (5,)*7 141; a pass of the benchmark leaves 584 (sweep3), 388 (wlp4) and
# 785 (planes).  The bound evicts none of these and stops a long run over
# many systems from growing unchecked.
@lru_cache(maxsize=4096)
def ci_basis(caps: tuple[int | None, ...], degree: int) -> np.ndarray:
    """Exponents of the degree-`degree` monomials outside (x_m^caps[m]), read-only.

    There is one cap per variable; a cap of None leaves its variable free.
    The rows are those of `monomial_basis` that stay, in its order, listed
    under the caps without the full basis; with none, a (0, len(caps)) array.
    Raises ValueError on a degree past int64, where no exponent fits.
    """
    if degree > np.iinfo(np.int64).max:
        raise ValueError(f"degree {degree} overflows the monomial exponents")
    top = degree if caps[0] is None else min(degree, caps[0] - 1)
    if top < 0:
        exps = np.zeros((0, len(caps)), dtype=np.int64)
    elif len(caps) == 1:
        exps = np.array([[degree]] if top == degree else [], dtype=np.int64).reshape(-1, 1)
    else:
        # `map`, not a comprehension: a comprehension is a frame of its own
        # on Python 3.10 and 3.11, and the recursion keeps one per variable.
        rests = list(map(ci_basis, repeat(caps[1:]), range(degree - top, degree + 1)))
        leads = np.repeat(np.arange(top, -1, -1, dtype=np.int64), list(map(len, rests)))
        exps = np.column_stack((leads, np.concatenate(rests)))
    exps.flags.writeable = False
    return exps


def graded_dim(num_vars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + num_vars - 1, num_vars - 1)


def _key_weights(num_vars: int, target_degree: int) -> np.ndarray:
    """Weights reading exponents as base-(target_degree+1) digits, first variable most significant.

    No exponent of degree at most target_degree carries a digit, so a
    product's key is the sum of its factors' keys, and graded-lexicographic
    bases have strictly decreasing keys.
    """
    base = target_degree + 1
    if base**num_vars > np.iinfo(np.int64).max:
        raise ValueError(f"{num_vars} variables in degree {target_degree} overflow the monomial keys")
    return base ** np.arange(num_vars - 1, -1, -1, dtype=np.int64)


# Bounded: keyed by shapes, not samples.  `verify --a-max 8` leaves 749
# entries (about 1 MB) and `verify --k 1 --a-max 8` 723, none of them for the
# full ring; a cold pass of the wlp4 benchmark leaves 82 (0.7 MB), 18 of them
# full-ring maps of the standard-monomial route; the six-variable scan of
# (5,)*7 leaves 20 of 16 MB at a 94 MB peak.  The bound keeps every sweep
# whole (the CI's largest, the four-variable WLP sweep, leaves 818) and
# stops a long run over many shapes from growing unchecked.
@lru_cache(maxsize=1024)
def _ci_index_map(
    caps: tuple[int | None, ...], f_degree: int, target_degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, terms): the cells of multiplication by a degree-f_degree form modulo J.

    J is (x_m^caps[m]); with every cap None it is 0, and the cells are all
    of the full-ring map.  Cell i is the product of the term at `terms[i]` of
    the degree-f_degree monomial basis with source `cols[i]` of
    `ci_basis(caps, target_degree - f_degree)`, at row `rows[i]` of
    `ci_basis(caps, target_degree)`.  Only products outside J are cells; a
    divisor of a monomial outside J is outside J too, and so is every term.
    """
    num_vars = len(caps)
    weights = _key_weights(num_vars, target_degree)
    f_basis = monomial_basis(num_vars, f_degree)
    bound = np.array([target_degree + 1 if c is None else c for c in caps], dtype=np.int64)
    kept = np.flatnonzero((f_basis < bound).all(axis=1))
    sources = ci_basis(caps, target_degree - f_degree) @ weights
    neg_products = -((f_basis[kept] @ weights)[:, None] + sources[None, :])
    # Negated keys increase down the basis; a positive sentinel after them
    # keeps every search position in range and matches no product.
    neg_targets = np.append(-(ci_basis(caps, target_degree) @ weights), 1)
    at = np.searchsorted(neg_targets, neg_products)
    t, cols = np.nonzero(neg_targets[at] == neg_products)
    rows, terms = at[t, cols], kept[t]
    for arr in (rows, cols, terms):
        arr.flags.writeable = False
    return rows, cols, terms


# Unbounded: keyed by shapes, not samples; one entry per (variables, power,
# prime), 7 after `verify --a-max 8`.
@lru_cache(maxsize=None)
def _multinomials(num_vars: int, a: int, p: int) -> np.ndarray:
    """a! / prod(e_i!) mod p for each row e of the degree-a monomial basis."""
    rows = monomial_basis(num_vars, a).tolist()
    out = np.array([factorial(a) // prod(map(factorial, row)) % p for row in rows], dtype=np.int64)
    out.flags.writeable = False
    return out


# Bounded: a frame's remaining forms recur in every degree, and a trial form
# adjoined again gives equal ones.  A cold scan needs s - r + 1 live keys, and
# at most trials * (s - r + 1) when two degrees are short: 8 as measured for
# (18,)*10 in 3 variables (k = 3) and (7,)*5 in 4 (k = 1), 5 trials each; a
# 32x margin.  `verify --a-max 8` fills it: 6,540 misses, 7,127 hits.
@lru_cache(maxsize=256)
def power_coords(field_: PrimeField, form: LinearFormRep, a: int) -> np.ndarray:
    """Coordinates of form**a by the multinomial theorem, cached and read-only.

    The coefficient at x^e is a!/prod(e_i!) * prod(c_i^e_i), the integer
    expansion reduced mod p, so it is exact for every prime, a >= p included.
    Each factor is reduced below p < 2^31, so every product fits in int64.
    """
    if a < 1:
        raise ValueError("power must be >= 1")
    p = field_.modulus
    r = form.num_vars
    exps = monomial_basis(r, a)
    vec = _multinomials(r, a, p)
    for var, c in enumerate(form.coeffs):
        powers = [1]
        for _ in range(a):
            powers.append(powers[-1] * c % p)
        vec = vec * np.array(powers, dtype=np.int64)[exps[:, var]] % p
    vec.flags.writeable = False
    return vec


def mult_matrix(
    field_: PrimeField,
    num_vars: int,
    factors: Sequence[tuple[np.ndarray, int]],
    target_degree: int,
    caps: tuple[int | None, ...] | None = None,
) -> DenseMatrix:
    """Matrix of (g_1, ..., g_n) -> f_1 g_1 + ... + f_n g_n into one graded piece.

    `factors` lists each f_i as (coordinates, degree), one coordinate per
    monomial of its degree.  Rows are indexed by the monomials of degree
    target_degree; the columns come in one block per factor, indexed by the
    monomials of degree target_degree - deg f_i, and the column of a monomial
    m in block i holds the coordinates of f_i*m.  Every basis is `ci_basis`,
    the monomials outside J = (x_m^caps[m]) for `caps` (one per variable,
    None for a free one), and products in J are dropped: the map between
    graded pieces of R/J, built from the terms of each f_i outside J.  No
    caps leaves every variable free, so J = 0 and the pieces are R's.  A
    factor of degree above target_degree has a block with no columns.
    Raises ValueError on caps or coordinates of the wrong length.
    """
    if caps is None:
        caps = (None,) * num_vars
    if len(caps) != num_vars:
        raise ValueError(f"{len(caps)} caps for {num_vars} variables")
    widths = [len(ci_basis(caps, target_degree - f_degree)) for _, f_degree in factors]
    out = np.zeros((len(ci_basis(caps, target_degree)), sum(widths)), dtype=np.int64)
    offset = 0
    for (f_coords, f_degree), width in zip(factors, widths):
        coeffs = np.asarray(f_coords, dtype=np.int64) % field_.modulus
        if coeffs.shape != (graded_dim(num_vars, f_degree),):
            raise ValueError(f"a degree-{f_degree} factor needs {graded_dim(num_vars, f_degree)} coordinates")
        # Distinct terms of f send a monomial m to distinct products, so no cell is hit twice.
        rows, cols, terms = _ci_index_map(caps, f_degree, target_degree)
        out[rows, cols + offset] = coeffs[terms]
        offset += width
    return DenseMatrix(field_, out)
