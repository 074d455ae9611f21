"""Prime-field arithmetic and dense exact row reduction.

Everything upstream (ideal dimensions, fat-point conditions, multiplication
ranks) reduces to the rank of a dense matrix over F_p.  The modulus defaults
to the Mersenne prime 2^31 - 1 so that a product of two reduced entries fits
comfortably in int64 and no multiprecision arithmetic is ever needed.

`row_echelon(arr, p)` is the one elimination kernel, and it has one mode: a
plain row echelon form with unit pivots, which gives ranks (`matrix_rank`)
and, taken pivot by pivot, normal forms (`reduce_rows`).  Matrices of
at most SMALL_CELLS cells (60) are eliminated on lists of Python ints,
where numpy's per-call overhead would dominate; larger ones with numpy
operations on the trailing block, the rows and columns not yet finished,
which loses one row and one column per pivot.  When at least 3/4 of its
rows below the pivot are nonzero in the pivot column, the next block is
computed out of place as one contiguous array; otherwise only those rows
are gathered, updated and written back.  Both paths pick the first
nonzero entry at or below the current row as the pivot and invert it with
`pow(x, -1, p)`, so they return the same rows and pivots.  The limit is
the measured crossover of the two paths (see SMALL_CELLS).  The numpy path
reduces by `reduce_mod`, as `x - x // p * p`, which numpy computes about
twice as fast as `x % p` (its integer division by a scalar uses libdivide,
its remainder does not).  A block update leaves a reduced block unreduced,
in [-(p-1)^2, p), and the next one reduces it from [-2(p-1)^2, p); a
few-rows update reduces the block first.  `is_prime` refuses p >= 2^31, so
2(p-1)^2 + p < 2^63: int64 holds every entry and `x // p * p`.
`all_minors_nonzero`, the general-position test of the oracle's samples,
eliminates nothing: it expands each minor along its first row into the
minors one size smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import Sequence

import numpy as np

DEFAULT_PRIME = 2147483647


# Cached: every sample, sweep and fat-point system checks its modulus, and
# trial division by up to 46,340 divisors takes about 0.5 ms on a 31-bit one.
# The width check comes first: 2^61 - 1 would need a 1.5e9-entry divisor array.
@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Primality by trial division of an n below 2^31; wider n raise ValueError."""
    if n.bit_length() > 31:
        raise ValueError("modulus must fit in 31 bits for int64 arithmetic")
    return n >= 2 and bool((n % np.arange(2, isqrt(n) + 1)).all())


@dataclass(frozen=True)
class PrimeField:
    """The field F_p, p prime and small enough for int64 products."""

    modulus: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")


class DenseMatrix:
    """An immutable dense matrix over a prime field, entries row-major.

    There is one constructor: `entries` must already lie in [0, p), as
    `row_echelon(arr, p)` requires; they are not reduced.  An int64 array is
    kept without a copy and made read-only.  Raises ValueError unless the
    entries are two-dimensional.

    Only `matrix_rank` takes one (`linsys` wraps its conditions for it), and
    only `polyring.mult_matrix` and `oracle.mult_matrix_on_quotient` return
    one; `row_echelon` and `reduce_rows` work on plain arrays.
    """

    __slots__ = ("field", "entries")

    def __init__(self, field: PrimeField, entries: np.ndarray | Sequence[Sequence[int]]):
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("entries must be two-dimensional")
        arr.flags.writeable = False
        self.field = field
        self.entries = arr

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


# The crossover of the two `row_echelon` paths, timed on one core of a 2-vCPU
# x86-64 host (Python 3.11, numpy 2.4, p = DEFAULT_PRIME), with the numpy
# path on the trailing block, in two timing rounds; the host ran about 40%
# faster in the second.  On dense random full-rank matrices, best of 5
# timeit runs in the slower round, the Python path took 18 / 57 / 200 /
# 349 us and the numpy path 44 / 58 / 165 / 188 us at 3x3 / 4x12 / 10x10 /
# 12x12.  Replaying every matrix of 20-400 cells that one seed-7 pass of
# the benchmark's verify sweep eliminates (735 of 1,592), best of 5 each,
# the total time is lowest at 60 cells in both rounds (64.9 and 40.1 ms;
# 50 and 75 are within 1%, 100 is 1.5-2% slower, 200 is 12-14% slower):
# the Python path still wins on its 411 matrices of 20-50 cells (20.0
# against 25.4 ms), the numpy path on its 64 of 76-100 (7.9 against
# 8.8 ms).  The four-variable WLP scans (90 of 158) and the plane systems
# (120 of 604) are 3-4% slower at 60 than at 20-40, their lowest; over all
# three workloads together 40-60 is lowest.
SMALL_CELLS = 60


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """`x %= p` in place, computed as `x -= x // p * p`, which numpy does faster."""
    x -= x // p * p
    return x


def _echelon_small(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`row_echelon` on lists of Python ints: no per-operation numpy dispatch."""
    a = arr.tolist()
    m, n = arr.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        i = r
        while i < m and not a[i][c]:
            i += 1
        if i == m:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        piv = a[r][c:] = [x * inv % p for x in a[r][c:]]
        for i in range(r + 1, m):
            f = a[i][c]
            if f:
                a[i][c:] = [(x - f * y) % p for x, y in zip(a[i][c:], piv)]
        pivots.append(c)
        r += 1
    return np.array(a[:r], dtype=np.int64).reshape(r, n), pivots


def _echelon_large(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`row_echelon` with numpy operations on the trailing block, one pivot at a time.

    `t` is the block below the finished rows and right of the last pivot:
    each pivot takes one row and one column off it, a zero column only its
    column.  Finished rows go to the top of the working copy `a`, which `t`
    is a view of until its first out-of-place update.  A block update of a
    reduced `t` leaves it unreduced, in [-(p-1)^2, p), and the next block
    update reduces it once from [-2(p-1)^2, p), which int64 holds for
    p < 2^31; a few-rows update reduces `t` first.  Column 0 and the pivot
    row of an unreduced `t` are read mod p, so the pivots do not change.
    """
    a = t = np.array(arr, dtype=np.int64)
    pivots: list[int] = []
    reduced = True
    for c in range(a.shape[1]):
        if not t.shape[0]:
            break
        col = t[:, 0] if reduced else t[:, 0] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            t = t[:, 1:]
            continue
        i = int(nz[0])
        u = (t[i] if reduced else t[i] % p) * pow(int(col[i]), -1, p) % p
        if i:
            # The pivot row leaves the block; row 0 takes its place.
            t[i], col[i] = t[0], col[0]
        k = len(pivots)
        a[k, :c] = 0
        a[k, c:] = u
        pivots.append(c)
        # The rows below the pivot that are nonzero in column c, from the
        # same scan; the swap only moved row 0's zero entry to row i.
        rows = nz[1:]
        below = t.shape[0] - 1
        # Updating the whole block out of place takes about 5 passes over
        # every row, gathering, updating and scattering the nonzero rows
        # about 7 over those rows; the two cost the same at 3/4 of them.
        if 4 * rows.size >= 3 * below > 0:
            d = col[1:, None] * u[1:]
            t = np.subtract(t[1:, 1:], d, out=d)
            if not reduced:
                reduce_mod(t, p)
            reduced = not reduced
        else:
            f = col[rows, None]
            t = t[1:, 1:]
            if not reduced:
                reduce_mod(t, p)
                reduced = True
            if rows.size:
                rows -= 1
                t[rows] = reduce_mod(t[rows] - f * u[1:], p)
    return a[:len(pivots)], pivots


def row_echelon(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row echelon form of `arr` (entries in [0, p)) with unit pivots, and its pivot columns.

    Gaussian elimination on a copy, one row per pivot, pivots increasing;
    its row space is that of `arr`.  The pivot of each column is the first
    nonzero entry at or below the current row, so both paths return the
    same rows.  Empty shapes give no rows and no pivots.  Each row is zero
    left of its pivot, so `reduce_rows`, taking pivots in increasing order,
    never refills a cleared pivot column: one multiple per pivot gives the
    normal form that is zero at every pivot, and that form is unique.
    """
    ech, pivots = (_echelon_small if arr.size <= SMALL_CELLS else _echelon_large)(arr, p)
    return ech, tuple(pivots)


def matrix_rank(m: DenseMatrix) -> int:
    """Rank over the prime field; deterministic, empty matrices allowed."""
    return len(row_echelon(m.entries, m.field.modulus)[1])


def reduce_rows(vectors: np.ndarray, echelon: np.ndarray, pivots: Sequence[int], p: int) -> np.ndarray:
    """Normal form mod p of each row of `vectors` modulo the row space of `echelon`."""
    out = np.array(vectors, dtype=np.int64) % p
    if out.ndim != 2 or out.shape[1] != echelon.shape[1]:
        raise ValueError("vector width does not match echelon width")
    for k, c in enumerate(pivots):
        coeff = out[:, c]
        nz = np.nonzero(coeff)[0]
        if nz.size:
            out[nz, :] = reduce_mod(out[nz, :] - coeff[nz, None] * echelon[k], p)
    return out


def all_minors_nonzero(rows: Sequence[Sequence[int]], p: int) -> bool:
    """Whether every square minor of `rows` (Python ints in [0, p)) is nonzero mod p.

    For a matrix [I_r | B], every r columns are independent exactly when
    every square minor of B is nonzero: the columns S of I_r and T of B
    have the determinant of B on the rows outside S and the columns T, up
    to sign.  Minors are tested from 1x1 up, so a zero entry ends at once.
    Each t x t minor is expanded along its first row into the (t-1)-minors
    kept from the size before; nothing is eliminated.
    """
    if not all(map(all, rows)):
        return False
    m = len(rows)
    n = len(rows[0]) if m else 0
    minors = {((i,), (j,)): x for i, row in enumerate(rows) for j, x in enumerate(row)}
    for t in range(2, min(m, n) + 1):
        prev, minors = minors, {}
        for rs in combinations(range(m), t):
            top, below = rows[rs[0]], rs[1:]
            for cs in combinations(range(n), t):
                det = 0
                for i, c in enumerate(cs):
                    term = top[c] * prev[below, cs[:i] + cs[i + 1:]]
                    det += -term if i & 1 else term
                det %= p
                if not det:
                    return False
                minors[rs, cs] = det
    return True
