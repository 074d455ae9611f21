"""Prime-field arithmetic and dense exact row reduction.

Everything upstream (ideal dimensions, fat-point conditions, multiplication
ranks) reduces to the rank of a dense matrix over F_p.  The modulus defaults
to the Mersenne prime 2^31 - 1 so that a product of two reduced entries fits
comfortably in int64 and no multiprecision arithmetic is ever needed.

`_echelon` is the one elimination kernel.  Matrices of at most SMALL_CELLS
cells (100) are eliminated on lists of Python ints, where numpy's per-call
overhead would dominate; larger ones with numpy row operations.  Both paths
pick the first nonzero entry at or below the current row as the pivot and
invert it with `pow(x, -1, p)`, so they return the same rows and pivots.
The limit is the measured crossover of the two paths (see SMALL_CELLS).
`all_minors_nonzero`, the general-position test of the oracle's samples,
runs the list path on each minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

DEFAULT_PRIME = 2147483647

# Witnesses giving a deterministic Miller-Rabin test for all n < 3.3 * 10^24,
# far beyond the 31-bit moduli PrimeField accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# Cached: every sample, sweep and fat-point system checks its modulus, and the
# witness loop takes about 0.1 ms on a 31-bit modulus.
@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p, p prime and small enough for int64 products."""

    modulus: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        if self.modulus.bit_length() > 31:
            raise ValueError("modulus must fit in 31 bits for int64 arithmetic")

    def random_vector(self, rng: np.random.Generator, length: int) -> tuple[int, ...]:
        return tuple(int(v) for v in rng.integers(0, self.modulus, size=length))


class DenseMatrix:
    """An immutable dense matrix over a prime field, entries row-major."""

    __slots__ = ("field", "entries")

    def __init__(self, field: PrimeField, entries: np.ndarray | Sequence[Sequence[int]]):
        arr = np.ascontiguousarray(np.asarray(entries, dtype=np.int64) % field.modulus)
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

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols} mod {self.field.modulus})"

    @classmethod
    def from_reduced(cls, field: PrimeField, arr: np.ndarray) -> "DenseMatrix":
        """A matrix on `arr` as it is, without copying or reducing it again.

        `arr` must be a 2-D int64 array with entries in [0, p), such as the
        output of `polyring.mult_matrix`, slices and stacks of it, or an
        echelon form; it is made read-only.  Use `DenseMatrix(...)` for
        entries from anywhere else.
        """
        arr.flags.writeable = False
        m = cls.__new__(cls)
        m.field = field
        m.entries = arr
        return m

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "DenseMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))


# The crossover of the two `_echelon` paths, timed on one core of a 2-vCPU
# x86-64 host (Python 3.11, numpy 2.4, p = DEFAULT_PRIME).  On dense random
# full-rank matrices, best of 5 timeit runs, the Python path took
# 14 / 42 / 160 / 340 us and the numpy path 36 / 53 / 155 / 247 us at
# 3x3 / 4x12 / 10x10 / 12x12.  Replaying every matrix that one default
# `leflab verify` sweep eliminates, the total time is lowest for limits of
# 100-150 cells; for the four-variable WLP scans it is flat from 50 to 200.
SMALL_CELLS = 100


def _echelon_lists(a: list[list[int]], p: int, reduced: bool = False) -> list[int]:
    """`_echelon` in place on lists of Python ints; returns the pivots.

    The first len(pivots) rows end as the echelon rows and the rest as zeros.
    """
    m, n = len(a), len(a[0]) if a else 0
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
        for i in range(0 if reduced else r + 1, m):
            f = a[i][c]
            if f and i != r:
                a[i][c:] = [(x - f * y) % p for x, y in zip(a[i][c:], piv)]
        pivots.append(c)
        r += 1
    return pivots


def _echelon_small(arr: np.ndarray, p: int, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """`_echelon` on lists of Python ints: no per-operation numpy dispatch."""
    a = arr.tolist()
    pivots = _echelon_lists(a, p, reduced)
    return np.array(a[: len(pivots)], dtype=np.int64).reshape(len(pivots), arr.shape[1]), pivots


def _echelon_large(arr: np.ndarray, p: int, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """`_echelon` with numpy row operations, one pivot at a time."""
    a = np.array(arr, dtype=np.int64)
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        lo = 0 if reduced else r + 1
        rows = lo + np.flatnonzero(a[lo:, c])
        if reduced:
            rows = rows[rows != r]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - a[rows, c][:, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _echelon(arr: np.ndarray, p: int, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of `arr` (entries in [0, p)) with unit pivots, and its pivots.

    Gaussian elimination on a copy; the pivot of each column is the first
    nonzero entry at or below the current row, so both paths return the same
    rows.  With `reduced` each pivot also clears its column above it
    (Gauss-Jordan), which gives the reduced row echelon form.
    """
    if arr.size <= SMALL_CELLS:
        return _echelon_small(arr, p, reduced)
    return _echelon_large(arr, p, reduced)


def matrix_rank(m: DenseMatrix) -> int:
    """Rank over the prime field; deterministic, empty matrices allowed."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _echelon(m.entries, m.field.modulus)
    return len(pivots)


def row_echelon(m: DenseMatrix) -> tuple[DenseMatrix, tuple[int, ...]]:
    """Row echelon form with unit pivots, plus the pivot column positions.

    The returned matrix has one row per pivot; its row space equals the row
    space of the input.  Each pivot column is zero outside its pivot row, so
    that reduce_rows below only has to subtract one multiple per pivot.
    """
    if m.rows == 0 or m.cols == 0:
        return DenseMatrix.zeros(m.field, 0, m.cols), ()
    ech, pivots = _echelon(m.entries, m.field.modulus, reduced=True)
    return DenseMatrix.from_reduced(m.field, ech), tuple(pivots)


def reduce_rows(vectors: np.ndarray, echelon: DenseMatrix, pivots: Sequence[int]) -> np.ndarray:
    """Normal form of each row of `vectors` modulo the echelon row space."""
    p = echelon.field.modulus
    out = np.array(vectors, dtype=np.int64) % p
    if out.ndim != 2 or out.shape[1] != echelon.cols:
        raise ValueError("vector width does not match echelon width")
    for k, c in enumerate(pivots):
        coeff = out[:, c]
        nz = np.nonzero(coeff)[0]
        if nz.size:
            out[nz, :] = (out[nz, :] - coeff[nz, None] * echelon.entries[k]) % p
    return out


def all_minors_nonzero(rows: Sequence[Sequence[int]], p: int) -> bool:
    """Whether every square minor of `rows` (Python ints in [0, p)) is nonzero mod p.

    For a matrix [I_r | B], every r columns are independent exactly when
    every square minor of B is nonzero: the columns S of I_r and T of B
    have the determinant of B on the rows outside S and the columns T, up
    to sign.  Minors are tested from 1x1 up, so a zero entry ends at once.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for t in range(1, min(m, n) + 1):
        for rs in combinations(range(m), t):
            for cs in combinations(range(n), t):
                if len(_echelon_lists([[rows[i][j] for j in cs] for i in rs], p)) < t:
                    return False
    return True
