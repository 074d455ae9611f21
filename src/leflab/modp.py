"""Prime-field arithmetic and dense exact row reduction.

Everything upstream (ideal dimensions, fat-point conditions, multiplication
ranks) reduces to the rank of a dense matrix over F_p.  The modulus defaults
to the Mersenne prime 2^31 - 1 so that a product of two reduced entries fits
comfortably in int64 and no multiprecision arithmetic is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_PRIME = 2147483647

# Witnesses giving a deterministic Miller-Rabin test for all n < 3.3 * 10^24,
# far beyond the 31-bit moduli PrimeField accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "DenseMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))


def _echelon(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    # Plain Gaussian elimination, pivot = first nonzero under the current row.
    a = np.array(arr, dtype=np.int64) % p
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
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            rows = r + 1 + below
            a[rows, c:] = (a[rows, c:] - a[rows, c][:, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def matrix_rank(m: DenseMatrix) -> int:
    """Rank over the prime field; deterministic, empty matrices allowed."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _echelon(m.entries, m.field.modulus)
    return len(pivots)


def row_echelon(m: DenseMatrix) -> tuple[DenseMatrix, tuple[int, ...]]:
    """Row echelon form with unit pivots, plus the pivot column positions.

    The returned matrix has one row per pivot; its row space equals the row
    space of the input.  Back-substitution clears the pivot columns so that
    reduce_rows below only has to subtract one multiple per pivot.
    """
    if m.rows == 0 or m.cols == 0:
        return DenseMatrix.zeros(m.field, 0, m.cols), ()
    p = m.field.modulus
    ech, pivots = _echelon(m.entries, p)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        above = np.nonzero(ech[:k, c])[0]
        if above.size:
            ech[above, :] = (ech[above, :] - ech[above, c][:, None] * ech[k, :]) % p
    return DenseMatrix(m.field, ech), tuple(pivots)


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
