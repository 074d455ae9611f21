"""Graded pieces of a polynomial ring and multiplication-map matrices.

Only linear algebra on single graded pieces is needed: a fixed monomial
order, coordinates of powers of linear forms, and the matrix of
"multiply by f" from one graded piece to another.  No division, GCDs or
Groebner machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

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


@lru_cache(maxsize=None)
def monomial_basis(num_vars: int, degree: int) -> np.ndarray:
    """Exponents of the degree-`degree` monomials, one read-only row each.

    The order is graded-lexicographic with the first variable largest, fixed
    so that coordinate vectors and matrices are reproducible across runs.
    There are C(degree+num_vars-1, num_vars-1) rows.
    """
    if num_vars < 1 or degree < 0:
        raise ValueError("need num_vars >= 1 and degree >= 0")
    if num_vars == 1:
        exps = np.array([[degree]], dtype=np.int64)
    else:
        blocks = []
        for e in range(degree, -1, -1):
            rest = monomial_basis(num_vars - 1, degree - e)
            blocks.append(np.column_stack((np.full(len(rest), e, dtype=np.int64), rest)))
        exps = np.vstack(blocks)
    exps.flags.writeable = False
    return exps


def graded_dim(num_vars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + num_vars - 1, num_vars - 1)


@lru_cache(maxsize=None)
def _index_map(num_vars: int, f_degree: int, target_degree: int) -> np.ndarray:
    """map[t, c]: target-basis row of (term t of degree f_degree) * (source monomial c).

    Exponents are read as base-(target_degree+1) digits, first variable most
    significant, so the target basis has strictly decreasing keys.
    """
    base = target_degree + 1
    if base**num_vars > np.iinfo(np.int64).max:
        raise ValueError(f"{num_vars} variables in degree {target_degree} overflow the monomial keys")
    weights = base ** np.arange(num_vars - 1, -1, -1, dtype=np.int64)
    neg_keys = -(monomial_basis(num_vars, target_degree) @ weights)
    terms = monomial_basis(num_vars, f_degree) @ weights
    sources = monomial_basis(num_vars, target_degree - f_degree) @ weights
    out = np.searchsorted(neg_keys, -(terms[:, None] + sources[None, :]))
    out.flags.writeable = False
    return out


def power_coords(field_: PrimeField, form: LinearFormRep, a: int) -> np.ndarray:
    """Coordinates of form**a, built by repeated multiplication.

    Iterating one degree at a time keeps every intermediate inside field
    arithmetic; no multinomial coefficients are ever formed.
    """
    if a < 1:
        raise ValueError("power must be >= 1")
    p = field_.modulus
    r = form.num_vars
    coeffs = [c % p for c in form.coeffs]
    vec = np.array(coeffs, dtype=np.int64)
    for d in range(1, a):
        step = _index_map(r, 1, d + 1)
        out = np.zeros(graded_dim(r, d + 1), dtype=np.int64)
        for var, c in enumerate(coeffs):
            if c:
                # Rows of step[var] are distinct and each sum stays below r*p.
                out[step[var]] += vec * c % p
        vec = out % p
    return vec


def mult_matrix(
    field_: PrimeField,
    num_vars: int,
    f_coords: np.ndarray,
    f_degree: int,
    target_degree: int,
) -> DenseMatrix:
    """Matrix of multiplication by f between graded pieces.

    Columns are indexed by the monomials of degree target_degree - f_degree,
    rows by the monomials of degree target_degree; the column for a monomial
    m holds the coordinates of f*m.
    """
    if target_degree < f_degree:
        raise ValueError("target degree below the degree of f")
    index = _index_map(num_vars, f_degree, target_degree)
    coeffs = np.asarray(f_coords, dtype=np.int64) % field_.modulus
    nz = np.nonzero(coeffs)[0]
    out = np.zeros((graded_dim(num_vars, target_degree), index.shape[1]), dtype=np.int64)
    # Distinct terms of f send a monomial m to distinct products, so no cell is hit twice.
    out[index[nz], np.arange(index.shape[1])] = coeffs[nz, None]
    return DenseMatrix.from_reduced(field_, out)
