"""Brute-force ground truth for quotients by powers of general linear forms.

"General" is modeled by random coefficient vectors over a large prime field.
Ranks are semicontinuous: a random sample can only under-shoot the generic
rank, never exceed it, so rank reports take the maximum over several trial
forms and dimension reports are exact with overwhelming probability.

Dimensions are computed inside a monomial complete intersection.  An exact
change of coordinates over F_p (`ci_frame`) turns a maximal independent set
of the forms, smallest exponents first, into variables, so their powers span
a monomial ideal counted without elimination; only the remaining powers are
row-reduced, on the monomials that survive in the quotient by it.

A trial form L gets no echelon of its own.  `rank_with_form` maps L into the
sample's frame (coordinates l) and makes one exchange step: the variable y_m
with l_m != 0 and the largest cap (a free one counts as largest) is replaced
by L when k is below its cap, through the elementary change sending l to
e_m, and the displaced power y_m^cap joins the remaining powers; otherwise
L^k itself joins them.  That is the basis of smallest powers that
`ci_frame` of the adjoined sample would pick, so the matrices stay as small.
`sample_ideal` tests general position on its candidate's frame: any r of the
forms are independent exactly when the frame chose the first r and every
square minor of the rest block B in [I_r | B] is nonzero (`all_minors_nonzero`).
The standard-monomial route (`standard_monomials`, `mult_matrix_on_quotient`)
stays in the full ring as an independent check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modp import (
    DEFAULT_PRIME,
    DenseMatrix,
    PrimeField,
    all_minors_nonzero,
    matrix_rank,
    reduce_rows,
    row_echelon,
)
from .polyring import LinearFormRep, graded_dim, monomial_basis, mult_matrix, power_coords

DEFAULT_TRIALS = 5


class NonArtinianError(ValueError):
    """Raised when an operation needs an artinian quotient (s >= num_vars)."""


class PrimeTooSmallError(ValueError):
    """Raised when the field modulus is too small for the requested degrees."""


@dataclass(frozen=True)
class ExponentSpec:
    """The exponent multiset (a_1 <= ... <= a_s) plus the ambient variable count."""

    num_vars: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 2:
            raise ValueError("need at least two variables")
        if len(self.exponents) == 0:
            raise ValueError("need at least one exponent")
        if any(a < 1 for a in self.exponents):
            raise ValueError("exponents must be >= 1")
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))

    @property
    def s(self) -> int:
        return len(self.exponents)

    @property
    def is_artinian(self) -> bool:
        return self.s >= self.num_vars

    def adjoin(self, power: int) -> "ExponentSpec":
        return ExponentSpec(self.num_vars, self.exponents + (power,))


@dataclass(frozen=True)
class IdealSample:
    """A concrete random realization of the ideal, reproducible from its seed."""

    spec: ExponentSpec
    forms: tuple[LinearFormRep, ...]
    field: PrimeField
    seed: int

    def adjoin_form(self, form: LinearFormRep, power: int) -> "IdealSample":
        idx = bisect_right(self.spec.exponents, power)
        forms = self.forms[:idx] + (form,) + self.forms[idx:]
        return IdealSample(self.spec.adjoin(power), forms, self.field, self.seed)


@dataclass(frozen=True)
class RankReport:
    """Exact rank data for multiplication by a general k-th power into degree j."""

    k: int
    j: int
    dim_domain: int
    dim_codomain: int
    rank: int
    kernel_dim: int
    cokernel_dim: int
    trials_used: int

    @property
    def is_maximal(self) -> bool:
        return self.rank == min(self.dim_domain, self.dim_codomain)

    @property
    def deficiency(self) -> int:
        return min(self.dim_domain, self.dim_codomain) - self.rank


@dataclass(frozen=True)
class HilbertData:
    """Quotient dimensions from degree 0 through the socle degree."""

    values: tuple[int, ...]

    @property
    def regularity(self) -> int:
        return len(self.values) - 1

    def at(self, j: int) -> int:
        if j < 0 or j > self.regularity:
            return 0
        return self.values[j]


def random_form(field: PrimeField, num_vars: int, rng: np.random.Generator) -> LinearFormRep:
    while True:
        coeffs = field.random_vector(rng, num_vars)
        if any(coeffs):
            return LinearFormRep(coeffs)


def sample_ideal(spec: ExponentSpec, prime: int = DEFAULT_PRIME, seed: int = 0) -> IdealSample:
    """Draw the linear forms for `spec`, resampling until any r of them are independent."""
    field = PrimeField(prime)
    bound = 2 * (max(spec.exponents) + spec.s + 10)
    if prime <= bound:
        raise PrimeTooSmallError(f"prime {prime} too small; need > {bound}")
    rng = np.random.default_rng(seed)
    while True:
        forms = tuple(random_form(field, spec.num_vars, rng) for _ in range(spec.s))
        sample = IdealSample(spec, forms, field, seed)
        if spec.s < spec.num_vars or _in_general_position(sample):
            return sample


# Bounded: a trial frame's exchanged forms are new for every trial form, while
# the sample's own remaining forms recur in every degree and every trial.
@lru_cache(maxsize=256)
def _gen_coords(field: PrimeField, form: LinearFormRep, power: int) -> np.ndarray:
    vec = power_coords(field, form, power)
    vec.flags.writeable = False
    return vec


def _ideal_matrix(sample: IdealSample, j: int) -> np.ndarray:
    """Columns spanning the degree-j piece of the ideal, in monomial coordinates."""
    field = sample.field
    r = sample.spec.num_vars
    blocks = []
    for a, form in zip(sample.spec.exponents, sample.forms):
        if a <= j:
            coords = _gen_coords(field, form, a)
            blocks.append(mult_matrix(field, r, coords, a, j).entries)
    if not blocks:
        return np.zeros((graded_dim(r, j), 0), dtype=np.int64)
    return np.hstack(blocks)


@dataclass(frozen=True, eq=False)
class CIFrame:
    """Coordinates in which a sample is a quotient of a monomial complete intersection.

    A form with coefficient vector v has new coordinates `change @ v` (mod p).
    New variable m is a chosen form, whose power bounds it by `caps[m]`, or is
    free (`caps[m]` is None).  `rest` holds each other form in new coordinates,
    with its power.
    """

    change: np.ndarray
    caps: tuple[int | None, ...]
    rest: tuple[tuple[LinearFormRep, int], ...]


# Bounded: in the library only samples drawn by `sample_ideal` get a frame,
# one per sweep row (two on a second-prime retry), reused for every degree
# and every trial form.
@lru_cache(maxsize=64)
def ci_frame(sample: IdealSample) -> CIFrame:
    """The frame from the reduced echelon form E = A [F^T | I_r] of the forms F.

    Pivot m of E becomes variable m; a pivot column i < s picks form i (the
    forms are sorted by exponent, so the smallest powers are picked first),
    one in the identity block leaves variable m free.  A = E[:, s:] is the
    change of coordinates and column i of E is form i in the new coordinates.
    """
    r, exps = sample.spec.num_vars, sample.spec.exponents
    forms = np.array([f.coeffs for f in sample.forms], dtype=np.int64).T
    ech, pivots = row_echelon(DenseMatrix(sample.field, np.hstack([forms, np.eye(r, dtype=np.int64)])))
    chosen = set(pivots)
    rest = tuple(
        (LinearFormRep(tuple(int(x) for x in ech.entries[:, i])), a)
        for i, a in enumerate(exps)
        if i not in chosen
    )
    change = ech.entries[:, len(exps):]
    return CIFrame(change, tuple(exps[c] if c < len(exps) else None for c in pivots), rest)


def _in_general_position(sample: IdealSample) -> bool:
    """Whether any r of the s >= r forms are independent, from the sample's frame.

    When the frame chose the first r forms, its echelon has the form block
    [I_r | B] with B the coordinates of `rest`, and any r forms are
    independent exactly when every square minor of B is nonzero.  When it
    did not, the first r forms are dependent, and one of them is in `rest`
    with a zero in the row of some later pivot, so the 1x1 minors fail.
    """
    block = [list(col) for col in zip(*(form.coeffs for form, _ in ci_frame(sample).rest))]
    return all_minors_nonzero(block, sample.field.modulus)


@lru_cache(maxsize=None)
def _ci_rows(num_vars: int, caps: tuple[int | None, ...], j: int) -> np.ndarray:
    """Rows of the degree-j monomial basis that are not in (x_m^caps[m])."""
    bound = np.array([j + 1 if c is None else c for c in caps], dtype=np.int64)
    rows = np.flatnonzero((monomial_basis(num_vars, j) < bound).all(axis=1))
    rows.flags.writeable = False
    return rows


def _frame_piece_dim(
    field: PrimeField,
    caps: tuple[int | None, ...],
    rest: tuple[tuple[LinearFormRep, int], ...],
    j: int,
) -> int:
    """dim of the degree-j piece of (y_m^caps[m]) + (form^a for form, a in rest).

    J, the monomial ideal of the caps, has J_j spanned by the monomials off
    `_ci_rows`; the remaining powers add the rank of their products with the
    surviving monomials, reduced modulo J.
    """
    r = len(caps)
    rows = _ci_rows(r, caps, j)
    blocks = [
        mult_matrix(field, r, _gen_coords(field, form, a), a, j).entries[
            np.ix_(rows, _ci_rows(r, caps, j - a))
        ]
        for form, a in rest
        if a <= j
    ]
    rank = matrix_rank(DenseMatrix.from_reduced(field, np.hstack(blocks))) if blocks else 0
    return graded_dim(r, j) - rows.size + rank


@lru_cache(maxsize=None)
def ideal_piece_dim(sample: IdealSample, j: int) -> int:
    """dim of the degree-j piece of the ideal for this sample, in its frame."""
    if j < 0:
        return 0
    frame = ci_frame(sample)
    return _frame_piece_dim(sample.field, frame.caps, frame.rest, j)


def quotient_dim(sample: IdealSample, j: int) -> int:
    if j < 0:
        return 0
    return graded_dim(sample.spec.num_vars, j) - ideal_piece_dim(sample, j)


def hilbert_function(sample: IdealSample) -> HilbertData:
    """All quotient dimensions through the first zero (the quotient is artinian)."""
    spec = sample.spec
    if not spec.is_artinian:
        raise NonArtinianError(f"{spec.s} forms in {spec.num_vars} variables is not artinian")
    # Socle bound from the complete intersection on the smallest r exponents.
    bound = sum(spec.exponents[: spec.num_vars]) - spec.num_vars
    values = []
    for j in range(bound + 2):
        h = quotient_dim(sample, j)
        if h == 0:
            return HilbertData(tuple(values))
        values.append(h)
    raise AssertionError("quotient did not vanish below the complete-intersection bound")


def regularity(sample: IdealSample) -> int:
    """Last degree with a nonzero quotient component."""
    return hilbert_function(sample).regularity


def _trial_rng(sample: IdealSample, k: int, j: int) -> np.random.Generator:
    return np.random.default_rng([sample.seed, sample.field.modulus, k, j, 0x1EF1AB])


def _exchange(
    frame: CIFrame, form: LinearFormRep, k: int, p: int
) -> tuple[tuple[int | None, ...], tuple[tuple[LinearFormRep, int], ...]]:
    """Caps and remaining powers of a frame for the sample's ideal plus form**k."""
    # Python ints: a row of three 31-bit products overflows int64.
    ell = [sum(c * x for c, x in zip(row, form.coeffs)) % p for row in frame.change.tolist()]
    caps = frame.caps
    m = max((i for i, x in enumerate(ell) if x), key=lambda i: (caps[i] is None, caps[i] or 0))
    if caps[m] is not None and k >= caps[m]:
        return caps, frame.rest + ((LinearFormRep(tuple(ell)), k),)
    # New variable m is L; y_m = (L - sum_{i != m} ell_i y_i) / ell_m.
    inv = pow(ell[m], -1, p)

    def exchanged(v: tuple[int, ...]) -> LinearFormRep:
        vm = v[m] * inv % p
        return LinearFormRep(tuple(vm if i == m else (x - l * vm) % p for i, (x, l) in enumerate(zip(v, ell))))

    rest = tuple((exchanged(f.coeffs), a) for f, a in frame.rest)
    if caps[m] is not None:
        rest += ((exchanged(tuple(int(i == m) for i in range(len(ell)))), caps[m]),)
    return caps[:m] + (k,) + caps[m + 1 :], rest


def rank_with_form(sample: IdealSample, form: LinearFormRep, k: int, j: int) -> int:
    """Rank of multiplication by form**k into degree j, as a dimension drop.

    The drop is dim (I + form^k)_j - dim I_j, with the first term ranked in a
    frame made from the sample's own by one exchange step (`_exchange`).
    """
    if j < 0:
        return 0
    field = sample.field
    caps, rest = _exchange(ci_frame(sample), form, k, field.modulus)
    return _frame_piece_dim(field, caps, rest, j) - ideal_piece_dim(sample, j)


def mult_rank_report(
    sample: IdealSample, k: int, j: int, trials: int = DEFAULT_TRIALS
) -> RankReport:
    """Rank of multiplication by a general k-th power from degree j-k to degree j.

    The rank over a random form is at most the generic rank, so the report
    takes the maximum over `trials` independent choices.
    """
    if k < 1 or j < k or trials < 1:
        raise ValueError("need k >= 1, j >= k, trials >= 1")
    dom = quotient_dim(sample, j - k)
    cod = quotient_dim(sample, j)
    if dom == 0 or cod == 0:
        rank, used = 0, 0
    else:
        rng = _trial_rng(sample, k, j)
        rank, used = 0, 0
        for _ in range(trials):
            form = random_form(sample.field, sample.spec.num_vars, rng)
            rank = max(rank, rank_with_form(sample, form, k, j))
            used += 1
            if rank == min(dom, cod):
                break
    return RankReport(k, j, dom, cod, rank, dom - rank, cod - rank, used)


def lefschetz_scan(
    sample: IdealSample, k: int, trials: int = DEFAULT_TRIALS
) -> list[tuple[int, int]]:
    """Degrees where multiplication by a general k-th power misses maximal rank.

    Scans j from k through regularity+k; an empty list certifies maximal rank
    in every degree.  Each entry is (degree, deficiency) with deficiency the
    gap min(dim domain, dim codomain) - rank.
    """
    hd = hilbert_function(sample)
    failures = []
    for j in range(k, hd.regularity + k + 1):
        if hd.at(j - k) == 0 or hd.at(j) == 0:
            continue
        report = mult_rank_report(sample, k, j, trials)
        if report.deficiency > 0:
            failures.append((j, report.deficiency))
    return failures


def standard_monomials(sample: IdealSample, j: int) -> tuple[DenseMatrix, tuple[int, ...], tuple[int, ...]]:
    """Echelon basis of the degree-j ideal piece plus pivot/standard positions.

    The non-pivot monomial positions index a vector-space basis of the
    degree-j piece of the quotient.
    """
    ech, pivots = row_echelon(DenseMatrix.from_reduced(sample.field, _ideal_matrix(sample, j).T))
    chosen = set(pivots)
    std = tuple(c for c in range(ech.cols) if c not in chosen)
    return ech, pivots, std


def mult_matrix_on_quotient(
    sample: IdealSample, form: LinearFormRep, k: int, j: int
) -> DenseMatrix:
    """The induced multiplication-by-form**k matrix in quotient coordinates.

    Independent route to the same rank as `rank_with_form`: expresses the map
    on standard-monomial bases of the two quotient pieces via normal forms.
    """
    field = sample.field
    r = sample.spec.num_vars
    _, _, std_dom = standard_monomials(sample, j - k)
    ech, pivots, std_cod = standard_monomials(sample, j)
    big = mult_matrix(field, r, _gen_coords(field, form, k), k, j)
    cols = big.entries[:, list(std_dom)] if std_dom else np.zeros((big.rows, 0), dtype=np.int64)
    reduced = reduce_rows(cols.T, ech, pivots)
    return DenseMatrix.from_reduced(
        field, reduced[:, list(std_cod)].T if std_cod else np.zeros((0, len(std_dom)), dtype=np.int64)
    )
