"""Brute-force ground truth for quotients by powers of general linear forms.

"General" is modeled by random coefficient vectors over a large prime field.
Ranks are semicontinuous: a random sample can only under-shoot the generic
rank, never exceed it, so rank reports take the maximum over several trial
forms and dimension reports are exact with overwhelming probability.

Dimensions are computed inside a monomial complete intersection.  Each
sample carries a `frame`, an exact change of coordinates over F_p that turns
a maximal independent set of the forms, smallest exponents first, into
variables, so their powers span a monomial ideal counted without
elimination; only the remaining powers are row-reduced, on the monomials
that survive in the quotient by it.  Their matrix is built on those
monomials alone (`mult_matrix` with the frame's caps): no piece of the full
ring is listed, so a non-artinian piece of huge degree stays small.

Frames are built by exchange steps (`_exchange`), and no frame eliminates.
A form L with coordinates l in a frame and power k replaces the variable y_m
with l_m != 0 and the largest cap (a free one counts as largest) when k is
below its cap, through the elementary change sending l to e_m, and the
displaced power y_m^cap joins the remaining powers; otherwise L^k itself
joins them.  The variables keep the order the exchange steps leave.
A trial form is one more generator: the cokernel of multiplication by L^k on
R/I is R/(I, L^k), so `rank_with_form` is a difference of two
`ideal_piece_dim` values, of the sample and of the sample with L^k adjoined,
whose frame is one more exact exchange step.  So a scan is two Hilbert
functions: h of R/I, and g of R/(I, L^k) for its first trial form, adjoined
once; the rank into degree j is h[j] - g[j].  Only the degrees where that
rank is short go to `mult_rank_report`, which tries further forms there.
`sample_ideal` tests general position on its candidate's frame: any r of the
forms are independent exactly when the frame chose the first r and every
square minor of the rest block B in [I_r | B] is nonzero (`all_minors_nonzero`).
The standard-monomial route (`standard_monomials`, `mult_matrix_on_quotient`)
stays in the full ring as a check: `mult_matrix` with no caps, the complete
intersection with every variable free.  It shares the index map with the
frame route, and the tests check that map against a product of monomial
dicts; it shares no frame, exchange step or rank-by-difference.  It hands
plain arrays to `row_echelon` and `reduce_rows`; only the induced matrix it
returns is a `DenseMatrix`.
The frame alone knows where a quotient ends: when it caps every variable,
the ideal is all of R_j past the socle degree sum(caps) - r, where
`ideal_piece_dim` builds nothing; a free variable means a non-artinian one.
`hilbert_function` is the plain tuple of quotient dimensions, `regularity`
its length minus one, and `lefschetz_scan` a list of `DegreeFailure` records.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import count, takewhile
from operator import mul
from typing import NamedTuple

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
from .polyring import LinearFormRep, ci_basis, graded_dim, mult_matrix, power_coords

DEFAULT_TRIALS = 5


class NonArtinianError(ValueError):
    """Raised when an operation needs an artinian quotient (forms spanning R_1)."""


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
    """A concrete random realization of the ideal, reproducible from its seed.

    `frame` is derived from the forms, so equality, hashing and repr skip it.
    Unless given, it takes one `_exchange` step per form from the identity in
    exponent order, so a form independent of the earlier ones replaces a free
    variable, and a dependent one never displaces a cap and joins `rest`.
    Deriving it raises ValueError unless there is one form per exponent, each
    with one coefficient per variable; `adjoin_form` checks its one new form.
    The hash is computed once: samples key `ideal_piece_dim` in every degree.
    """

    spec: ExponentSpec
    forms: tuple[LinearFormRep, ...]
    field: PrimeField
    seed: int
    frame: CIFrame = dc_field(default=None, kw_only=True, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.spec, self.forms, self.field, self.seed)))
        if self.frame is None:
            r, p = self.spec.num_vars, self.field.modulus
            if len(self.forms) != self.spec.s or any(form.num_vars != r for form in self.forms):
                raise ValueError(f"need {self.spec.s} forms in {r} variables")
            frame = CIFrame(tuple(tuple(int(i == m) for i in range(r)) for m in range(r)), (None,) * r, ())
            for form, a in zip(self.forms, self.spec.exponents):
                frame = _exchange(frame, form, a, p)
            object.__setattr__(self, "frame", frame)

    def __hash__(self) -> int:
        return self._hash

    def adjoin_form(self, form: LinearFormRep, power: int) -> "IdealSample":
        """The sample with form**power adjoined, framed by one more (exact) exchange step."""
        if form.num_vars != self.spec.num_vars:
            raise ValueError(f"need a form in {self.spec.num_vars} variables")
        idx = bisect_right(self.spec.exponents, power)
        forms = self.forms[:idx] + (form,) + self.forms[idx:]
        frame = _exchange(self.frame, form, power, self.field.modulus)
        return IdealSample(self.spec.adjoin(power), forms, self.field, self.seed, frame=frame)


@dataclass(frozen=True)
class RankReport:
    """Exact rank data for multiplication by a general k-th power into degree j."""

    k: int
    j: int
    dim_domain: int
    dim_codomain: int
    rank: int
    trials_used: int

    @property
    def kernel_dim(self) -> int:
        return self.dim_domain - self.rank

    @property
    def cokernel_dim(self) -> int:
        return self.dim_codomain - self.rank

    @property
    def is_maximal(self) -> bool:
        return self.rank == min(self.dim_domain, self.dim_codomain)

    @property
    def deficiency(self) -> int:
        return min(self.dim_domain, self.dim_codomain) - self.rank


class DegreeFailure(NamedTuple):
    """A degree where multiplication by L^k misses maximal rank, and by how much.

    `deficiency` is min(dim domain, dim codomain) - rank in that degree.  The
    oracle's scans, the theory engine's verdicts and the verification rows
    all hold failures in this one shape.
    """

    degree: int
    deficiency: int


def _seeded_rng(key: list[int]) -> np.random.Generator:
    """`np.random.default_rng(key)`, handed a `np.uint32` array when every entry fits.

    numpy coerces a list one int at a time, about twice as slow as reading a
    uint32 array, and the two give the same stream.  Keys with an entry
    below 0 or from 2^32 on stay lists, so they keep their stream, or
    numpy's ValueError.
    """
    if min(key) >= 0 and max(key) < 2**32:
        return np.random.default_rng(np.array(key, dtype=np.uint32))
    return np.random.default_rng(key)


def random_form(field: PrimeField, num_vars: int, rng: np.random.Generator) -> LinearFormRep:
    """The next nonzero draw of `num_vars` coefficients in [0, p); a zero draw is drawn again."""
    while True:
        coeffs = rng.integers(0, field.modulus, size=num_vars).tolist()
        if any(coeffs):
            return LinearFormRep(tuple(coeffs))


# Draws per sample: at most 6 were needed at p = 101 (three variables,
# s = 4-6, exponents 2-8, seeds 0-2), and 1 at the default prime.  A prime
# that passes the bound below can still make general position rare: twenty
# forms in three variables at p = 67 find none in this many draws.
SAMPLE_DRAWS = 1000


def sample_ideal(spec: ExponentSpec, prime: int = DEFAULT_PRIME, seed: int = 0) -> IdealSample:
    """Draw forms for `spec`, seeded by `seed` and the spec, until any min(r, s) are independent.

    Each attempt draws its s forms as one (s, r) block.  An attempt with a
    zero row is drawn again whole, like one whose forms are not in general
    position: both are special draws, and there is one retry rule for them.
    After SAMPLE_DRAWS attempts it raises PrimeTooSmallError.
    """
    field = PrimeField(prime)
    bound = 2 * (max(spec.exponents) + spec.s + 10)
    if prime <= bound:
        raise PrimeTooSmallError(f"prime {prime} too small; need > {bound}")
    r = spec.num_vars
    rng = _seeded_rng([seed, r, *spec.exponents])
    for _ in range(SAMPLE_DRAWS):
        rows = rng.integers(0, prime, size=(spec.s, r)).tolist()
        if not all(map(any, rows)):
            continue
        sample = IdealSample(spec, tuple(LinearFormRep(tuple(row)) for row in rows), field, seed)
        if _in_general_position(sample):
            return sample
    raise PrimeTooSmallError(
        f"prime {prime} too small: {SAMPLE_DRAWS} draws of {spec.s} forms in {r} variables"
        " found none in general position"
    )


def _ideal_matrix(sample: IdealSample, j: int) -> np.ndarray:
    """Columns spanning the degree-j piece of the ideal, in monomial coordinates."""
    field = sample.field
    gens = zip(sample.spec.exponents, sample.forms)
    factors = [(power_coords(field, form, a), a) for a, form in gens if a <= j]
    return mult_matrix(field, sample.spec.num_vars, factors, j).entries


@dataclass(frozen=True, eq=False)
class CIFrame:
    """Coordinates in which a sample is a quotient of a monomial complete intersection.

    A form with coefficient vector v has new coordinates `change @ v` (mod p);
    `change` is a tuple of rows of Python ints.  New variable m is a chosen
    form, whose power bounds it by `caps[m]`, or is free (`caps[m]` is None).
    `rest` holds each other form in new coordinates, with its power.
    """

    change: tuple[tuple[int, ...], ...]
    caps: tuple[int | None, ...]
    rest: tuple[tuple[LinearFormRep, int], ...]


def _exchange(frame: CIFrame, form: LinearFormRep, k: int, p: int) -> CIFrame:
    """The frame of the frame's ideal plus form**k, by one exchange step."""
    # Python ints: a row of three 31-bit products overflows int64.
    ell = [sum(map(mul, row, form.coeffs)) % p for row in frame.change]
    caps = frame.caps
    # The first nonzero coordinate with the largest cap, a free one largest.
    m = None
    for i, x in enumerate(ell):
        if x and (m is None or caps[m] is not None and (caps[i] is None or caps[i] > caps[m])):
            m = i
    if caps[m] is not None and k >= caps[m]:
        return CIFrame(frame.change, caps, frame.rest + ((LinearFormRep(tuple(ell)), k),))
    # New variable m is L; y_m = (L - sum_{i != m} ell_i y_i) / ell_m, so the
    # old y_m has new coordinates w, and v maps to v - v_m e_m + v_m w.
    inv = pow(ell[m], -1, p)
    w = [-x * inv % p for x in ell]
    w[m] = inv

    def exchanged(v: tuple[int, ...]) -> tuple[int, ...]:
        vm = v[m]
        out = [(x + vm * y) % p for x, y in zip(v, w)]
        out[m] = vm * inv % p
        return tuple(out)

    rest = tuple((LinearFormRep(exchanged(f.coeffs)), a) for f, a in frame.rest)
    if caps[m] is not None:
        rest += ((LinearFormRep(tuple(w)), caps[m]),)
    # Column i of change is x_i in the frame's coordinates, so it takes the same map.
    change = tuple(zip(*map(exchanged, zip(*frame.change))))
    return CIFrame(change, caps[:m] + (k,) + caps[m + 1 :], rest)


def _in_general_position(sample: IdealSample) -> bool:
    """Whether any min(r, s) of the s forms are independent, from the sample's frame.

    When the frame chose the first r forms, they are its variables, so up
    to the order of rows the forms in new coordinates are [I_r | B] with B
    the coordinates of `rest`, and any r forms are independent exactly when
    every square minor of B is nonzero.  The rows of `rest` form B's
    transpose, which has the same minors.  When it did not, one of the first r
    forms depends on the fewer than r forms chosen before it, which stay
    variables; it is in `rest` with a zero coordinate, so a 1x1 minor fails.
    With s < r independent forms `rest` is empty, which passes.
    """
    return all_minors_nonzero([form.coeffs for form, _ in sample.frame.rest], sample.field.modulus)


# Bounded: a cold scan rereads the sample's pieces at its short degrees, so it
# needs about its degree count in live keys, 53 at most as measured ((30,)*6 in
# 3 variables, k = 3, 5 trials; none for k <= 2): a 19x margin.
@lru_cache(maxsize=1024)
def ideal_piece_dim(sample: IdealSample, j: int) -> int:
    """dim of the degree-j piece of the ideal for this sample, in its frame.

    J, the monomial ideal of the frame's caps, has J_j spanned by the
    monomials off `ci_basis(caps, j)`; the remaining powers add the rank of
    their products with the monomials outside J, modulo J.  `mult_matrix`
    builds that block for all of them at once, on the complete
    intersection's bases and the terms of each power outside J, with no
    full-ring basis or matrix.  When every variable is capped, J_j is all
    of R_j past the socle degree sum(caps) - r, and so is the ideal: no
    basis or matrix is built there.  Like the bases, this trusts the caps; a
    frame whose caps were not powers in the ideal would overstate the piece,
    never understate it.  Both shortcuts hold in every characteristic, but
    a block in a degree j >= p raises PrimeTooSmallError: p is past every
    cap, so L^p = sum c_i^p y_i^p lies in J and ranks there fall short.
    """
    field, frame = sample.field, sample.frame
    caps = frame.caps
    r = len(caps)
    if None not in caps and j > sum(caps) - r:
        return graded_dim(r, j)
    factors = [(power_coords(field, form, a), a) for form, a in frame.rest if a <= j]
    if not factors:
        return graded_dim(r, j) - len(ci_basis(caps, j))
    if j >= field.modulus:
        raise PrimeTooSmallError(f"prime {field.modulus} too small for degree {j}; need > {j}")
    block = mult_matrix(field, r, factors, j, caps)
    return graded_dim(r, j) - block.rows + matrix_rank(block)


def quotient_dim(sample: IdealSample, j: int) -> int:
    return graded_dim(sample.spec.num_vars, j) - ideal_piece_dim(sample, j)


def hilbert_function(sample: IdealSample) -> tuple[int, ...]:
    """Quotient dimensions from degree 0 up to the first zero.

    The quotient is artinian exactly when the forms span R_1, that is, when
    the frame caps every variable; then `ideal_piece_dim` makes it vanish
    past the socle degree of the frame's complete intersection.
    """
    spec, caps = sample.spec, sample.frame.caps
    if None in caps:
        span = "" if spec.s < spec.num_vars else f" spanning {len(caps) - caps.count(None)} dimensions"
        raise NonArtinianError(f"{spec.s} forms in {spec.num_vars} variables{span} is not artinian")
    return tuple(takewhile(bool, (quotient_dim(sample, j) for j in count())))


def regularity(sample: IdealSample) -> int:
    """Last degree with a nonzero quotient component."""
    return len(hilbert_function(sample)) - 1


def _trial_rng(sample: IdealSample, k: int) -> np.random.Generator:
    """The stream of trial forms of power k for the sample, in every degree.

    Its t-th draw is the t-th trial form of `mult_rank_report` in any degree,
    and its first draw is the form that `lefschetz_scan` adjoins.
    """
    spec = sample.spec
    return _seeded_rng([sample.seed, sample.field.modulus, spec.num_vars, *spec.exponents, k, 0x1EF1AB])


def rank_with_form(sample: IdealSample, form: LinearFormRep, k: int, j: int) -> int:
    """Rank of multiplication by form**k into degree j, as a dimension drop.

    The cokernel is the degree-j piece of R/(I, form^k), so the rank is
    dim (I + form^k)_j - dim I_j, with form^k one more generator.
    """
    return ideal_piece_dim(sample.adjoin_form(form, k), j) - ideal_piece_dim(sample, j)


def mult_rank_report(
    sample: IdealSample, k: int, j: int, trials: int = DEFAULT_TRIALS
) -> RankReport:
    """Rank of multiplication by a general k-th power from degree j-k to degree j.

    The rank over a random form is at most the generic rank, so the report
    takes the maximum of `rank_with_form` over up to `trials` forms, the
    first draws of a fresh `_trial_rng(sample, k)`, and stops at maximal rank.
    """
    if k < 1 or j < k or trials < 1:
        raise ValueError("need k >= 1, j >= k, trials >= 1")
    dom = quotient_dim(sample, j - k)
    cod = quotient_dim(sample, j)
    rng = _trial_rng(sample, k)
    rank, used = 0, 0
    while used < trials and rank < min(dom, cod):
        rank = max(rank, rank_with_form(sample, random_form(sample.field, sample.spec.num_vars, rng), k, j))
        used += 1
    return RankReport(k, j, dom, cod, rank, used)


def lefschetz_scan(
    sample: IdealSample, k: int, trials: int = DEFAULT_TRIALS
) -> list[DegreeFailure]:
    """Degrees where multiplication by a general k-th power misses maximal rank.

    Scans j from k through the regularity (the codomain is 0 past it); an
    empty list certifies maximal rank.  With h the Hilbert function of R/I
    and g that of R/(I, L^k) for the first trial form L, that form's rank
    into degree j is h[j] - g[j], and g stays 0 from its first zero on.  A
    random form's rank never exceeds the generic rank, so a degree where it
    is maximal, g[j] <= max(h[j] - h[j-k], 0), has maximal rank; only the
    other degrees go to `mult_rank_report`, whose first form is the same L.
    Raises ValueError unless k >= 1 and trials >= 1.
    """
    if k < 1 or trials < 1:
        raise ValueError("need k >= 1, trials >= 1")
    h = hilbert_function(sample)
    form = random_form(sample.field, sample.spec.num_vars, _trial_rng(sample, k))
    first = sample.adjoin_form(form, k)
    g = takewhile(bool, (quotient_dim(first, j) for j in range(k, len(h))))
    short = [j for j, g_j in enumerate(g, k) if g_j > max(h[j] - h[j - k], 0)]
    reports = (mult_rank_report(sample, k, j, trials) for j in short)
    return [DegreeFailure(rep.j, rep.deficiency) for rep in reports if rep.deficiency > 0]


def standard_monomials(sample: IdealSample, j: int) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Echelon basis of the degree-j ideal piece, as an array, plus pivot/standard positions.

    The non-pivot monomial positions index a vector-space basis of the
    degree-j piece of the quotient.
    """
    ech, pivots = row_echelon(_ideal_matrix(sample, j).T, sample.field.modulus)
    chosen = set(pivots)
    std = tuple(c for c in range(ech.shape[1]) if c not in chosen)
    return ech, pivots, std


def mult_matrix_on_quotient(
    sample: IdealSample, form: LinearFormRep, k: int, j: int
) -> DenseMatrix:
    """The induced multiplication-by-form**k matrix in quotient coordinates.

    A second route to the same rank as `rank_with_form`, sharing no frame
    with it: expresses the map on standard-monomial bases of the two
    quotient pieces via normal forms.
    """
    field, r = sample.field, sample.spec.num_vars
    _, _, std_dom = standard_monomials(sample, j - k)
    ech, pivots, std_cod = standard_monomials(sample, j)
    big = mult_matrix(field, r, [(power_coords(field, form, k), k)], j).entries
    # An empty index list gives an empty int64 block of the right shape.
    reduced = reduce_rows(big[:, list(std_dom)].T, ech, pivots, field.modulus)
    return DenseMatrix(field, reduced[:, list(std_cod)].T)
