"""Closed-form classification of maximal-rank behavior, no linear algebra.

Everything here is integer arithmetic on the exponent multiset: the peak
degree of the Hilbert function and the complete square/cube classifications
together with their SLP/WLP corollaries in three and four variables.  Each
result is stated once: where it holds for a general multiset, its uniform
special case (s copies of t) is an expected value in the tests, not a second
copy here.  `verdict_for(spec, k)` (a k-th power map) and `slp_verdict(spec)`
(the SLP or WLP) pick the closed form that answers a spec, or raise
ValueError; the CLI and the verification harness go through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .oracle import ExponentSpec, NonArtinianError

MAXIMAL = "maximal-everywhere"
FAILS = "fails"


@dataclass(frozen=True)
class DegreeFailure:
    degree: int
    kernel_dim: Optional[int]
    cokernel_dim: Optional[int]

    @property
    def deficiency(self) -> int:
        known = [d for d in (self.kernel_dim, self.cokernel_dim) if d is not None]
        return min(known)


@dataclass(frozen=True)
class Verdict:
    """A theory-engine classification with its witness data."""

    status: str
    failures: tuple[DegreeFailure, ...] = ()
    witness: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in (MAXIMAL, FAILS):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == FAILS) != bool(self.failures):
            raise ValueError("failure list must be nonempty exactly when status is 'fails'")

    @property
    def failing_degrees(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.failures)


def line_condition_sum(spec: ExponentSpec, j: int) -> int:
    """Sum of (j+1-a_i) over exponents a_i <= j.

    Equals the sum over i = 0..j of the number of exponents at most i; this
    is the number of conditions the dual points put on degree-j binary forms.
    """
    return sum(j + 1 - a for a in spec.exponents if a <= j)


def peak_degree(spec: ExponentSpec) -> int:
    """Largest j with line_condition_sum(spec, j) <= j.

    This is the turning degree of the Hilbert function: multiplication by a
    general linear form is injective into degrees <= peak and surjective onto
    degrees >= peak+1.  Needs at least two exponents to be finite.
    """
    if spec.s < 2:
        raise ValueError("peak degree needs at least two exponents")
    total = sum(spec.exponents)
    upper = max(max(spec.exponents), (total - spec.s) // (spec.s - 1)) + 1
    best = 0
    for j in range(upper + 1):
        if line_condition_sum(spec, j) <= j:
            best = j
    return best


def _reject_non_artinian_3vars(spec: ExponentSpec) -> None:
    if spec.num_vars != 3:
        raise ValueError("this classification is for three variables")
    if not spec.is_artinian:
        raise NonArtinianError("need at least three forms in three variables")


def classify_square(spec: ExponentSpec) -> Verdict:
    """Multiplication by a general square always has maximal rank (3 variables)."""
    _reject_non_artinian_3vars(spec)
    return Verdict(MAXIMAL, witness={"peak": peak_degree(spec)})


def classify_cube(spec: ExponentSpec) -> Verdict:
    """Complete description of maximal rank for multiplication by a cube.

    In three variables the map can only miss maximal rank in the single
    degree peak+2.  It does so exactly when the number of exponents at most
    peak+1 equals nu = peak + 2 - line_condition_sum(spec, peak), nu is even
    and at least four, and no exponent equals peak+2.  In the failing degree
    the kernel and cokernel are both one-dimensional and the domain and
    codomain have equal dimension.
    """
    _reject_non_artinian_3vars(spec)
    exps = spec.exponents
    if 1 in exps:
        # A linear generator eliminates a variable; two-variable quotients
        # have the SLP, so every power map has maximal rank.
        return Verdict(MAXIMAL, witness={"rule_linear_generator": 1})
    if spec.s == 3:
        # Three general powers form a complete intersection with the SLP.
        return Verdict(MAXIMAL, witness={"rule_complete_intersection": 1})
    p = peak_degree(spec)
    conditions = line_condition_sum(spec, p)
    nu = p + 2 - conditions
    m = sum(1 for a in exps if a <= p)
    n, q = exps.count(p + 1), exps.count(p + 2)
    witness = {"peak": p, "nu": nu, "m": m, "n": n, "q": q, "d": p - conditions}
    if not (m + n == nu and nu >= 4 and nu % 2 == 0 and q == 0):
        return Verdict(MAXIMAL, witness=witness)
    witness["equal_dims_low"] = p - 1
    witness["equal_dims_high"] = p + 2
    return Verdict(FAILS, (DegreeFailure(p + 2, 1, 1),), witness)


def slp_with_square_generator(spec: ExponentSpec) -> Verdict:
    """A three-variable quotient whose ideal contains a general square has the SLP."""
    _reject_non_artinian_3vars(spec)
    if 2 not in spec.exponents:
        raise ValueError("needs a square generator (some exponent equal to 2)")
    return Verdict(MAXIMAL, witness={"peak": peak_degree(spec)})


def wlp_with_square_generator_4vars(spec: ExponentSpec) -> Verdict:
    """A four-variable quotient with a generator of degree at most two has the WLP."""
    if spec.num_vars != 4:
        raise ValueError("this result is for four variables")
    if min(spec.exponents) > 2:
        raise ValueError("needs a generator of degree at most two")
    if spec.s < 4:
        raise NonArtinianError("need at least four forms in four variables")
    return Verdict(MAXIMAL, witness={})


@dataclass(frozen=True)
class FailingPowers:
    asserted: frozenset[int]
    conjectured: frozenset[int]


def failing_powers_after_cube(s: int, t: int, reg_bound: int) -> FailingPowers:
    """Powers b whose multiplication misses maximal rank on the cube quotient.

    For s odd, t >= s and b <= t the failing powers are exactly the multiples
    of s below reg_bound.  Multiples of s strictly between t and reg_bound are
    reported separately: they are conjectured to fail as well but are not
    asserted.
    """
    if s % 2 == 0 or s < 3:
        raise ValueError("need s odd and >= 3")
    if t < s:
        raise ValueError("need t >= s")
    asserted = frozenset(b for b in range(s, t + 1, s) if b < reg_bound)
    first = ((t // s) + 1) * s
    conjectured = frozenset(b for b in range(first, reg_bound, s))
    return FailingPowers(asserted, conjectured)


def wlp_cube_uniform_4vars(s: int, t: int) -> Verdict:
    """WLP in four variables for a cube plus s copies of t.

    Holds iff s is odd, or s is even and t is not a multiple of s-1; when it
    fails, surjectivity misses by one in the single degree s*t/(s-1).
    """
    if s < 4 or t < 3:
        raise ValueError("need s >= 4 and t >= 3")
    if s % 2 == 1 or t % (s - 1) != 0:
        return Verdict(MAXIMAL, witness={})
    j = s * t // (s - 1)
    return Verdict(FAILS, (DegreeFailure(j, None, 1),), {})


def _wlp_rule_4vars(spec: ExponentSpec) -> Optional[tuple[str, Verdict]]:
    """The four-variable WLP rule covering `spec` and its verdict, or None."""
    exps = spec.exponents
    if exps[0] <= 2:
        return "square-generator", wlp_with_square_generator_4vars(spec)
    if exps[0] == 3 and len(exps) >= 5 and len(set(exps[1:])) == 1:
        return "cube-uniform", wlp_cube_uniform_4vars(len(exps) - 1, exps[1])
    return None


def verdict_for(spec: ExponentSpec, k: int) -> Verdict:
    """Closed-form verdict for multiplication by a general k-th power.

    Three variables with k <= 3 use the square and cube classifications.  Four
    variables with k = 1 use the WLP for a generator of degree at most two, or
    for a cube plus at least four equal powers.  Every other case has no
    closed form here and raises ValueError.
    """
    if spec.num_vars == 3 and k in (1, 2):
        return classify_square(spec)
    if spec.num_vars == 3 and k == 3:
        return classify_cube(spec)
    if spec.num_vars == 4 and k == 1:
        ruled = _wlp_rule_4vars(spec)
        if ruled is not None:
            return ruled[1]
    raise ValueError(f"no closed-form verdict for k={k}, exponents {spec.exponents} in {spec.num_vars} variables")


@dataclass(frozen=True)
class LefschetzVerdict:
    """SLP (3 variables) or WLP (4) verdict; `checks` only for the cube-quotient rule."""

    property: str
    rule: str
    verdict: Verdict
    checks: Optional[tuple[tuple[int, Verdict], ...]] = None


def slp_verdict(spec: ExponentSpec) -> LefschetzVerdict:
    """Closed-form SLP verdict in three variables, WLP verdict in four.

    Three variables, first match: a square generator, a linear one (leaving a
    two-variable quotient), three forms (a complete intersection, which has
    the SLP), or a cube plus at least three more powers (the cube-quotient
    checks of the rest).  Four variables: the rules of
    `verdict_for`.  Anything else raises ValueError.
    """
    exps = spec.exponents
    if spec.num_vars == 3:
        _reject_non_artinian_3vars(spec)
        if 2 in exps:
            return LefschetzVerdict("SLP", "square-generator", slp_with_square_generator(spec))
        if exps[0] == 1:
            return LefschetzVerdict("SLP", "linear-generator", Verdict(MAXIMAL))
        if spec.s == 3:
            return LefschetzVerdict("SLP", "complete-intersection", Verdict(MAXIMAL))
        if exps[0] == 3 and spec.s > 3:
            # The cube quotient has the SLP exactly when the cube map has
            # maximal rank on the rest with each power b from 3 through its
            # peak adjoined.
            rest = ExponentSpec(3, exps[1:])
            p0 = peak_degree(rest)
            checks = []
            for b in range(3, p0 + 1):
                bigger = rest.adjoin(b)
                # Adjoining a generator can only lower the peak degree.
                assert peak_degree(bigger) <= p0
                checks.append((b, classify_cube(bigger)))
            by_degree = {f.degree: f for _, v in checks for f in v.failures}
            failures = tuple(by_degree[j] for j in sorted(by_degree))
            verdict = Verdict(FAILS if failures else MAXIMAL, failures)
            return LefschetzVerdict("SLP", "cube-quotient", verdict, tuple(checks))
    elif spec.num_vars == 4:
        ruled = _wlp_rule_4vars(spec)
        if ruled is not None:
            return LefschetzVerdict("WLP", *ruled)
    raise ValueError(f"no closed-form verdict for the SLP/WLP, exponents {exps} in {spec.num_vars} variables")
