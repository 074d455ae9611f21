"""Linear systems of plane curves with assigned base-point multiplicities.

Dimensions are vector-space dimensions.  The reduction pipeline mirrors the
classical toolkit: general simple points impose independent conditions,
Bezout splits off the line through the two heaviest points, Cremona
transformations shift the three heaviest multiplicities, systems in standard
form are non-special, and general double points follow the
Alexander-Hirschowitz classification.  A matrix of Taylor-coefficient
conditions over a prime field, `_conditions_dim`, is the independent oracle,
ranked at points drawn in one random block; a special draw, two coincident
points say, only lowers the rank, and a second block covers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import comb
from typing import Optional

import numpy as np

from .modp import DEFAULT_PRIME, DenseMatrix, PrimeField, matrix_rank
from .oracle import ExponentSpec, _seeded_rng
from .polyring import ci_basis, monomial_basis


class StepNotApplicable(ValueError):
    """A reduction step was requested with its precondition violated."""


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 for n < k."""
    if n < k or n < 0 or k < 0:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class PlaneSystem:
    """Curves of degree `degree` with multiplicity >= mults[i] at general points.

    Multiplicities are kept sorted descending with zeros dropped; a negative
    degree denotes the empty system.
    """

    degree: int
    mults: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(b < 0 for b in self.mults):
            raise ValueError("multiplicities must be >= 0")
        cleaned = tuple(sorted((b for b in self.mults if b > 0), reverse=True))
        object.__setattr__(self, "mults", cleaned)

    @property
    def num_points(self) -> int:
        return len(self.mults)

    def top(self, i: int) -> int:
        """i-th largest multiplicity, 0 beyond the end."""
        return self.mults[i] if i < len(self.mults) else 0

    def __str__(self) -> str:
        inner = "; " + ",".join(str(b) for b in self.mults) if self.mults else "; -"
        return f"L2({self.degree}{inner})"


def expected_dim(sys: PlaneSystem) -> int:
    """max(0, C(d+2,2) - sum C(b_i+1,2)); systems exceeding it are special."""
    val = binom(sys.degree + 2, 2) - sum(binom(b + 1, 2) for b in sys.mults)
    return max(0, val)


def is_standard_form(sys: PlaneSystem) -> bool:
    """Degree at least the sum of the three largest multiplicities."""
    return sys.degree >= 0 and sys.degree >= sys.top(0) + sys.top(1) + sys.top(2)


def cremona_step(sys: PlaneSystem) -> PlaneSystem:
    """Shift the three heaviest multiplicities by m = d - (b1+b2+b3).

    Preserves the dimension of the system.  Requires b_i + m >= 0 for the
    three affected entries (missing entries count as zero).
    """
    m = sys.degree - (sys.top(0) + sys.top(1) + sys.top(2))
    shifted = [sys.top(i) + m for i in range(3)]
    if any(b < 0 for b in shifted):
        raise StepNotApplicable(f"cremona shift {m} makes a multiplicity negative")
    return PlaneSystem(sys.degree + m, tuple(shifted) + sys.mults[3:])


def bezout_step(sys: PlaneSystem) -> PlaneSystem:
    """Split off the line through the two heaviest points when d < b1 + b2."""
    if sys.num_points < 2:
        raise StepNotApplicable("need two base points")
    if sys.degree >= sys.top(0) + sys.top(1):
        raise StepNotApplicable("degree too large for a Bezout split")
    return PlaneSystem(sys.degree - 1, (sys.top(0) - 1, sys.top(1) - 1) + sys.mults[2:])


def ah_double_dim(d: int, m: int) -> int:
    """Dimension of curves of degree d with m general double points.

    Expected dimension except for the two classical exceptions (4, 5) and
    (2, 2), where the actual dimension is one.
    """
    if d < 0 or m < 0:
        raise ValueError("need d, m >= 0")
    if (d, m) in {(4, 5), (2, 2)}:
        return 1
    return max(0, binom(d + 2, 2) - 3 * m)


def _conditions_dim(sys: PlaneSystem, field: PrimeField, pts: np.ndarray) -> int:
    """Dimension of the degree-d curves that satisfy the system's conditions at the points.

    A point (x, y, 1) of multiplicity m asks every coefficient of s^u t^v
    with u + v < m in f(x + s, y + t, 1) to vanish.  On the monomial
    x^a y^b z^c that coefficient is C(a, u) C(b, v) x^(a-u) y^(b-v), so the
    conditions are exact in every characteristic.

    The three heaviest points sit at (1:0:0), (0:1:0) and (0:0:1); the other
    n - 3 sit at (x:y:1) for the rows (x, y) of `pts`, an (n - 3) x 2 array
    of residues mod p, in multiplicity order.  Any points are ranked as
    given: coincident rows, or a row (0, 0) on top of (0:0:1), are special
    configurations whose rank may drop.  A point of multiplicity m at
    (1:0:0) kills x^a y^b z^c exactly when a > d - m, so x's cap is
    d + 1 - m; likewise y and z.  The dimension is the number of columns,
    the monomials outside those caps (`ci_basis`), less the rank of the
    other points' rows on them.  The index sets u + v < m are nested in m,
    so those points share one block over u + v < max m, each point keeping
    the rows below its own multiplicity.
    """
    d, p = sys.degree, field.modulus
    caps = tuple(d + 1 - mult for mult in sys.mults[:3]) + (None,) * (3 - sys.num_points)
    cols = ci_basis(caps, d)
    rest = sys.mults[3:]
    # A rest multiplicity above d puts the heaviest above d too: no column.
    if not rest or not len(cols):
        return len(cols)
    a, b, _ = cols.T
    # (u, v) over u + v < max m: the first two exponents of the degree
    # max m - 1 monomials in three variables.
    u, v, _ = (col[:, None] for col in monomial_basis(3, rest[0] - 1).T)
    # choose[n, k] = C(n, k) mod p.
    choose = np.array([[comb(n, k) % p for k in range(rest[0])] for n in range(d + 1)], dtype=np.int64)
    # pows[0][i, e] = x_i^e and pows[1][i, e] = y_i^e mod p.
    pows = np.ones((2, len(pts), d + 1), dtype=np.int64)
    for e in range(1, d + 1):
        pows[..., e] = pows[..., e - 1] * pts.T % p
    xpow, ypow = pows
    shared = choose[a, u] * choose[b, v] % p
    block = shared * xpow[:, np.maximum(a - u, 0)] % p * ypow[:, np.maximum(b - v, 0)] % p
    rows = block[(u + v).T < np.array(rest)[:, None]]
    return len(cols) - matrix_rank(DenseMatrix(field, rows))


def fatpoint_dim(sys: PlaneSystem, seed: int = 0) -> int:
    """Dimension of the system at general points, via the conditions matrix.

    Each point set puts its three heaviest points at the coordinate points,
    which PGL(3) may do since it moves any three non-collinear points there,
    and draws the other n - 3 in one block of random pairs over
    F_DEFAULT_PRIME (`_conditions_dim`).  The conditions rank at special
    points, a coincident pair among them, only drops, so the generic
    dimension is the smaller value over two sets; the second is drawn only
    when the first misses the expected dimension.
    """
    if sys.degree < 0:
        return 0
    field = PrimeField(DEFAULT_PRIME)
    # The multiplicities go in as (multiplicity, count) pairs: systems that
    # differ only in them draw different points, and the seed stays short.
    runs = [x for m, group in groupby(sys.mults) for x in (m, sum(1 for _ in group))]
    rng = _seeded_rng([seed, DEFAULT_PRIME, sys.degree, *runs, 0xFA7])
    size = (max(sys.num_points - 3, 0), 2)
    dim = _conditions_dim(sys, field, rng.integers(0, DEFAULT_PRIME, size=size))
    if dim != expected_dim(sys):
        dim = min(dim, _conditions_dim(sys, field, rng.integers(0, DEFAULT_PRIME, size=size)))
    return dim


@dataclass(frozen=True)
class ReductionStep:
    rule: str  # bezout | cremona | simple-points-split | terminal
    before: PlaneSystem
    after: Optional[PlaneSystem]
    stripped: int = 0
    reason: str = ""
    value: Optional[int] = None


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]

    @property
    def terminal(self) -> ReductionStep:
        return self.steps[-1]


def _terminal(sys: PlaneSystem, reason: str, value: int) -> ReductionStep:
    return ReductionStep("terminal", sys, None, reason=reason, value=value)


def system_dim(sys: PlaneSystem, seed: int = 0) -> tuple[int, ReductionTrace]:
    """Dimension of the system by reduction, with the step-by-step trace.

    Loop order: terminal checks (empty, standard form, all double points),
    then strip general simple points, then Bezout, then Cremona, re-sorting
    after every step.  Simple points only impose conditions while the
    running system is nonempty, hence the floored subtraction at the end.

    Every system reaches a terminal.  Past the checks and the strip, d >= 0,
    no point is simple and d < b1 + b2 + b3.  One point has b1 > d: the
    `few-points` terminal, value 0.  Two or more with d < b1 + b2 take a
    Bezout step.  Otherwise there are at least three points and
    m = d - b1 - b2 - b3 < 0 <= d - b1 - b2 = b3 + m, so a Cremona step
    applies.  Both steps lower the degree, and a strip happens at most once
    between two of them, so the loop ends.  `seed` is unused; it is kept
    for the benchmark workloads, which pass it.
    """
    steps: list[ReductionStep] = []
    stripped = 0
    cur = sys
    while True:
        if cur.degree < 0:
            steps.append(_terminal(cur, "empty", 0))
            break
        if is_standard_form(cur):
            steps.append(_terminal(cur, "standard-form", expected_dim(cur)))
            break
        if cur.mults and all(b == 2 for b in cur.mults):
            steps.append(_terminal(cur, "double-points", ah_double_dim(cur.degree, cur.num_points)))
            break
        if any(b == 1 for b in cur.mults):
            q = sum(1 for b in cur.mults if b == 1)
            nxt = PlaneSystem(cur.degree, tuple(b for b in cur.mults if b > 1))
            steps.append(ReductionStep("simple-points-split", cur, nxt, stripped=q))
            stripped += q
            cur = nxt
            continue
        if cur.num_points >= 2 and cur.degree < cur.top(0) + cur.top(1):
            nxt = bezout_step(cur)
            steps.append(ReductionStep("bezout", cur, nxt))
            cur = nxt
            continue
        if cur.num_points >= 3:
            nxt = cremona_step(cur)
            steps.append(ReductionStep("cremona", cur, nxt))
            cur = nxt
            continue
        steps.append(_terminal(cur, "few-points", expected_dim(cur)))
        break
    value = max(0, steps[-1].value - stripped)
    return value, ReductionTrace(tuple(steps))


def dual_system(spec: ExponentSpec, j: int, extra_power: Optional[int] = None) -> PlaneSystem:
    """The plane system dual to the degree-j piece of the quotient.

    Each exponent a_i <= j contributes a point of multiplicity j - a_i + 1;
    an optional extra power k <= j contributes j - k + 1 as well.  The
    dimension of this system equals the quotient dimension in degree j.
    """
    if spec.num_vars != 3:
        raise ValueError("duality with plane systems needs exactly three variables")
    mults = [j - a + 1 for a in spec.exponents if a <= j]
    if extra_power is not None and extra_power <= j:
        mults.append(j - extra_power + 1)
    return PlaneSystem(j, tuple(mults))
