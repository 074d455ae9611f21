"""Linear systems of plane curves with assigned base-point multiplicities.

Dimensions are vector-space dimensions.  The reduction pipeline mirrors the
classical toolkit: general simple points impose independent conditions,
Bezout splits off the line through the two heaviest points, Cremona
transformations shift the three heaviest multiplicities, systems in standard
form are non-special, and general double points follow the
Alexander-Hirschowitz classification.  A derivative-conditions matrix over a
prime field serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, perm
from typing import Optional

import numpy as np

from .modp import DEFAULT_PRIME, DenseMatrix, PrimeField, matrix_rank
from .oracle import ExponentSpec, PrimeTooSmallError
from .polyring import monomial_basis


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


def _conditions_rank(sys: PlaneSystem, field: PrimeField, rng: np.random.Generator) -> int:
    """Rank of the derivative-conditions matrix at one random point set.

    A point of multiplicity b contributes the order-(b-1) partial-derivative
    functionals; vanishing of these forces all lower orders as well (Euler),
    so the rank matches the full order-<b family.  Multiplicities above d+1
    are clamped: vanishing to order d+1 already kills every degree-d curve.
    """
    d = sys.degree
    p = field.modulus
    a, b, c = monomial_basis(3, d).T
    # falling[n, u] = n (n-1) ... (n-u+1) mod p, zero for u > n.
    falling = np.array([[perm(n, u) % p for u in range(d + 1)] for n in range(d + 1)], dtype=np.int64)
    blocks = []
    seen = set()
    for mult in sys.mults:
        while True:
            pt = (int(rng.integers(0, p)), int(rng.integers(0, p)))
            if pt not in seen:
                seen.add(pt)
                break
        xpow, ypow = (np.array([pow(t, e, p) for e in range(d + 1)], dtype=np.int64) for t in pt)
        # One row per partial derivative of that order, u, v and w times in x, y
        # and z, evaluated at (x, y, z) = (*pt, 1).
        u, v, w = (col[:, None] for col in monomial_basis(3, min(mult, d + 1) - 1).T)
        block = falling[a, u] * falling[b, v] % p * falling[c, w] % p
        block = block * xpow[np.maximum(a - u, 0)] % p * ypow[np.maximum(b - v, 0)] % p
        blocks.append(block)
    if not blocks:
        return 0
    return matrix_rank(DenseMatrix.from_reduced(field, np.vstack(blocks)))


def fatpoint_dim(
    sys: PlaneSystem, prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = 2
) -> int:
    """Dimension of the system at general points, via the conditions matrix.

    The conditions rank at special points only drops, so the generic
    dimension is the smallest value over the trials.
    """
    if sys.degree < 0:
        return 0
    if prime <= 2 * sys.degree:
        raise PrimeTooSmallError(f"prime {prime} too small for degree {sys.degree}")
    field = PrimeField(prime)
    rng = np.random.default_rng([seed, prime, sys.degree, len(sys.mults), 0xFA7])
    n_mono = binom(sys.degree + 2, 2)
    best = None
    for _ in range(max(1, trials)):
        dim = n_mono - _conditions_rank(sys, field, rng)
        best = dim if best is None else min(best, dim)
        if best == expected_dim(sys):
            break
    return best


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


def system_dim(
    sys: PlaneSystem, prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = 2
) -> tuple[int, ReductionTrace]:
    """Dimension of the system by reduction, with the step-by-step trace.

    Loop order: terminal checks (empty, standard form, all double points,
    a single heavy point), then strip general simple points, then Bezout,
    then Cremona, re-sorting after every step.  Simple points only impose
    conditions while the running system is nonempty, hence the floored
    subtraction at the end.  A step cap guards against cycling; past it the
    conditions-matrix oracle is used directly.
    """
    steps: list[ReductionStep] = []
    stripped = 0
    cur = sys
    cap = 10 * (max(sys.degree, 1) + sys.num_points + 1)
    for _ in range(cap):
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
        m = cur.degree - (cur.top(0) + cur.top(1) + cur.top(2))
        if cur.num_points >= 3 and m != 0 and all(cur.top(i) + m >= 0 for i in range(3)):
            nxt = cremona_step(cur)
            steps.append(ReductionStep("cremona", cur, nxt))
            cur = nxt
            continue
        if cur.num_points <= 2:
            steps.append(_terminal(cur, "few-points", expected_dim(cur)))
            break
        steps.append(_terminal(cur, "oracle", fatpoint_dim(cur, prime, seed, trials)))
        break
    else:
        steps.append(_terminal(cur, "oracle", fatpoint_dim(cur, prime, seed, trials)))
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
