"""Theory-versus-oracle verification sweeps with machine-readable rows.

Each sweep point is one (exponent multiset, power) pair: the closed-form
engine predicts the failures, the exact oracle scans them, and the row holds
both as `DegreeFailure` records; the two agree when the records are equal.
A disagreeing point is retried once before being reported, on the fixed
`SECOND_PRIME` with the next seed and three times the trials, since a
single random sample can under-shoot the generic rank but never exceed it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

from .modp import DEFAULT_PRIME, PrimeField
from .oracle import DEFAULT_TRIALS, DegreeFailure, ExponentSpec, lefschetz_scan, sample_ideal
from . import theory

SECOND_PRIME = 2147483629


@dataclass(frozen=True)
class SweepConfig:
    num_vars: int = 3
    k: int = 3
    specs: Optional[tuple[tuple[int, ...], ...]] = None
    s_range: tuple[int, int] = (4, 6)
    exp_range: tuple[int, int] = (2, 6)
    prime: int = DEFAULT_PRIME
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need k >= 1")
        PrimeField(self.prime)  # a bad prime fails here, not mid-sweep
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if self.specs is None:
            if self.s_range[0] > self.s_range[1] or self.exp_range[0] > self.exp_range[1]:
                raise ValueError("empty sweep range")
            if self.s_range[0] < 1:
                raise ValueError(f"sweep range s = {self.s_range[0]}..{self.s_range[1]} needs s >= 1")
            if self.exp_range[0] < 1:
                raise ValueError("exponents must be >= 1")


@dataclass(frozen=True)
class VerificationRow:
    exponents: tuple[int, ...]
    k: int
    theory_failures: tuple[DegreeFailure, ...]
    oracle_failures: tuple[DegreeFailure, ...]
    millis: int
    retried: bool = False

    @property
    def agree(self) -> bool:
        return self.theory_failures == self.oracle_failures


def enumerate_specs(config: SweepConfig) -> list[ExponentSpec]:
    if config.specs is not None:
        return [ExponentSpec(config.num_vars, tuple(e)) for e in config.specs]
    lo, hi = config.exp_range
    out = []
    for s in range(config.s_range[0], config.s_range[1] + 1):
        for combo in combinations_with_replacement(range(lo, hi + 1), s):
            out.append(ExponentSpec(config.num_vars, combo))
    return out


def _oracle_failures(
    spec: ExponentSpec, k: int, prime: int, seed: int, trials: int
) -> tuple[DegreeFailure, ...]:
    sample = sample_ideal(spec, prime=prime, seed=seed)
    return tuple(lefschetz_scan(sample, k, trials))


def run_verification(config: SweepConfig) -> tuple[list[VerificationRow], dict]:
    """One row per sweep point, in deterministic spec order, plus a summary."""
    rows = []
    for spec in enumerate_specs(config):
        start = time.perf_counter()
        predicted = theory.verdict_for(spec, config.k).failures
        observed = _oracle_failures(spec, config.k, config.prime, config.seed, config.trials)
        retried = observed != predicted
        if retried:
            # Could be a special sample; retry on a second prime with more trials.
            observed = _oracle_failures(spec, config.k, SECOND_PRIME, config.seed + 1, 3 * config.trials)
        millis = int(round(1000 * (time.perf_counter() - start)))
        rows.append(VerificationRow(spec.exponents, config.k, predicted, observed, millis, retried))
    disagreements = sum(1 for r in rows if not r.agree)
    summary = {
        "rows": len(rows),
        "agreements": len(rows) - disagreements,
        "disagreements": disagreements,
    }
    return rows, summary
