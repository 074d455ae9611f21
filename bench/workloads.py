"""The benchmark's workloads: inputs made from a seed, one callable per item.

Every item does its work through leflab's public entry points and returns
whether the answer matched an independent reference.  The seed only picks
sample seeds and random multiplicities.  The shapes and their order are fixed
per workload, so every seed costs about the same and each item meets the same
warm caches (such as `monomial_basis`) left by the items before it.

sweep3  The default `leflab verify` cube sweep (k=3, s 4..6, exponents 2..6,
        406 multisets), one in-process CLI call per multiset: thousands of
        tiny matrices, so per-pivot overhead, sampling and cache misses count.
wlp4    The 4-variable scans of acceptance criteria 07 and 08 (criterion 08
        with t <= 7).  Each failing degree is re-ranked by the
        standard-monomial route.  Large dense pieces: multiplication
        matrices, echelon forms, the largest memory peak of the three.
        Criterion 07's 5-variable scan is left out: it alone takes ~9 s, and
        with it a run holds too few passes for steady latency medians.
planes  `linsys` only: the Alexander-Hirschowitz table (d <= 16, m <= 40) and
        84 random systems of 2, 4, 6 or 8 points with d < 21 and expected
        dimension near zero, where the reduction must match the
        conditions-matrix oracle.  No polyring or oracle work.  The planned
        d <= 20 table and d < 25 systems take ~12 s a pass, too long for
        enough passes in a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations_with_replacement
from typing import Callable

from leflab import cli, linsys, modp, oracle, polyring, theory

Item = Callable[[], bool]

SCAN_TRIALS = 2


def _verify_item(spec: tuple[int, ...], seed: int) -> Item:
    argv = [
        "verify", "--vars", "3", "--k", "3",
        "--specs", ",".join(map(str, spec)),
        "--seed", str(seed), "--prime", str(modp.DEFAULT_PRIME),
    ]

    def run() -> bool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        rows = json.loads(out.getvalue())["rows"]
        return code == 0 and len(rows) == 1 and rows[0]["agree"]

    return run


def sweep3(rng: random.Random) -> list[Item]:
    return [
        _verify_item(combo, rng.randrange(2**31))
        for s in range(4, 7)
        for combo in combinations_with_replacement(range(2, 7), s)
    ]


def _one_failure(failures) -> bool:
    return len(failures) == 1 and failures[0][1] == 1


def _matches_wlp_theory(s: int, t: int) -> Callable[[list], bool]:
    def check(failures) -> bool:
        verdict = theory.wlp_cube_uniform_4vars(s, t)
        return failures == [(f.degree, 1) for f in verdict.failures]

    return check


def _scan_item(num_vars: int, exponents: tuple[int, ...], k: int, check, seed: int) -> Item:
    def run() -> bool:
        sample = oracle.sample_ideal(oracle.ExponentSpec(num_vars, exponents), seed=seed)
        failures = oracle.lefschetz_scan(sample, k, trials=SCAN_TRIALS)
        if not check(failures):
            return False
        p = sample.field.modulus
        form_rng = random.Random(seed)
        for j, deficiency in failures:
            report = oracle.mult_rank_report(sample, k, j, trials=SCAN_TRIALS)
            form = polyring.LinearFormRep(tuple(form_rng.randrange(1, p) for _ in range(num_vars)))
            quotient_rank = modp.matrix_rank(oracle.mult_matrix_on_quotient(sample, form, k, j))
            if report.deficiency != deficiency or quotient_rank != report.rank:
                return False
        return True

    return run


def wlp4(rng: random.Random) -> list[Item]:
    cases = [
        (4, (2, 4, 4, 4, 4), 3, _one_failure),
        (4, (2, 6, 6, 6, 6), 2, _one_failure),
    ]
    cases += [
        (4, (3,) + (t,) * s, 1, _matches_wlp_theory(s, t))
        for s in range(4, 7)
        for t in range(3, 8)
    ]
    return [_scan_item(*case, rng.randrange(2**31)) for case in cases]


def _double_point_item(d: int, m: int, seed: int) -> Item:
    def run() -> bool:
        return linsys.fatpoint_dim(linsys.PlaneSystem(d, (2,) * m), seed=seed) == linsys.ah_double_dim(d, m)

    return run


def _reduction_item(d: int, mults: tuple[int, ...], seed: int) -> Item:
    def run() -> bool:
        system = linsys.PlaneSystem(d, mults)
        dim, _ = linsys.system_dim(system, seed=seed)
        return dim == linsys.fatpoint_dim(system, seed=seed + 1)

    return run


def _near_empty_mults(rng: random.Random, d: int, n: int) -> tuple[int, ...]:
    """n random multiplicities imposing just under C(d+2, 2) conditions.

    Random points are raised one order at a time until the next raise would
    pass C(d+2, 2), so the expected dimension is close to zero (where special
    systems live) and the conditions matrix of every seed is about square.
    """
    mults = [0] * n
    conditions = 0
    target = linsys.binom(d + 2, 2)
    while True:
        i = rng.randrange(n)
        if conditions + mults[i] + 1 > target:
            return tuple(mults)
        conditions += mults[i] + 1
        mults[i] += 1


def planes(rng: random.Random) -> list[Item]:
    items = [
        _double_point_item(d, m, rng.randrange(2**31))
        for d in range(17)
        for m in range(41)
    ]
    for d in range(21):
        for n in (2, 4, 6, 8):
            items.append(_reduction_item(d, _near_empty_mults(rng, d, n), rng.randrange(2**31)))
    return items


WORKLOADS = {"sweep3": sweep3, "wlp4": wlp4, "planes": planes}


def build(name: str, seed: int) -> list[Item]:
    """The items of one workload pass."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
