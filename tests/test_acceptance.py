"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (integer equality); the stated wall-clock
budgets are asserted as well.
"""

import time
from itertools import combinations_with_replacement

import numpy as np

import leflab as L
from leflab.linsys import PlaneSystem, dual_system, expected_dim, fatpoint_dim, system_dim
from leflab.oracle import random_form
from leflab import theory


def _verdict(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.1f}s, budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {num} ({name}): {elapsed:.1f}s over budget {budget}s"


def test_criterion_01_golden_case_four_cubes():
    t0 = time.perf_counter()
    sample = L.sample_ideal(L.ExponentSpec(3, (3, 3, 3, 3)))
    hd = L.hilbert_function(sample)
    rep = L.mult_rank_report(sample, 3, 4)
    failures = L.lefschetz_scan(sample, 3)
    ok = (
        hd == (1, 3, 6, 6, 3)
        and (rep.rank, rep.kernel_dim, rep.cokernel_dim) == (2, 1, 1)
        and failures == [(4, 1)]
    )
    _verdict(1, "golden case (3,3,3,3)", ok, time.perf_counter() - t0, 1.0,
             f"hf={list(hd)} rank={rep.rank} failures={failures}")


def test_criterion_02_square_maximal_rank_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    bad = []
    for i in range(200):
        s = int(rng.integers(3, 8))
        exps = tuple(int(x) for x in rng.integers(2, 8, size=s))
        sample = L.sample_ideal(L.ExponentSpec(3, exps), seed=i)
        failures = L.lefschetz_scan(sample, 2)
        if failures:
            bad.append((exps, failures))
    _verdict(2, "square sweep, 200 random specs", not bad, time.perf_counter() - t0, 120.0,
             f"failures={bad[:3]}")


def test_criterion_03_cube_classification_sweep():
    t0 = time.perf_counter()
    bad = []
    total = failing = 0
    for s in (4, 5, 6):
        for combo in combinations_with_replacement(range(2, 7), s):
            total += 1
            spec = L.ExponentSpec(3, combo)
            sample = L.sample_ideal(spec)
            verdict = theory.classify_cube(spec)
            predicted = verdict.failures
            observed = tuple(L.lefschetz_scan(sample, 3))
            if observed != predicted:
                bad.append((combo, observed, predicted))
                continue
            if predicted:
                failing += 1
                p = verdict.witness["peak"]
                hd = L.hilbert_function(sample)
                rep = L.mult_rank_report(sample, 3, p + 2)
                if hd[p - 1] != hd[p + 2]:
                    bad.append((combo, "domain/codomain dims differ"))
                if rep.cokernel_dim != 1 or rep.kernel_dim != 1:
                    bad.append((combo, "kernel/cokernel not one", rep))
    _verdict(3, "cube sweep, all specs 4<=s<=6, 2<=a<=6", not bad, time.perf_counter() - t0,
             600.0, f"specs={total} failing={failing} bad={bad[:3]}")


def test_criterion_04_uniform_cube_failures():
    t0 = time.perf_counter()
    bad = []
    for s in (4, 6, 8):
        for mult in (1, 2, 3):
            t = mult * (s - 1)
            sample = L.sample_ideal(L.ExponentSpec(3, (t,) * s))
            observed = L.lefschetz_scan(sample, 3, trials=3)
            want = [(s * t // (s - 1), 1)]
            if observed != want:
                bad.append((s, t, observed, want))
    for s, t in ((5, 4), (5, 8), (7, 6), (4, 4), (6, 7), (8, 9)):
        sample = L.sample_ideal(L.ExponentSpec(3, (t,) * s))
        observed = L.lefschetz_scan(sample, 3, trials=3)
        if observed:
            bad.append((s, t, observed, "expected none"))
    _verdict(4, "uniform cube corollary", not bad, time.perf_counter() - t0, 300.0, f"{bad[:3]}")


def test_criterion_05_double_point_exceptions():
    t0 = time.perf_counter()
    bad = []
    for d in range(0, 9):
        for m in range(0, 13):
            got = fatpoint_dim(PlaneSystem(d, (2,) * m))
            want = 1 if (d, m) in ((4, 5), (2, 2)) else expected_dim(PlaneSystem(d, (2,) * m))
            if got != want:
                bad.append((d, m, got, want))
    ok = not bad and fatpoint_dim(PlaneSystem(4, (2,) * 5)) == 1 and fatpoint_dim(PlaneSystem(2, (2, 2))) == 1
    _verdict(5, "double-point table d<=8, m<=12", ok, time.perf_counter() - t0, 60.0, f"{bad[:3]}")


def test_criterion_06_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    bad = []
    for i in range(100):
        s = int(rng.integers(3, 7))
        exps = tuple(int(x) for x in rng.integers(1, 8, size=s))
        spec = L.ExponentSpec(3, exps)
        sample = L.sample_ideal(spec, seed=i)
        j = int(rng.integers(0, L.regularity(sample) + 2))
        quo = L.quotient_dim(sample, j)
        dim, _ = system_dim(dual_system(spec, j), seed=i)
        if quo != dim:
            bad.append((exps, j, quo, dim))
    _verdict(6, "fat-point duality, 100 random pairs", not bad, time.perf_counter() - t0, 120.0,
             f"{bad[:3]}")


def test_criterion_07_higher_powers_fail_in_more_variables():
    t0 = time.perf_counter()
    s4a = L.sample_ideal(L.ExponentSpec(4, (2, 4, 4, 4, 4)))
    f4a = L.lefschetz_scan(s4a, 3, trials=2)
    s4b = L.sample_ideal(L.ExponentSpec(4, (2, 6, 6, 6, 6)))
    f4b = L.lefschetz_scan(s4b, 2, trials=2)
    s5 = L.sample_ideal(L.ExponentSpec(5, (2, 2, 6, 6, 6, 6)))
    f5 = L.lefschetz_scan(s5, 1, trials=2)
    ok = (
        len(f4a) == 1 and f4a[0][1] == 1
        and len(f4b) == 1 and f4b[0][1] == 1
        and len(f5) >= 1
    )
    _verdict(7, "failures beyond three variables", ok, time.perf_counter() - t0, 60.0,
             f"k3={f4a} k2={f4b} k1={f5}")


def test_criterion_08_four_variable_uniform_wlp():
    t0 = time.perf_counter()
    bad = []
    for s in (4, 5, 6):
        for t in range(3, 10):
            spec = L.ExponentSpec(4, (3,) + (t,) * s)
            sample = L.sample_ideal(spec)
            observed = L.lefschetz_scan(sample, 1, trials=2)
            verdict = theory.verdict_for(spec, 1)
            predicted = [(f.degree, 1) for f in verdict.failures]
            if observed != predicted:
                bad.append((s, t, observed, predicted))
                continue
            if predicted:
                degree = predicted[0][0]
                if degree != s * t // (s - 1):
                    bad.append((s, t, "wrong degree", degree))
                rep = L.mult_rank_report(sample, 1, degree, trials=2)
                if rep.cokernel_dim != 1:
                    bad.append((s, t, "cokernel", rep))
    _verdict(8, "four-variable uniform WLP, s in 4..6, t in 3..9", not bad,
             time.perf_counter() - t0, 600.0, f"{bad[:3]}")


def test_criterion_09_failing_powers_instance():
    t0 = time.perf_counter()
    spec = L.ExponentSpec(3, (3,) + (14,) * 5)
    sample = L.sample_ideal(spec)
    reg = L.regularity(sample)
    observed = {}
    for b in range(3, 15):
        failures = tuple(L.lefschetz_scan(sample, b, trials=2))
        if failures:
            observed[b] = failures
    conjecture_scan = tuple(L.lefschetz_scan(sample, 15, trials=2))
    predicted = {b: theory.verdict_for(spec, b).failures for b in range(3, 16)}
    ok = (
        reg == 17
        and set(observed) == {5, 10}
        and predicted == {b: observed.get(b, ()) for b in range(3, 15)} | {15: conjecture_scan}
        and all(len(f) == 1 and f[0].deficiency == 1 for f in observed.values())
        and len(conjecture_scan) == 1 and conjecture_scan[0].deficiency == 1
    )
    _verdict(9, "failing powers for (3,14^5)", ok, time.perf_counter() - t0, 300.0,
             f"reg={reg} failing={observed} conjectured_b15={conjecture_scan}")


def test_criterion_10_peak_equals_linear_quotient_regularity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    bad = []
    for i in range(100):
        s = int(rng.integers(2, 7))
        exps = tuple(int(x) for x in rng.integers(1, 9, size=s))
        spec = L.ExponentSpec(3, exps)
        sample = L.sample_ideal(spec, seed=i)
        form = random_form(sample.field, 3, np.random.default_rng([i, 99]))
        got = L.regularity(sample.adjoin_form(form, 1))
        want = theory.peak_degree(spec)
        if got != want:
            bad.append((exps, got, want))
    _verdict(10, "peak degree identity, 100 random specs", not bad, time.perf_counter() - t0,
             120.0, f"{bad[:3]}")


def test_criterion_11_reduction_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    bad = []
    for i in range(200):
        d = int(rng.integers(0, 11))
        n = int(rng.integers(0, 9))
        mults = tuple(int(x) for x in rng.integers(0, max(d, 2) + 2, size=n))
        sys_ = PlaneSystem(d, mults)
        via_reduction, _ = system_dim(sys_, seed=i)
        via_oracle = fatpoint_dim(sys_, seed=1000 + i)
        if via_reduction != via_oracle:
            bad.append((d, mults, via_reduction, via_oracle))
    _verdict(11, "reduction soundness, 200 random systems", not bad, time.perf_counter() - t0,
             120.0, f"{bad[:3]}")
