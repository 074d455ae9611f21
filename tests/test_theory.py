import pytest
from hypothesis import given
from hypothesis import strategies as st

from leflab.oracle import ExponentSpec, NonArtinianError
from leflab.theory import (
    FAILS,
    MAXIMAL,
    classify_cube,
    classify_square,
    failing_powers_after_cube,
    line_condition_sum,
    peak_degree,
    slp_verdict,
    slp_with_square_generator,
    verdict_for,
    wlp_cube_uniform_4vars,
    wlp_with_square_generator_4vars,
)

exponent_lists = st.lists(st.integers(min_value=1, max_value=25), min_size=2, max_size=9)


def count_at_most(spec, j):
    """The counting vector of the exponents: how many are at most j."""
    return sum(1 for a in spec.exponents if a <= j)


def count_partial_sum(spec, j):
    return sum(count_at_most(spec, i) for i in range(j + 1))


def uniform_peak(s, t):
    """The peak degree of s copies of t in closed form."""
    return t - 1 if s >= t + 1 else s * (t - 1) // (s - 1)


@given(exponent_lists, st.integers(min_value=0, max_value=40))
def test_condition_sum_equals_count_partial_sum(exps, j):
    spec = ExponentSpec(3, tuple(exps))
    assert line_condition_sum(spec, j) == count_partial_sum(spec, j)


@given(exponent_lists)
def test_peak_degree_defining_inequalities(exps):
    spec = ExponentSpec(3, tuple(exps))
    p = peak_degree(spec)
    assert count_partial_sum(spec, p) <= p
    assert count_partial_sum(spec, p + 1) >= p + 2
    assert count_at_most(spec, p + 1) > 0


@given(exponent_lists, st.integers(min_value=1, max_value=25))
def test_peak_can_only_drop_when_adjoining(exps, b):
    spec = ExponentSpec(3, tuple(exps))
    assert peak_degree(spec.adjoin(b)) <= peak_degree(spec)


@given(exponent_lists, st.integers(min_value=2, max_value=25))
def test_peak_stable_when_low_counts_vanish(exps, b):
    spec = ExponentSpec(3, tuple(exps))
    p = peak_degree(spec)
    if p >= 2 and count_at_most(spec, p - 1) == 0 and count_at_most(spec, p) <= 1:
        assert peak_degree(spec.adjoin(b)) == p


def test_peak_degree_examples():
    assert peak_degree(ExponentSpec(3, (5,) * 6)) == 4
    assert peak_degree(ExponentSpec(3, (3, 3, 3, 3))) == 2
    assert peak_degree(ExponentSpec(3, (2, 3, 4, 5, 6))) == 3
    with pytest.raises(ValueError):
        peak_degree(ExponentSpec(3, (4,)))


def test_peak_degree_uniform_examples():
    assert peak_degree(ExponentSpec(3, (5,) * 6)) == 4
    assert peak_degree(ExponentSpec(3, (6,) * 4)) == 6
    assert peak_degree(ExponentSpec(3, (3,) * 4)) == 2


def test_peak_degree_uniform_agrees_with_general():
    # s copies of t peak at t-1 if s >= t+1, else at floor(s(t-1)/(s-1)).
    for s in range(2, 31):
        for t in range(1, 31):
            assert peak_degree(ExponentSpec(3, (t,) * s)) == uniform_peak(s, t), (s, t)


def test_classify_square_always_maximal():
    for exps in ((6,) * 5, (2, 3, 4, 5), (3, 3, 3, 3)):
        verdict = classify_square(ExponentSpec(3, exps))
        assert verdict.status == MAXIMAL
        assert "peak" in verdict.witness
    with pytest.raises(NonArtinianError):
        classify_square(ExponentSpec(3, (3, 3)))


def test_classify_cube_examples():
    v = classify_cube(ExponentSpec(3, (3, 3, 3, 3)))
    assert v.status == FAILS and v.failing_degrees == (4,)
    assert v.failures[0].kernel_dim == 1 and v.failures[0].cokernel_dim == 1
    assert v.witness["equal_dims_low"] == 1 and v.witness["equal_dims_high"] == 4

    assert classify_cube(ExponentSpec(3, (2, 3, 4, 5, 6))).status == MAXIMAL

    v = classify_cube(ExponentSpec(3, (5,) * 6))
    assert v.status == FAILS and v.failing_degrees == (6,)


def test_classify_cube_small_cases():
    # Complete intersections and ideals with a linear generator have the SLP.
    assert classify_cube(ExponentSpec(3, (4, 5, 6))).status == MAXIMAL
    assert classify_cube(ExponentSpec(3, (1, 4, 4, 4, 4))).status == MAXIMAL
    with pytest.raises(NonArtinianError):
        classify_cube(ExponentSpec(3, (4, 4)))


def test_classify_cube_never_fails_right_after_peak():
    # The degree right after the peak always has maximal rank for cubes.
    import numpy as np

    rng = np.random.default_rng(67)
    for _ in range(300):
        s = int(rng.integers(3, 9))
        exps = tuple(int(x) for x in rng.integers(1, 15, size=s))
        spec = ExponentSpec(3, exps)
        v = classify_cube(spec)
        p = peak_degree(spec)
        assert p + 1 not in v.failing_degrees


def uniform_cube(s, t):
    return classify_cube(ExponentSpec(3, (t,) * s))


def test_classify_cube_uniform_examples():
    v = uniform_cube(6, 5)
    assert v.status == FAILS and v.failing_degrees == (6,)
    assert uniform_cube(4, 4).status == MAXIMAL
    for t in range(1, 20):
        assert uniform_cube(5, t).status == MAXIMAL


def test_classify_cube_uniform_agrees_with_general():
    # s copies of t fail iff s >= 4 is even and s-1 divides t, in the single
    # degree st/(s-1), with equal dimensions in degrees st/(s-1) - 3 and st/(s-1).
    for s in range(3, 13):
        for t in range(1, 31):
            v = uniform_cube(s, t)
            if s >= 4 and s % 2 == 0 and t % (s - 1) == 0:
                j = s * t // (s - 1)
                assert v.status == FAILS and v.failing_degrees == (j,), (s, t)
                assert v.witness["peak"] == uniform_peak(s, t), (s, t)
                assert (v.witness["equal_dims_low"], v.witness["equal_dims_high"]) == (j - 3, j), (s, t)
            else:
                assert v.status == MAXIMAL and v.failing_degrees == (), (s, t)


def test_slp_with_square_generator():
    assert slp_with_square_generator(ExponentSpec(3, (2, 3, 4, 5))).status == MAXIMAL
    assert slp_with_square_generator(ExponentSpec(3, (2, 2, 2))).status == MAXIMAL
    assert slp_with_square_generator(ExponentSpec(3, (2, 7, 7, 7, 7))).status == MAXIMAL
    with pytest.raises(ValueError):
        slp_with_square_generator(ExponentSpec(3, (3, 3, 3)))


def test_wlp_with_square_generator_4vars():
    assert wlp_with_square_generator_4vars(ExponentSpec(4, (2, 3, 3, 3))).status == MAXIMAL
    assert wlp_with_square_generator_4vars(ExponentSpec(4, (2, 4, 4, 4, 4))).status == MAXIMAL
    assert wlp_with_square_generator_4vars(ExponentSpec(4, (1, 9, 9, 9, 9))).status == MAXIMAL
    with pytest.raises(ValueError):
        wlp_with_square_generator_4vars(ExponentSpec(4, (3, 3, 3, 3)))


def cube_quotient(s, t):
    """The SLP answer for a cube plus s copies of t."""
    answer = slp_verdict(ExponentSpec(3, (3,) + (t,) * s))
    assert answer.rule == "cube-quotient"
    return answer


def test_slp_after_cube_quotient():
    answer = cube_quotient(5, 5)
    assert answer.verdict.status == FAILS
    failing = [(b, v) for b, v in answer.checks if v.status == FAILS]
    assert len(failing) == 1
    b, v = failing[0]
    assert b == 5 and v.failing_degrees == (6,)

    assert cube_quotient(4, 4).verdict.status == MAXIMAL
    assert cube_quotient(5, 4).verdict.status == MAXIMAL


def test_slp_after_cube_quotient_uniform():
    assert cube_quotient(5, 5).verdict.status == FAILS
    assert cube_quotient(5, 4).verdict.status == MAXIMAL
    assert cube_quotient(4, 100).verdict.status == MAXIMAL


def test_slp_uniform_agrees_with_per_power_checks():
    # The cube quotient of s copies of t has the SLP iff not (s odd and t >= s).
    for s in range(3, 9):
        for t in range(3, 12):
            answer = cube_quotient(s, t)
            has_slp = all(v.status == MAXIMAL for _, v in answer.checks)
            assert (answer.verdict.status == MAXIMAL) == has_slp, (s, t)
            assert has_slp == (not (s % 2 == 1 and t >= s)), (s, t)


def test_failing_powers_after_cube():
    fp = failing_powers_after_cube(5, 14, 17)
    assert fp.asserted == {5, 10}
    assert fp.conjectured == {15}
    with pytest.raises(ValueError):
        failing_powers_after_cube(4, 10, 12)
    with pytest.raises(ValueError):
        failing_powers_after_cube(5, 4, 12)


def test_wlp_cube_uniform_4vars():
    v = wlp_cube_uniform_4vars(4, 3)
    assert v.status == FAILS and v.failing_degrees == (4,)
    assert v.failures[0].cokernel_dim == 1
    for t in range(3, 12):
        assert wlp_cube_uniform_4vars(5, t).status == MAXIMAL
    v = wlp_cube_uniform_4vars(6, 5)
    assert v.status == FAILS and v.failing_degrees == (6,)
    with pytest.raises(ValueError):
        wlp_cube_uniform_4vars(3, 5)


def test_verdict_validation():
    from leflab.theory import DegreeFailure, Verdict

    with pytest.raises(ValueError):
        Verdict("bogus")
    with pytest.raises(ValueError):
        Verdict(FAILS)
    with pytest.raises(ValueError):
        Verdict(MAXIMAL, (DegreeFailure(4, 1, 1),))


def _failures(spec, k):
    return tuple((f.degree, f.deficiency) for f in verdict_for(spec, k).failures)


def test_verdict_for_dispatch():
    assert _failures(ExponentSpec(3, (3, 3, 3, 3)), 3) == ((4, 1),)
    assert _failures(ExponentSpec(3, (2, 3, 4)), 1) == ()
    assert _failures(ExponentSpec(3, (2, 3, 4)), 2) == ()
    assert _failures(ExponentSpec(4, (2, 6, 6, 6, 6)), 1) == ()
    assert _failures(ExponentSpec(4, (3, 3, 3, 3, 3)), 1) == ((4, 1),)
    with pytest.raises(ValueError):
        verdict_for(ExponentSpec(3, (3, 3, 3, 3)), 4)
    with pytest.raises(ValueError):
        verdict_for(ExponentSpec(4, (4, 4, 4, 4)), 1)
    # The four-variable cube result needs a cube and equal remaining powers.
    for exps in ((4, 4, 4, 4, 4), (3, 4, 4, 4, 5), (3, 4, 4, 4)):
        with pytest.raises(ValueError):
            verdict_for(ExponentSpec(4, exps), 1)
