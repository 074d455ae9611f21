import pytest
from hypothesis import given
from hypothesis import strategies as st

from leflab.oracle import ExponentSpec, NonArtinianError
from leflab.theory import (
    EXCHANGE_CONCLUSION,
    FAILS,
    MAXIMAL,
    ExchangeFacts,
    classify_cube,
    classify_cube_uniform,
    classify_square,
    exchange_implication,
    exponent_counts,
    failing_powers_after_cube,
    injectivity_certificate,
    line_condition_sum,
    peak_degree,
    peak_degree_uniform,
    slp_after_cube_quotient,
    slp_after_cube_quotient_uniform,
    slp_with_square_generator,
    verdict_for,
    wlp_cube_uniform_4vars,
    wlp_with_square_generator_4vars,
)

exponent_lists = st.lists(st.integers(min_value=1, max_value=25), min_size=2, max_size=9)


def test_exponent_counts_examples():
    c = exponent_counts(ExponentSpec(3, (2, 3, 4, 5, 6)), 6)
    assert c.at(2) == 1 and c.at(4) == 3 and c.at(6) == 5
    c = exponent_counts(ExponentSpec(3, (5,) * 6), 6)
    assert c.at(4) == 0 and c.at(5) == 6
    assert c.at(100) == 6  # saturates at s once all exponents are counted
    assert c.at(-1) == 0


@given(exponent_lists, st.integers(min_value=0, max_value=40))
def test_condition_sum_equals_count_partial_sum(exps, j):
    spec = ExponentSpec(3, tuple(exps))
    counts = exponent_counts(spec, j)
    assert line_condition_sum(spec, j) == counts.partial_sum(j)


@given(exponent_lists)
def test_peak_degree_defining_inequalities(exps):
    spec = ExponentSpec(3, tuple(exps))
    p = peak_degree(spec)
    counts = exponent_counts(spec, p + 1)
    assert counts.partial_sum(p) <= p
    assert counts.partial_sum(p + 1) >= p + 2
    assert counts.at(p + 1) > 0


@given(exponent_lists, st.integers(min_value=1, max_value=25))
def test_peak_can_only_drop_when_adjoining(exps, b):
    spec = ExponentSpec(3, tuple(exps))
    assert peak_degree(spec.adjoin(b)) <= peak_degree(spec)


@given(exponent_lists, st.integers(min_value=2, max_value=25))
def test_peak_stable_when_low_counts_vanish(exps, b):
    spec = ExponentSpec(3, tuple(exps))
    p = peak_degree(spec)
    counts = exponent_counts(spec, max(p, 0))
    if p >= 2 and counts.at(p - 1) == 0 and counts.at(p) <= 1:
        assert peak_degree(spec.adjoin(b)) == p


def test_peak_degree_examples():
    assert peak_degree(ExponentSpec(3, (5,) * 6)) == 4
    assert peak_degree(ExponentSpec(3, (3, 3, 3, 3))) == 2
    assert peak_degree(ExponentSpec(3, (2, 3, 4, 5, 6))) == 3
    with pytest.raises(ValueError):
        peak_degree(ExponentSpec(3, (4,)))


def test_peak_degree_uniform_examples():
    assert peak_degree_uniform(6, 5) == 4
    assert peak_degree_uniform(4, 6) == 6
    assert peak_degree_uniform(4, 3) == 2


def test_peak_degree_uniform_agrees_with_general():
    for s in range(2, 31):
        for t in range(1, 31):
            assert peak_degree_uniform(s, t) == peak_degree(ExponentSpec(3, (t,) * s))


def test_injectivity_certificate_examples():
    assert injectivity_certificate(ExponentSpec(3, (3, 3, 3, 3)), 3, 4) == 0
    assert injectivity_certificate(ExponentSpec(3, (2, 2, 2)), 2, 2) == 2
    assert injectivity_certificate(ExponentSpec(3, (3,)), 3, 4) == 9
    with pytest.raises(ValueError):
        injectivity_certificate(ExponentSpec(3, (3, 3)), 2, 2)


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


def test_classify_cube_uniform_examples():
    v = classify_cube_uniform(6, 5)
    assert v.status == FAILS and v.failing_degrees == (6,)
    assert classify_cube_uniform(4, 4).status == MAXIMAL
    for t in range(1, 20):
        assert classify_cube_uniform(5, t).status == MAXIMAL


def test_classify_cube_uniform_agrees_with_general():
    for s in range(2, 13):
        for t in range(1, 31):
            uniform = classify_cube_uniform(s, t)
            general = classify_cube(ExponentSpec(3, (t,) * s)) if s >= 3 else None
            if general is None:
                continue
            assert uniform.status == general.status, (s, t)
            assert uniform.failing_degrees == general.failing_degrees, (s, t)


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


def test_slp_after_cube_quotient():
    report = slp_after_cube_quotient(ExponentSpec(3, (5,) * 5))
    assert not report.has_slp
    failing = [(b, v) for b, v in report.checks if v.status == FAILS]
    assert len(failing) == 1
    b, v = failing[0]
    assert b == 5 and v.failing_degrees == (6,)

    assert slp_after_cube_quotient(ExponentSpec(3, (4,) * 4)).has_slp
    assert slp_after_cube_quotient(ExponentSpec(3, (4,) * 5)).has_slp


def test_slp_after_cube_quotient_uniform():
    assert not slp_after_cube_quotient_uniform(5, 5)
    assert slp_after_cube_quotient_uniform(5, 4)
    assert slp_after_cube_quotient_uniform(4, 100)


def test_slp_uniform_agrees_with_per_power_checks():
    for s in range(3, 9):
        for t in range(3, 12):
            report = slp_after_cube_quotient(ExponentSpec(3, (t,) * s))
            assert report.has_slp == slp_after_cube_quotient_uniform(s, t), (s, t)


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


def test_exchange_implication():
    base = dict(b=4, k=2)
    variant_b = ExchangeFacts(**base, power_k_max_on_quotient_by_b=True, power_b_max_on_base=True)
    assert exchange_implication(variant_b) == EXCHANGE_CONCLUSION

    variant_a = ExchangeFacts(
        **base, wlp_base=True, power_k_max_on_base=True, power_k_max_on_quotient_by_b=True
    )
    assert exchange_implication(variant_a) == EXCHANGE_CONCLUSION

    # b < k disables variant (a).
    small_b = ExchangeFacts(
        b=1, k=2, wlp_base=True, power_k_max_on_base=True, power_k_max_on_quotient_by_b=True
    )
    assert exchange_implication(small_b) is None

    partial = ExchangeFacts(**base, power_k_max_on_quotient_by_b=True)
    assert exchange_implication(partial) is None


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
