import numpy as np
import pytest

from leflab.linsys import (
    PlaneSystem,
    StepNotApplicable,
    _conditions_rank,
    ah_double_dim,
    bezout_step,
    binom,
    cremona_step,
    dual_system,
    expected_dim,
    fatpoint_dim,
    is_standard_form,
    system_dim,
)
from leflab.modp import DenseMatrix, PrimeField, matrix_rank
from leflab.oracle import ExponentSpec
from leflab.polyring import monomial_basis


def test_normalization():
    sys_ = PlaneSystem(5, (0, 3, 1, 3, 0, 2))
    assert sys_.mults == (3, 3, 2, 1)
    assert PlaneSystem(4).mults == ()
    with pytest.raises(ValueError):
        PlaneSystem(4, (2, -1))


def test_binomial_convention():
    assert binom(1, 2) == 0
    assert binom(-1, 2) == 0
    assert binom(5, 2) == 10
    # C(k+2,2) - C(k,2) = 2k+1 and C(k+3,2) - C(k,2) = 3k+3 for all k >= 0.
    for k in range(0, 40):
        assert binom(k + 2, 2) - binom(k, 2) == 2 * k + 1
        assert binom(k + 3, 2) - binom(k, 2) == 3 * k + 3


def test_expected_dim():
    assert expected_dim(PlaneSystem(4, (2,) * 5)) == 0
    assert expected_dim(PlaneSystem(7)) == binom(9, 2)
    assert expected_dim(PlaneSystem(5, (3, 3, 2))) == 6
    assert expected_dim(PlaneSystem(-1)) == 0


def test_standard_form():
    assert is_standard_form(PlaneSystem(6, (2, 2, 2)))
    assert not is_standard_form(PlaneSystem(5, (3, 3, 2)))
    assert is_standard_form(PlaneSystem(3))
    assert not is_standard_form(PlaneSystem(-1))


def test_cremona_step():
    assert cremona_step(PlaneSystem(4, (2, 2, 2))) == PlaneSystem(2)
    unchanged = PlaneSystem(9, (3, 3, 3, 2))
    assert cremona_step(unchanged) == unchanged
    with pytest.raises(StepNotApplicable):
        cremona_step(PlaneSystem(4, (4, 4, 4)))


def test_bezout_step():
    assert bezout_step(PlaneSystem(5, (3, 3, 2))) == PlaneSystem(4, (2, 2, 2))
    assert bezout_step(PlaneSystem(3, (2, 2))) == PlaneSystem(2, (1, 1))
    with pytest.raises(StepNotApplicable):
        bezout_step(PlaneSystem(7, (3, 3)))
    with pytest.raises(StepNotApplicable):
        bezout_step(PlaneSystem(3, (7,)))


def test_ah_double_points():
    assert ah_double_dim(4, 5) == 1
    assert ah_double_dim(2, 2) == 1
    assert ah_double_dim(4, 4) == 3
    for d in range(0, 7):
        for m in range(0, 9):
            if (d, m) in ((4, 5), (2, 2)):
                continue
            assert ah_double_dim(d, m) == max(0, binom(d + 2, 2) - 3 * m)


def test_fatpoint_dim_exceptional_cases():
    assert fatpoint_dim(PlaneSystem(4, (2,) * 5)) == 1
    assert fatpoint_dim(PlaneSystem(2, (2, 2))) == 1
    assert fatpoint_dim(PlaneSystem(5, (3, 3, 2))) == 6


def scalar_conditions_rank(sys_, field, rng):
    """The conditions matrix built one entry at a time, as a reference.

    Draws the same points as `_conditions_rank` from the same generator.
    """
    d, p = sys_.degree, field.modulus
    exps = monomial_basis(3, d).tolist()
    rows, seen = [], set()
    for mult in sys_.mults:
        while True:
            pt = (int(rng.integers(0, p)), int(rng.integers(0, p)))
            if pt not in seen:
                seen.add(pt)
                break
        x0, y0 = pt
        order = min(mult, d + 1) - 1
        for u in range(order + 1):
            for v in range(order + 1 - u):
                w = order - u - v
                row = [0] * len(exps)
                for idx, (a, b, c) in enumerate(exps):
                    if a < u or b < v or c < w:
                        continue
                    coeff = 1
                    for n, k in ((a, u), (b, v), (c, w)):
                        for t in range(k):
                            coeff = coeff * (n - t) % p
                    row[idx] = coeff * pow(x0, a - u, p) * pow(y0, b - v, p) % p
                rows.append(row)
    return matrix_rank(DenseMatrix(field, rows)) if rows else 0


@pytest.mark.parametrize("prime", [2147483647, 101])
def test_conditions_rank_matches_scalar_reference(prime):
    field = PrimeField(prime)
    systems = [
        PlaneSystem(4, (2,) * 5),  # Alexander-Hirschowitz exceptions
        PlaneSystem(2, (2,) * 2),
        PlaneSystem(6, (3, 3, 2, 2, 1)),
        PlaneSystem(5, (7, 2)),  # clamped multiplicity
        PlaneSystem(0, (1,)),
        PlaneSystem(3),
        PlaneSystem(9, (4, 4, 3, 3, 2, 2, 1, 1)),
    ]
    for seed, sys_ in enumerate(systems):
        for trial in range(2):
            rank = _conditions_rank(sys_, field, np.random.default_rng([seed, trial]))
            assert rank == scalar_conditions_rank(sys_, field, np.random.default_rng([seed, trial])), sys_
    assert _conditions_rank(PlaneSystem(4, (2,) * 5), field, np.random.default_rng(0)) == 14


def test_fatpoint_dim_degenerate():
    assert fatpoint_dim(PlaneSystem(-2)) == 0
    assert fatpoint_dim(PlaneSystem(3)) == 10
    # A point of multiplicity d+1 kills every curve of degree d.
    assert fatpoint_dim(PlaneSystem(3, (4,))) == 0
    assert fatpoint_dim(PlaneSystem(3, (9,))) == 0


def test_fatpoint_prime_guard():
    from leflab.oracle import PrimeTooSmallError

    with pytest.raises(PrimeTooSmallError):
        fatpoint_dim(PlaneSystem(8, (2, 2)), prime=13)


def _random_system(rng) -> PlaneSystem:
    d = int(rng.integers(0, 11))
    n = int(rng.integers(0, 9))
    mults = tuple(int(x) for x in rng.integers(0, max(d, 2) + 2, size=n))
    return PlaneSystem(d, mults)


def test_reductions_preserve_dimension():
    rng = np.random.default_rng(43)
    checked_b = checked_c = 0
    while checked_b < 12 or checked_c < 12:
        sys_ = _random_system(rng)
        if sys_.degree > 8:
            continue
        if checked_b < 12 and sys_.num_points >= 2 and sys_.degree < sys_.top(0) + sys_.top(1):
            nxt = bezout_step(sys_)
            assert fatpoint_dim(sys_) == fatpoint_dim(nxt), (sys_, nxt)
            checked_b += 1
        m = sys_.degree - (sys_.top(0) + sys_.top(1) + sys_.top(2))
        if checked_c < 12 and sys_.num_points >= 3 and all(sys_.top(i) + m >= 0 for i in range(3)):
            nxt = cremona_step(sys_)
            assert fatpoint_dim(sys_) == fatpoint_dim(nxt), (sys_, nxt)
            checked_c += 1


def test_cremona_preserves_independent_conditions_status():
    # Whether the expected dimension is attained is invariant under one step.
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 15:
        sys_ = _random_system(rng)
        if sys_.degree > 8 or sys_.num_points < 3:
            continue
        m = sys_.degree - (sys_.top(0) + sys_.top(1) + sys_.top(2))
        if not all(sys_.top(i) + m >= 0 for i in range(3)):
            continue
        nxt = cremona_step(sys_)
        before = fatpoint_dim(sys_) == expected_dim(sys_)
        after = fatpoint_dim(nxt) == expected_dim(nxt)
        assert before == after, (sys_, nxt)
        checked += 1


def test_system_dim_known_cases():
    dim, trace = system_dim(PlaneSystem(4, (2,) * 5))
    assert dim == 1
    assert trace.terminal.rule == "terminal"

    dim, trace = system_dim(PlaneSystem(5, (3, 3, 2)))
    assert dim == 6
    rules = [s.rule for s in trace.steps]
    assert rules[0] == "bezout" and rules[-1] == "terminal"


def test_system_dim_standard_form_is_expected():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 15:
        sys_ = _random_system(rng)
        if not is_standard_form(sys_):
            continue
        dim, trace = system_dim(sys_)
        assert dim == expected_dim(sys_)
        assert len(trace.steps) == 1
        checked += 1


def test_system_dim_matches_fatpoint_oracle():
    rng = np.random.default_rng(59)
    for i in range(60):
        sys_ = _random_system(rng)
        dim, _ = system_dim(sys_, seed=i)
        assert dim == fatpoint_dim(sys_, seed=1000 + i), sys_


def test_trace_steps_preserve_dimension():
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 10:
        sys_ = _random_system(rng)
        if sys_.degree > 7:
            continue
        _, trace = system_dim(sys_)
        for step in trace.steps:
            if step.rule in ("bezout", "cremona"):
                assert fatpoint_dim(step.before) == fatpoint_dim(step.after)
            elif step.rule == "simple-points-split":
                assert fatpoint_dim(step.before) == max(
                    0, fatpoint_dim(step.after) - step.stripped
                )
        checked += 1


def test_dual_system():
    spec = ExponentSpec(3, (3, 3, 3, 3))
    assert dual_system(spec, 4) == PlaneSystem(4, (2, 2, 2, 2))
    assert dual_system(spec, 2) == PlaneSystem(2)
    mixed = ExponentSpec(3, (2, 3, 5))
    assert dual_system(mixed, 4, extra_power=2) == PlaneSystem(4, (3, 3, 2))
    with pytest.raises(ValueError):
        dual_system(ExponentSpec(4, (2, 2, 2, 2)), 3)


def test_dual_system_with_extra_power_shape():
    # Degree peak+1 with an extra square: multiplicities peak-a_i+2 and peak.
    spec = ExponentSpec(3, (3, 4, 4))
    from leflab.theory import peak_degree

    p = peak_degree(spec)
    sys_ = dual_system(spec, p + 1, extra_power=2)
    want = sorted([p - a + 2 for a in spec.exponents] + [p], reverse=True)
    assert list(sys_.mults) == want
