from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leflab import linsys
from leflab.linsys import (
    PlaneSystem,
    StepNotApplicable,
    _conditions_dim,
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
from leflab.modp import DEFAULT_PRIME, DenseMatrix, PrimeField, matrix_rank
from leflab.oracle import ExponentSpec


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


def test_fatpoint_dim_on_the_full_double_point_table():
    # The whole table of the planes benchmark workload, d <= 16 and m <= 40.
    for d in range(17):
        for m in range(41):
            assert fatpoint_dim(PlaneSystem(d, (2,) * m)) == ah_double_dim(d, m), (d, m)


SPECIAL_DRAWS = (None, "coincident", "origin")


def drawn_points(sys_, p, seed, special=None):
    """The n - 3 drawn points as one (x, y) block from a seeded generator.

    `special` makes the block a special configuration where it has room:
    "coincident" puts the last point on the first, and "origin" puts the
    first at (0, 0), which is the coordinate point (0:0:1).
    """
    pts = np.random.default_rng(seed).integers(0, p, size=(max(sys_.num_points - 3, 0), 2))
    if special == "coincident" and len(pts) >= 2:
        pts[-1] = pts[0]
    if special == "origin" and len(pts) >= 1:
        pts[0] = 0
    return pts


def scalar_exponents(d):
    """The degree-d monomials (a, b, c) of x^a y^b z^c, in `monomial_basis` order."""
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def scalar_conditions_matrix(sys_, p, points):
    """The derivative-conditions matrix at projective points (x, y, z), one entry at a time.

    A point of multiplicity m gives the order-(m - 1) partial derivatives in
    x, y and z (m clamped at d + 1).  For p > d they span the same conditions
    as the Taylor coefficients that `_conditions_dim` ranks.

    The i-th point carries the i-th multiplicity; rows go point by point, in
    monomial order within a point.
    """
    d = sys_.degree
    exps = scalar_exponents(d)
    rows = []
    for mult, pt in zip(sys_.mults, points):
        order = min(mult, d + 1) - 1
        for u in range(order, -1, -1):
            for v in range(order - u, -1, -1):
                w = order - u - v
                row = []
                for a, b, c in exps:
                    if a < u or b < v or c < w:
                        row.append(0)
                        continue
                    coeff = 1
                    for n, k in ((a, u), (b, v), (c, w)):
                        for t in range(k):
                            coeff = coeff * (n - t) % p
                    for x, e in zip(pt, (a - u, b - v, c - w)):
                        coeff = coeff * pow(x, e, p) % p
                    row.append(coeff)
                rows.append(row)
    return rows


COORDINATE_POINTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def assert_rank_matches_scalar_reference(sys_, field, pts):
    """C(d + 2, 2) less `_conditions_dim` is the full rank at the coordinate points plus the given rest.

    The three heaviest points sit at the coordinate points; the rest are the
    rows (x, y) of `pts`, at (x, y, 1).  Each coordinate-point row is a
    nonzero multiple of a unit vector, and together they cover exactly the
    columns of the monomials that vanish there to the multiplicity.
    """
    p, d = field.modulus, sys_.degree
    rank = binom(d + 2, 2) - _conditions_dim(sys_, field, pts)
    rows = scalar_conditions_matrix(sys_, p, COORDINATE_POINTS + [(x, y, 1) for x, y in pts.tolist()])
    assert rank == (matrix_rank(DenseMatrix(field, rows)) if rows else 0), sys_
    exps = scalar_exponents(d)
    # The i-th coordinate point, of multiplicity m, kills the monomials whose
    # other two exponents sum to less than m.
    killed = {col for col, e in enumerate(exps) for i, m in enumerate(sys_.mults[:3]) if d - e[i] < m}
    n_coord = sum(binom(min(m, d + 1) + 1, 2) for m in sys_.mults[:3])
    support = set()
    for row in rows[:n_coord]:
        nonzero = [col for col, x in enumerate(row) if x]
        assert len(nonzero) == 1, sys_
        support.add(nonzero[0])
    assert support == killed, sys_


SYSTEMS = [
    PlaneSystem(4, (2,) * 5),  # Alexander-Hirschowitz exceptions
    PlaneSystem(2, (2,) * 2),
    PlaneSystem(6, (3, 3, 2, 2, 1)),
    PlaneSystem(5, (7, 2)),  # clamped multiplicity
    PlaneSystem(0, (1,)),
    PlaneSystem(3),
    PlaneSystem(9, (4, 4, 3, 3, 2, 2, 1, 1)),
    PlaneSystem(8, (6, 5, 5, 2)),  # killed sets that overlap
]


@pytest.mark.parametrize("prime", [2147483647, 101])
def test_conditions_rank_matches_scalar_reference(prime):
    field = PrimeField(prime)
    for seed, sys_ in enumerate(SYSTEMS):
        for trial in range(2):
            for special in SPECIAL_DRAWS:
                pts = drawn_points(sys_, prime, [seed, trial], special)
                assert_rank_matches_scalar_reference(sys_, field, pts)
    five_doubles = PlaneSystem(4, (2,) * 5)
    assert binom(6, 2) - _conditions_dim(five_doubles, field, drawn_points(five_doubles, prime, 0)) == 14


@st.composite
def plane_systems(draw):
    d = draw(st.integers(0, 12))
    return PlaneSystem(d, tuple(draw(st.lists(st.integers(1, d + 3), max_size=8))))


@settings(max_examples=100, deadline=None)
@given(plane_systems(), st.sampled_from([101, 2147483647]), st.integers(0, 2**32 - 1), st.sampled_from(SPECIAL_DRAWS))
def test_conditions_rank_matches_scalar_reference_on_random_systems(sys_, prime, seed, special):
    assert_rank_matches_scalar_reference(sys_, PrimeField(prime), drawn_points(sys_, prime, seed, special))


def scalar_taylor_rows(d, p, mult, point):
    """The conditions of one point of multiplicity `mult`, one entry at a time.

    `point` is projective; k is the last index where it is 1, and i and j
    are the other two.  One row per s^u t^v with u + v < mult: its
    coefficient in f(point + s e_i + t e_j) for f of degree d.
    """
    k = max(n for n, c in enumerate(point) if c == 1)
    i, j = (n for n in range(3) if n != k)
    rows = []
    for u in range(mult):
        for v in range(mult - u):
            row = []
            for e in scalar_exponents(d):
                if e[i] < u or e[j] < v:
                    row.append(0)
                    continue
                row.append(comb(e[i], u) * comb(e[j], v) * pow(point[i], e[i] - u, p) * pow(point[j], e[j] - v, p) % p)
            rows.append(row)
    return rows


@settings(max_examples=100, deadline=None)
@given(plane_systems(), st.sampled_from([3, 5, 7]), st.integers(0, 2**32 - 1), st.sampled_from(SPECIAL_DRAWS))
@example(PlaneSystem(10, (5,) * 5), 3, 0, None)  # derivative rows of order >= p vanish here
@example(PlaneSystem(6, (2,) * 7), 7, 0, "coincident")
@example(PlaneSystem(6, (3, 2, 2, 2, 2)), 5, 0, "origin")
def test_conditions_rank_matches_taylor_reference_at_small_primes(sys_, prime, seed, special):
    # p <= d is allowed: the Taylor coefficients are exact in every characteristic.
    field = PrimeField(prime)
    pts = drawn_points(sys_, prime, seed, special)
    rank = binom(sys_.degree + 2, 2) - _conditions_dim(sys_, field, pts)
    points = COORDINATE_POINTS + [(x, y, 1) for x, y in pts.tolist()]
    rows = [row for mult, pt in zip(sys_.mults, points) for row in scalar_taylor_rows(sys_.degree, prime, mult, pt)]
    assert rank == (matrix_rank(DenseMatrix(field, rows)) if rows else 0), sys_


def test_fatpoint_dim_degenerate():
    assert fatpoint_dim(PlaneSystem(-2)) == 0
    assert fatpoint_dim(PlaneSystem(3)) == 10
    # A point of multiplicity d+1 kills every curve of degree d.
    assert fatpoint_dim(PlaneSystem(3, (4,))) == 0
    assert fatpoint_dim(PlaneSystem(3, (9,))) == 0
    # Rest points above d: the heaviest is above d too, and leaves no column.
    assert fatpoint_dim(PlaneSystem(3, (5,) * 5)) == 0


def test_fatpoint_dim_seeds_by_multiplicities(monkeypatch):
    # Two systems of one degree and point count draw different points; both
    # meet their expected dimension on the first draw, so each draws once.
    drawn = []

    def spy(sys, field, pts):
        drawn.append(pts.copy())
        return _conditions_dim(sys, field, pts)

    monkeypatch.setattr(linsys, "_conditions_dim", spy)
    for mults in ((3,) * 7, (4, 3, 3, 3, 3, 3, 2)):
        fatpoint_dim(PlaneSystem(6, mults))
    assert len(drawn) == 2 and drawn[0].shape == drawn[1].shape == (4, 2)
    assert not np.array_equal(drawn[0], drawn[1])


def test_fatpoint_dim_recovers_from_a_coincident_first_draw(monkeypatch):
    # Seven general double points impose independent conditions on sextics.
    # A first block with two equal points leaves six, so the dimension
    # misses the expected one and a second block is drawn.
    sys_ = PlaneSystem(6, (2,) * 7)
    real_rng = np.random.default_rng
    blocks = []

    class CoincidentFirstBlock:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def integers(self, low, high, size):
            pts = self.rng.integers(low, high, size=size)
            if not blocks:
                pts[1] = pts[0]
            blocks.append(pts.copy())
            return pts

    monkeypatch.setattr(np.random, "default_rng", CoincidentFirstBlock)
    dim = fatpoint_dim(sys_)
    monkeypatch.undo()
    field = PrimeField(DEFAULT_PRIME)
    assert len(blocks) == 2 and np.array_equal(blocks[0][0], blocks[0][1])
    assert _conditions_dim(sys_, field, blocks[0]) == 10
    assert dim == system_dim(sys_)[0] == expected_dim(sys_) == 7


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


def test_system_dim_ends_at_a_theorem(monkeypatch):
    # Every reduction ends at a terminal that a theorem answers; the
    # conditions-matrix oracle is never consulted.
    def refuse(*args, **kwargs):
        raise AssertionError("fatpoint_dim called")

    monkeypatch.setattr(linsys, "fatpoint_dim", refuse)
    for d in range(-1, 13):
        for mults in combinations_with_replacement(range(d + 3), 4):
            _, trace = system_dim(PlaneSystem(d, mults))
            end = trace.terminal
            assert end.reason in ("empty", "standard-form", "double-points", "few-points"), (d, mults)
            if end.reason == "few-points":
                assert (end.before.num_points, end.value) == (1, 0), (d, mults)


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
