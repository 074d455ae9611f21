from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leflab.modp import PrimeField, matrix_rank
from leflab.polyring import (
    LinearFormRep,
    ci_basis,
    graded_dim,
    monomial_basis,
    mult_matrix,
    power_coords,
)

F = PrimeField()


def reference_mult(num_vars, f_coords, f_degree, target_degree, p=F.modulus):
    """Brute-force multiplication matrix through a dict of exponent tuples, mod p."""
    terms = [tuple(e) for e in monomial_basis(num_vars, f_degree).tolist()]
    sources = [tuple(e) for e in monomial_basis(num_vars, target_degree - f_degree).tolist()]
    rows = {tuple(e): i for i, e in enumerate(monomial_basis(num_vars, target_degree).tolist())}
    out = np.zeros((len(rows), len(sources)), dtype=np.int64)
    for col, m in enumerate(sources):
        for t, c in zip(terms, f_coords):
            row = rows[tuple(a + b for a, b in zip(m, t))]
            out[row, col] = (int(out[row, col]) + int(c)) % p
    return out


def test_basis_sizes():
    assert monomial_basis(3, 2).shape == (6, 3)
    assert monomial_basis(4, 3).shape == (20, 4)
    assert monomial_basis(3, 0).tolist() == [[0, 0, 0]]
    for r in range(1, 5):
        for d in range(0, 7):
            assert monomial_basis(r, d).shape == (comb(d + r - 1, r - 1), r)
            assert graded_dim(r, d) == comb(d + r - 1, r - 1)
    with pytest.raises(ValueError):
        monomial_basis(3, -1)


def test_basis_order_is_reproducible_and_graded_lex():
    assert monomial_basis(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]
    b3 = monomial_basis(3, 2)
    assert b3[0].tolist() == [2, 0, 0]
    assert b3[-1].tolist() == [0, 0, 2]
    for r in range(1, 5):
        for d in range(0, 6):
            rows = [tuple(e) for e in monomial_basis(r, d).tolist()]
            assert all(sum(e) == d for e in rows)
            assert rows == sorted(set(rows), reverse=True)
            assert not monomial_basis(r, d).flags.writeable


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        LinearFormRep((0, 0, 0))


def test_power_of_single_variable():
    vec = power_coords(F, LinearFormRep((1, 0, 0)), 3)
    basis = monomial_basis(3, 3).tolist()
    expected = np.zeros(len(basis), dtype=np.int64)
    expected[basis.index([3, 0, 0])] = 1
    assert (vec == expected).all()


def test_square_of_binomial():
    vec = power_coords(F, LinearFormRep((1, 1)), 2)
    assert vec.tolist() == [1, 2, 1]


def test_power_evaluation_at_all_ones():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = int(rng.integers(2, 5))
        a = int(rng.integers(1, 7))
        form = LinearFormRep(tuple(int(x) for x in rng.integers(1, F.modulus, size=r)))
        vec = power_coords(F, form, a)
        total = int(vec.sum() % F.modulus)
        assert total == pow(sum(form.coeffs) % F.modulus, a, F.modulus)


def test_power_built_incrementally():
    rng = np.random.default_rng(4)
    form = LinearFormRep(tuple(int(x) for x in rng.integers(1, F.modulus, size=3)))
    direct = power_coords(F, form, 5)
    step = power_coords(F, form, 2)
    for d in range(2, 5):
        step = reference_mult(3, step, d, d + 1) @ np.array(form.coeffs, dtype=object) % F.modulus
    assert direct.tolist() == step.tolist()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_power_matches_repeated_multiplication(data):
    # Over 5 and 7 the multinomials of a >= p vanish in part mod p.
    p = data.draw(st.sampled_from((5, 7, F.modulus)), label="p")
    r = data.draw(st.integers(2, 6), label="num_vars")
    a = data.draw(st.integers(1, 12), label="a")
    coeff = st.one_of(st.just(0), st.integers(-3 * p, 3 * p))
    coeffs = data.draw(st.lists(coeff, min_size=r, max_size=r).filter(lambda c: any(x % p for x in c)), label="coeffs")
    form = np.array(coeffs, dtype=object)
    expected = form % p
    for d in range(1, a):
        expected = reference_mult(r, expected, d, d + 1, p) @ form % p
    assert power_coords(PrimeField(p), LinearFormRep(tuple(coeffs)), a).tolist() == expected.tolist()


def test_power_mod_small_prime_at_and_past_p():
    # (x + y)^5 = x^5 + y^5 over F_5; past p, (x + y)^6 = (x^5 + y^5)(x + y).
    f5 = PrimeField(5)
    assert power_coords(f5, LinearFormRep((1, 1)), 5).tolist() == [1, 0, 0, 0, 0, 1]
    assert power_coords(f5, LinearFormRep((1, 1)), 6).tolist() == [1, 1, 0, 0, 0, 1, 1]


def test_power_coords_are_cached_and_read_only():
    form = LinearFormRep((3, 5, 7))
    power_coords.cache_clear()
    vec = power_coords(F, form, 4)
    assert power_coords(F, form, 4) is vec
    assert power_coords.cache_info()[:2] == (1, 1)
    with pytest.raises(ValueError):
        vec[0] = 0


def test_mult_matrix_by_x_in_two_vars():
    coords = power_coords(F, LinearFormRep((1, 0)), 1)
    m = mult_matrix(F, 2, [(coords, 1)], 2)
    assert m.rows == 3 and m.cols == 2
    assert m.entries.tolist() == [[1, 0], [0, 1], [0, 0]]


def test_mult_matrix_shapes():
    rng = np.random.default_rng(5)
    for _ in range(8):
        r = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        j = k + int(rng.integers(0, 4))
        form = LinearFormRep(tuple(int(x) for x in rng.integers(1, 100, size=r)))
        m = mult_matrix(F, r, [(power_coords(F, form, k), k)], j)
        assert m.rows == comb(j + r - 1, r - 1)
        assert m.cols == comb(j - k + r - 1, r - 1)


def test_mult_matrices_commute():
    x = power_coords(F, LinearFormRep((1, 0, 0)), 1)
    y = power_coords(F, LinearFormRep((0, 1, 0)), 1)
    j = 4
    xy = mult_matrix(F, 3, [(x, 1)], j).entries @ mult_matrix(F, 3, [(y, 1)], j - 1).entries % F.modulus
    yx = mult_matrix(F, 3, [(y, 1)], j).entries @ mult_matrix(F, 3, [(x, 1)], j - 1).entries % F.modulus
    assert (xy == yx).all()


def test_power_multiplication_is_injective_on_ring():
    # Multiplication by a nonzero power of a linear form has full column rank.
    rng = np.random.default_rng(6)
    for _ in range(10):
        r = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        j = k + int(rng.integers(0, 4))
        form = LinearFormRep(tuple(int(x) for x in rng.integers(0, F.modulus, size=r - 1)) + (1,))
        m = mult_matrix(F, r, [(power_coords(F, form, k), k)], j)
        assert matrix_rank(m) == m.cols


def test_mult_matrix_checks_its_inputs():
    # Unchecked, a one-entry vector would broadcast over every term of a
    # full-ring factor, and a too-long one would pass with or without caps.
    for caps in (None, (2, None, 3)):
        for coords in (np.array([5]), np.arange(2), np.arange(4), np.ones((3, 1), dtype=np.int64)):
            with pytest.raises(ValueError, match="coordinates"):
                mult_matrix(F, 3, [(coords, 1)], 2, caps)
    for caps in ((2, None), (2, None, 3, 3)):
        with pytest.raises(ValueError, match="caps"):
            mult_matrix(F, 3, [(np.arange(3), 1)], 2, caps)


def test_mult_matrix_refuses_keys_past_int64():
    assert mult_matrix(F, 39, [(np.ones(39, dtype=np.int64), 1)], 2).entries.shape == (780, 39)  # 3**39 < 2**63
    with pytest.raises(ValueError, match="overflow"):
        mult_matrix(F, 40, [(np.ones(40, dtype=np.int64), 1)], 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mult_matrix_matches_dict_reference(data):
    r = data.draw(st.integers(1, 5), label="num_vars")
    f_degree = data.draw(st.integers(0, 4), label="f_degree")
    target = data.draw(st.integers(f_degree, f_degree + 4), label="target")
    n_terms = graded_dim(r, f_degree)
    coeff = st.one_of(st.just(0), st.integers(-3 * F.modulus, 3 * F.modulus))
    f = data.draw(st.lists(coeff, min_size=n_terms, max_size=n_terms), label="f")
    got = mult_matrix(F, r, [(np.array(f, dtype=np.int64), f_degree)], target)
    assert got.entries.tolist() == reference_mult(r, f, f_degree, target).tolist()


def kept_rows(num_vars, caps, degree):
    """Rows of the degree-`degree` monomial basis outside (x_m^caps[m])."""
    bound = np.array([degree + 1 if c is None else c for c in caps], dtype=np.int64)
    return np.flatnonzero((monomial_basis(num_vars, degree) < bound).all(axis=1))


caps_lists = st.integers(2, 5).flatmap(
    lambda r: st.lists(st.one_of(st.none(), st.integers(1, 6)), min_size=r, max_size=r).map(tuple)
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.lists(st.one_of(st.none(), st.integers(-1, 6)), min_size=r, max_size=r).map(tuple)
    ),
    st.integers(-3, 10),
)
@example((None, None), -1)
@example((0, None), 3)
@example((3, 0, None), 2)
@example((None,), -1)
def test_ci_basis_is_the_monomials_outside_the_caps(caps, degree):
    # A negative degree or a cap <= 0 leaves no monomial: an empty block.
    r = len(caps)
    got = ci_basis(caps, degree)
    assert got.shape[1] == r and not got.flags.writeable
    expected = monomial_basis(r, degree)[kept_rows(r, caps, degree)].tolist() if degree >= 0 else []
    assert got.tolist() == expected


def test_ci_basis_cache_is_bounded():
    # The fat-point oracle asks for one caps tuple per plane system, so a
    # long run over many systems would grow an unbounded cache forever.
    ci_basis.cache_clear()
    for cap in range(1, 5001):
        ci_basis((cap, None, None), 0)
    info = ci_basis.cache_info()
    assert info.currsize == info.maxsize == 4096
    ci_basis.cache_clear()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ci_block_is_the_full_ring_block_on_the_kept_monomials(data):
    # The reference is the dict product's full-ring matrix with the rows and
    # columns outside J = (x_m^caps[m]) sliced out, one block per factor.
    caps = data.draw(caps_lists, label="caps")
    r = len(caps)
    j = data.draw(st.integers(0, 10), label="j")
    field = PrimeField(data.draw(st.sampled_from((7, 2**31 - 1)), label="p"))
    factors = []
    for _ in range(data.draw(st.integers(0, 3), label="factors")):
        a = data.draw(st.integers(0, min(6, j)), label="a")
        if data.draw(st.booleans(), label="power"):
            coeffs = data.draw(st.lists(st.integers(0, field.modulus - 1), min_size=r, max_size=r).filter(any))
            coords = power_coords(field, LinearFormRep(tuple(coeffs)), a) if a else np.ones(1, dtype=np.int64)
        else:
            coeff = st.integers(-3 * field.modulus, 3 * field.modulus)
            coords = np.array(data.draw(st.lists(coeff, min_size=graded_dim(r, a), max_size=graded_dim(r, a))), dtype=np.int64)
        factors.append((coords, a))
    rows = kept_rows(r, caps, j)
    full = [reference_mult(r, coords, a, j, field.modulus) for coords, a in factors]
    expected = [m[np.ix_(rows, kept_rows(r, caps, j - a))] for m, (_, a) in zip(full, factors)]
    got = mult_matrix(field, r, factors, j, caps)
    assert got.entries.shape == (rows.size, sum(m.shape[1] for m in expected))
    if expected:
        assert (got.entries == np.hstack(expected)).all()
        assert (mult_matrix(field, r, factors, j).entries == np.hstack(full)).all()
