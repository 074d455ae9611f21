from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leflab.modp import PrimeField, matrix_rank
from leflab.polyring import (
    LinearFormRep,
    _index_map,
    graded_dim,
    monomial_basis,
    mult_matrix,
    power_coords,
)

F = PrimeField()


def reference_mult(num_vars, f_coords, f_degree, target_degree):
    """Brute-force multiplication matrix through a dict of exponent tuples."""
    terms = [tuple(e) for e in monomial_basis(num_vars, f_degree).tolist()]
    sources = [tuple(e) for e in monomial_basis(num_vars, target_degree - f_degree).tolist()]
    rows = {tuple(e): i for i, e in enumerate(monomial_basis(num_vars, target_degree).tolist())}
    out = np.zeros((len(rows), len(sources)), dtype=np.int64)
    for col, m in enumerate(sources):
        for t, c in zip(terms, f_coords):
            row = rows[tuple(a + b for a, b in zip(m, t))]
            out[row, col] = (int(out[row, col]) + int(c)) % F.modulus
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


def test_index_map_inverts_the_ordering():
    # Times the constant monomial, each source monomial lands on its own row.
    for r in range(1, 5):
        for d in range(0, 5):
            assert _index_map(r, 0, d).tolist() == [list(range(graded_dim(r, d)))]


def test_index_map_rows_are_products():
    for r, f, t in [(2, 1, 3), (3, 2, 4), (4, 3, 3), (5, 1, 2)]:
        index = _index_map(r, f, t)
        terms, sources, targets = monomial_basis(r, f), monomial_basis(r, t - f), monomial_basis(r, t)
        assert index.shape == (len(terms), len(sources))
        assert not index.flags.writeable
        assert (targets[index] == terms[:, None, :] + sources[None, :, :]).all()


def test_index_map_refuses_keys_past_int64():
    assert _index_map(39, 1, 2).shape == (39, 39)  # 3**39 < 2**63
    with pytest.raises(ValueError):
        _index_map(40, 1, 2)


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


def test_mult_matrix_by_x_in_two_vars():
    coords = power_coords(F, LinearFormRep((1, 0)), 1)
    m = mult_matrix(F, 2, coords, 1, 2)
    assert m.rows == 3 and m.cols == 2
    assert m.entries.tolist() == [[1, 0], [0, 1], [0, 0]]


def test_mult_matrix_shapes():
    rng = np.random.default_rng(5)
    for _ in range(8):
        r = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        j = k + int(rng.integers(0, 4))
        form = LinearFormRep(tuple(int(x) for x in rng.integers(1, 100, size=r)))
        m = mult_matrix(F, r, power_coords(F, form, k), k, j)
        assert m.rows == comb(j + r - 1, r - 1)
        assert m.cols == comb(j - k + r - 1, r - 1)


def test_mult_matrices_commute():
    x = power_coords(F, LinearFormRep((1, 0, 0)), 1)
    y = power_coords(F, LinearFormRep((0, 1, 0)), 1)
    j = 4
    xy = mult_matrix(F, 3, x, 1, j).entries @ mult_matrix(F, 3, y, 1, j - 1).entries % F.modulus
    yx = mult_matrix(F, 3, y, 1, j).entries @ mult_matrix(F, 3, x, 1, j - 1).entries % F.modulus
    assert (xy == yx).all()


def test_power_multiplication_is_injective_on_ring():
    # Multiplication by a nonzero power of a linear form has full column rank.
    rng = np.random.default_rng(6)
    for _ in range(10):
        r = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        j = k + int(rng.integers(0, 4))
        form = LinearFormRep(tuple(int(x) for x in rng.integers(0, F.modulus, size=r - 1)) + (1,))
        m = mult_matrix(F, r, power_coords(F, form, k), k, j)
        assert matrix_rank(m) == m.cols


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mult_matrix_matches_dict_reference(data):
    r = data.draw(st.integers(1, 5), label="num_vars")
    f_degree = data.draw(st.integers(0, 4), label="f_degree")
    target = data.draw(st.integers(f_degree, f_degree + 4), label="target")
    n_terms = graded_dim(r, f_degree)
    coeff = st.one_of(st.just(0), st.integers(-3 * F.modulus, 3 * F.modulus))
    f = data.draw(st.lists(coeff, min_size=n_terms, max_size=n_terms), label="f")
    got = mult_matrix(F, r, np.array(f, dtype=np.int64), f_degree, target)
    assert got.entries.tolist() == reference_mult(r, f, f_degree, target).tolist()
