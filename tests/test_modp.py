import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leflab.modp import (
    DEFAULT_PRIME,
    SMALL_CELLS,
    DenseMatrix,
    PrimeField,
    _echelon_large,
    _echelon_small,
    all_minors_nonzero,
    is_prime,
    matrix_rank,
    reduce_rows,
    row_echelon,
)


def test_default_modulus_is_prime():
    assert is_prime(DEFAULT_PRIME)
    assert PrimeField().modulus == DEFAULT_PRIME


def test_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(2147483646)


def test_rank_zero_matrix():
    f = PrimeField()
    m = DenseMatrix.zeros(f, 3, 3)
    assert matrix_rank(m) == 0
    assert m.cols - matrix_rank(m) == 3


def test_rank_identity_matrix():
    f = PrimeField()
    identity = DenseMatrix(f, np.eye(4, dtype=np.int64))
    assert matrix_rank(identity) == 4
    assert identity.cols - matrix_rank(identity) == 0


def test_rank_proportional_rows():
    f = PrimeField()
    m = DenseMatrix(f, [[1, 2, 3], [2, 4, 6]])
    assert matrix_rank(m) == 1
    assert m.cols - matrix_rank(m) == 2


def test_rank_empty_shapes():
    f = PrimeField()
    assert matrix_rank(DenseMatrix(f, np.zeros((0, 5), dtype=np.int64))) == 0
    assert matrix_rank(DenseMatrix(f, np.zeros((5, 0), dtype=np.int64))) == 0


def test_entries_reduced_and_immutable():
    f = PrimeField(7)
    m = DenseMatrix(f, [[8, -1], [14, 3]])
    assert m.entries.tolist() == [[1, 6], [0, 3]]
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5
    arr = np.array([[1, 6], [0, 3]], dtype=np.int64)
    wrapped = DenseMatrix.from_reduced(f, arr)
    assert wrapped.entries is arr
    with pytest.raises(ValueError):
        wrapped.entries[0, 0] = 5


def test_rank_at_most_min_dimension():
    f = PrimeField()
    rng = np.random.default_rng(0)
    for _ in range(25):
        r, c = rng.integers(1, 12, size=2)
        m = DenseMatrix(f, rng.integers(0, f.modulus, size=(r, c)))
        assert matrix_rank(m) <= min(r, c)


def test_rank_invariant_under_row_permutation_and_scaling():
    f = PrimeField()
    rng = np.random.default_rng(1)
    for _ in range(20):
        r, c = rng.integers(2, 10, size=2)
        a = rng.integers(0, 50, size=(r, c))
        base = matrix_rank(DenseMatrix(f, a))
        perm = rng.permutation(r)
        scales = rng.integers(1, f.modulus, size=(r, 1))
        shuffled = a[perm] * scales % f.modulus
        assert matrix_rank(DenseMatrix(f, shuffled)) == base


def test_rank_of_stack_at_least_each_part():
    f = PrimeField()
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = int(rng.integers(1, 8))
        a = DenseMatrix(f, rng.integers(0, 9, size=(int(rng.integers(1, 6)), c)))
        b = DenseMatrix(f, rng.integers(0, 9, size=(int(rng.integers(1, 6)), c)))
        stacked = DenseMatrix(f, np.vstack([a.entries, b.entries]))
        assert matrix_rank(stacked) >= max(matrix_rank(a), matrix_rank(b))


def test_row_echelon_reduction_normal_form():
    f = PrimeField(101)
    m = DenseMatrix(f, [[1, 2, 0, 4], [0, 0, 1, 1], [1, 2, 1, 5]])
    ech, pivots = row_echelon(m)
    assert pivots == (0, 2)
    # Rows of the span reduce to zero; independent vectors do not.
    inside = reduce_rows(np.array([[2, 4, 3, 11]]), ech, pivots)
    assert not inside.any()
    outside = reduce_rows(np.array([[0, 1, 0, 0]]), ech, pivots)
    assert outside.any()
    # Pivot coordinates are cleared in every normal form.
    assert outside[0, 0] == 0 and outside[0, 2] == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_small_and_large_paths_agree(data):
    # Shapes on both sides of SMALL_CELLS; rows drawn from a span of chosen
    # rank, then sparsified and given zero rows and zero columns, so pivots
    # are skipped, swapped and missing.
    p = data.draw(st.sampled_from((7, 101, DEFAULT_PRIME)), label="p")
    rows = data.draw(st.integers(1, 14), label="rows")
    fit = SMALL_CELLS // rows
    if data.draw(st.booleans(), label="small"):
        cols = data.draw(st.integers(1, min(fit, 14)), label="cols")
    else:
        cols = data.draw(st.integers(fit + 1, fit + 14), label="cols")
    rank = data.draw(st.integers(0, min(rows, cols)), label="rank")
    density = data.draw(st.sampled_from((0.2, 0.6, 1.0)), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    basis = rng.integers(0, p, size=(rank, cols)) * (rng.random((rank, cols)) < density)
    combos = rng.integers(0, p, size=(rows, rank)) * (rng.random((rows, rank)) < density)
    arr = (combos.astype(object) @ basis.astype(object)) % p if rank else np.zeros((rows, cols))
    arr = np.asarray(arr, dtype=np.int64)
    arr[rng.random(rows) < 0.2, :] = 0
    arr[:, rng.random(cols) < 0.2] = 0
    m = DenseMatrix(PrimeField(p), arr)
    for reduced in (False, True):
        small_rows, pivots = _echelon_small(m.entries, p, reduced)
        large_rows, large_pivots = _echelon_large(m.entries, p, reduced)
        assert pivots == large_pivots
        assert small_rows.shape == large_rows.shape == (len(pivots), cols)
        assert np.array_equal(small_rows, large_rows)
        assert (small_rows[range(len(pivots)), pivots] == 1).all()
    assert len(pivots) <= rank
    # The reduced form, left by the last pass: unit vectors in pivot columns.
    assert np.array_equal(small_rows[:, pivots], np.eye(len(pivots), dtype=np.int64))
    ech, ech_pivots = row_echelon(m)
    assert ech_pivots == tuple(pivots)
    assert np.array_equal(ech.entries, small_rows)
    assert matrix_rank(m) == len(pivots)


def test_all_minors_nonzero_checks_every_size():
    assert all_minors_nonzero([], 7)
    assert all_minors_nonzero([[1, 2], [3, 4]], 7)
    assert not all_minors_nonzero([[1, 2], [0, 4]], 7)
    assert not all_minors_nonzero([[1, 2], [3, 6]], 7)
    # Over F_11 every entry and 2x2 minor of this matrix is nonzero; only its
    # determinant vanishes.
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert all(
        (rows[a][c] * rows[b][d] - rows[a][d] * rows[b][c]) % 11
        for a in range(3) for b in range(a + 1, 3) for c in range(3) for d in range(c + 1, 3)
    )
    assert not all_minors_nonzero(rows, 11)
    assert all_minors_nonzero([row[:2] for row in rows], 11)
