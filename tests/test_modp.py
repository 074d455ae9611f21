import inspect
import sys
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leflab import cli, modp
from leflab.harness import SECOND_PRIME
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
    reduce_mod,
    reduce_rows,
    row_echelon,
)


def test_default_modulus_is_prime():
    assert is_prime(DEFAULT_PRIME)
    assert PrimeField().modulus == DEFAULT_PRIME


def test_is_prime_matches_a_sieve_and_wide_moduli_are_refused_at_once():
    sieve = np.ones(10**4, dtype=bool)
    sieve[:2] = False
    for n in range(2, 100):
        sieve[n * n :: n] = False
    assert [n for n in range(10**4) if is_prime(n)] == np.flatnonzero(sieve).tolist()
    assert is_prime(DEFAULT_PRIME) and is_prime(SECOND_PRIME)
    # A 32-bit prime: trial division would answer it cheaply, but it is too
    # wide for int64 products, so is_prime itself refuses it.
    with pytest.raises(ValueError, match="31 bits"):
        is_prime(2**32 - 5)
    # The width check comes before trial division, which would need a divisor
    # array of isqrt(p) entries.
    for modulus in (2**61 - 1, 10**30):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="31 bits"):
            is_prime(modulus)
        with pytest.raises(ValueError, match="31 bits"):
            PrimeField(modulus)
        assert cli.main(["hilbert", "--powers", "2,2,2", "--prime", str(modulus)]) == 2
        assert cli.main(["verify", "--specs", "2,2,2", "--prime", str(modulus)]) == 2
        assert time.perf_counter() - start < 1


def test_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(2147483646)


def test_rank_zero_matrix():
    f = PrimeField()
    m = DenseMatrix(f, np.zeros((3, 3), dtype=np.int64))
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
    for shape in ((0, 5), (5, 0), (0, 0), (0, 200), (200, 0)):
        m = DenseMatrix(f, np.zeros(shape, dtype=np.int64))
        assert matrix_rank(m) == 0
        ech, pivots = row_echelon(m.entries, f.modulus)
        assert ech.shape == (0, shape[1]) and pivots == ()


def test_entries_reduced_and_immutable():
    # Entries come reduced: an int64 array is kept without a copy, read-only.
    f = PrimeField(7)
    arr = np.array([[1, 6], [0, 3]], dtype=np.int64)
    wrapped = DenseMatrix(f, arr)
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
    p = 101
    ech, pivots = row_echelon(np.array([[1, 2, 0, 4], [0, 0, 1, 1], [1, 2, 1, 5]]), p)
    assert pivots == (0, 2)
    # Rows of the span reduce to zero; independent vectors do not.
    inside = reduce_rows(np.array([[2, 4, 3, 11]]), ech, pivots, p)
    assert not inside.any()
    outside = reduce_rows(np.array([[0, 1, 0, 0]]), ech, pivots, p)
    assert outside.any()
    # Pivot coordinates are cleared in every normal form.
    assert outside[0, 0] == 0 and outside[0, 2] == 0


def test_reduce_rows_refuses_vectors_of_another_width():
    ech, pivots = row_echelon(np.array([[1, 2, 0, 4], [0, 0, 1, 1]]), 101)
    for shape in ((1, 3), (1, 5), (4,)):
        with pytest.raises(ValueError, match="vector width does not match echelon width"):
            reduce_rows(np.zeros(shape, dtype=np.int64), ech, pivots, 101)


@st.composite
def matrix_params(draw):
    """Parameters of `build_matrix`, with shapes on both sides of SMALL_CELLS.

    One draw in ten is wide instead: up to 130x170, which covers the largest
    benchmark matrices (planes 111x144, wlp4 124x165), with up to four dense
    columns.
    """
    wide = draw(st.integers(0, 9), label="wide") == 0
    if wide:
        p = draw(st.sampled_from((2, 3, 101, SECOND_PRIME, DEFAULT_PRIME)), label="p")
        rows = draw(st.integers(1, 130), label="rows")
        cols = draw(st.integers(1, 170), label="cols")
    else:
        p = draw(st.sampled_from((7, 101, DEFAULT_PRIME)), label="p")
        rows = draw(st.integers(1, 14), label="rows")
        fit = SMALL_CELLS // rows
        if draw(st.booleans(), label="small"):
            cols = draw(st.integers(1, min(fit, 14)), label="cols")
        else:
            cols = draw(st.integers(fit + 1, fit + 14), label="cols")
    rank = draw(st.integers(0, min(rows, cols)), label="rank")
    density = draw(st.sampled_from((0.05, 0.2, 0.6, 1.0)), label="density")
    dense_cols = draw(st.integers(0, 4), label="dense_cols") if wide else 0
    return p, rows, cols, rank, density, dense_cols, draw(st.integers(0, 2**32 - 1), label="seed")


def build_matrix(p, rows, cols, rank, density, dense_cols, seed):
    """A matrix over F_p of rank at most rank + dense_cols, and its generator.

    Rows are drawn from a span of the chosen rank (coefficients below 4, so a
    sum of 130 products stays in int64), then sparsified.  Dense columns make
    elimination fill in the sparse rows; zero rows and zero columns make
    pivots skipped, swapped and missing.
    """
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, p, size=(rank, cols)) * (rng.random((rank, cols)) < density)
    combos = rng.integers(0, min(p, 4), size=(rows, rank)) * (rng.random((rows, rank)) < density)
    arr = combos @ basis % p
    dense = rng.choice(cols, size=min(dense_cols, cols), replace=False)
    arr[:, dense] = rng.integers(1, p, size=(rows, len(dense)))
    arr[rng.random(rows) < 0.2, :] = 0
    arr[:, rng.random(cols) < 0.2] = 0
    return DenseMatrix(PrimeField(p), arr), rng


@settings(max_examples=300, deadline=None)
@given(matrix_params())
@example((DEFAULT_PRIME, 124, 165, 124, 1.0, 0, 7))
@example((SECOND_PRIME, 124, 165, 124, 1.0, 0, 11))
@example((2, 130, 170, 100, 0.2, 4, 8))
# Sparse at first, so the trailing block takes the few-rows update before
# fill-in makes it dense; the second stays mostly on the few-rows update.
@example((DEFAULT_PRIME, 130, 170, 130, 0.05, 0, 1))
@example((101, 130, 170, 90, 0.05, 2, 3))
def test_small_and_large_paths_agree(params):
    m, _ = build_matrix(*params)
    p = m.field.modulus
    small_rows, pivots = _echelon_small(m.entries, p)
    large_rows, large_pivots = _echelon_large(m.entries, p)
    assert pivots == large_pivots
    assert small_rows.shape == large_rows.shape == (len(pivots), m.cols)
    assert np.array_equal(small_rows, large_rows)
    assert len(pivots) <= params[3] + params[5]
    # Echelon shape: unit pivots, increasing, with zeros left of each pivot
    # in its row and below it in its column.
    assert list(pivots) == sorted(set(pivots))
    for k, c in enumerate(pivots):
        assert small_rows[k, c] == 1
        assert not small_rows[k, :c].any()
        assert not small_rows[k + 1:, c].any()
    ech, ech_pivots = row_echelon(m.entries, p)
    assert ech_pivots == tuple(pivots)
    assert np.array_equal(ech, small_rows)
    assert matrix_rank(m) == len(pivots)


def update_kinds(arr, p):
    """`_echelon_large(arr, p)`, and which update it made at each pivot that made one.

    A line tracer on `_echelon_large` records each run of the block update's
    line (its one `np.subtract`) and of the few-rows update's line (the
    write-back of the gathered rows).  Reductions, deferred or not, are not
    updates and do not count.
    """
    lines, first = inspect.getsourcelines(_echelon_large)
    marks = {"block": "np.subtract(", "rows": "t[rows] ="}
    kind_at = {
        first + n: kind for n, line in enumerate(lines) for kind, mark in marks.items() if mark in line
    }
    assert sorted(kind_at.values()) == sorted(marks)
    kinds = []

    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in kind_at:
            kinds.append(kind_at[frame.f_lineno])
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is _echelon_large.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        rows, pivots = _echelon_large(arr, p)
    finally:
        sys.settrace(previous)
    return rows, pivots, kinds


@pytest.mark.parametrize("p", (2, 101, DEFAULT_PRIME))
def test_large_path_takes_both_updates_on_one_matrix(p):
    # Ten dense rows over two sparse ones, 12x16.  The dense rows span
    # b0, b1, b2 (unit entries at columns 0, 1, 2, zero at 3), with row i a
    # nonzero multiple of b0 + b1 + b2 from row 2 on: the first three pivots
    # find 9 of 11, 8 of 10 and 7 of 9 rows below them nonzero, each at
    # least 3/4, and leave the dense rows zero.  Column 3 is then zero and
    # dropped, and the pivot of column 4 is the first sparse row, seven rows
    # down, so it is swapped up; the other sparse row alone is updated.
    rng = np.random.default_rng(30)
    b = rng.integers(0, p, size=(3, 16))
    b[:, :4] = np.eye(3, 4, dtype=np.int64)
    dense = [b[0], b[0] + b[1]] + [pow(3, i, p) * (b.sum(axis=0) % p) for i in range(2, 10)]
    sparse = rng.integers(0, p, size=(2, 16)) * (rng.random((2, 16)) < 0.5)
    sparse[:, :4] = 0
    sparse[:, 4] = 1
    arr = np.vstack(dense + [sparse]) % p
    rows, pivots, kinds = update_kinds(arr, p)
    small_rows, small_pivots = _echelon_small(arr, p)
    assert pivots == small_pivots and pivots[:4] == [0, 1, 2, 4]
    assert np.array_equal(rows, small_rows)
    assert kinds == ["block"] * 3 + ["rows"]
    assert np.array_equal(rows[3], arr[10])


def gauss_jordan_normal_form(ech, pivots, vectors, p):
    """Reference normal forms: reduce the echelon fully, then one multiple per pivot."""
    rref = ech.tolist()
    for k in reversed(range(len(pivots))):
        for i in range(k):
            f = rref[i][pivots[k]]
            rref[i] = [(x - f * y) % p for x, y in zip(rref[i], rref[k])]
    out = []
    for v in vectors.tolist():
        for row, c in zip(rref, pivots):
            f = v[c]
            v = [(x - f * y) % p for x, y in zip(v, row)]
        out.append(v)
    return np.array(out, dtype=np.int64).reshape(vectors.shape)


@settings(max_examples=200, deadline=None)
@given(matrix_params())
@example((SECOND_PRIME, 111, 144, 100, 1.0, 2, 9))
def test_normal_forms_match_gauss_jordan(params):
    m, rng = build_matrix(*params)
    p = m.field.modulus
    ech, pivots = row_echelon(m.entries, p)
    # Vectors inside the row space and outside it, some with zero entries.
    inside = rng.integers(0, min(p, 4), size=(3, m.rows)) @ m.entries % p
    outside = rng.integers(0, p, size=(3, m.cols)) * (rng.random((3, m.cols)) < 0.5)
    vectors = np.vstack([inside, outside])
    normal = reduce_rows(vectors, ech, pivots, p)
    assert np.array_equal(normal, gauss_jordan_normal_form(ech, pivots, vectors, p))
    assert not normal[:3].any()
    assert not normal[:, list(pivots)].any()


@pytest.mark.parametrize("p", (2, 3, SECOND_PRIME, DEFAULT_PRIME))
def test_reduce_mod_on_the_extremes_of_a_row_update(p):
    # A row update x - f * y with x, f, y in [0, p) lies in [-(p-1)^2, p), and
    # a product of two reduced entries in [0, (p-1)^2]; p^2 - 1 bounds both.
    # A second block update before the reduction reaches [-2(p-1)^2, p).
    low, high = -((p - 1) ** 2), (p - 1) ** 2
    values = [2 * low, 2 * low + 1, low - p, low, low + 1, -p, -1, 0, 1, p - 1, p, high, high + p - 1, p * p - 1]
    x = np.array(values, dtype=np.int64)
    assert reduce_mod(x, p) is x
    assert x.tolist() == [v % p for v in values]


@pytest.mark.parametrize("p", (SECOND_PRIME, DEFAULT_PRIME))
def test_two_block_updates_reach_the_deferred_extreme(monkeypatch, p):
    # Rows (1, 0, p-1, ..., p-1), (p-1, 1, 0, ..., 0) and six of
    # (p-1, p-1, 0, ..., 0).  The first pivot's multipliers and pivot row
    # are p-1 over zero entries, which it leaves at -(p-1)^2, unreduced.
    # The second pivot row, (1, -(p-1)^2, ...), is (1, p-1, ...) mod p, and
    # its multipliers are p-1 again: the second block update takes those
    # zero entries to -2(p-1)^2 before the one reduction of both.
    arr = np.zeros((8, 10), dtype=np.int64)
    arr[0, 0] = arr[1, 1] = 1
    arr[0, 2:] = arr[1:, 0] = arr[2:, 1] = p - 1
    lows = []
    real = reduce_mod
    monkeypatch.setattr(modp, "reduce_mod", lambda x, q: (lows.append(int(x.min(initial=0))), real(x, q))[1])
    rows, pivots = _echelon_large(arr, p)
    monkeypatch.undo()
    assert min(lows) == -2 * (p - 1) ** 2
    small_rows, small_pivots = _echelon_small(arr, p)
    assert pivots == small_pivots == [0, 1, 2]
    assert np.array_equal(rows, small_rows)


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


def minors_nonzero_by_rank(rows, p):
    """Reference: every square submatrix of `rows` has full rank."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    f = PrimeField(p)
    return all(
        matrix_rank(DenseMatrix(f, [[rows[i][j] for j in cs] for i in rs])) == t
        for t in range(1, min(m, n) + 1)
        for rs in combinations(range(m), t)
        for cs in combinations(range(n), t)
    )


@st.composite
def minor_cases(draw):
    """A prime in {2, 3, 5, 7} and a matrix over it of at most 4x4, empty allowed."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4)) if m else 0
    if draw(st.booleans()):
        # Cauchy matrix 1/(x_i - y_j) on m + n distinct points: every minor is nonzero.
        m = min(m, p)
        n = min(n, p - m)
        pts = draw(st.permutations(range(p)))
        rows = [[pow(x - y, -1, p) for y in pts[m:m + n]] for x in pts[:m]]
    else:
        # Nonzero entries often, so that the larger minors are reached.
        low = draw(st.sampled_from((0, 1)))
        entries = st.lists(st.integers(low, p - 1), min_size=n, max_size=n)
        rows = draw(st.lists(entries, min_size=m, max_size=m))
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, p - 1))
    return p, rows


@settings(max_examples=400, deadline=None)
@given(minor_cases())
@example((7, [[1, 5, 2, 5], [4, 4, 6, 2], [6, 4, 4, 5], [5, 2, 6, 5]]))
def test_all_minors_nonzero_matches_ranks(case):
    p, rows = case
    assert all_minors_nonzero(rows, p) == minors_nonzero_by_rank(rows, p)
