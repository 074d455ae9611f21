from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leflab import oracle
from leflab.modp import DEFAULT_PRIME, DenseMatrix, PrimeField, matrix_rank
from leflab.oracle import (
    ExponentSpec,
    IdealSample,
    NonArtinianError,
    PrimeTooSmallError,
    _ideal_matrix,
    _in_general_position,
    _seeded_rng,
    hilbert_function,
    ideal_piece_dim,
    lefschetz_scan,
    mult_matrix_on_quotient,
    mult_rank_report,
    quotient_dim,
    random_form,
    regularity,
    sample_ideal,
    rank_with_form,
)
from leflab.linsys import binom, dual_system, system_dim
from leflab.polyring import LinearFormRep, graded_dim, power_coords
from leflab.theory import classify_cube, peak_degree, slp_verdict, verdict_for


def ci_hilbert(exponents):
    """Independent oracle: Hilbert function of a monomial complete intersection.

    Valid when the number of forms equals the number of variables; then the
    quotient is, after a change of coordinates, K[y_i]/(y_i^{a_i}) and the
    Hilbert series is the product of the truncated geometric blocks.
    """
    coeffs = [1]
    for a in exponents:
        out = [0] * (len(coeffs) + a - 1)
        for i, c in enumerate(coeffs):
            for e in range(a):
                out[i + e] += c
        coeffs = out
    return coeffs


def full_ring_ideal_dim(sample, j):
    """Independent oracle: rank of every generator multiple in all of R_j."""
    return matrix_rank(DenseMatrix(sample.field, _ideal_matrix(sample, j)))


def subsets_independent(sample):
    """Reference general-position test: every t = min(r, s) of the forms have rank t."""
    t = min(sample.spec.num_vars, sample.spec.s)
    return all(
        matrix_rank(DenseMatrix(sample.field, [f.coeffs for f in subset])) == t
        for subset in combinations(sample.forms, t)
    )


def new_coords(frame, form, p):
    """Coordinates of `form` in the frame, in exact integer arithmetic."""
    return [sum(c * x for c, x in zip(row, form.coeffs)) % p for row in frame.change]


def test_spec_normalizes_and_validates():
    spec = ExponentSpec(3, (5, 2, 3))
    assert spec.exponents == (2, 3, 5)
    assert spec.s == 3 and spec.is_artinian
    assert not ExponentSpec(3, (2, 2)).is_artinian
    with pytest.raises(ValueError):
        ExponentSpec(3, (0, 2))
    with pytest.raises(ValueError):
        ExponentSpec(1, (2, 2))


def test_sampling_is_deterministic():
    spec = ExponentSpec(3, (3, 3, 3, 3))
    a = sample_ideal(spec, seed=5)
    b = sample_ideal(spec, seed=5)
    assert a == b
    c = sample_ideal(spec, seed=6)
    assert a.forms != c.forms


def test_specs_draw_independent_samples():
    # One seed, specs differing in an exponent or in the variable count; the
    # leading coordinates are compared so a shared stream would show.
    cubes = ExponentSpec(3, (3, 3, 3, 3))
    specs = (cubes, ExponentSpec(3, (3, 3, 3, 4)), ExponentSpec(4, (3,) * 4))
    samples = [sample_ideal(spec, seed=5) for spec in specs]
    firsts = [sample.forms[0].coeffs[:3] for sample in samples]
    assert len(set(firsts)) == 3
    trials = [
        random_form(sample.field, 3, oracle._trial_rng(sample, 2)).coeffs[:3] for sample in samples
    ]
    assert len(set(trials)) == 3
    again = sample_ideal(cubes, seed=5)
    assert again.forms == samples[0].forms
    assert random_form(again.field, 3, oracle._trial_rng(again, 2)).coeffs == trials[0]


def reference_sample_forms(spec, prime, rng):
    """The forms `sample_ideal` draws from `rng`, drawn form by form.

    Shares no code with the library's draws: each form is one
    `rng.integers` call of r coefficients, and attempts of s forms repeat
    until no form is zero and every min(r, s) forms are independent.
    """
    field = PrimeField(prime)
    while True:
        draws = [tuple(int(v) for v in rng.integers(0, prime, size=spec.num_vars)) for _ in range(spec.s)]
        if not all(any(coeffs) for coeffs in draws):
            continue
        forms = tuple(LinearFormRep(coeffs) for coeffs in draws)
        if subsets_independent(IdealSample(spec, forms, field, seed=0)):
            return forms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_draws_match_per_form_draws(data):
    # At p = 101 general position often fails, so later attempts are compared too.
    prime = data.draw(st.sampled_from((DEFAULT_PRIME, 101)), label="prime")
    r = data.draw(st.integers(2, 5), label="num_vars")
    s = data.draw(st.integers(1, r + 3), label="s")
    exps = data.draw(st.lists(st.integers(1, 8), min_size=s, max_size=s), label="exponents")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    spec = ExponentSpec(r, tuple(exps))
    rng = np.random.default_rng([seed, r, *spec.exponents])
    assert sample_ideal(spec, prime, seed).forms == reference_sample_forms(spec, prime, rng)


def test_seeded_rng_draws_as_the_list_key_does(monkeypatch):
    # Keys of 32-bit entries go to numpy as a uint32 array, others as the
    # list; either way the draws are those of the list key.
    keys = ([0, 3, 2, 4], [2**32 - 1, 0, 7], [5, 2**32, 1])
    for key in keys:
        expected = np.random.default_rng(key).integers(0, DEFAULT_PRIME, size=16)
        assert np.array_equal(_seeded_rng(key).integers(0, DEFAULT_PRIME, size=16), expected)
    seen = []
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: seen.append(key) or real_rng(key))
    for key in keys:
        _seeded_rng(key)
    monkeypatch.undo()
    assert [type(key) for key in seen] == [np.ndarray, np.ndarray, list]
    assert all(key.dtype == np.uint32 for key in seen[:2])
    assert [key.tolist() for key in seen[:2]] == [keys[0], keys[1]] and seen[2] == keys[2]
    # A negative entry keeps the list form, and numpy's refusal.
    with pytest.raises(ValueError):
        _seeded_rng([-1, 3])


_default_rng = np.random.default_rng


class ZeroingGenerator:
    """A generator stub whose draws at the given stream positions are 0."""

    def __init__(self, seed, zeros):
        self.rng, self.zeros, self.drawn = _default_rng(seed), zeros, 0

    def integers(self, low, high, size):
        out = self.rng.integers(low, high, size=size)
        flat = out.reshape(-1)
        for i in range(flat.size):
            if self.drawn + i in self.zeros:
                flat[i] = 0
        self.drawn += flat.size
        return out


@pytest.mark.parametrize("zeros", [range(0, 3), range(3, 6), range(3, 9), range(9, 12)])
def test_zero_row_redraws_the_whole_attempt(monkeypatch, zeros):
    # Zero the first form, the second, the second and third, or the last: the
    # whole first attempt is drawn again, so the forms are the second block.
    spec, seed = ExponentSpec(3, (2, 3, 3, 4)), 5
    key = [seed, 3, *spec.exponents]
    expected = reference_sample_forms(spec, DEFAULT_PRIME, ZeroingGenerator(key, set(zeros)))
    blocks = _default_rng(key).integers(0, DEFAULT_PRIME, size=(2, 4, 3)).tolist()
    assert [f.coeffs for f in expected] == [tuple(row) for row in blocks[1]]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroingGenerator(seed, set(zeros)))
    assert sample_ideal(spec, seed=seed).forms == expected


def test_sampling_rejects_small_prime():
    with pytest.raises(PrimeTooSmallError):
        sample_ideal(ExponentSpec(3, (3, 3, 3)), prime=31)


def test_sampling_gives_up_after_its_draw_budget():
    # 107 passes the bound for forty squares, but forty random points of the
    # plane over F_107 are almost never in general position.
    with pytest.raises(PrimeTooSmallError, match="prime 107 too small: 1000 draws of 40 forms in 3 variables"):
        sample_ideal(ExponentSpec(3, (2,) * 40), prime=107)


def test_zero_row_draws_count_against_the_budget(monkeypatch):
    draws = []

    class ZeroRows:
        def integers(self, low, high, size):
            draws.append(size)
            assert len(draws) <= oracle.SAMPLE_DRAWS
            return np.zeros(size, dtype=np.int64)

    monkeypatch.setattr(oracle, "_seeded_rng", lambda key: ZeroRows())
    with pytest.raises(PrimeTooSmallError):
        sample_ideal(ExponentSpec(3, (3, 3, 3)))
    assert len(draws) == oracle.SAMPLE_DRAWS


def test_blocks_from_the_prime_on_are_refused():
    # 97 passes sample_ideal's bound for three 35th powers, but in
    # characteristic 97 the block of L^95 into degree 97 has rank 5, not 6.
    spec = ExponentSpec(3, (35, 35, 35))
    small = sample_ideal(spec, prime=97)
    with pytest.raises(PrimeTooSmallError, match="prime 97 too small for degree 97"):
        mult_rank_report(small, 95, 97)
    report = mult_rank_report(sample_ideal(spec), 95, 97)
    assert (report.dim_domain, report.dim_codomain, report.rank) == (6, 21, 6)
    # The frame's shortcuts build no block, so they still answer: three
    # powers and no remaining one, up to and past the socle degree 102.
    assert [quotient_dim(small, j) for j in (96, 97, 102, 103)] == [
        quotient_dim(sample_ideal(spec), j) for j in (96, 97, 102, 103)
    ]
    assert quotient_dim(small, 103) == 0


def test_coordinate_system_sample_is_independent():
    spec = ExponentSpec(3, (2, 3, 4))
    s = sample_ideal(spec)
    from leflab.modp import DenseMatrix

    m = DenseMatrix(s.field, [f.coeffs for f in s.forms])
    assert matrix_rank(m) == 3


def test_ideal_piece_dim_below_generators_is_zero():
    s = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)))
    assert ideal_piece_dim(s, 0) == 0
    assert ideal_piece_dim(s, 2) == 0


def test_ideal_piece_dims_complete_intersection():
    # For three general quadrics the quotient Hilbert function is the
    # monomial complete intersection one, [1, 3, 3, 1].
    s = sample_ideal(ExponentSpec(3, (2, 2, 2)))
    want = ci_hilbert((2, 2, 2))  # [1, 3, 3, 1]
    assert want == [1, 3, 3, 1]
    for j, h in enumerate(want):
        assert quotient_dim(s, j) == h
        assert ideal_piece_dim(s, j) == binom(j + 2, 2) - h
    # Degree 3: ideal piece has dimension 10 - 1 = 9.
    assert ideal_piece_dim(s, 3) == 9


def test_ideal_piece_dim_four_cubes_degree_four():
    s = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)))
    assert ideal_piece_dim(s, 4) == 12


def test_quotient_dims_four_cubes():
    s = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)))
    assert quotient_dim(s, 3) == 6
    assert quotient_dim(s, 4) == 3


def test_quotient_dim_single_power_closed_form():
    # dim of K[x,y,z]/(L^k) in degree j: kj + 1 - C(k-1,2) for j >= k,
    # C(j+2,2) below.
    for k in (2, 3, 5):
        s = sample_ideal(ExponentSpec(3, (k,)))
        for j in range(0, k):
            assert quotient_dim(s, j) == binom(j + 2, 2)
        for j in range(k, k + 5):
            assert quotient_dim(s, j) == k * j + 1 - binom(k - 1, 2)


def test_hilbert_function_cases():
    s = sample_ideal(ExponentSpec(3, (2, 2, 2)))
    assert hilbert_function(s) == (1, 3, 3, 1)
    assert regularity(s) == 3

    s = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)))
    assert hilbert_function(s) == (1, 3, 6, 6, 3)
    assert regularity(s) == 4


def test_hilbert_function_requires_artinian():
    s = sample_ideal(ExponentSpec(3, (2,)))
    with pytest.raises(NonArtinianError):
        hilbert_function(s)
    with pytest.raises(NonArtinianError):
        lefschetz_scan(s, 1)


def test_forms_spanning_a_plane_are_not_artinian():
    # Four forms in three variables, all in the plane z = 0: s >= r, but a
    # variable stays free in the frame, and the quotient never vanishes.
    sample = IdealSample(
        ExponentSpec(3, (2, 2, 2, 3)),
        tuple(LinearFormRep(c) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0))),
        PrimeField(),
        seed=0,
    )
    assert None in sample.frame.caps
    with pytest.raises(NonArtinianError, match="4 forms in 3 variables spanning 2 dimensions"):
        hilbert_function(sample)
    with pytest.raises(NonArtinianError):
        lefschetz_scan(sample, 1)


@st.composite
def capped_samples(draw):
    """An artinian sample in 2-5 variables, with or without an adjoined trial form."""
    r = draw(st.integers(2, 5), label="num_vars")
    s = draw(st.integers(r, r + 2), label="s")
    exponents = tuple(draw(st.lists(st.integers(1, 5), min_size=s, max_size=s), label="exponents"))
    sample = sample_ideal(ExponentSpec(r, exponents), seed=draw(st.integers(0, 999), label="seed"))
    if draw(st.booleans(), label="adjoined"):
        rng = np.random.default_rng(draw(st.integers(0, 999), label="form seed"))
        sample = sample.adjoin_form(random_form(sample.field, r, rng), draw(st.integers(1, 4), label="k"))
    return sample


@settings(max_examples=60, deadline=None)
@given(capped_samples())
def test_pieces_past_the_socle_build_nothing(sample):
    # Past the socle of the frame's complete intersection the ideal is all
    # of R_j, read off the caps: no row set or multiplication matrix is built.
    def refuse(*args):
        raise AssertionError("built a piece past the socle")

    caps = sample.frame.caps
    assert None not in caps
    socle = sum(caps) - len(caps)
    ideal_piece_dim.cache_clear()
    with patch.object(oracle, "ci_basis", refuse), patch.object(oracle, "mult_matrix", refuse):
        for j in range(socle + 1, socle + 4):
            assert ideal_piece_dim(sample, j) == graded_dim(len(caps), j)
            assert quotient_dim(sample, j) == 0


@settings(max_examples=60, deadline=None)
@given(capped_samples(), st.data())
def test_piece_dims_do_not_depend_on_the_frames_variable_order(sample, data):
    # The frame with its variables permuted (the rows of change, and the
    # coordinates of caps and rest, all together) frames the same ideal.
    frame = sample.frame
    order = data.draw(st.permutations(range(len(frame.caps))), label="order")
    permuted = oracle.CIFrame(
        tuple(frame.change[i] for i in order),
        tuple(frame.caps[i] for i in order),
        tuple((LinearFormRep(tuple(form.coeffs[i] for i in order)), a) for form, a in frame.rest),
    )
    # Another seed: ideal_piece_dim keys on the sample, not on its frame.
    other = IdealSample(sample.spec, sample.forms, sample.field, sample.seed + 1000, frame=permuted)
    for j in range(regularity(sample) + 2):
        assert ideal_piece_dim(other, j) == ideal_piece_dim(sample, j), (sample.spec, order, j)


def test_forms_must_match_the_spec():
    # One form per exponent, each with one coefficient per variable; an
    # adjoined form too.  Nothing is truncated.
    spec, field = ExponentSpec(3, (2, 2, 2)), PrimeField()
    forms = tuple(LinearFormRep(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        IdealSample(spec, forms[:2], field, seed=0)
    with pytest.raises(ValueError):
        IdealSample(spec, tuple(LinearFormRep(f.coeffs[:2]) for f in forms), field, seed=0)
    sample = IdealSample(spec, forms, field, seed=0)
    with pytest.raises(ValueError):
        rank_with_form(sample, LinearFormRep((1, 2)), 1, 2)
    # x + 2y sends x, y and z to 2xy, xy and xz + 2yz modulo the squares.
    assert rank_with_form(sample, LinearFormRep((1, 2, 0)), 1, 2) == 2


def test_two_seeds_agree_on_dimensions():
    spec = ExponentSpec(3, (2, 3, 3, 4))
    a = sample_ideal(spec, seed=1)
    b = sample_ideal(spec, seed=2)
    assert hilbert_function(a) == hilbert_function(b)


def test_rank_report_four_cubes():
    s = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)))
    rep = mult_rank_report(s, 3, 4)
    assert (rep.dim_domain, rep.dim_codomain) == (3, 3)
    assert (rep.rank, rep.kernel_dim, rep.cokernel_dim) == (2, 1, 1)
    assert not rep.is_maximal and rep.deficiency == 1

    rep = mult_rank_report(s, 3, 3)
    assert (rep.dim_domain, rep.dim_codomain, rep.rank) == (1, 6, 1)
    assert rep.is_maximal

    for j in range(2, 7):
        assert mult_rank_report(s, 2, j).is_maximal


def test_scan_four_cubes():
    s = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)))
    assert lefschetz_scan(s, 3) == [(4, 1)]
    assert lefschetz_scan(s, 1) == []


def test_scan_wlp_always_holds_in_three_vars():
    rng = np.random.default_rng(17)
    for i in range(8):
        s_ = int(rng.integers(3, 6))
        exps = tuple(int(x) for x in rng.integers(2, 7, size=s_))
        s = sample_ideal(ExponentSpec(3, exps), seed=i)
        assert lefschetz_scan(s, 1) == []


def test_rank_identity_two_routes_agree():
    # The dimension-drop route and the quotient-coordinate matrix route
    # compute the same rank for the same concrete form.
    rng = np.random.default_rng(23)
    for i in range(6):
        s_ = int(rng.integers(3, 6))
        exps = tuple(int(x) for x in rng.integers(2, 6, size=s_))
        sample = sample_ideal(ExponentSpec(3, exps), seed=i)
        reg = regularity(sample)
        k = int(rng.integers(1, 4))
        gen = np.random.default_rng(100 + i)
        form = random_form(sample.field, 3, gen)
        # Below k the domain is 0: the induced matrix has no columns.
        for j in range(k - 2, min(reg + 1, k + 4)):
            drop = rank_with_form(sample, form, k, j)
            induced = mult_matrix_on_quotient(sample, form, k, j)
            assert induced.rows == quotient_dim(sample, j)
            assert induced.cols == quotient_dim(sample, j - k)
            assert matrix_rank(induced) == drop


def test_duality_with_plane_systems():
    rng = np.random.default_rng(29)
    for i in range(10):
        s_ = int(rng.integers(3, 6))
        exps = tuple(int(x) for x in rng.integers(1, 7, size=s_))
        spec = ExponentSpec(3, exps)
        sample = sample_ideal(spec, seed=i)
        for j in range(0, regularity(sample) + 2):
            dim, _ = system_dim(dual_system(spec, j), seed=i)
            assert quotient_dim(sample, j) == dim


def test_unimodality_window():
    # Multiplication by one general form: injective through the peak degree,
    # surjective beyond it.
    rng = np.random.default_rng(31)
    for i in range(6):
        s_ = int(rng.integers(3, 6))
        exps = tuple(int(x) for x in rng.integers(2, 7, size=s_))
        spec = ExponentSpec(3, exps)
        sample = sample_ideal(spec, seed=i)
        p = peak_degree(spec)
        for j in range(1, regularity(sample) + 2):
            rep = mult_rank_report(sample, 1, j)
            if j <= p:
                assert rep.kernel_dim == 0, (exps, j)
            else:
                assert rep.cokernel_dim == 0, (exps, j)


def test_peak_equals_regularity_of_linear_quotient():
    rng = np.random.default_rng(37)
    for i in range(10):
        s_ = int(rng.integers(2, 6))
        exps = tuple(int(x) for x in rng.integers(1, 8, size=s_))
        spec = ExponentSpec(3, exps)
        sample = sample_ideal(spec, seed=i)
        form = random_form(sample.field, 3, np.random.default_rng(500 + i))
        assert regularity(sample.adjoin_form(form, 1)) == peak_degree(spec)


def injectivity_certificate(spec, k, j):
    """Quotient dimension that certifies injectivity of a k-th-power map.

    If the degree-j piece of the quotient by the ideal with a general k-th
    power adjoined has exactly this dimension, multiplication by that power
    into degree j is injective.  Needs k >= 1 and j >= max(k, largest exponent).
    """
    head = j * k + 1 - binom(k - 1, 2)
    low = sum(k * (j - a) + 1 - binom(k - 1, 2) for a in spec.exponents if a <= j - k)
    high = sum(binom(j - a + 2, 2) for a in spec.exponents if a > j - k)
    return head - low - high


def test_injectivity_certificate_matches_oracle():
    # Wherever the adjoined quotient dimension equals the certificate value,
    # the rank report must show an injective map.
    rng = np.random.default_rng(41)
    hits = 0
    for i in range(10):
        s_ = int(rng.integers(1, 5))
        exps = tuple(int(x) for x in rng.integers(2, 6, size=s_))
        spec = ExponentSpec(3, exps)
        sample = sample_ideal(spec, seed=i)
        k = int(rng.integers(1, 4))
        form = random_form(sample.field, 3, np.random.default_rng(900 + i))
        for j in range(max(k, max(exps)), max(k, max(exps)) + 3):
            cert = injectivity_certificate(spec, k, j)
            adjoined = quotient_dim(sample.adjoin_form(form, k), j)
            if adjoined == cert:
                hits += 1
                rank = rank_with_form(sample, form, k, j)
                assert rank == quotient_dim(sample, j - k)
    assert hits > 0


def test_certificate_known_values():
    spec = ExponentSpec(3, (3, 3, 3, 3))
    assert injectivity_certificate(spec, 3, 4) == 0
    sample = sample_ideal(spec)
    # Certificate not met: cokernel in degree 4 is 1, not 0.
    assert mult_rank_report(sample, 3, 4).cokernel_dim == 1

    spec = ExponentSpec(3, (2, 2, 2))
    assert injectivity_certificate(spec, 2, 2) == 2
    sample = sample_ideal(spec)
    form = random_form(sample.field, 3, np.random.default_rng(77))
    assert quotient_dim(sample.adjoin_form(form, 2), 2) == 2
    assert mult_rank_report(sample, 2, 2).kernel_dim == 0

    spec = ExponentSpec(3, (3,))
    assert injectivity_certificate(spec, 3, 4) == 9


def test_exchange_property_on_oracle_data():
    # When the oracle certifies the hypotheses of either variant of the
    # exchange property, it must certify the conclusion: multiplication by
    # the b-th power has maximal rank on the quotient by the k-th power.
    # Variant (a): the base has the WLP, b >= k, and the k-th-power map has
    # maximal rank on the base and on the quotient by the b-th power.
    # Variant (b): the k-th-power map has maximal rank on the quotient by the
    # b-th power and the b-th-power map has maximal rank on the base.
    cases = [((3, 3, 3, 3), 4, 2), ((2, 3, 4), 3, 1), ((4, 4, 4, 4), 5, 3)]
    fired = 0
    for exps, b, k in cases:
        spec = ExponentSpec(3, exps)
        base = sample_ideal(spec, seed=3)
        ell = random_form(base.field, 3, np.random.default_rng(1))
        big_l = random_form(base.field, 3, np.random.default_rng(2))
        wlp_base = lefschetz_scan(base, 1) == []
        power_k_max_on_base = lefschetz_scan(base, k) == []
        power_k_max_on_quotient_by_b = lefschetz_scan(base.adjoin_form(big_l, b), k) == []
        power_b_max_on_base = lefschetz_scan(base, b) == []
        variant_a = wlp_base and b >= k and power_k_max_on_base and power_k_max_on_quotient_by_b
        variant_b = power_k_max_on_quotient_by_b and power_b_max_on_base
        if variant_a or variant_b:
            fired += 1
            assert lefschetz_scan(base.adjoin_form(ell, k), b) == []
    assert fired > 0


def test_scan_ranges_and_trivial_degrees():
    s = sample_ideal(ExponentSpec(3, (2, 2, 2)))
    # All maps to degrees beyond the regularity are surjective onto zero.
    rep = mult_rank_report(s, 2, 5)
    assert rep.dim_codomain == 0 and rep.rank == 0 and rep.is_maximal


def test_scan_refuses_bad_k_and_trials_with_no_degree_to_scan():
    # (2, 2, 2) has regularity 3, so k = 5 leaves no degree to scan, and so
    # does any k < 1; the arguments are checked all the same.
    sample = sample_ideal(ExponentSpec(3, (2, 2, 2)))
    for k, trials in ((-5, 5), (0, 5), (5, 0), (1, 0)):
        with pytest.raises(ValueError, match="need k >= 1, trials >= 1"):
            lefschetz_scan(sample, k, trials=trials)


def test_cube_quotient_failing_powers_match_per_power_checks():
    # On the quotient by a general cube of the (5^5) algebra, the only power
    # whose multiplication misses maximal rank is b=5, in degree 6, by one --
    # the same degree the per-power classification pins for the adjoined
    # exponent 5.  This exercises the exchange correspondence end to end.
    spec = ExponentSpec(3, (5,) * 5)
    sample = sample_ideal(spec)
    ell = random_form(sample.field, 3, np.random.default_rng(42))
    cube_quotient = sample.adjoin_form(ell, 3)
    observed = {}
    for b in range(1, regularity(cube_quotient) + 1):
        failures = lefschetz_scan(cube_quotient, b, trials=2)
        if failures:
            observed[b] = failures
    assert observed == {5: [(6, 1)]}
    answer = slp_verdict(spec.adjoin(3))
    assert answer.rule == "cube-quotient" and answer.verdict.failing_degrees == (6,)
    predicted = {b: list(v.failing_degrees) for b, v in answer.checks if v.failures}
    assert predicted == {5: [6]}


def test_higher_powers_by_exchange_match_oracle():
    # verdict_for answers k >= 4 in three variables by exchanging a generator
    # of degree <= 3 with L^k; the oracle scans agree, failures included.
    failing = 0
    for s in (3, 4, 5):
        for exps in combinations_with_replacement(range(1, 7), s):
            if exps[0] > 3:
                continue
            spec = ExponentSpec(3, exps)
            sample = sample_ideal(spec)
            for k in range(4, 8):
                want = verdict_for(spec, k).failures
                assert tuple(lefschetz_scan(sample, k, trials=2)) == want, (exps, k)
                failing += bool(want)
    assert failing == 13


def test_results_stable_across_primes():
    # Dimensions and failing sets agree between two distinct 31-bit moduli,
    # ruling out characteristic artifacts at these degrees.
    from leflab.harness import SECOND_PRIME

    spec = ExponentSpec(3, (3, 3, 3, 3))
    first = sample_ideal(spec, seed=11)
    second = sample_ideal(spec, prime=SECOND_PRIME, seed=11)
    assert hilbert_function(first) == hilbert_function(second)
    assert lefschetz_scan(first, 3) == lefschetz_scan(second, 3) == [(4, 1)]


def test_large_uniform_cube_case():
    # Well past the acceptance sweep range: s=10 copies of t=18 fail exactly
    # at degree 20 = s*t/(s-1).
    spec = ExponentSpec(3, (18,) * 10)
    sample = sample_ideal(spec)
    assert lefschetz_scan(sample, 3, trials=2) == [(20, 1)]
    assert classify_cube(spec).failing_degrees == (10 * 18 // 9,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ci_frame_dims_match_full_ring(data):
    # Artinian or not, general or special forms, with up to two adjoined
    # powers: the dimension inside the complete intersection plus the monomials
    # it kills equals the rank over the whole graded piece.
    r = data.draw(st.integers(2, 4), label="num_vars")
    s = data.draw(st.integers(1, r + 2), label="s")
    exps = data.draw(st.lists(st.integers(1, 4), min_size=s, max_size=s), label="exponents")
    sample = sample_ideal(ExponentSpec(r, tuple(exps)), seed=data.draw(st.integers(0, 999), label="seed"))
    # Small coefficients put adjoined forms in special position (equal,
    # proportional or dependent on the others) often.
    small_form = st.lists(st.integers(0, 2), min_size=r, max_size=r).filter(any)
    for _ in range(data.draw(st.integers(0, 2), label="adjoined")):
        coeffs = data.draw(small_form, label="adjoined form")
        sample = sample.adjoin_form(LinearFormRep(tuple(coeffs)), data.draw(st.integers(1, 4), label="power"))
    for j in range(0, 9):
        assert ideal_piece_dim(sample, j) == full_ring_ideal_dim(sample, j), (sample.spec, j)


# x, y, x+y are dependent, so z becomes the third variable; mod (x^2, y^2)
# the square (x+y)^2 is 2xy, and the quotient is K[x,y]/(x,y)^2 (x) K[z]/(z^3).
_DEPENDENT_FIRST_FORMS = IdealSample(
    ExponentSpec(3, (2, 2, 2, 3)),
    tuple(LinearFormRep(c) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))),
    PrimeField(),
    seed=0,
)


def test_ci_frame_skips_dependent_first_forms():
    sample = _DEPENDENT_FIRST_FORMS
    frame = sample.frame
    assert frame.caps == (2, 2, 3)
    assert frame.rest == ((LinearFormRep((1, 1, 0)), 2),)
    assert hilbert_function(sample) == (1, 3, 3, 2)
    for j in range(0, 7):
        assert ideal_piece_dim(sample, j) == full_ring_ideal_dim(sample, j)


@pytest.mark.parametrize("exponents", [(2, 3, 3, 5, 6), (2, 3)])
def test_ci_frame_maps_chosen_forms_to_unit_vectors(exponents):
    sample = sample_ideal(ExponentSpec(4, exponents), seed=7)
    p = sample.field.modulus
    frame = sample.frame
    chosen = min(4, len(exponents))
    # General forms: the first ones are chosen, smallest exponents first.
    assert frame.caps == exponents[:chosen] + (None,) * (4 - chosen)
    for m, form in enumerate(sample.forms[:chosen]):
        assert new_coords(frame, form, p) == [int(i == m) for i in range(4)]
    assert [(new_coords(frame, f, p), a) for f, a in zip(sample.forms[chosen:], exponents[chosen:])] == [
        (list(form.coeffs), a) for form, a in frame.rest
    ]


@st.composite
def trial_cases(draw):
    """A sample, a power k and trial forms, often in special position.

    Samples of small forms are dependent or leave free variables, and small
    trial forms then have zero coordinates in the frame.  Multiples of the
    sample's forms are proportional to a chosen or a remaining form, where
    the exact coordinates of the exchange matter.  k runs below, at and
    above the caps.
    """
    r = draw(st.integers(2, 4), label="num_vars")
    s = draw(st.integers(1, r + 2), label="s")
    spec = ExponentSpec(r, tuple(draw(st.lists(st.integers(1, 6), min_size=s, max_size=s), label="exponents")))
    small_form = st.lists(st.integers(0, 2), min_size=r, max_size=r).filter(any).map(lambda c: LinearFormRep(tuple(c)))
    if draw(st.booleans(), label="small sample"):
        sample = IdealSample(spec, tuple(draw(small_form, label="sample form") for _ in range(s)), PrimeField(), seed=0)
    else:
        sample = sample_ideal(spec, seed=draw(st.integers(0, 999), label="seed"))
    k = draw(st.integers(1, 4), label="k")
    scale = draw(st.integers(1, 3), label="scale")
    trial_forms = [draw(small_form, label="trial form")]
    trial_forms += [LinearFormRep(tuple(scale * c for c in f.coeffs)) for f in sample.forms]
    return sample, k, trial_forms


# x, y, z, x+y+z with powers 3, 3, 4, 4.  L = 2(x+y+z) swaps out z and makes
# the remaining form a power of L (a wrong inverse in the exchange keeps it a
# new form); L = x+y has no z coordinate, so z cannot be swapped out.
_SPECIAL_CASE = (
    IdealSample(
        ExponentSpec(3, (3, 3, 4, 4)),
        tuple(LinearFormRep(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
        PrimeField(),
        seed=0,
    ),
    2,
    [LinearFormRep((2, 2, 2)), LinearFormRep((1, 1, 0))],
)


@settings(max_examples=100, deadline=None)
@given(trial_cases())
@example(_SPECIAL_CASE)
def test_trial_form_rank_matches_quotient_matrix(case):
    # rank_with_form ranks the trial form as one more generator of the
    # sample; the reference ranks the induced map on standard monomials.
    sample, k, trial_forms = case
    # The trial forms share the sample's standard monomials in each degree.
    with patch.object(oracle, "standard_monomials", lru_cache(maxsize=None)(oracle.standard_monomials)):
        for form in trial_forms:
            for j in range(k, 9):
                expected = matrix_rank(mult_matrix_on_quotient(sample, form, k, j))
                assert rank_with_form(sample, form, k, j) == expected, (sample, form, k, j)


def test_scan_draws_one_first_trial_form_per_power(monkeypatch):
    # A scan draws and adjoins its first trial form once, however many
    # degrees it covers, and sends only the short degree 5 to
    # mult_rank_report, which draws its trials from a fresh stream: each
    # stream's t-th adjoined form is its t-th draw.  Degree 5 fails, so
    # there every trial is used.
    sample = sample_ideal(ExponentSpec(3, (3, 4, 4, 4)), seed=5)
    adjoin, adjoined = IdealSample.adjoin_form, []
    trial_rng, streams = oracle._trial_rng, []
    report, degrees = oracle.mult_rank_report, []

    def counting_adjoin(self, form, power):
        adjoined.append((self, form, power))
        return adjoin(self, form, power)

    def counting_rng(*args):
        streams.append(args)
        return trial_rng(*args)

    def counting_report(sample, k, j, trials):
        degrees.append(j)
        return report(sample, k, j, trials)

    monkeypatch.setattr(IdealSample, "adjoin_form", counting_adjoin)
    monkeypatch.setattr(oracle, "_trial_rng", counting_rng)
    monkeypatch.setattr(oracle, "mult_rank_report", counting_report)
    k, trials = 3, 2
    assert lefschetz_scan(sample, k, trials) == [(5, 1)]
    assert regularity(sample) - k + 1 > trials
    assert degrees == [5]
    assert streams == [(sample, k)] * 2
    rng = trial_rng(sample, k)
    draws = [(sample, random_form(sample.field, 3, rng), k) for _ in range(trials)]
    assert adjoined == draws[:1] + draws


def test_scan_stops_at_the_first_zero_of_the_adjoined_quotient(monkeypatch):
    # Four general cubes and L: h = (1,3,6,6,3) and R/(I, L) has
    # g = (1,2,3,0,...), so from degree 3 on the rank is h[j] and the scan
    # asks nothing of the adjoined sample in degree 4.
    sample = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)), seed=5)
    asked = []

    def spy(sample, j):
        asked.append((sample, j))
        return ideal_piece_dim(sample, j)

    monkeypatch.setattr(oracle, "ideal_piece_dim", spy)
    assert lefschetz_scan(sample, 1) == []
    adjoined = [(other, j) for other, j in asked if other != sample]
    first = adjoined[0][0]
    assert adjoined == [(first, j) for j in (1, 2, 3)]
    assert hilbert_function(sample) == (1, 3, 6, 6, 3)
    assert [quotient_dim(first, j) for j in range(5)] == [1, 2, 3, 0, 0]
    # No degree >= k: nothing to scan.
    assert lefschetz_scan(sample_ideal(ExponentSpec(3, (2, 2, 2))), 5) == []


@st.composite
def artinian_scans(draw):
    r = draw(st.integers(3, 5), label="num_vars")
    s = draw(st.integers(r, r + 2), label="s")
    top = {3: 6, 4: 4, 5: 2}[r]
    exponents = tuple(draw(st.lists(st.integers(1, top), min_size=s, max_size=s), label="exponents"))
    sample = sample_ideal(ExponentSpec(r, exponents), seed=draw(st.integers(0, 999), label="seed"))
    return sample, draw(st.integers(1, 4), label="k"), draw(st.integers(1, 3), label="trials")


@settings(max_examples=60, deadline=None)
@given(artinian_scans())
def test_scan_is_two_hilbert_functions(case):
    # The scan's failures are the per-degree reports', and its first trial
    # form's rank h[j] - g[j] is the rank of the induced map on standard
    # monomials, in every degree from k to the regularity.
    sample, k, trials = case
    h = hilbert_function(sample)
    degrees = range(k, len(h))
    reports = [mult_rank_report(sample, k, j, trials) for j in degrees]
    assert lefschetz_scan(sample, k, trials) == [(rep.j, rep.deficiency) for rep in reports if rep.deficiency]
    form = random_form(sample.field, sample.spec.num_vars, oracle._trial_rng(sample, k))
    adjoined = sample.adjoin_form(form, k)
    with patch.object(oracle, "standard_monomials", lru_cache(maxsize=None)(oracle.standard_monomials)):
        for j in degrees:
            rank = matrix_rank(mult_matrix_on_quotient(sample, form, k, j))
            assert rank == h[j] - quotient_dim(adjoined, j), (sample.spec, k, j)


def test_sample_hash_is_cached_and_frame_free():
    # Equal samples built apart hash equal, so either one finds the other's
    # cached pieces; a frame given explicitly changes neither equality nor hash.
    spec = ExponentSpec(3, (3, 3, 4, 4))
    a, b = sample_ideal(spec, seed=7), sample_ideal(spec, seed=7)
    assert a is not b and a == b and hash(a) == hash(b)
    ideal_piece_dim.cache_clear()
    ideal_piece_dim(a, 5)
    ideal_piece_dim(b, 5)
    info = ideal_piece_dim.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    adjoined = a.adjoin_form(random_form(a.field, 3, np.random.default_rng(2)), 2)
    plain = IdealSample(adjoined.spec, adjoined.forms, adjoined.field, adjoined.seed)
    assert adjoined == plain and hash(adjoined) == hash(plain)


def test_cold_scan_power_coords_do_not_grow_with_degrees():
    # Each adjoined sample's frame serves every degree, so a scan computes
    # the powers of its forms once, however many degrees it covers.
    counts = []
    for exponents in ((3, 3, 3, 3), (6, 6, 6, 6)):
        for cache in (power_coords, ideal_piece_dim):
            cache.cache_clear()
        sample = sample_ideal(ExponentSpec(3, exponents), seed=5)
        lefschetz_scan(sample, 1, trials=1)
        counts.append((regularity(sample), power_coords.cache_info().misses))
    (few, misses_few), (many, misses_many) = counts
    assert many > few
    assert misses_many == misses_few


def test_adjoined_sample_takes_one_exchange_step(monkeypatch):
    # The adjoined sample extends the sample's frame; it does not re-fold
    # the sample's own forms.
    sample = sample_ideal(ExponentSpec(3, (3, 3, 4, 5, 5)), seed=5)
    exchange, calls = oracle._exchange, []

    def counting(*args):
        calls.append(args)
        return exchange(*args)

    monkeypatch.setattr(oracle, "_exchange", counting)
    form = random_form(sample.field, 3, np.random.default_rng(3))
    adjoined = sample.adjoin_form(form, 2)
    assert calls == [(sample.frame, form, 2, sample.field.modulus)]
    # The step displaces the cap 4; the variables keep the order the steps
    # left them in.
    assert sorted(adjoined.frame.caps) == [2, 3, 3]
    assert sorted(sample.frame.caps) == [3, 3, 4] and adjoined.frame.rest[-1][1] == 4
    # The frame is derived data: not part of equality, hashing or repr.
    assert adjoined == IdealSample(adjoined.spec, adjoined.forms, adjoined.field, adjoined.seed)
    assert "frame" not in repr(adjoined)


def test_cold_scan_misses_each_piece_once(monkeypatch):
    # The largest scan in the suite: ideal_piece_dim's bound evicts nothing
    # the scan still needs, so it misses once per distinct (sample, j).
    keys = set()

    def spy(sample, j):
        keys.add((sample, j))
        return ideal_piece_dim(sample, j)

    monkeypatch.setattr(oracle, "ideal_piece_dim", spy)
    ideal_piece_dim.cache_clear()
    lefschetz_scan(sample_ideal(ExponentSpec(3, (18,) * 10)), 3, trials=2)
    assert ideal_piece_dim.cache_info().misses == len(keys)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_general_position_matches_subset_ranks(data):
    # Over small primes dependent r-subsets are common.
    p = data.draw(st.sampled_from((7, 11)), label="p")
    r = data.draw(st.integers(2, 4), label="num_vars")
    s = data.draw(st.integers(r, r + 3), label="s")
    coeffs = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).filter(any)
    forms = tuple(LinearFormRep(tuple(c)) for c in data.draw(st.lists(coeffs, min_size=s, max_size=s), label="forms"))
    sample = IdealSample(ExponentSpec(r, (2,) * s), forms, PrimeField(p), seed=0)
    assert _in_general_position(sample) == subsets_independent(sample)


def test_general_position_with_fewer_forms_than_variables():
    # s < r asks every form to be independent.  The third form is the sum of
    # the first two, so it lands in the frame's rest with a zero coordinate.
    field = PrimeField(7)
    forms = tuple(LinearFormRep(c) for c in ((1, 2, 0, 3), (0, 1, 1, 1), (1, 3, 1, 4)))
    independent = IdealSample(ExponentSpec(4, (2, 2)), forms[:2], field, seed=0)
    assert independent.frame.rest == () and _in_general_position(independent)
    dependent = IdealSample(ExponentSpec(4, (2, 2, 2)), forms, field, seed=0)
    assert len(dependent.frame.rest) == 1 and not _in_general_position(dependent)


def test_general_position_needs_two_by_two_minors():
    # B = [[1, 1], [1, 1], [1, 2]] has no zero entry, but its top 2x2 minor
    # vanishes: z, x+y+z and x+y+2z are dependent.
    forms = tuple(LinearFormRep(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 2)))
    sample = IdealSample(ExponentSpec(3, (2,) * 5), forms, PrimeField(), seed=0)
    assert all(all(form.coeffs) for form, _ in sample.frame.rest)
    assert not subsets_independent(sample)
    assert not _in_general_position(sample)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ci_frame_chooses_forms_independent_of_earlier_ones(data):
    # Over small primes dependent forms are common, and equal exponents leave
    # the choice to the order of the forms.
    p = data.draw(st.sampled_from((3, 5, 7)), label="p")
    r = data.draw(st.integers(2, 4), label="num_vars")
    s = data.draw(st.integers(1, r + 3), label="s")
    coeffs = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).filter(any)
    forms = tuple(LinearFormRep(tuple(c)) for c in data.draw(st.lists(coeffs, min_size=s, max_size=s), label="forms"))
    exps = tuple(sorted(data.draw(st.lists(st.integers(1, 3), min_size=s, max_size=s), label="exponents")))
    field = PrimeField(p)
    frame = IdealSample(ExponentSpec(r, exps), forms, field, seed=0).frame

    def rank(fs):
        return matrix_rank(DenseMatrix(field, [f.coeffs for f in fs])) if fs else 0

    chosen = [i for i in range(s) if rank(forms[: i + 1]) > rank(forms[:i])]
    assert matrix_rank(DenseMatrix(field, frame.change)) == r
    # Each chosen form is a variable capped by its own power, every other
    # variable is free, and the other forms are `rest`, in their order.
    variables = []
    for i in chosen:
        coords = new_coords(frame, forms[i], p)
        assert sorted(coords) == [0] * (r - 1) + [1], (forms, i)
        variables.append(coords.index(1))
        assert frame.caps[variables[-1]] == exps[i]
    assert len(set(variables)) == len(chosen) == sum(c is not None for c in frame.caps)
    assert frame.rest == tuple(
        (LinearFormRep(tuple(new_coords(frame, forms[i], p))), exps[i]) for i in range(s) if i not in chosen
    )


def test_frames_eliminate_nothing(monkeypatch):
    # Samples and trial forms get their frames by exchange steps; only the
    # full-ring standard-monomial route runs `row_echelon`.
    def refuse(*args):
        raise AssertionError("row_echelon called")

    monkeypatch.setattr(oracle, "row_echelon", refuse)
    ideal_piece_dim.cache_clear()
    artinian = [
        sample_ideal(ExponentSpec(3, (3, 3, 3, 3)), seed=5),
        sample_ideal(ExponentSpec(4, (3, 3, 3, 3, 3)), seed=5),
        sample_ideal(ExponentSpec(4, (2, 3, 3, 3, 3)), seed=5),
        _DEPENDENT_FIRST_FORMS,
    ]
    non_artinian = sample_ideal(ExponentSpec(4, (2, 3)), seed=5)
    assert [[lefschetz_scan(sample, k) for k in (1, 2, 3)] for sample in artinian] == [
        [[], [], [(4, 1)]],
        [[(4, 1)], [], []],
        [[], [(4, 1)], []],
        [[], [], []],
    ]
    assert hilbert_function(artinian[3]) == (1, 3, 3, 2)
    rng = np.random.default_rng(11)
    drops = [
        (sample, form, k, j, rank_with_form(sample, form, k, j))
        for sample in artinian + [non_artinian]
        for form in [random_form(sample.field, sample.spec.num_vars, rng), sample.forms[-1]]
        for k in (1, 2, 3)
        for j in range(k, k + 4)
    ]
    monkeypatch.undo()
    for sample, form, k, j, drop in drops:
        assert matrix_rank(mult_matrix_on_quotient(sample, form, k, j)) == drop, (sample.spec, form, k, j)


def reference_exchange(frame, form, k, p):
    """One exchange step as first written, on (change, caps, rest) triples.

    Shares no code with `oracle._exchange`.
    """
    change, caps, rest = frame
    ell = [sum(c * x for c, x in zip(row, form.coeffs)) % p for row in change]
    m = max((i for i, x in enumerate(ell) if x), key=lambda i: (caps[i] is None, caps[i] or 0))
    if caps[m] is not None and k >= caps[m]:
        return change, caps, rest + ((LinearFormRep(tuple(ell)), k),)
    inv = pow(ell[m], -1, p)

    def exchanged(v):
        vm = v[m] * inv % p
        out = [(x - l * vm) % p for x, l in zip(v, ell)]
        out[m] = vm
        return tuple(out)

    rest = tuple((LinearFormRep(exchanged(f.coeffs)), a) for f, a in rest)
    if caps[m] is not None:
        rest += ((LinearFormRep(exchanged(tuple(int(i == m) for i in range(len(ell))))), caps[m]),)
    change = tuple(zip(*(exchanged(col) for col in zip(*change))))
    return change, caps[:m] + (k,) + caps[m + 1:], rest


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_frames_match_reference_exchange(data):
    # Small coefficients give dependent and zero-coordinate forms at every prime.
    p = data.draw(st.sampled_from((3, 5, 7, DEFAULT_PRIME)), label="p")
    r = data.draw(st.integers(2, 5), label="num_vars")
    s = data.draw(st.integers(1, r + 3), label="s")
    coeff = st.one_of(st.integers(0, min(p - 1, 2)), st.integers(0, p - 1))
    coeffs = st.lists(coeff, min_size=r, max_size=r).filter(any)
    forms = tuple(LinearFormRep(tuple(c)) for c in data.draw(st.lists(coeffs, min_size=s, max_size=s), label="forms"))
    exps = tuple(sorted(data.draw(st.lists(st.integers(1, 4), min_size=s, max_size=s), label="exponents")))
    form = LinearFormRep(tuple(data.draw(coeffs, label="adjoined form")))
    k = data.draw(st.integers(1, 5), label="k")
    sample = IdealSample(ExponentSpec(r, exps), forms, PrimeField(p), seed=0)
    expected = tuple(tuple(int(i == m) for i in range(r)) for m in range(r)), (None,) * r, ()
    for f, a in zip(forms, exps):
        expected = reference_exchange(expected, f, a, p)
    frame = sample.frame
    assert (frame.change, frame.caps, frame.rest) == expected
    adjoined = sample.adjoin_form(form, k).frame
    assert (adjoined.change, adjoined.caps, adjoined.rest) == reference_exchange(expected, form, k, p)
