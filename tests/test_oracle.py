from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leflab.modp import DenseMatrix, PrimeField, matrix_rank
from leflab.oracle import (
    ExponentSpec,
    IdealSample,
    NonArtinianError,
    PrimeTooSmallError,
    _ideal_matrix,
    _in_general_position,
    ci_frame,
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
from leflab.polyring import LinearFormRep
from leflab.theory import classify_cube, peak_degree, slp_verdict


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
    """Reference general-position test: every r of the forms have rank r."""
    r = sample.spec.num_vars
    return all(
        matrix_rank(DenseMatrix(sample.field, [f.coeffs for f in subset])) == r
        for subset in combinations(sample.forms, r)
    )


def new_coords(frame, form, p):
    """Coordinates of `form` in the frame, in exact integer arithmetic."""
    return [int(v) % p for v in frame.change.astype(object) @ np.array(form.coeffs, dtype=object)]


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


def test_sampling_rejects_small_prime():
    with pytest.raises(PrimeTooSmallError):
        sample_ideal(ExponentSpec(3, (3, 3, 3)), prime=31)


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
    hd = hilbert_function(s)
    assert list(hd.values) == [1, 3, 3, 1]
    assert hd.regularity == 3

    s = sample_ideal(ExponentSpec(3, (3, 3, 3, 3)))
    hd = hilbert_function(s)
    assert list(hd.values) == [1, 3, 6, 6, 3]
    assert hd.regularity == 4
    assert regularity(s) == 4


def test_hilbert_function_requires_artinian():
    s = sample_ideal(ExponentSpec(3, (2,)))
    with pytest.raises(NonArtinianError):
        hilbert_function(s)
    with pytest.raises(NonArtinianError):
        lefschetz_scan(s, 1)


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
        for j in range(k, min(reg + 1, k + 4)):
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


def test_results_stable_across_primes():
    # Dimensions and failing sets agree between two distinct 31-bit moduli,
    # ruling out characteristic artifacts at these degrees.
    from leflab.harness import SECOND_PRIME

    spec = ExponentSpec(3, (3, 3, 3, 3))
    first = sample_ideal(spec, seed=11)
    second = sample_ideal(spec, prime=SECOND_PRIME, seed=11)
    assert hilbert_function(first).values == hilbert_function(second).values
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


def test_ci_frame_skips_dependent_first_forms():
    # x, y, x+y are dependent, so z becomes the third variable; mod (x^2, y^2)
    # the square (x+y)^2 is 2xy, and the quotient is K[x,y]/(x,y)^2 (x) K[z]/(z^3).
    field = PrimeField()
    forms = tuple(LinearFormRep(c) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    sample = IdealSample(ExponentSpec(3, (2, 2, 2, 3)), forms, field, seed=0)
    frame = ci_frame(sample)
    assert frame.caps == (2, 2, 3)
    assert frame.rest == ((LinearFormRep((1, 1, 0)), 2),)
    assert hilbert_function(sample).values == (1, 3, 3, 2)
    for j in range(0, 7):
        assert ideal_piece_dim(sample, j) == full_ring_ideal_dim(sample, j)


@pytest.mark.parametrize("exponents", [(2, 3, 3, 5, 6), (2, 3)])
def test_ci_frame_maps_chosen_forms_to_unit_vectors(exponents):
    sample = sample_ideal(ExponentSpec(4, exponents), seed=7)
    p = sample.field.modulus
    frame = ci_frame(sample)
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
def test_exchange_step_matches_adjoined_frame(case):
    # rank_with_form ranks the trial ideal in a frame made from the sample's
    # own by one exchange step; the reference ranks it in the frame of the
    # adjoined sample.
    sample, k, trial_forms = case
    for form in trial_forms:
        adjoined = sample.adjoin_form(form, k)
        for j in range(0, 9):
            expected = quotient_dim(sample, j) - quotient_dim(adjoined, j)
            assert rank_with_form(sample, form, k, j) == expected, (sample, form, k, j)


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


def test_general_position_needs_two_by_two_minors():
    # B = [[1, 1], [1, 1], [1, 2]] has no zero entry, but its top 2x2 minor
    # vanishes: z, x+y+z and x+y+2z are dependent.
    forms = tuple(LinearFormRep(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 2)))
    sample = IdealSample(ExponentSpec(3, (2,) * 5), forms, PrimeField(), seed=0)
    assert all(all(form.coeffs) for form, _ in ci_frame(sample).rest)
    assert not subsets_independent(sample)
    assert not _in_general_position(sample)
