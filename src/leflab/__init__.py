"""leflab: exact-arithmetic laboratory for maximal-rank questions.

Two engines, cross-verified on parameter sweeps:

* an exact oracle that computes ranks of multiplication-by-power maps on
  quotients by powers of general linear forms over a large prime field, and
* a closed-form theory engine that classifies, from the exponent multiset
  alone, when those maps have maximal rank.

A plane-curve linear-system calculator (expected dimensions, Bezout and
Cremona reductions, the double-point classification and the fat-point
duality) bridges the two.
"""

from .modp import DEFAULT_PRIME, DenseMatrix, PrimeField, matrix_rank
from .polyring import LinearFormRep, monomial_basis, mult_matrix, power_coords
from .oracle import (
    ExponentSpec,
    HilbertData,
    IdealSample,
    NonArtinianError,
    PrimeTooSmallError,
    RankReport,
    hilbert_function,
    ideal_piece_dim,
    lefschetz_scan,
    mult_matrix_on_quotient,
    mult_rank_report,
    quotient_dim,
    rank_with_form,
    regularity,
    sample_ideal,
)
from .linsys import (
    PlaneSystem,
    ReductionTrace,
    ah_double_dim,
    bezout_step,
    cremona_step,
    dual_system,
    expected_dim,
    fatpoint_dim,
    is_standard_form,
    system_dim,
)
from .theory import (
    Verdict,
    classify_cube,
    classify_square,
    peak_degree,
    slp_verdict,
    verdict_for,
)
from .harness import SweepConfig, VerificationRow, run_verification

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME",
    "DenseMatrix",
    "PrimeField",
    "matrix_rank",
    "LinearFormRep",
    "monomial_basis",
    "mult_matrix",
    "power_coords",
    "ExponentSpec",
    "HilbertData",
    "IdealSample",
    "NonArtinianError",
    "PrimeTooSmallError",
    "RankReport",
    "hilbert_function",
    "ideal_piece_dim",
    "lefschetz_scan",
    "mult_matrix_on_quotient",
    "mult_rank_report",
    "quotient_dim",
    "rank_with_form",
    "regularity",
    "sample_ideal",
    "PlaneSystem",
    "ReductionTrace",
    "ah_double_dim",
    "bezout_step",
    "cremona_step",
    "dual_system",
    "expected_dim",
    "fatpoint_dim",
    "is_standard_form",
    "system_dim",
    "Verdict",
    "classify_cube",
    "classify_square",
    "peak_degree",
    "slp_verdict",
    "verdict_for",
    "SweepConfig",
    "VerificationRow",
    "run_verification",
    "__version__",
]
