"""Doubly coupled designs for computer experiments with qualitative and
quantitative factors: construction, verification, and criterion-based search.
"""

__version__ = "0.1.0"

from .arrays import (
    OrthogonalArray,
    is_latin_hypercube,
    is_orthogonal_array,
    level_collapse,
    level_expand,
    make_oa,
    to_continuous,
)
from .construct import (
    DesignFamily,
    build_design,
    regular_inputs,
    split_strength3_inputs,
)
from .criteria import CriterionScore, centered_l2_discrepancy, maximin_distance, optimize_d2
from .design import CoupledDesign, DesignWitness, PermutationPlan
from .gf import GaloisField
from .oabuild import bush_oa, full_factorial, linear_column, load_oa, normalize_block_form, save_oa
from .rng import derive_seed
from .verify import (
    VerificationReport,
    check_coupling,
    check_projections,
    croa_partition,
    full_report,
    max_qualitative_factors,
    stratification_report,
)

__all__ = [
    "CoupledDesign",
    "CriterionScore",
    "DesignFamily",
    "DesignWitness",
    "GaloisField",
    "OrthogonalArray",
    "PermutationPlan",
    "VerificationReport",
    "build_design",
    "bush_oa",
    "centered_l2_discrepancy",
    "check_coupling",
    "check_projections",
    "croa_partition",
    "derive_seed",
    "full_factorial",
    "full_report",
    "is_latin_hypercube",
    "is_orthogonal_array",
    "level_collapse",
    "level_expand",
    "linear_column",
    "load_oa",
    "make_oa",
    "max_qualitative_factors",
    "maximin_distance",
    "normalize_block_form",
    "optimize_d2",
    "regular_inputs",
    "save_oa",
    "split_strength3_inputs",
    "stratification_report",
    "to_continuous",
]
