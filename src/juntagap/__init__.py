"""Monotone shallow-decision-tree constructions and their junta gaps.

The package builds clause-family functions on the Boolean cube, certifies
their structure exactly (monotonicity, decision-tree depth, influence and
sensitivity identities), searches for the best small-junta approximations,
and verifies the quantitative behavior by exhaustive enumeration at small
scale and seeded Monte Carlo at large scale.
"""

from .bitcube import (
    ENUMERATION_CAP,
    InputWord,
    SplitLayout,
    enumerate_points,
    flip_coordinate,
    sample_subset,
    substream,
)
from .errors import (
    ArityError,
    ClaimFailedError,
    CoordinateRangeError,
    EnumerationCapError,
    FamilyFormatError,
    InfeasibleSubsetError,
    JuntagapError,
    SamplerConfigError,
    WorkBudgetError,
)
from .functions import (
    FunctionHandle,
    MonotoneAddressing,
    SetFamily,
    TribesAddressing,
    constant_handle,
    default_schedule,
    dictator_handle,
    family_from_text,
    family_to_text,
    hit_set,
    majority_handle,
    parity_handle,
    sample_family,
    talagrand,
    threshold_extension,
)
from .analysis import (
    DepthCertificate,
    EdgeViolation,
    HitStatistics,
    JointHitStatistics,
    addressing_majority_distance,
    average_sensitivity,
    all_influences,
    check_monotone,
    classify_restriction,
    coordinate_influence,
    depth_certificate,
    exact_distance,
    exact_hit_statistics,
    joint_hit_statistics,
    pair_conditional,
    sensitivity_at,
    total_influence,
    tribes_addressing_total_influence,
    truth_table,
)
from .junta import (
    JuntaResult,
    JuntaSpec,
    best_k_junta,
    fiber_majority_junta,
    junta_distance_lower_bound,
    top_influence_junta,
)
from .montecarlo import (
    EstimateResult,
    SamplerConfig,
    SensitivityProfile,
    estimate_distance,
    estimate_family_statistics,
    estimate_moment_gap,
    estimate_singleton_probability,
    joint_hit_counts,
    sensitivity_profile,
)

__version__ = "0.1.0"
