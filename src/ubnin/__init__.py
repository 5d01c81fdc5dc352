"""Exact reversible network codes plus structural covariance network analytics.

A symmetric binary network on n labeled nodes maps bijectively onto a single
dyadic rational, computable and invertible at any network size, which serves
as an exact fingerprint of the network. Around the codec sits a reproducible
pipeline: similarity networks from regional volumes, group correlation
matrices, threshold sweeps, clustering and small-world metrics, and
permutation and ANOVA statistics.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateDesignError,
    MalformedCodeError,
    NotEstimableError,
    UbninError,
    UndefinedMetricError,
    ValidationError,
)
from .graphs import (
    BinaryNetwork,
    WeightedNetwork,
    consistency_threshold,
    degree,
    degree_sequence,
    edge_count,
    load_binary_matrix,
    save_binary_matrix,
    sparsity_threshold,
    target_edge_count,
)
from .codec import (
    UbninCode,
    complete_graph_code,
    decode,
    encode,
    encode_float64_emulation,
    from_record,
    parse_decimal_string,
    to_decimal_string,
    to_float64,
    to_record,
)
from .subjects import (
    CohortTable,
    SubjectRecord,
    age_binning,
    group_association_matrix,
    individual_network,
    load_subjects_csv,
    residualize_covariate,
)
from .metrics import (
    MetricsReport,
    SmallWorldResult,
    characteristic_path_length,
    mean_clustering,
    metrics_report,
    nodal_clustering,
    random_reference,
    small_world_index,
)
from .stats import AnovaResult, PermutationResult, one_way_anova, permutation_test
from .pipeline import RunConfig, run_cohort, run_fingerprint, sweep_values

__all__ = [
    "__version__",
    "UbninError", "ValidationError", "MalformedCodeError", "DegenerateDesignError",
    "UndefinedMetricError", "NotEstimableError",
    "WeightedNetwork", "BinaryNetwork", "sparsity_threshold", "consistency_threshold",
    "degree", "degree_sequence", "edge_count", "target_edge_count",
    "load_binary_matrix", "save_binary_matrix",
    "UbninCode", "encode", "decode", "to_decimal_string", "parse_decimal_string",
    "to_record", "from_record", "to_float64", "encode_float64_emulation",
    "complete_graph_code",
    "SubjectRecord", "CohortTable", "residualize_covariate", "individual_network",
    "group_association_matrix", "age_binning", "load_subjects_csv",
    "nodal_clustering", "mean_clustering", "characteristic_path_length",
    "random_reference", "small_world_index", "SmallWorldResult",
    "MetricsReport", "metrics_report",
    "PermutationResult", "permutation_test", "AnovaResult", "one_way_anova",
    "RunConfig", "run_fingerprint", "run_cohort", "sweep_values",
]
