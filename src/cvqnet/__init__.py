"""Finite-size security analysis for one-to-many CV-QKD broadcast networks."""

from .config import RunConfig, default_config, format_config, load_config, parse_config
from .decomposition import (
    DecompositionRow,
    DecompositionTable,
    JointKeyRate,
    all_orderings,
    decompose,
    decomposition_table,
    joint_key_rate,
    sample_orderings,
)
from .gaussian import (
    CovarianceMatrix,
    check_physicality,
    condition_on_heterodyne,
    g_function,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from .keyrates import (
    KeyRateReport,
    TrustModel,
    delta_fs,
    derive_worst_case,
    holevo_collaborative,
    holevo_trusted,
    holevo_untrusted,
    key_rate,
    mutual_information,
    rate_table,
)
from .network import (
    NetworkParams,
    OutcomeModel,
    UserLink,
    attach_trusted_detector,
    build_channel_output_cm,
    classical_outcome_cov,
    link_from_outcome_model,
    measured_outcome_model,
    user_label,
)
from .simulate import (
    ConfidenceRegion,
    EstimateReport,
    SymbolBlock,
    confidence_region,
    estimate,
    estimate_report,
    one_sided_quantile,
    read_block,
    simulate,
    worst_case_params,
    write_block,
    write_block_csv,
)

__version__ = "0.1.0"
