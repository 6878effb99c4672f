"""Bayesian variable selection in Gaussian linear regression under Zellner
g-priors: Gibbs sampling over model space, empirical (Hansen-Hurwitz) and
renormalized estimators, and exact parallel enumeration."""

from .bayesfactor import (
    GPriorSpec,
    log_bf_value,
    log_prior_g_density,
    sample_prior_g,
)
from .errors import (
    DataError,
    ModelspaceError,
    NumericalError,
    SingularModelError,
    UsageError,
)
from .estimators import (
    DistinctModels,
    PosteriorSummary,
    dedupe_models,
    find_hpm,
    find_mpm,
    frequency_se,
    hh_dimension,
    hh_estimate,
    hh_inclusion,
    indicator_of_dimension,
    indicator_of_model,
    indicator_of_variable,
    rank_models,
    renormalized_estimate,
    renormalized_inclusion,
    summarize_trace,
    topk_mass_log10,
)
from .exact import (
    count_models_above,
    enumerate_exact,
    enumerate_shard,
    exact_quantity,
    reduce_shards,
)
from .linmodel import (
    Dataset,
    FitState,
    bit_indices,
    expand_design,
    fit_model,
    load_csv,
    make_dataset,
    sse_direct,
)
from .sampler import (
    ChainTrace,
    InverseGramState,
    SamplerConfig,
    gibbs_sweep,
    mh_step_g,
    run_chain,
    sweep_state,
)

__version__ = "0.1.0"
