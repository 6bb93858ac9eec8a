"""Coded over-the-air computation: simulation and certification toolkit."""

from .analysis import (
    Criterion,
    GammaParams,
    chernoff_tail,
    epsilon_delta_rate_bound,
    epsilon_rate_bound,
    gamma_cdf,
    gamma_opt,
    min_source_length,
    optimal_mse_gamma,
    sample_general_mse,
)
from .channel import (
    ChannelRealization,
    SystemConfig,
    TransmissionOutcome,
    all_ones_channel,
    decode_sum,
    encode_and_precode,
    max_power_scaling,
    run_round,
    sample_rician,
    sample_sources,
    superpose,
)
from .coding import (
    Construction,
    EncodingMatrix,
    ValidationReport,
    construct_identity,
    construct_random_orthonormal,
    construct_repetition,
    gram_spectrum,
    load_matrix,
    save_matrix,
    theoretical_mse_expectation,
    validate,
)
from .experiments import (
    ChannelMode,
    ExperimentPlan,
    MseReport,
    TrialSet,
    oracle_equivalence_test,
    run_trials,
    summarize,
    sweep_blocklength,
    sweep_mse_vs_snr,
    sweep_rate_regions,
)
from .numerics import Rng

__version__ = "0.1.0"
