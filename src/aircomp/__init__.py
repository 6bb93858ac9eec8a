"""Coded over-the-air computation: simulation and certification toolkit."""

from .analysis import (
    Criterion,
    DistortionLaw,
    chernoff_tail,
    epsilon_rate_bound,
    min_source_length,
    sample_general_mse,
)
from .channel import (
    ChannelRealization,
    SystemConfig,
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
    construct_random_orthonormal,
    construct_repetition,
    distortion_law,
    gram_spectrum,
    load_matrix,
    save_matrix,
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
