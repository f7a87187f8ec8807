"""Simultaneous confidence intervals for ranks of Gaussian-observed centers.

Given observed estimates with known standard errors, the package builds
families of integer rank intervals whose joint probability of covering every
center's true set-rank is at least ``1 - alpha``, via single-step Tukey HSD
or its sequentially rejective refinement.  A bootstrap baseline, a
rankability measure and a coverage-simulation harness round out the toolkit.
"""

from .bootstrap import (
    BootstrapConfig,
    ZhangResult,
    make_bootstrap_draws,
    spiegelhalter_pointwise,
    zhang_simultaneous,
)
from .core import (
    CenterSample,
    PairSet,
    RankInterval,
    SimultaneousRankCIs,
    rank_bounds_from_rejections,
    true_set_ranks,
    truth_partition,
)
from .mcquantile import (
    DEFAULT_MC_SAMPLES,
    MC_SAMPLES_FLOOR,
    McPool,
    make_mc_pool,
    studentized_range_quantile,
)
from .rankability import rankability_estimate, rankability_true
from .seqtukey import SeqStep, SeqTrace, sequential_tukey
from .simharness import (
    PRESET_CENTERS,
    CoverageReport,
    MethodStats,
    ScenarioConfig,
    comparison_scenario,
    preset_scenario,
    run_coverage,
)
from .tukey import (
    DifferenceCI,
    tukey_difference_cis,
    tukey_rank_cis,
    tukey_rejected_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "CenterSample",
    "CoverageReport",
    "DEFAULT_MC_SAMPLES",
    "DifferenceCI",
    "MC_SAMPLES_FLOOR",
    "McPool",
    "MethodStats",
    "PRESET_CENTERS",
    "PairSet",
    "RankInterval",
    "ScenarioConfig",
    "SeqStep",
    "SeqTrace",
    "SimultaneousRankCIs",
    "ZhangResult",
    "comparison_scenario",
    "make_bootstrap_draws",
    "make_mc_pool",
    "preset_scenario",
    "rank_bounds_from_rejections",
    "rankability_estimate",
    "rankability_true",
    "run_coverage",
    "sequential_tukey",
    "spiegelhalter_pointwise",
    "studentized_range_quantile",
    "true_set_ranks",
    "truth_partition",
    "tukey_difference_cis",
    "tukey_rank_cis",
    "tukey_rejected_pairs",
    "zhang_simultaneous",
]
