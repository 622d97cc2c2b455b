"""Pairwise treatment-effect estimation for multi-level treatments.

The package bundles seven confounding-adjustment estimators (standardization,
inverse probability weighting, matching, bias-corrected matching, targeted
maximum likelihood, overlap weights and augmented overlap weights) behind a
shared data model, together with a Monte Carlo and plasmode simulation engine
for benchmarking their bias, variance and confidence-interval coverage.
"""

from ._version import __version__
from .tabular import ContrastSet, Dataset, DesignSpec, load_csv, load_json
from .glm import fit_logistic, fit_multinomial, fit_ols, predict_probs
from .learners import fit_outcome, fit_propensity, fit_super_learner
from .weighting import (
    EffectEstimate,
    OverlapWeights,
    compute_overlap_weights,
    estimate_aow,
    estimate_ipw,
    estimate_ow,
)
from .outcome_methods import estimate_crude, estimate_tmle, stan_estimates
from .matching import MatchSets, build_matches, estimate_bcm, estimate_match
from .simengine import (
    PlasmodeConfig,
    ScenarioConfig,
    ScenarioReport,
    compute_metrics,
    make_plasmode_generators,
    oracle_truth_mc,
    run_plasmode,
    run_scenario,
    simulate_dataset,
)
from .reporting import ContrastTable, all_pairs_table, holm_adjust, render_contrasts, render_report

__all__ = [
    "ContrastSet",
    "ContrastTable",
    "Dataset",
    "DesignSpec",
    "EffectEstimate",
    "MatchSets",
    "OverlapWeights",
    "PlasmodeConfig",
    "ScenarioConfig",
    "ScenarioReport",
    "all_pairs_table",
    "build_matches",
    "compute_metrics",
    "compute_overlap_weights",
    "estimate_aow",
    "estimate_bcm",
    "estimate_crude",
    "estimate_ipw",
    "estimate_match",
    "estimate_ow",
    "estimate_tmle",
    "fit_logistic",
    "fit_multinomial",
    "fit_ols",
    "fit_outcome",
    "fit_propensity",
    "fit_super_learner",
    "holm_adjust",
    "load_csv",
    "load_json",
    "make_plasmode_generators",
    "oracle_truth_mc",
    "predict_probs",
    "render_contrasts",
    "render_report",
    "run_plasmode",
    "run_scenario",
    "simulate_dataset",
    "stan_estimates",
]
