"""Monte Carlo and plasmode simulation engine.

Four synthetic scenarios cross weak/strong confounding on the treatment
side (t-, t+) with weak/strong confounding on the outcome side (y-, y+).
Covariates are x1 ~ N(0,1), x2 ~ N(2*x1, 1), x3 ~ Bernoulli(0.4); a
three-level treatment follows a no-intercept multinomial logit in
(x1, x2, x3, x1*x3, x1^2); the outcome is Gaussian with mean built from
(x1, x2, x3, x2*x3, x2^2) plus additive treatment effects (1.0, 1.5).
Because the treatment enters additively, every pairwise estimand equals
the same effect for the population and the overlap population alike.

The plasmode harness resamples rows of a real dataset, regenerates the
treatment from a fitted assignment model and a binary outcome from a
fitted outcome model, so the true effects are known functionals of the
generator fits.

Replications draw from per-replication RNG substreams spawned off the
master seed with a purpose tag, so results are bit-identical regardless
of worker count.  `_apply_methods` derives the learner and bootstrap
substreams from (seed, replication) and, under the `correct` regime, the
true designs; the scenario and plasmode replications and the `estimate`
command (replication 0 of its seed) call it with only their data and
settings.  Scenario and plasmode studies share one replication runner,
serial or on a process pool.

`METHOD_TABLE` lists every estimator once: its estimand, the fitted inputs
it takes, and its entry point.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, asdict

import numpy as np

from ._version import __version__
from .learners import REGIMES, OutcomeFit, PropensityFit, fit_outcome, fit_propensity
from .matching import build_matches, estimate_bcm, estimate_match
from .outcome_methods import estimate_crude, estimate_tmle, stan_estimates
from .tabular import (
    ContrastSet,
    Dataset,
    DesignSpec,
    intercept,
    interaction,
    main,
    square,
)
from .weighting import compute_overlap_weights, estimate_aow, estimate_ipw, estimate_ow

__all__ = [
    "METHOD_TABLE",
    "METHODS",
    "MethodSpec",
    "SCENARIO_NAMES",
    "ScenarioConfig",
    "PlasmodeConfig",
    "Metrics",
    "ScenarioReport",
    "simulate_dataset",
    "treatment_probabilities",
    "outcome_mean",
    "oracle_truth_mc",
    "truth_outcome_spec",
    "truth_propensity_spec",
    "run_scenario",
    "run_plasmode",
    "make_plasmode_generators",
    "compute_metrics",
]


@dataclass(frozen=True)
class MethodSpec:
    """One row of the method table.

    `inputs` names what the entry point takes after the dataset, in its
    argument order: "outcome" and "propensity" fits, "matches", or
    "overlap" weights (derived from the propensity fit).  `entry` names a
    function of this module, looked up when called so that a wrapper bound
    to that name (a profiler, say) sees the call.  A per-pair entry takes
    one contrast pair; a batched entry takes the pair list, the bootstrap
    size and the bootstrap seed, and returns {pair: estimate}.
    """

    estimand: str
    inputs: tuple
    entry: str
    batched: bool = False

    @property
    def models(self):
        """The fitted models this method depends on."""
        return {"propensity" if name == "overlap" else name for name in self.inputs}


METHOD_TABLE = {
    "crude": MethodSpec("population", (), "estimate_crude"),
    "stan": MethodSpec("population", ("outcome",), "stan_estimates", batched=True),
    "ipw": MethodSpec("population", ("propensity",), "estimate_ipw"),
    "match": MethodSpec("population", ("matches",), "estimate_match"),
    "bcm": MethodSpec("population", ("matches", "outcome"), "estimate_bcm"),
    "tmle": MethodSpec("population", ("outcome", "propensity"), "estimate_tmle"),
    "ow": MethodSpec("overlap", ("overlap",), "estimate_ow"),
    "aow": MethodSpec("overlap", ("overlap", "outcome", "propensity"), "estimate_aow"),
}
METHODS = tuple(METHOD_TABLE)

SCENARIO_NAMES = ("t-y-", "t+y-", "t-y+", "t+y+")

# multinomial-logit coefficients (levels 2 and 3 vs level 1), each row
# multiplying (x1, x2, x3, x1*x3, x1^2)
_BETA = {
    "t-": (-0.2, 0.2, 0.2, 0.1, 0.1, 0.2, 0.1, -0.2, 0.1, 0.1),
    "t+": (-0.8, 0.8, 0.8, 0.2, 0.2, 0.5, 0.5, -0.8, 0.2, 0.2),
}
# outcome-mean coefficients multiplying (1, x1, x2, x3, x2*x3, x2^2)
_GAMMA = {
    "y-": (0.0, 0.2, 0.2, 0.2, 0.1, 0.1),
    "y+": (0.0, 0.5, 0.5, 0.5, 0.2, 0.2),
}

# RNG substream purpose tags
_TAG_DATA = 0
_TAG_LEARNER = 1
_TAG_BOOTSTRAP = 2
_TAG_PLASMODE = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic-scenario run: data-generating coefficients plus the
    replication plan and estimation knobs.

    treatment_strength / outcome_strength name the built-in coefficient
    sets; "custom" allows arbitrary beta/gamma.  lam holds the additive
    effects of levels 2 and 3 relative to level 1.
    """

    treatment_strength: str
    outcome_strength: str
    n: int
    reps: int
    seed: int
    regime: str
    beta: tuple = None
    gamma: tuple = None
    lam: tuple = (1.0, 1.5)
    bootstrap_reps: int = 200
    m: int = 1
    metric: str = "euclidean-standardized"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.treatment_strength in _BETA:
            table = _BETA[self.treatment_strength]
            if self.beta is None:
                object.__setattr__(self, "beta", table)
            elif tuple(self.beta) != table:
                raise ValueError(
                    f"beta does not match the {self.treatment_strength!r} coefficient table"
                )
        elif self.treatment_strength != "custom" or self.beta is None:
            raise ValueError("treatment_strength must be 't-', 't+', or 'custom' with beta given")
        if self.outcome_strength in _GAMMA:
            table = _GAMMA[self.outcome_strength]
            if self.gamma is None:
                object.__setattr__(self, "gamma", table)
            elif tuple(self.gamma) != table:
                raise ValueError(
                    f"gamma does not match the {self.outcome_strength!r} coefficient table"
                )
        elif self.outcome_strength != "custom" or self.gamma is None:
            raise ValueError("outcome_strength must be 'y-', 'y+', or 'custom' with gamma given")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        if len(self.beta) != 10:
            raise ValueError("beta must have 10 entries (5 per non-reference level)")
        if len(self.gamma) != 6:
            raise ValueError("gamma must have 6 entries")
        if len(self.lam) != 2:
            raise ValueError("lam must have 2 entries")
        if self.n < 1 or self.reps < 1:
            raise ValueError("n and reps must be positive")

    @property
    def scenario(self) -> str:
        if self.treatment_strength in _BETA and self.outcome_strength in _GAMMA:
            return self.treatment_strength + self.outcome_strength
        return "custom"

    @staticmethod
    def named(scenario: str, n: int, reps: int, seed: int, regime: str, **knobs):
        if scenario not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIO_NAMES}")
        return ScenarioConfig(
            treatment_strength=scenario[:2],
            outcome_strength=scenario[2:],
            n=n,
            reps=reps,
            seed=seed,
            regime=regime,
            **knobs,
        )


def treatment_probabilities(beta, X) -> np.ndarray:
    """True assignment probabilities (n, 3) under the no-intercept logit."""
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    feats = np.column_stack([x1, x2, x3, x1 * x3, x1 * x1])
    b = np.asarray(beta, dtype=float)
    eta = np.column_stack([np.zeros(len(X)), feats @ b[:5], feats @ b[5:]])
    eta -= eta.max(axis=1, keepdims=True)
    p = np.exp(eta)
    return p / p.sum(axis=1, keepdims=True)


def outcome_mean(gamma, lam, X, t) -> np.ndarray:
    """E[Y | T=t, X] for scalar or vector treatment level t."""
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    g = np.asarray(gamma, dtype=float)
    base = g[0] + g[1] * x1 + g[2] * x2 + g[3] * x3 + g[4] * x2 * x3 + g[5] * x2 * x2
    t = np.asarray(t)
    return base + lam[0] * (t == 2) + lam[1] * (t == 3)


def simulate_dataset(cfg: ScenarioConfig, rep_index: int) -> Dataset:
    """Generate one replication's dataset from its own RNG substream."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(_TAG_DATA, rep_index)))
    n = cfg.n
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.normal(2.0 * x1, 1.0)
    x3 = (rng.random(n) < 0.4).astype(float)
    X = np.column_stack([x1, x2, x3])
    probs = treatment_probabilities(cfg.beta, X)
    u = rng.random(n)
    cum = probs.cumsum(axis=1)
    t = 1 + (u > cum[:, 0]).astype(np.int64) + (u > cum[:, 1])
    y = rng.normal(outcome_mean(cfg.gamma, cfg.lam, X, t), 1.0)
    return Dataset.from_arrays(
        X, t, y, columns=("x1", "x2", "x3"), outcome_kind="continuous"
    )


def truth_outcome_spec() -> DesignSpec:
    """The design that matches the outcome-generating mean exactly."""
    return DesignSpec(
        terms=(intercept(), main("x1"), main("x2"), main("x3"), interaction("x2", "x3"), square("x2")),
        includes_treatment_dummies=True,
    )


def truth_propensity_spec() -> DesignSpec:
    """The design that matches the assignment-generating logit exactly."""
    return DesignSpec(
        terms=(intercept(), main("x1"), main("x2"), main("x3"), interaction("x1", "x3"), square("x1"))
    )


def oracle_truth_mc(
    cfg: ScenarioConfig,
    pairs=((2, 1), (3, 1)),
    draws: int = 10**6,
    seed: int = 0,
    weighting: str = "population",
    prob_fn=None,
):
    """Monte Carlo counterfactual oracle for the true contrasts.

    Draws covariates from the generating distribution and averages the
    treatment-effect field, optionally reweighted by the harmonic overlap
    weight h(X) built from `prob_fn` (defaults to the true assignment
    probabilities).  Supplying a fitted, deliberately wrong model as
    prob_fn yields the estimand that overlap-weight estimators target
    under that model.  Returns {pair: truth}.
    """
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, 1.0, draws)
    x2 = rng.normal(2.0 * x1, 1.0)
    x3 = (rng.random(draws) < 0.4).astype(float)
    X = np.column_stack([x1, x2, x3])
    if weighting == "population":
        w = np.ones(draws)
    elif weighting == "overlap":
        probs = treatment_probabilities(cfg.beta, X) if prob_fn is None else prob_fn(X)
        w = 1.0 / (1.0 / probs).sum(axis=1)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    wsum = w.sum()
    out = {}
    for pair in pairs:
        t1, t0 = int(pair[0]), int(pair[1])
        effect = outcome_mean(cfg.gamma, cfg.lam, X, np.full(draws, t1)) - outcome_mean(
            cfg.gamma, cfg.lam, X, np.full(draws, t0)
        )
        out[(t1, t0)] = float((w * effect).sum() / wsum)
    return out


# ---------------------------------------------------------------------------
# replication machinery


def _apply_methods(
    data: Dataset,
    regime: str,
    methods,
    pairs,
    seed: int,
    rep: int,
    bootstrap_reps: int,
    m: int,
    metric: str = "euclidean-standardized",
):
    """Fit the regime's models once, run every requested method on every pair.

    The outcome learner and the standardization bootstrap draw from
    replication `rep`'s substreams of `seed`; under the `correct` regime
    the models use the scenario's true designs.

    Returns ({(method, pair): EffectEstimate}, {method: error message}).
    A model-fit failure fails all methods depending on that model; an
    estimator failure fails only its own method.  Only the numeric and data
    errors the fits and estimators raise (ValueError, which includes
    LinAlgError, and RuntimeError) count as failures; anything else
    propagates.
    """
    learner_seed = np.random.SeedSequence(seed, spawn_key=(_TAG_LEARNER, rep))
    bootstrap_seed = (seed, _TAG_BOOTSTRAP, rep)
    truth_out = truth_outcome_spec() if regime == "correct" else None
    truth_prop = truth_propensity_spec() if regime == "correct" else None
    rows = {meth: METHOD_TABLE[meth] for meth in methods}
    pairs = [(int(a), int(b)) for a, b in pairs]
    needed = set().union(*(row.models for row in rows.values()))
    # fitted in this order; a failure message names the first failed fit
    fitters = {
        "outcome": (
            "outcome fit",
            lambda: fit_outcome(data, regime, truth_spec=truth_out, seed=learner_seed),
        ),
        "propensity": (
            "propensity fit",
            lambda: fit_propensity(data, regime, truth_spec=truth_prop),
        ),
        "matches": ("matching", lambda: build_matches(data, m=m, metric=metric)),
    }
    inputs, failures = {}, {}
    for name, (label, fit) in fitters.items():
        if name not in needed:
            continue
        try:
            inputs[name] = fit()
        except (ValueError, RuntimeError) as err:
            for meth, row in rows.items():
                if name in row.models:
                    failures.setdefault(meth, f"{label}: {err}")
    if "propensity" in inputs and any("overlap" in row.inputs for row in rows.values()):
        inputs["overlap"] = compute_overlap_weights(inputs["propensity"], data.t)

    results = {}
    for meth, row in rows.items():
        if meth in failures:
            continue
        entry = globals()[row.entry]
        args = [inputs[name] for name in row.inputs]
        try:
            if row.batched:
                for pair, est in entry(data, *args, pairs, bootstrap_reps, bootstrap_seed).items():
                    results[(meth, pair)] = est
            else:
                for pair in pairs:
                    results[(meth, pair)] = entry(data, *args, pair)
        except (ValueError, RuntimeError) as err:
            failures[meth] = str(err)
    return results, failures


def _normalize_methods(methods):
    if methods is None:
        return list(METHODS)
    methods = list(dict.fromkeys(methods))
    unknown = [m for m in methods if m not in METHOD_TABLE]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
    if "crude" not in methods:
        methods.insert(0, "crude")
    return [m for m in METHODS if m in methods]


def _scenario_rep(args):
    cfg, methods, pairs, rep = args
    data = simulate_dataset(cfg, rep)
    results, failures = _apply_methods(
        data, cfg.regime, methods, pairs, cfg.seed, rep, cfg.bootstrap_reps, cfg.m, cfg.metric
    )
    return rep, results, failures


@dataclass(frozen=True)
class Metrics:
    """Replication summary for one (method, pair) cell.

    std is None with fewer than two usable replications; coverage is None
    when no replication produced a finite confidence interval.
    """

    bias: float
    std: float
    rmse: float
    coverage: float
    n_used: int


def compute_metrics(estimates, truth: float) -> Metrics:
    if not estimates:
        return Metrics(bias=None, std=None, rmse=None, coverage=None, n_used=0)
    taus = np.array([e.tau_hat for e in estimates], dtype=float)
    bias = float(taus.mean() - truth)
    std = float(taus.std(ddof=1)) if len(taus) > 1 else None
    rmse = float(np.sqrt(((taus - truth) ** 2).mean()))
    with_ci = [e for e in estimates if np.isfinite(e.variance)]
    coverage = (
        float(np.mean([e.covers(truth) for e in with_ci])) if with_ci else None
    )
    return Metrics(bias=bias, std=std, rmse=rmse, coverage=coverage, n_used=len(taus))


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregated replication results, ready for serialization."""

    kind: str
    version: str
    seed: int
    reps: int
    config: dict
    truths: dict
    rows: tuple
    method_failures: dict


def _pair_label(pair) -> str:
    return f"tau{pair[0]}{pair[1]}"


def _collect_report(kind, cfg, cfg_echo, methods, pairs, per_rep, truths):
    """Reduce per-replication outputs to metric rows; seed, replication
    count and regime come from the study's config `cfg`.

    per_rep: list of (rep, results, failures) sorted by rep.
    truths: {(pair, estimand): true contrast} for both estimands.
    """
    rows = []
    method_failures = {}
    for meth in methods:
        failed_reps = sum(1 for _, _, fails in per_rep if meth in fails)
        if failed_reps:
            example = next(fails[meth] for _, _, fails in per_rep if meth in fails)
            method_failures[meth] = {"count": failed_reps, "example": example}
        for pair in pairs:
            ests = [res[(meth, pair)] for _, res, _ in per_rep if (meth, pair) in res]
            estimand = METHOD_TABLE[meth].estimand
            truth = truths[(pair, estimand)]
            mt = compute_metrics(ests, truth)
            rows.append(
                {
                    "method": meth,
                    "regime": cfg.regime,
                    "parameter": _pair_label(pair),
                    "estimand": estimand,
                    "truth": truth,
                    "bias": mt.bias,
                    "std": mt.std,
                    "rmse": mt.rmse,
                    "coverage": mt.coverage,
                    "reps_used": mt.n_used,
                    "failures": cfg.reps - mt.n_used,
                }
            )
    return ScenarioReport(
        kind=kind,
        version=__version__,
        seed=cfg.seed,
        reps=cfg.reps,
        config=cfg_echo,
        truths={
            _pair_label(pair): {est: truths[(pair, est)] for est in ("population", "overlap")}
            for pair in pairs
        },
        rows=tuple(rows),
        method_failures=method_failures,
    )


def _run_replications(rep_fn, jobs, workers):
    """Run `rep_fn` on every job, serially or on a pool of `workers`
    processes (0 means one per core), and return the (rep, results,
    failures) outputs in job order."""
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(rep_fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))
    return [rep_fn(job) for job in jobs]


def run_scenario(
    cfg: ScenarioConfig, methods=None, contrasts: ContrastSet = None, workers: int = 1
) -> ScenarioReport:
    """Run the full replication loop for one scenario configuration.

    The crude baseline is always included.  workers > 1 distributes
    replications over processes; results are identical to a serial run
    because every replication owns its seed-derived RNG substreams and
    rows are reduced in replication order.  workers=0 means one per core.
    """
    methods = _normalize_methods(methods)
    if contrasts is None:
        contrasts = ContrastSet(pairs=((2, 1), (3, 1)))
    contrasts.validate(3)
    pairs = [tuple(p) for p in contrasts.pairs]
    per_rep = _run_replications(_scenario_rep, [(cfg, methods, pairs, rep) for rep in range(cfg.reps)], workers)
    # treatment enters the outcome mean additively, so both estimands share
    # each contrast: the difference of the two levels' effects
    effect = (0.0,) + cfg.lam
    truths = {
        (pair, est): effect[pair[0] - 1] - effect[pair[1] - 1]
        for pair in pairs
        for est in ("population", "overlap")
    }
    return _collect_report("scenario", cfg, asdict(cfg), methods, pairs, per_rep, truths)


# ---------------------------------------------------------------------------
# plasmode


@dataclass(frozen=True)
class PlasmodeConfig:
    """Plasmode replication plan: resample a source dataset's rows, then
    regenerate treatment and a binary outcome from models fitted on the
    source, so the truth is a known functional of those generators."""

    source: Dataset
    generator_outcome: OutcomeFit
    generator_treatment: PropensityFit
    resample_size: int
    reps: int
    seed: int
    regime: str = "mainterms"
    bootstrap_reps: int = 200
    m: int = 1
    metric: str = "euclidean-standardized"

    def __post_init__(self):
        if self.generator_outcome.outcome_kind != "binary":
            raise ValueError("plasmode outcome generator must be binary")
        if self.generator_outcome.k != self.source.k or self.generator_treatment.k != self.source.k:
            raise ValueError("generator treatment-level count does not match the source")
        if not 1 <= self.resample_size <= 10 * self.source.n:
            raise ValueError("resample_size must be in [1, 10 * source n]")
        if self.regime not in ("mainterms", "ml"):
            raise ValueError("plasmode regime must be 'mainterms' or 'ml' (no known truth spec)")
        if self.reps < 1:
            raise ValueError("reps must be positive")


def make_plasmode_generators(source: Dataset, seed: int = 0):
    """Fit the flexible generator pair (outcome, treatment) on the source."""
    gen_out = fit_outcome(source, "ml", seed=seed)
    gen_trt = fit_propensity(source, "ml")
    return gen_out, gen_trt


def _plasmode_truths(cfg: PlasmodeConfig, pairs):
    mu = {
        lev: cfg.generator_outcome.predict(lev, cfg.source.X)
        for lev in range(1, cfg.source.k + 1)
    }
    probs = cfg.generator_treatment.probs
    h = 1.0 / (1.0 / probs).sum(axis=1)
    truths = {}
    for pair in pairs:
        t1, t0 = pair
        effect = mu[t1] - mu[t0]
        truths[(pair, "population")] = float(effect.mean())
        truths[(pair, "overlap")] = float((h * effect).sum() / h.sum())
    return truths


def _plasmode_rep(args):
    cfg, methods, pairs, rep = args
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_TAG_PLASMODE, rep))
    )
    size = cfg.resample_size
    data = None
    for _ in range(10):
        rows = rng.integers(0, cfg.source.n, size)
        X = cfg.source.X[rows]
        probs = cfg.generator_treatment.predict_matrix(X)
        cum = probs.cumsum(axis=1)
        u = rng.random(size)
        t = 1 + (u[:, None] > cum[:, :-1]).sum(axis=1)
        if len(np.unique(t)) != cfg.source.k:
            continue
        mu_all = cfg.generator_outcome.predict_matrix(X)
        p_y = mu_all[np.arange(size), t - 1]
        y = (rng.random(size) < p_y).astype(float)
        if y.min() == y.max():
            continue
        data = Dataset.from_arrays(
            X, t, y, columns=cfg.source.columns, outcome_kind="binary"
        )
        break
    if data is None:
        return rep, {}, {meth: "resample kept losing a treatment level or outcome class" for meth in methods}
    results, failures = _apply_methods(
        data, cfg.regime, methods, pairs, cfg.seed, rep, cfg.bootstrap_reps, cfg.m, cfg.metric
    )
    return rep, results, failures


def run_plasmode(
    cfg: PlasmodeConfig, methods=None, contrasts: ContrastSet = None, workers: int = 1
) -> ScenarioReport:
    """Plasmode replication loop.

    Replications run like those of `run_scenario`: serially, or with
    workers > 1 on a process pool that receives the generator fits as
    plain data (workers=0 means one per core).  Every replication owns its
    seed-derived RNG substreams, so the report does not depend on `workers`.
    """
    methods = _normalize_methods(methods)
    if contrasts is None:
        contrasts = ContrastSet.all_pairs(cfg.source.k)
    contrasts.validate(cfg.source.k)
    pairs = [tuple(p) for p in contrasts.pairs]
    truths = _plasmode_truths(cfg, pairs)
    per_rep = _run_replications(_plasmode_rep, [(cfg, methods, pairs, rep) for rep in range(cfg.reps)], workers)
    cfg_echo = {
        "kind": "plasmode",
        "source_n": cfg.source.n,
        "source_columns": list(cfg.source.columns),
        "resample_size": cfg.resample_size,
        "reps": cfg.reps,
        "seed": cfg.seed,
        "regime": cfg.regime,
        "bootstrap_reps": cfg.bootstrap_reps,
        "m": cfg.m,
        "metric": cfg.metric,
        "generator_outcome": cfg.generator_outcome.description,
        "generator_treatment": cfg.generator_treatment.description,
    }
    return _collect_report("plasmode", cfg, cfg_echo, methods, pairs, per_rep, truths)
