"""Monte Carlo and plasmode simulation engine.

Four synthetic scenarios cross weak/strong confounding on the treatment
side (t-, t+) with weak/strong confounding on the outcome side (y-, y+).
Covariates are x1 ~ N(0,1), x2 ~ N(2*x1, 1), x3 ~ Bernoulli(0.4); a
three-level treatment follows a no-intercept multinomial logit in
(x1, x2, x3, x1*x3, x1^2); the outcome is Gaussian with mean built from
(x1, x2, x3, x2*x3, x2^2) plus additive treatment effects (1.0, 1.5).
Because the treatment enters additively, every pairwise estimand equals
the same effect for the population and the overlap population alike.

The plasmode harness fits an `ml` assignment model and an `ml` outcome
model on a real dataset, then resamples its rows and regenerates the
treatment and a binary outcome from those generators, so the true effects
are known functionals of the generator fits.  A plan is checked in full
before the fits.  Scenario truths are exact because the treatment enters
additively.  Scenario and plasmode data share one treatment-level draw.

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

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ._version import __version__
from .glm import _softmax_rows
from .learners import REGIMES, OutcomeFit, PropensityFit, fit_outcome, fit_propensity
from .matching import build_matches, estimate_bcm, estimate_match
from .outcome_methods import estimate_crude, estimate_tmle, stan_estimates
from .tabular import (
    Dataset,
    DesignSpec,
    _check_levels_present,
    all_pairs,
    intercept,
    interaction,
    main,
    square,
)
from .weighting import _overlap_tilt, compute_overlap_weights, estimate_aow, estimate_ipw, estimate_ow

__all__ = [
    "METHOD_TABLE",
    "METHODS",
    "MethodSpec",
    "SCENARIO_NAMES",
    "ScenarioConfig",
    "PlasmodeConfig",
    "ScenarioReport",
    "simulate_dataset",
    "treatment_probabilities",
    "outcome_mean",
    "truth_outcome_spec",
    "truth_propensity_spec",
    "run_scenario",
    "run_plasmode",
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

# the additive effects of levels 2 and 3 relative to level 1
_LAM = (1.0, 1.5)
# the contrasts every scenario study estimates: each level against level 1
_SCENARIO_PAIRS = ((2, 1), (3, 1))
# the matching metric of every study, echoed in its report
_MATCH_METRIC = "euclidean-standardized"

# RNG substream purpose tags
_TAG_DATA = 0
_TAG_LEARNER = 1
_TAG_BOOTSTRAP = 2
_TAG_PLASMODE = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """One run of a built-in scenario: the replication plan and estimation
    knobs.

    treatment_strength ('t-' or 't+') and outcome_strength ('y-' or 'y+')
    name the scenario.  The fields it determines are not set but derived:
    beta and gamma from the coefficient tables, lam (the additive effects
    of levels 2 and 3 relative to level 1) and the matching metric, so a
    report's config echo lists them all.
    """

    treatment_strength: str
    outcome_strength: str
    n: int
    reps: int
    seed: int
    regime: str
    beta: tuple = field(init=False)
    gamma: tuple = field(init=False)
    lam: tuple = field(init=False)
    bootstrap_reps: int = 200
    m: int = 1
    metric: str = field(init=False)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.treatment_strength not in _BETA or self.outcome_strength not in _GAMMA:
            raise ValueError(
                f"unknown scenario {self.treatment_strength + self.outcome_strength!r}; "
                f"expected one of {SCENARIO_NAMES}"
            )
        if self.n < 1 or self.reps < 1:
            raise ValueError("n and reps must be positive")
        object.__setattr__(self, "beta", _BETA[self.treatment_strength])
        object.__setattr__(self, "gamma", _GAMMA[self.outcome_strength])
        object.__setattr__(self, "lam", _LAM)
        object.__setattr__(self, "metric", _MATCH_METRIC)

    @staticmethod
    def named(scenario: str, n: int, reps: int, seed: int, regime: str, **knobs):
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
    return _softmax_rows(np.column_stack([np.zeros(len(X)), feats @ b[:5], feats @ b[5:]]))


def outcome_mean(gamma, lam, X, t) -> np.ndarray:
    """E[Y | T=t, X] for scalar or vector treatment level t."""
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    g = np.asarray(gamma, dtype=float)
    base = g[0] + g[1] * x1 + g[2] * x2 + g[3] * x3 + g[4] * x2 * x3 + g[5] * x2 * x2
    t = np.asarray(t)
    return base + lam[0] * (t == 2) + lam[1] * (t == 3)


def _draw_covariates(rng, n) -> np.ndarray:
    """n rows of (x1, x2, x3) from the generating distribution."""
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.normal(2.0 * x1, 1.0)
    x3 = (rng.random(n) < 0.4).astype(float)
    return np.column_stack([x1, x2, x3])


def _draw_levels(rng, probs) -> np.ndarray:
    """One level in 1..k per row of the (n, k) probability matrix `probs`,
    a uniform draw inverted through the row's cumulative probabilities."""
    u = rng.random(len(probs))
    return 1 + (u[:, None] > probs.cumsum(axis=1)[:, :-1]).sum(axis=1)


def simulate_dataset(cfg: ScenarioConfig, rep_index: int) -> Dataset:
    """Generate one replication's dataset from its own RNG substream; a
    draw that misses a treatment level raises ValueError naming it."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(_TAG_DATA, rep_index)))
    X = _draw_covariates(rng, cfg.n)
    t = _draw_levels(rng, treatment_probabilities(cfg.beta, X))
    _check_levels_present(t, 3)
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
):
    """Fit the regime's models once, run every requested method on every pair.

    The outcome learner and the standardization bootstrap draw from
    replication `rep`'s substreams of `seed`; under the `correct` regime
    the models use the scenario's true designs.

    Returns ({(method, pair): EffectEstimate}, {method: error message}).
    A model-fit failure fails all methods depending on that model; an
    estimator failure fails only its own method, on every pair: a method
    gives estimates only when it gives one for every pair.  Only the
    numeric and data errors the fits and estimators raise (ValueError,
    which includes LinAlgError, and RuntimeError) count as failures;
    anything else propagates.
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
        "matches": ("matching", lambda: build_matches(data, m=m, metric=_MATCH_METRIC)),
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
                estimates = entry(data, *args, pairs, bootstrap_reps, bootstrap_seed)
            else:
                estimates = {pair: entry(data, *args, pair) for pair in pairs}
        except (ValueError, RuntimeError) as err:
            failures[meth] = str(err)
            continue
        results.update(((meth, pair), est) for pair, est in estimates.items())
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
    try:
        data = simulate_dataset(cfg, rep)
    except ValueError as err:
        return rep, {}, {meth: f"simulated data: {err}" for meth in methods}
    results, failures = _apply_methods(
        data, cfg.regime, methods, pairs, cfg.seed, rep, cfg.bootstrap_reps, cfg.m
    )
    return rep, results, failures


def compute_metrics(estimates, truth: float) -> dict:
    """Replication summary of one (method, pair) cell: the report row's
    fields bias, std, rmse, coverage and reps_used, in that order.

    std is None with fewer than two usable replications; coverage is None
    when no replication produced a finite confidence interval; all but
    reps_used are None without estimates.
    """
    if not estimates:
        return {"bias": None, "std": None, "rmse": None, "coverage": None, "reps_used": 0}
    taus = np.array([e.tau_hat for e in estimates], dtype=float)
    bias = float(taus.mean() - truth)
    std = float(taus.std(ddof=1)) if len(taus) > 1 else None
    rmse = float(np.sqrt(((taus - truth) ** 2).mean()))
    with_ci = [e for e in estimates if np.isfinite(e.variance)]
    coverage = (
        float(np.mean([e.covers(truth) for e in with_ci])) if with_ci else None
    )
    return {"bias": bias, "std": std, "rmse": rmse, "coverage": coverage, "reps_used": len(taus)}


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregated replication results, ready for serialization; the fields
    are in the order of the report's JSON document."""

    kind: str
    version: str
    seed: int
    reps: int
    config: dict
    truths: dict
    method_failures: dict
    rows: tuple


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
            metrics = compute_metrics(ests, truth)
            rows.append(
                {
                    "method": meth,
                    "regime": cfg.regime,
                    "parameter": _pair_label(pair),
                    "estimand": estimand,
                    "truth": truth,
                    **metrics,
                    "failures": cfg.reps - metrics["reps_used"],
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
        method_failures=method_failures,
        rows=tuple(rows),
    )


def _run_replications(rep_fn, jobs, workers):
    """Run `rep_fn` on every job, serially or on a pool of `workers`
    processes (0 means one per core), and return the (rep, results,
    failures) outputs in job order.  The pool module is imported only for a
    pool, so a serial run does not load it."""
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers > 1 and len(jobs) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(rep_fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))
    return [rep_fn(job) for job in jobs]


def run_scenario(cfg: ScenarioConfig, methods=None, workers: int = 1) -> ScenarioReport:
    """Run the full replication loop for one scenario configuration.

    Levels 2 and 3 are each compared with level 1 (tau21, tau31).  The
    crude baseline is always included.  workers > 1 distributes
    replications over processes; results are identical to a serial run
    because every replication owns its seed-derived RNG substreams and
    rows are reduced in replication order.  workers=0 means one per core.
    """
    methods = _normalize_methods(methods)
    pairs = _SCENARIO_PAIRS
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
    regenerate treatment and a binary outcome from the `ml` models that
    `run_plasmode` fits on the source, so the truth is a known functional
    of those generators.  A plan that cannot run is rejected here."""

    source: Dataset
    resample_size: int
    reps: int
    seed: int
    regime: str = "mainterms"
    bootstrap_reps: int = 200
    m: int = 1

    def __post_init__(self):
        # `correct` needs a known truth design, which a source does not have
        if self.regime not in ("mainterms", "ml"):
            raise ValueError("plasmode regime must be 'mainterms' or 'ml' (no known truth spec)")
        if self.source.outcome_kind != "binary":
            raise ValueError("plasmode outcome generator must be binary")
        if not 1 <= self.resample_size <= 10 * self.source.n:
            raise ValueError("resample_size must be in [1, 10 * source n]")
        if self.reps < 1:
            raise ValueError("reps must be positive")


def _plasmode_truths(source: Dataset, gen_out: OutcomeFit, gen_trt: PropensityFit, pairs):
    mu = {lev: gen_out.predict(lev, source.X) for lev in range(1, source.k + 1)}
    h = _overlap_tilt(gen_trt.probs)
    truths = {}
    for pair in pairs:
        t1, t0 = pair
        effect = mu[t1] - mu[t0]
        truths[(pair, "population")] = float(effect.mean())
        truths[(pair, "overlap")] = float((h * effect).sum() / h.sum())
    return truths


def _plasmode_rep(args):
    cfg, gen_out, gen_trt, methods, pairs, rep = args
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_TAG_PLASMODE, rep))
    )
    size = cfg.resample_size
    data = None
    for _ in range(10):
        rows = rng.integers(0, cfg.source.n, size)
        X = cfg.source.X[rows]
        t = _draw_levels(rng, gen_trt.predict_matrix(X))
        if not np.bincount(t, minlength=cfg.source.k + 1)[1:].all():
            continue
        mu_all = gen_out.predict_matrix(X)
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
        data, cfg.regime, methods, pairs, cfg.seed, rep, cfg.bootstrap_reps, cfg.m
    )
    return rep, results, failures


def run_plasmode(cfg: PlasmodeConfig, methods=None, workers: int = 1) -> ScenarioReport:
    """Plasmode replication loop over every pair of treatment levels.

    The generators are the `ml` fits on the source, the outcome learner
    seeded by the plan's seed.  Replications run like those of
    `run_scenario`: serially, or with workers > 1 on a process pool whose
    jobs carry the generator fits as plain data (workers=0 means one per
    core).  Every replication owns its seed-derived RNG substreams, so the
    report does not depend on `workers`.
    """
    methods = _normalize_methods(methods)
    gen_out = fit_outcome(cfg.source, "ml", seed=cfg.seed)
    gen_trt = fit_propensity(cfg.source, "ml")
    pairs = all_pairs(cfg.source.k)
    truths = _plasmode_truths(cfg.source, gen_out, gen_trt, pairs)
    jobs = [(cfg, gen_out, gen_trt, methods, pairs, rep) for rep in range(cfg.reps)]
    per_rep = _run_replications(_plasmode_rep, jobs, workers)
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
        "metric": _MATCH_METRIC,
        "generator_outcome": gen_out.description,
        "generator_treatment": gen_trt.description,
    }
    return _collect_report("plasmode", cfg, cfg_echo, methods, pairs, per_rep, truths)
