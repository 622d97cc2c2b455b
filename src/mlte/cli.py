"""Command-line front end.

Four commands: `estimate` runs the requested estimators on a dataset file
and prints an all-pairs contrast table; `simulate` runs a named synthetic
scenario; `plasmode` resamples a source dataset with regenerated
treatment/outcome; `diagnose` summarizes fitted treatment probabilities
as a numeric overlap check.

`_FLAGS` defines every flag once (its argparse type, choices and help) and
`_COMMANDS` gives each command's function, help line and flags; the
parser, the conversion of values and the provenance keys are built from
these two tables.  Every
flag can also be supplied through an environment variable with the MLTE_
prefix (MLTE_SEED for --seed); such values are parsed and checked by
argparse like flags, and explicit flags win.  Output files embed the tool
version, the resolved configuration, and the seed; they never embed timing
or worker count, so a run is byte-reproducible from (seed, config) alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .learners import REGIMES, fit_propensity
from .reporting import (
    _contrast_payload, all_pairs_table, render_contrasts, render_report, render_table,
)
from .simengine import (
    METHOD_TABLE,
    METHODS,
    PlasmodeConfig,
    SCENARIO_NAMES,
    ScenarioConfig,
    _apply_methods,
    make_plasmode_generators,
    run_plasmode,
    run_scenario,
)
from .tabular import ContrastSet, load_csv, load_json

__all__ = ["RunConfig", "main", "cmd_estimate", "cmd_simulate", "cmd_plasmode", "cmd_diagnose"]


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: defaults, environment, and flags merged."""

    command: str
    data: str = None
    treatment: str = None
    outcome: str = None
    covariates: tuple = None
    methods: tuple = METHODS
    regime: str = "mainterms"
    scenario: str = None
    n: int = None
    reps: int = None
    m: int = 1
    bootstrap: int = 200
    seed: int = 1
    workers: int = 1
    out: str = None
    format: str = "text"

    def provenance(self) -> dict:
        """The configuration worth embedding in output files: everything
        that determines the result, nothing that doesn't (worker count,
        output destination)."""
        return {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in ((k, getattr(self, k)) for k in _provenance_keys(self.command))
            if v is not None
        }


def _comma_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _count(low):
    """argparse type of a count flag: an int of at least `low`."""

    def convert(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names the type in "invalid int value"
    return convert


# every flag once, as argparse keyword arguments; a flag's value is the
# RunConfig field of the same name
_FLAGS = {
    "data": dict(help="input dataset (.csv or .json)"),
    "treatment": dict(help="treatment column name (csv input)"),
    "outcome": dict(help="outcome column name (csv input)"),
    "covariates": dict(type=_comma_list, help="comma-separated covariate columns (csv input)"),
    "methods": dict(type=_comma_list, help="comma-separated subset of " + ", ".join(
        f"{meth} ({row.estimand})" for meth, row in METHOD_TABLE.items())),
    "regime": dict(choices=REGIMES),
    "scenario": dict(choices=SCENARIO_NAMES),
    "n": dict(type=int, help="sample size (simulate) / resample size (plasmode)"),
    "reps": dict(type=int, help="number of replications"),
    "m": dict(type=_count(1), help="matches per unit"),
    "bootstrap": dict(type=_count(0), help="bootstrap resamples for stan (default 200)"),
    "seed": dict(type=int),
    "workers": dict(type=_count(0), help="parallel workers (0 = one per core)"),
    "out": dict(help="output file (default: stdout)"),
    "format": dict(choices=("csv", "json", "text")),
}


def _provenance_keys(command):
    """The RunConfig keys embedded in output files, in order: `command`, the
    command's flags other than the seed and the execution and output
    settings (workers, out, format), then `seed`, which every command
    records (the default where the command has no --seed)."""
    skip = ("seed", "workers", "out", "format")
    return ("command",) + tuple(f for f in _COMMANDS[command].flags if f not in skip) + ("seed",)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlte",
        description="Pairwise treatment-effect estimation for multi-level treatments.",
    )
    parser.add_argument("--version", action="version", version=f"mlte {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name in spec.flags:
            p.add_argument("--" + name, **_FLAGS[name])
    return parser


def _with_environment(argv):
    """`argv` with `--flag=value` inserted right after the command for each
    of its flags whose MLTE_<FLAG> variable is set and non-empty, so that
    argparse converts and checks these values like flags and the explicit
    flags, parsed later, win.  The top-level options take no values, so
    the command is the first argument not starting with a dash."""
    argv = list(sys.argv[1:] if argv is None else argv)
    pos = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), None)
    if pos is None or argv[pos] not in _COMMANDS:
        return argv
    env = [
        f"--{name}={os.environ['MLTE_' + name.upper()]}"
        for name in _COMMANDS[argv[pos]].flags
        if os.environ.get("MLTE_" + name.upper())
    ]
    return argv[: pos + 1] + env + argv[pos + 1 :]


def _resolve(args: argparse.Namespace) -> RunConfig:
    values = {name: value for name, value in vars(args).items() if value is not None}
    if args.command == "simulate":
        values.setdefault("n", 1000)
        values.setdefault("reps", 500)
    elif args.command == "plasmode":
        values.setdefault("n", 2000)
        values.setdefault("reps", 100)
    cfg = RunConfig(**values)
    if not cfg.methods:
        raise ValueError(f"--methods names no method; expected a subset of {METHODS}")
    unknown = [m for m in cfg.methods if m not in METHOD_TABLE]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
    return cfg


def _load_dataset(cfg: RunConfig):
    if cfg.data is None:
        raise ValueError(f"{cfg.command} requires --data")
    if cfg.data.endswith(".json"):
        return load_json(cfg.data)
    if cfg.treatment is None or cfg.outcome is None or not cfg.covariates:
        raise ValueError("csv input requires --treatment, --outcome and --covariates")
    return load_csv(cfg.data, cfg.treatment, cfg.outcome, list(cfg.covariates))


def _provenance_header(cfg: RunConfig) -> str:
    compact = json.dumps(cfg.provenance(), sort_keys=True, separators=(",", ":"))
    return f"# mlte {__version__}\n# config {compact}\n# seed {cfg.seed}\n"


def _emit(content: str, cfg: RunConfig, stdout_summary: str = None) -> None:
    if cfg.out is None or cfg.out == "-":
        sys.stdout.write(content)
        return
    with open(cfg.out, "w") as fh:
        fh.write(content)
    if stdout_summary:
        sys.stdout.write(stdout_summary)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def cmd_estimate(cfg: RunConfig) -> int:
    data = _load_dataset(cfg)
    if cfg.regime == "correct":
        raise ValueError("the 'correct' regime only exists inside the simulation engine")
    methods = [m for m in METHODS if m in cfg.methods]
    pairs = [tuple(p) for p in ContrastSet.all_pairs(data.k).pairs]
    # one dataset is replication 0 of its seed's substreams
    results, failures = _apply_methods(
        data, cfg.regime, methods, pairs, cfg.seed, 0, cfg.bootstrap, cfg.m
    )
    labels = {code + 1: lab for code, lab in enumerate(data.treatment_labels)}
    tables = []
    for meth in methods:
        ests = [results[(meth, p)] for p in pairs if (meth, p) in results]
        if len(ests) == len(pairs):
            tables.append(all_pairs_table(ests, labels=labels))
    estimands = {t.estimand for t in tables}
    if len(estimands) > 1:
        _warn(
            "results mix estimands: ow/aow target the overlap population, "
            "the other methods the full population; compare within one estimand"
        )
    for meth, message in failures.items():
        _warn(f"method {meth} failed: {message}")
    if cfg.format == "json":
        payload = {
            "version": __version__,
            "config": cfg.provenance(),
            "seed": cfg.seed,
            "failures": failures,
            "tables": [_contrast_payload(t) for t in tables],
        }
        content = json.dumps(payload, indent=2) + "\n"
    elif cfg.format == "csv":
        rows = []
        for t in tables:
            for r in t.rows:
                row = dict(r)
                row["method"] = t.method
                row["estimand"] = t.estimand
                rows.append(row)
        body = render_table(
            rows,
            ("method", "estimand", "label", "estimate", "se", "ci_low", "ci_high", "p", "p_adj"),
            fmt="csv",
        )
        content = _provenance_header(cfg) + body
    else:
        sections = [render_contrasts(t, fmt="text") for t in tables]
        content = _provenance_header(cfg) + "\n".join(sections)
    _emit(content, cfg)
    return 0


def _finish_report(report, cfg: RunConfig) -> int:
    content = render_report(report, fmt=cfg.format)
    if cfg.format in ("csv", "text"):
        content = _provenance_header(cfg) + content
    summary = render_report(report, fmt="text") if cfg.out else None
    _emit(content, cfg, stdout_summary=summary)
    for meth, info in report.method_failures.items():
        _warn(f"method {meth} failed in {info['count']} replication(s): {info['example']}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.scenario is None:
        raise ValueError("simulate requires --scenario")
    scen = ScenarioConfig.named(
        cfg.scenario,
        n=cfg.n,
        reps=cfg.reps,
        seed=cfg.seed,
        regime=cfg.regime,
        bootstrap_reps=cfg.bootstrap,
        m=cfg.m,
    )
    report = run_scenario(scen, methods=list(cfg.methods), workers=cfg.workers)
    return _finish_report(report, cfg)


def cmd_plasmode(cfg: RunConfig) -> int:
    source = _load_dataset(cfg)
    gen_out, gen_trt = make_plasmode_generators(source, seed=cfg.seed)
    pcfg = PlasmodeConfig(
        source=source,
        generator_outcome=gen_out,
        generator_treatment=gen_trt,
        resample_size=cfg.n,
        reps=cfg.reps,
        seed=cfg.seed,
        regime=cfg.regime,
        bootstrap_reps=cfg.bootstrap,
        m=cfg.m,
    )
    report = run_plasmode(pcfg, methods=list(cfg.methods), workers=cfg.workers)
    return _finish_report(report, cfg)


_DIAGNOSE_COLUMNS = (
    "level", "label", "min", "q25", "median", "q75", "max",
    "below_1pct", "below_5pct", "arm_min", "arm_max",
)


def cmd_diagnose(cfg: RunConfig) -> int:
    data = _load_dataset(cfg)
    if cfg.regime == "correct":
        raise ValueError("the 'correct' regime only exists inside the simulation engine")
    prop = fit_propensity(data, cfg.regime)
    rows = []
    for lev in range(1, data.k + 1):
        col = prop.probs[:, lev - 1]
        arm = col[data.t == lev]
        qs = np.quantile(col, (0.0, 0.25, 0.5, 0.75, 1.0))
        rows.append(
            {
                "level": lev,
                "label": data.label_of(lev),
                "min": float(qs[0]),
                "q25": float(qs[1]),
                "median": float(qs[2]),
                "q75": float(qs[3]),
                "max": float(qs[4]),
                "below_1pct": int((col < 0.01).sum()),
                "below_5pct": int((col < 0.05).sum()),
                "arm_min": float(arm.min()),
                "arm_max": float(arm.max()),
            }
        )
    if cfg.format == "json":
        payload = {
            "version": __version__,
            "config": cfg.provenance(),
            "seed": cfg.seed,
            "model": prop.description,
            "converged": prop.converged,
            "rows": rows,
        }
        content = json.dumps(payload, indent=2) + "\n"
    else:
        body = render_table(rows, _DIAGNOSE_COLUMNS, fmt=cfg.format)
        content = _provenance_header(cfg) + body
    _emit(content, cfg)
    return 0


class _Command(NamedTuple):
    """One subcommand: its function, its --help line and its flags in
    --help order."""

    run: Callable
    help: str
    flags: tuple


_COMMANDS = {
    "estimate": _Command(cmd_estimate, "estimate all pairwise contrasts on a dataset", (
        "data", "treatment", "outcome", "covariates", "methods", "regime", "m", "bootstrap",
        "seed", "out", "format",
    )),
    "simulate": _Command(cmd_simulate, "run a synthetic replication study", (
        "scenario", "methods", "regime", "n", "reps", "m", "bootstrap", "seed", "workers",
        "out", "format",
    )),
    "plasmode": _Command(cmd_plasmode, "run a plasmode replication study from a source dataset", (
        "data", "treatment", "outcome", "covariates", "methods", "regime", "n", "reps", "m",
        "bootstrap", "seed", "workers", "out", "format",
    )),
    "diagnose": _Command(cmd_diagnose, "summarize fitted treatment-probability overlap", (
        "data", "treatment", "outcome", "covariates", "regime", "out", "format",
    )),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(_with_environment(argv))
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command].run(cfg)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
