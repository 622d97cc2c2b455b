"""Command-line front end.

Four commands: `estimate` runs the requested estimators on a dataset file
and prints an all-pairs contrast table; `simulate` runs a named synthetic
scenario; `plasmode` resamples a source dataset with regenerated
treatment/outcome; `diagnose` summarizes fitted treatment probabilities
as a numeric overlap check.

`_FLAGS` defines every flag once (its argparse type, choices, default and
help) and `_COMMANDS` gives each command's function, help line, flags and
defaults of its own; the parser, the resolved configuration and the
provenance keys are built from these two tables.  Every
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
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .learners import REGIMES, fit_propensity
from .reporting import (
    _CONTRAST_COLUMNS, all_pairs_table, render, render_contrasts, render_table, report_output,
)
from .simengine import (
    METHOD_TABLE,
    METHODS,
    PlasmodeConfig,
    SCENARIO_NAMES,
    ScenarioConfig,
    _apply_methods,
    run_plasmode,
    run_scenario,
)
from .tabular import _quantiles_of_sorted, all_pairs, load_csv, load_json

__all__ = ["main"]


def _comma_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _column_name(text):
    """A column name as the UTF-8 text of its bytes.  Under a non-UTF-8
    locale such as C, Python reads arguments and environment variables
    with surrogate escapes for the bytes it cannot decode; those bytes are
    decoded again as UTF-8, the encoding of the CSV header.  A value that is
    not valid UTF-8 stays as it is."""
    try:
        return text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError:
        return text


def _column_names(text):
    return _comma_list(_column_name(text))


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
# configuration attribute of the same name, and a command without the flag
# gets its default
_FLAGS = {
    "data": dict(help="input dataset (.csv or .json)"),
    "treatment": dict(type=_column_name, help="treatment column name (csv input)"),
    "outcome": dict(type=_column_name, help="outcome column name (csv input)"),
    "covariates": dict(type=_column_names, help="comma-separated covariate columns (csv input)"),
    "methods": dict(type=_comma_list, default=METHODS, help="comma-separated subset of " + ", ".join(
        f"{meth} ({row.estimand})" for meth, row in METHOD_TABLE.items())),
    "regime": dict(choices=REGIMES, default="mainterms"),
    "scenario": dict(choices=SCENARIO_NAMES),
    "n": dict(type=_count(1), help="sample size (simulate) / resample size (plasmode)"),
    "reps": dict(type=_count(1), help="number of replications"),
    "m": dict(type=_count(1), default=1, help="matches per unit"),
    "bootstrap": dict(type=_count(0), default=200,
                      help="bootstrap resamples for stan (default %(default)s)"),
    "seed": dict(type=_count(0), default=1),
    "workers": dict(type=_count(0), default=1, help="parallel workers (0 = one per core)"),
    "out": dict(help="output file (default: stdout)"),
    "format": dict(choices=("csv", "json", "text"), default="text"),
}


def _provenance_keys(command):
    """The configuration keys embedded in output files, in order:
    `command`, the command's flags other than the seed and the execution
    and output settings (workers, out, format), then `seed`, which every
    command records (the default where the command has no --seed)."""
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
        p.set_defaults(**spec.defaults)
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


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed flags, with every flag the command does not take at its
    `_FLAGS` default."""
    defaults = {name: flag.get("default") for name, flag in _FLAGS.items()}
    cfg = argparse.Namespace(**{**defaults, **vars(args)})
    if not cfg.methods:
        raise ValueError(f"--methods names no method; expected a subset of {METHODS}")
    unknown = [m for m in cfg.methods if m not in METHOD_TABLE]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
    return cfg


def _load_dataset(cfg):
    """The --data file as a Dataset of at least two treatment levels;
    estimate and diagnose then reject the `correct` regime (plasmode
    rejects it with its own message).  A .json file names its own
    columns, so it rejects the csv column flags."""
    if cfg.data is None:
        raise ValueError(f"{cfg.command} requires --data")
    json_input = cfg.data.endswith(".json")
    if json_input:
        given = [f"--{f}" for f in ("treatment", "outcome", "covariates") if getattr(cfg, f) is not None]
        if given:
            raise ValueError(f"only csv input takes {', '.join(given)}; a .json dataset names its own columns")
        data = load_json(cfg.data)
    elif cfg.treatment is None or cfg.outcome is None or not cfg.covariates:
        raise ValueError("csv input requires --treatment, --outcome and --covariates")
    else:
        data = load_csv(cfg.data, cfg.treatment, cfg.outcome, list(cfg.covariates))
    if data.k < 2:
        where = "key 'T'" if json_input else f"column {cfg.treatment!r}"
        raise ValueError(f"treatment {where} has a single level; at least 2 levels are needed")
    if cfg.regime == "correct" and cfg.command in ("estimate", "diagnose"):
        raise ValueError("the 'correct' regime only exists inside the simulation engine")
    return data


def _provenance(cfg) -> dict:
    """The configuration worth embedding in output files: everything that
    determines the result, nothing that doesn't (worker count, output
    destination)."""
    values = ((key, getattr(cfg, key)) for key in _provenance_keys(cfg.command))
    return {key: v for key, v in values if v is not None}


def _write_stdout(content: str) -> None:
    """Write `content` to stdout as UTF-8, whatever the locale's encoding.
    A stdout without a byte buffer (an in-process capture such as
    io.StringIO) takes the text as it is."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(content)
        return
    sys.stdout.flush()  # text written before goes out first
    buffer.write(content.encode("utf-8"))


def _emit(cfg, document, table, text, summary=False) -> None:
    """Render the command's output (see `reporting.render`) in --format,
    with a provenance header on csv and text, and write it as UTF-8 to
    stdout or to --out; with `summary`, a file output is followed by the
    text on stdout."""
    compact = json.dumps(_provenance(cfg), sort_keys=True, separators=(",", ":"))
    header = f"# mlte {__version__}\n# config {compact}\n# seed {cfg.seed}\n"
    content = render(document, table, text, cfg.format, header=header)
    if cfg.out is None or cfg.out == "-":
        _write_stdout(content)
        return
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write(content)
    if summary:
        _write_stdout(text())


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def cmd_estimate(cfg) -> int:
    data = _load_dataset(cfg)
    methods = [m for m in METHODS if m in cfg.methods]
    pairs = all_pairs(data.k)
    # one dataset is replication 0 of its seed's substreams
    results, failures = _apply_methods(
        data, cfg.regime, methods, pairs, cfg.seed, 0, cfg.bootstrap, cfg.m
    )
    labels = {code + 1: lab for code, lab in enumerate(data.treatment_labels)}
    tables = [all_pairs_table([results[(meth, p)] for p in pairs], labels=labels)
              for meth in methods if meth not in failures]
    estimands = {t["estimand"] for t in tables}
    if len(estimands) > 1:
        _warn(
            "results mix estimands: ow/aow target the overlap population, "
            "the other methods the full population; compare within one estimand"
        )
    for meth, message in failures.items():
        _warn(f"method {meth} failed: {message}")
    document = {"version": __version__, "config": _provenance(cfg), "seed": cfg.seed,
                "failures": failures, "tables": tables}
    rows = [{**r, "method": t["method"], "estimand": t["estimand"]} for t in tables for r in t["rows"]]
    _emit(cfg, document, (rows, ("method", "estimand") + _CONTRAST_COLUMNS),
          lambda: "\n".join(render_contrasts(t) for t in tables))
    return 0


def _warn_failures(report) -> None:
    for meth, info in report.method_failures.items():
        _warn(f"method {meth} failed in {info['count']} replication(s): {info['example']}")


def cmd_simulate(cfg) -> int:
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
    _emit(cfg, *report_output(report), summary=True)
    _warn_failures(report)
    return 0


def cmd_plasmode(cfg) -> int:
    pcfg = PlasmodeConfig(
        source=_load_dataset(cfg),
        resample_size=cfg.n,
        reps=cfg.reps,
        seed=cfg.seed,
        regime=cfg.regime,
        bootstrap_reps=cfg.bootstrap,
        m=cfg.m,
    )
    report = run_plasmode(pcfg, methods=list(cfg.methods), workers=cfg.workers)
    _emit(cfg, *report_output(report), summary=True)
    _warn_failures(report)
    return 0


_DIAGNOSE_COLUMNS = (
    "level", "label", "min", "q25", "median", "q75", "max",
    "below_1pct", "below_5pct", "arm_min", "arm_max",
)


def cmd_diagnose(cfg) -> int:
    data = _load_dataset(cfg)
    prop = fit_propensity(data, cfg.regime)
    rows = []
    for lev in range(1, data.k + 1):
        col = prop.probs[:, lev - 1]
        arm = col[data.t == lev]
        qs = _quantiles_of_sorted(np.sort(col), np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
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
    document = {"version": __version__, "config": _provenance(cfg), "seed": cfg.seed,
                "model": prop.description, "converged": prop.converged, "rows": rows}
    _emit(cfg, document, (rows, _DIAGNOSE_COLUMNS),
          lambda: render_table(rows, _DIAGNOSE_COLUMNS))
    return 0


class _Command(NamedTuple):
    """One subcommand: its function, its --help line, its flags in --help
    order and the defaults it sets in place of `_FLAGS`'."""

    run: Callable
    help: str
    flags: tuple
    defaults: dict = {}


_COMMANDS = {
    "estimate": _Command(cmd_estimate, "estimate all pairwise contrasts on a dataset", (
        "data", "treatment", "outcome", "covariates", "methods", "regime", "m", "bootstrap",
        "seed", "out", "format",
    )),
    "simulate": _Command(cmd_simulate, "run a synthetic replication study", (
        "scenario", "methods", "regime", "n", "reps", "m", "bootstrap", "seed", "workers",
        "out", "format",
    ), dict(n=1000, reps=500)),
    "plasmode": _Command(cmd_plasmode, "run a plasmode replication study from a source dataset", (
        "data", "treatment", "outcome", "covariates", "methods", "regime", "n", "reps", "m",
        "bootstrap", "seed", "workers", "out", "format",
    ), dict(n=2000, reps=100)),
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
