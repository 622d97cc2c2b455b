"""Contrast tables, Holm adjustment, and result rendering.

All serializers are deterministic: identical inputs produce identical
bytes, so report files can be compared across runs and worker counts.
Full float precision goes to CSV and JSON (shortest round-trip repr);
the plain-text renderer rounds to three decimals for reading.

Two-sided Wald p-values come from ``scipy.special.ndtr``, the compiled
normal tail that ``scipy.stats.norm.sf`` itself calls.  It is imported at
the first p-value, so importing this module loads no scipy, and
``scipy.stats`` is never loaded.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .simengine import ScenarioReport

__all__ = [
    "ContrastTable",
    "holm_adjust",
    "all_pairs_table",
    "render_report",
    "render_contrasts",
    "render_table",
]


def holm_adjust(pvalues) -> np.ndarray:
    """Step-down Holm adjustment.

    Sorts ascending, multiplies the i-th smallest p by (m - i + 1), takes
    the running maximum, caps at 1, and restores the input order.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1:
        raise ValueError("pvalues must be one-dimensional")
    if len(p) == 0:
        return p.copy()
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for pos, idx in enumerate(order):
        running = max(running, min(1.0, (m - pos) * p[idx]))
        adjusted[idx] = running
    return adjusted


# the multiplicity adjustment of every contrast table, named in its outputs
_ADJUSTMENT = "holm"


@dataclass(frozen=True)
class ContrastTable:
    """All-pairs contrast table for a single method, Holm-adjusted.

    rows: one dict per unordered treatment pair with keys pair, label,
    estimate, se, ci_low, ci_high, p, p_adj (the Holm-adjusted p).
    """

    method: str
    estimand: str
    rows: tuple


def _wald_p(tau: float, se: float) -> float:
    if not np.isfinite(se):
        return float("nan")
    if se == 0.0:
        return 1.0 if tau == 0.0 else 0.0
    from scipy.special import ndtr  # deferred: scipy.special costs ~0.3 s to import

    return float(2.0 * ndtr(-abs(tau) / se))


def all_pairs_table(estimates, labels=None) -> ContrastTable:
    """Assemble one estimate per unordered treatment pair into a table with
    two-sided Wald p-values, Holm-adjusted over the table's pairs.

    `labels` optionally maps level codes to display names.  Estimates with
    non-finite variance get NaN p-values and are excluded from the Holm
    family (their adjusted p is NaN as well).
    """
    if not estimates:
        raise ValueError("no estimates given")
    methods = {e.method for e in estimates}
    if len(methods) != 1:
        raise ValueError(f"mixed methods in one table: {sorted(methods)}")
    estimands = {e.estimand for e in estimates}
    if len(estimands) != 1:
        raise ValueError(f"mixed estimands in one table: {sorted(estimands)}")
    seen = {}
    for e in estimates:
        key = frozenset(e.pair)
        if key in seen:
            raise ValueError(f"duplicate estimate for pair {tuple(sorted(e.pair))}")
        seen[key] = e
    levels = sorted({c for e in estimates for c in e.pair})
    missing = [
        (b, a)
        for i, a in enumerate(levels)
        for b in levels[i + 1 :]
        if frozenset((a, b)) not in seen
    ]
    if missing:
        raise ValueError(f"missing estimates for pairs {missing}")

    ordered = sorted(estimates, key=lambda e: (min(e.pair), max(e.pair)))
    p_raw = np.array([_wald_p(e.tau_hat, e.se) for e in ordered])
    p_adj = np.full(len(p_raw), np.nan)
    finite = np.isfinite(p_raw)
    p_adj[finite] = holm_adjust(p_raw[finite])

    def name(code):
        if labels is None:
            return str(code)
        return str(labels[code]) if code in labels else str(code)

    rows = []
    for e, p, q in zip(ordered, p_raw, p_adj):
        t1, t0 = e.pair
        rows.append(
            {
                "pair": (t1, t0),
                "label": f"{name(t1)} vs {name(t0)}",
                "estimate": e.tau_hat,
                "se": e.se,
                "ci_low": e.ci95[0],
                "ci_high": e.ci95[1],
                "p": float(p),
                "p_adj": float(q),
            }
        )
    return ContrastTable(method=next(iter(methods)), estimand=next(iter(estimands)), rows=tuple(rows))


# ---------------------------------------------------------------------------
# rendering


def _cell(value, text: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not np.isfinite(value):
            return ""
        return f"{value:.3f}" if text else repr(value)
    return str(value)


def _jsonify(obj):
    """`obj` as JSON-ready data: tuples as lists, numpy scalars as Python
    numbers, and non-finite floats as None (written as null)."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def render_table(rows, columns, fmt: str = "csv", title: str = None) -> str:
    """Render a list of row dicts with a fixed column order.

    csv: full precision; text: aligned, floats to three decimals; json:
    {"rows": [...]} with full precision.
    """
    if fmt == "json":
        payload = {"rows": _jsonify([{c: r.get(c) for c in columns} for r in rows])}
        if title:
            payload["title"] = title
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        for r in rows:
            buf.write(",".join(_cell(r.get(c), text=False) for c in columns) + "\n")
        return buf.getvalue()
    if fmt == "text":
        cells = [[_cell(r.get(c), text=True) for c in columns] for r in rows]
        widths = [
            max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        lines = []
        if title:
            lines.append(title)
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


_REPORT_COLUMNS = ("method", "regime", "parameter", "bias", "std", "rmse", "coverage", "failures")


def render_report(report: ScenarioReport, fmt: str = "text") -> str:
    """Serialize a replication report.

    The CSV carries the metric rows only; JSON carries the full report
    (version, config echo, truths, failure details); text prints a header
    block followed by an aligned metric table.
    """
    if fmt == "json":
        payload = {
            "kind": report.kind,
            "version": report.version,
            "seed": report.seed,
            "reps": report.reps,
            "config": _jsonify(report.config),
            "truths": _jsonify(report.truths),
            "method_failures": _jsonify(report.method_failures),
            "rows": _jsonify([dict(r) for r in report.rows]),
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return render_table(report.rows, _REPORT_COLUMNS, fmt="csv")
    if fmt == "text":
        head = [
            f"{report.kind} report (version {report.version})",
            f"seed={report.seed} reps={report.reps}",
        ]
        cfg = report.config
        keys = [k for k in ("treatment_strength", "outcome_strength", "n", "regime", "resample_size", "source_n") if k in cfg]
        if keys:
            head.append(" ".join(f"{k}={cfg[k]}" for k in keys))
        truths = ", ".join(
            f"{p}: {v['population']:.3f}" for p, v in report.truths.items()
        )
        head.append(f"truths: {truths}")
        if report.method_failures:
            fails = ", ".join(
                f"{m}: {info['count']}" for m, info in report.method_failures.items()
            )
            head.append(f"failed replications: {fails}")
        table = render_table(
            report.rows,
            _REPORT_COLUMNS + ("reps_used",),
            fmt="text",
        )
        return "\n".join(head) + "\n\n" + table
    raise ValueError(f"unknown format {fmt!r}")


def _contrast_payload(table: ContrastTable) -> dict:
    """A contrast table as JSON-ready data, non-finite numbers as None."""
    return {
        "method": table.method,
        "estimand": table.estimand,
        "adjustment": _ADJUSTMENT,
        "rows": _jsonify([dict(r) for r in table.rows]),
    }


_CONTRAST_COLUMNS = ("label", "estimate", "se", "ci_low", "ci_high", "p", "p_adj")


def render_contrasts(table: ContrastTable, fmt: str = "text") -> str:
    """Serialize an all-pairs contrast table."""
    if fmt == "json":
        return json.dumps(_contrast_payload(table), indent=2) + "\n"
    if fmt == "csv":
        return render_table(table.rows, _CONTRAST_COLUMNS, fmt="csv")
    if fmt == "text":
        title = f"method={table.method} estimand={table.estimand} adjustment={_ADJUSTMENT}"
        return render_table(table.rows, _CONTRAST_COLUMNS, fmt="text", title=title)
    raise ValueError(f"unknown format {fmt!r}")
