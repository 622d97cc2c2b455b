"""Contrast tables, Holm adjustment, and result rendering.

All serializers are deterministic: identical inputs produce identical
bytes, so report files can be compared across runs and worker counts.
Full float precision goes to CSV and JSON (shortest round-trip repr);
the plain-text renderer rounds to three decimals for reading.

Two-sided Wald p-values come from ``math.erf`` and ``math.erfc`` with the
branches of cephes' ``ndtr`` (the normal tail behind
``scipy.stats.norm.sf``): they agree with scipy's within 1e-13 relative
down to the smallest normal double, reached near |z| = 37.5; beyond it
erfc returns subnormal values where scipy's flush to 0, a difference
below that double.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict

import numpy as np

from .simengine import ScenarioReport

__all__ = [
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
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    adjusted[order] = np.maximum.accumulate(np.minimum(1.0, (m - np.arange(m)) * p[order]))
    return adjusted


_SQRT_HALF = 0.7071067811865476


def _wald_p(tau: float, se: float) -> float:
    """Two-sided Wald p-value 2 P(Z > |tau| / se) for standard normal Z."""
    if not np.isfinite(se):
        return float("nan")
    if se == 0.0:
        return 1.0 if tau == 0.0 else 0.0
    x = -abs(tau) / se * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 2.0 * (0.5 + 0.5 * math.erf(x))
    return math.erfc(-x)


def all_pairs_table(estimates, labels=None) -> dict:
    """Assemble one estimate per unordered treatment pair into a table with
    two-sided Wald p-values, Holm-adjusted over the table's pairs.

    The table is its JSON document: a dict of method, estimand, adjustment
    ("holm") and rows, one dict per pair with keys pair, label, estimate,
    se, ci_low, ci_high, p and p_adj (the Holm-adjusted p).

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
    return {"method": next(iter(methods)), "estimand": next(iter(estimands)),
            "adjustment": "holm", "rows": rows}


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


def _csv_table(rows, columns) -> str:
    """A list of row dicts as CSV with a header row, floats at full
    precision; a cell holding a comma, a quote or a line break is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(r.get(c), text=False) for c in columns] for r in rows)
    return buf.getvalue()


def render_table(rows, columns, title: str = None) -> str:
    """A list of row dicts as aligned text with a fixed column order, floats
    to three decimals, under `title` if given."""
    cells = [[_cell(r.get(c), text=True) for c in columns] for r in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [title] if title else []
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render(document, table, text, fmt: str, header: str = "") -> str:
    """One output in format `fmt`, the only switch on the output format.

    json: `document` with tuples as lists and non-finite numbers as null;
    csv: `header` and the table `(rows, columns)` at full precision; text:
    `header` and the string `text()`, which is called only for text.
    """
    if fmt == "json":
        return json.dumps(_jsonify(document), indent=2) + "\n"
    if fmt == "csv":
        return header + _csv_table(*table)
    if fmt == "text":
        return header + text()
    raise ValueError(f"unknown format {fmt!r}")


_REPORT_COLUMNS = ("method", "regime", "parameter", "bias", "std", "rmse", "coverage", "failures")


def report_output(report: ScenarioReport):
    """A replication report as `render`'s (document, table, text).

    The JSON carries the full report, field for field (version, config
    echo, truths, failure details); the CSV carries the metric rows only;
    text prints a header block followed by an aligned metric table.
    """

    def text():
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
        table = render_table(report.rows, _REPORT_COLUMNS + ("reps_used",))
        return "\n".join(head) + "\n\n" + table

    return asdict(report), (report.rows, _REPORT_COLUMNS), text


def render_report(report: ScenarioReport, fmt: str = "text") -> str:
    """Serialize a replication report (see `report_output`)."""
    return render(*report_output(report), fmt)


_CONTRAST_COLUMNS = ("label", "estimate", "se", "ci_low", "ci_high", "p", "p_adj")


def render_contrasts(table: dict) -> str:
    """An all-pairs contrast table (see `all_pairs_table`) as an aligned
    text section under a title line naming its method, estimand and
    adjustment."""
    title = f"method={table['method']} estimand={table['estimand']} adjustment={table['adjustment']}"
    return render_table(table["rows"], _CONTRAST_COLUMNS, title=title)
