"""Data model, file ingestion, and design-matrix construction.

Everything downstream (model fitters, estimators, the simulation engine)
consumes the small immutable containers defined here: ``Dataset`` for the
observed table, ``DesignSpec`` for a symbolic regression design, and
``ContrastSet`` for the treatment pairs under comparison.  Design expansion
supports intercept, main effects, two-way interactions, squares, natural
cubic spline bases with quantile knots, and the nonlinear (curvature) part
of such a basis, optionally multiplied by a binary column.

Expansion is row by row: every term and treatment dummy of row i depends on
row i alone (and on knots frozen at binding), so expanding rows and then
selecting some gives exactly the same bits as selecting and then expanding.
Spline cubes are computed by multiplication (``u * u * u``), not ``** 3``;
the two differ in the last bit for some entries.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "DesignSpec",
    "BoundDesign",
    "ContrastSet",
    "load_csv",
    "load_json",
    "bind_design",
    "intercept",
    "main",
    "interaction",
    "square",
    "spline",
    "curvature",
]


# ---------------------------------------------------------------------------
# term descriptors


def intercept():
    return ("intercept",)


def main(column):
    return ("main", column)


def interaction(col_a, col_b):
    return ("interaction", col_a, col_b)


def square(column):
    return ("square", column)


_SPLINE_KNOTS = 3


def spline(column):
    """Natural cubic spline term with three interior knots at equally spaced
    quantiles (`_SPLINE_KNOTS`)."""
    return ("spline", column)


def curvature(column, by=None):
    """The nonlinear columns of `spline(column)`, i.e. the basis without
    its linear column, multiplied by column `by` if given."""
    return ("curvature", column, by)


_TERM_KINDS = {"intercept", "main", "interaction", "square", "spline", "curvature"}


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class Dataset:
    """Immutable covariate/treatment/outcome table.

    Attributes
    ----------
    X : (n, p) float array of covariates.
    columns : covariate column names, length p.
    t : (n,) int array with values in {1..k}; every level occurs.
    y : (n,) float outcome vector.
    outcome_kind : "continuous" or "binary".
    k : number of treatment levels.
    treatment_labels : original treatment labels indexed by code-1, retained
        so reports can print the user's own level names.
    """

    X: np.ndarray
    columns: tuple
    t: np.ndarray
    y: np.ndarray
    outcome_kind: str
    k: int
    treatment_labels: tuple

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        t = np.asarray(self.t, dtype=int)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        n = X.shape[0]
        if t.shape != (n,) or y.shape != (n,):
            raise ValueError("X, t, y must have matching row counts")
        if len(self.columns) != X.shape[1]:
            raise ValueError("column name count does not match X")
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite covariate")
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite outcome")
        if t.min() < 1 or t.max() > self.k:
            raise ValueError("treatment codes must lie in 1..k")
        counts = np.bincount(t, minlength=self.k + 1)[1:]
        if not counts.all():
            missing = (np.flatnonzero(counts == 0) + 1).tolist()
            raise ValueError(f"treatment level(s) {missing} have zero rows")
        if self.outcome_kind not in ("continuous", "binary"):
            raise ValueError("outcome_kind must be 'continuous' or 'binary'")
        if self.outcome_kind == "binary" and not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("binary outcome must take values in {0, 1}")
        if len(self.treatment_labels) != self.k:
            raise ValueError("treatment_labels must have length k")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "treatment_labels", tuple(self.treatment_labels))
        self.X.setflags(write=False)
        self.t.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n(self):
        return self.X.shape[0]

    def column_index(self, name):
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"unknown covariate column {name!r}") from None

    def label_of(self, code):
        """Original treatment label for internal code `code` (1-based)."""
        return self.treatment_labels[code - 1]

    def take(self, rows):
        """Row subset / resample (used by the bootstrap and plasmode loops).

        The caller is responsible for re-checking level presence; construction
        raises if a treatment level disappears.
        """
        rows = np.asarray(rows, dtype=int)
        return Dataset(
            X=self.X[rows],
            columns=self.columns,
            t=self.t[rows],
            y=self.y[rows],
            outcome_kind=self.outcome_kind,
            k=self.k,
            treatment_labels=self.treatment_labels,
        )

    @staticmethod
    def from_arrays(X, t, y, columns=None, outcome_kind=None):
        """Build a Dataset from raw arrays, recoding treatment labels.

        `t` may hold arbitrary sortable labels; they are recoded to 1..k in
        sorted-label order.  `outcome_kind=None` triggers binary detection
        (binary iff the observed value set is a subset of {0, 1}).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        codes, labels = recode_treatment(t)
        if columns is None:
            columns = tuple(f"X{j + 1}" for j in range(X.shape[1]))
        if outcome_kind is None:
            outcome_kind = detect_outcome_kind(y)
        return Dataset(
            X=X,
            columns=tuple(columns),
            t=codes,
            y=y,
            outcome_kind=outcome_kind,
            k=len(labels),
            treatment_labels=labels,
        )


@dataclass(frozen=True)
class DesignSpec:
    """Symbolic regression design: an ordered tuple of term descriptors plus
    a flag appending treatment dummies (k-1 columns, level 1 reference)."""

    terms: tuple
    includes_treatment_dummies: bool = False

    def __post_init__(self):
        terms = tuple(tuple(term) for term in self.terms)
        for term in terms:
            if not term or term[0] not in _TERM_KINDS:
                raise ValueError(f"unknown design term {term!r}")
        object.__setattr__(self, "terms", terms)

    def referenced_columns(self):
        cols = []
        for term in self.terms:
            if term[0] in ("main", "square", "spline"):
                cols.append(term[1])
            elif term[0] == "interaction":
                cols.extend(term[1:3])
            elif term[0] == "curvature":
                cols.extend(c for c in term[1:3] if c is not None)
        return cols

    def validate(self, data: Dataset):
        for name in self.referenced_columns():
            data.column_index(name)


@dataclass(frozen=True)
class ContrastSet:
    """Ordered treatment pairs (t, t') to be estimated."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        seen = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"degenerate pair ({a}, {b})")
            if (a, b) in seen:
                raise ValueError(f"duplicate pair ({a}, {b})")
            seen.add((a, b))
        object.__setattr__(self, "pairs", pairs)

    def validate(self, k):
        for a, b in self.pairs:
            if not (1 <= a <= k and 1 <= b <= k):
                raise ValueError(f"pair ({a}, {b}) outside treatment levels 1..{k}")

    @staticmethod
    def all_pairs(k):
        """All k(k-1)/2 unordered pairs, each ordered (higher, lower)."""
        return ContrastSet(
            tuple((b, a) for a in range(1, k + 1) for b in range(a + 1, k + 1))
        )


# ---------------------------------------------------------------------------
# treatment recoding / outcome detection


def recode_treatment(values):
    """Map arbitrary treatment labels to consecutive codes 1..k.

    Labels are ordered by sorted(label) so the coding is reproducible no
    matter the row order; numeric-looking labels sort numerically.
    Returns (codes array, tuple of original labels indexed by code-1).
    """
    raw = list(values)
    uniq = sorted(set(raw), key=_label_sort_key)
    code_of = {lab: i + 1 for i, lab in enumerate(uniq)}
    codes = np.array([code_of[v] for v in raw], dtype=int)
    return codes, tuple(uniq)


def _label_sort_key(label):
    try:
        return (0, float(label), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(label))


def detect_outcome_kind(y):
    y = np.asarray(y, dtype=float)
    return "binary" if np.all(np.isin(y, (0.0, 1.0))) else "continuous"


# ---------------------------------------------------------------------------
# file ingestion


def load_csv(path, treatment_col, outcome_col, covariate_cols):
    """Read an RFC-4180 CSV (header row required) into a Dataset.

    Treatment labels are recoded to 1..k in sorted order and the original
    labels retained.  Binary outcomes are detected from the values.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, header row required")
        header = reader.fieldnames
        for col in [treatment_col, outcome_col, *covariate_cols]:
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
        t_raw, y_raw, x_rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            t_raw.append(row[treatment_col])
            y_raw.append(_parse_cell(row[outcome_col], outcome_col, lineno))
            x_rows.append(
                [_parse_cell(row[c], c, lineno) for c in covariate_cols]
            )
    if not x_rows:
        raise ValueError(f"{path}: no data rows")
    X = np.asarray(x_rows, dtype=float)
    y = np.asarray(y_raw, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite covariate")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite outcome")
    return Dataset.from_arrays(X, t_raw, y, columns=tuple(covariate_cols))


def _parse_cell(text, col, lineno):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ValueError(f"line {lineno}: unparseable cell {text!r} in column {col!r}") from None


def load_json(path):
    """Read a JSON dataset whose schema mirrors the Dataset fields:

    ``{"columns": [...], "X": [[...], ...], "T": [...], "Y": [...]}``
    with an optional ``"outcome_kind"`` override.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    for key in ("columns", "X", "T", "Y"):
        if key not in obj:
            raise ValueError(f"{path}: missing key {key!r}")
    return Dataset.from_arrays(
        np.asarray(obj["X"], dtype=float),
        obj["T"],
        np.asarray(obj["Y"], dtype=float),
        columns=tuple(obj["columns"]),
        outcome_kind=obj.get("outcome_kind"),
    )


# ---------------------------------------------------------------------------
# design expansion


def _natural_cubic_basis(x, knots):
    """Natural cubic spline basis (linear tails) for one column.

    `knots` are the full knot vector, boundaries included.  Returns K-1
    columns for K knots: the identity column plus K-2 curvature columns
    d_k - d_{K-2}, where d_k = ((x - knots[k])_+^3 - (x - knots[-1])_+^3) /
    (knots[-1] - knots[k]).  All K truncated powers are evaluated in one
    broadcast, one row per knot so that inner loops run over the n rows,
    and cubed as u * u * u.
    """
    x = np.ascontiguousarray(x, dtype=float)
    knots = np.asarray(knots, dtype=float)
    u = np.maximum(x - knots[:, None], 0.0)
    cubes = u * u * u
    d = (cubes[:-1] - cubes[-1]) / (knots[-1] - knots[:-1])[:, None]
    out = np.empty((len(knots) - 1, x.shape[0]))
    out[0] = x
    np.subtract(d[:-1], d[-1], out=out[1:])
    return out.T


def _spline_knots(x, n_interior=_SPLINE_KNOTS):
    """Knots of a spline with `n_interior` interior knots on column `x`:
    boundary knots at the data range, interior ones at equally spaced
    quantiles.  None when the column cannot carry the spline because its
    basis would be rank-deficient: two knots coincide (a column dominated by
    a few values), or the column has fewer distinct values than knots
    (interpolated quantiles can separate the knots of a 3-valued column).

    One sort gives the range, the distinct-value count and the quantiles,
    which follow np.quantile's default (linear) rule bit for bit.
    """
    s = np.sort(x)
    at = (len(s) - 1) * (np.arange(1, n_interior + 1) * (1.0 / (n_interior + 1)))
    lo = at.astype(np.intp)
    a, b, g = s[lo], s[np.minimum(lo + 1, len(s) - 1)], at - lo
    interior = np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)
    knots = np.concatenate([s[:1], interior, s[-1:]])
    distinct = 1 + np.count_nonzero(s[1:] != s[:-1])
    if np.all(knots[1:] > knots[:-1]) and distinct >= len(knots):
        return knots
    return None


def _spline_eligible(x):
    """Whether column `x` can carry a spline."""
    return _spline_knots(x) is not None


@dataclass(frozen=True)
class BoundDesign:
    """A DesignSpec bound to training data: spline knots are frozen so the
    same basis can be evaluated on new rows (counterfactual prediction,
    cross-validation folds)."""

    spec: DesignSpec
    column_index: dict
    knots: dict = field(default_factory=dict)
    k: int = 2

    def _widths(self):
        """Column count of each term, in term order."""
        widths = []
        for pos, term in enumerate(self.spec.terms):
            if term[0] == "spline":
                widths.append(len(self.knots[pos]) - 1)
            elif term[0] == "curvature":
                widths.append(len(self.knots[pos]) - 2)
            else:
                widths.append(1)
        return widths

    def _expand(self, X, out, widths):
        """Write every term's columns into the leading columns of `out`."""
        j = 0
        for pos, (term, width) in enumerate(zip(self.spec.terms, widths)):
            kind, cols = term[0], out[:, j:j + width]
            if kind == "intercept":
                cols[:, 0] = 1.0
            elif kind == "main":
                cols[:, 0] = X[:, self.column_index[term[1]]]
            elif kind == "interaction":
                cols[:, 0] = X[:, self.column_index[term[1]]] * X[:, self.column_index[term[2]]]
            elif kind == "square":
                cols[:, 0] = X[:, self.column_index[term[1]]] ** 2
            else:
                basis = _natural_cubic_basis(X[:, self.column_index[term[1]]], self.knots[pos])
                if kind == "spline":
                    cols[...] = basis
                elif term[2] is None:
                    cols[...] = basis[:, 1:]
                else:
                    np.multiply(basis[:, 1:], X[:, self.column_index[term[2]]][:, None], out=cols)
            j += width

    def blocks(self, X):
        """The columns of each term, one 2-d block per term, in term order
        (treatment dummies excluded)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        widths = self._widths()
        out = np.empty((X.shape[0], sum(widths)))
        self._expand(X, out, widths)
        return np.split(out, np.cumsum(widths)[:-1], axis=1)

    def matrix(self, X, t=None):
        """The design matrix of rows X: the term columns, then the
        treatment dummies of levels 2..k when the spec includes them."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        widths = self._widths()
        dummies = self.spec.includes_treatment_dummies
        if dummies and t is None:
            raise ValueError("design includes treatment dummies but no t given")
        q = sum(widths)
        out = np.empty((X.shape[0], q + (self.k - 1 if dummies else 0)))
        self._expand(X, out, widths)
        if dummies:
            t = np.asarray(t, dtype=int)
            for j, level in enumerate(range(2, self.k + 1), start=q):
                out[:, j] = t == level
        return out

    @property
    def n_columns(self):
        count = sum(self._widths())
        if self.spec.includes_treatment_dummies:
            count += self.k - 1
        return count


def bind_design(data: Dataset, spec: DesignSpec) -> BoundDesign:
    """Resolve columns and compute spline knots on `data`.

    A spline term on a column that cannot carry it in `data` (coinciding
    knots, or fewer distinct values than knots) binds as that column's main
    term, so a design chosen on the full data still binds on a
    cross-validation fold or bootstrap resample that lacks a rare value.
    A curvature term on such a column is an error."""
    spec.validate(data)
    terms, knots = list(spec.terms), {}
    for pos, term in enumerate(spec.terms):
        if term[0] in ("spline", "curvature"):
            found = _spline_knots(data.X[:, data.column_index(term[1])])
            if found is not None:
                knots[pos] = found
            elif term[0] == "spline":
                terms[pos] = main(term[1])
            else:
                raise ValueError(
                    f"column {term[1]!r} cannot carry a spline: its {_SPLINE_KNOTS + 2} knots "
                    "coincide or it has fewer distinct values than knots"
                )
    if tuple(terms) != spec.terms:
        spec = DesignSpec(tuple(terms), spec.includes_treatment_dummies)
    index = {name: j for j, name in enumerate(data.columns)}
    return BoundDesign(spec=spec, column_index=index, knots=knots, k=data.k)
