"""Data model, file ingestion, and design-matrix construction.

Everything downstream (model fitters, estimators, the simulation engine)
consumes the small immutable containers defined here: ``Dataset`` for the
observed table and ``DesignSpec`` for a symbolic regression design;
``all_pairs`` lists the treatment pairs that an all-pairs comparison
estimates.  A design term is one of four kinds: the intercept, a main
effect, a two-way interaction (`square` is a column's interaction with
itself), and the curvature part of a natural cubic spline basis with
quantile knots, optionally multiplied by a binary column; `spline` is a
column's main term followed by its curvature term.

Expansion is row by row: every term and treatment dummy of row i depends on
row i alone (and on knots frozen at binding), so expanding rows and then
selecting some gives exactly the same bits as selecting and then expanding.
Spline cubes are computed by multiplication (``u * u * u``), not ``** 3``;
the two differ in the last bit for some entries.  Terms are written in
place, column by column, by ``out=`` ufuncs into the C-ordered (n x columns)
design matrix handed to a fitter.

A bound design keeps the design of the last matrix it expanded, with
all-zero treatment dummies, when that matrix is read-only and owns its
data, as the X of every ``Dataset`` does: a parametric fit's design and the
counterfactual predictions on the same rows then expand the covariates
once, and each later call copies the kept design and sets its dummies.  A
writeable matrix or a view is expanded on every call, and so is a matrix
expanded into a caller's buffer (``out=``), which leaves the kept design as
it is: a super-learner fit works one of its three candidates at a time in
one buffer it owns, as wide as the widest full-data binding, expanding the
candidate's design into its design region and gathering each fold's rows
into its rows region, so its bound designs keep the design of their first
prediction, not of the fit.  The kept design is reused only for the
identical array object, so results are bit-identical to expanding afresh.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "DesignSpec",
    "BoundDesign",
    "all_pairs",
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
    """`column`'s interaction with itself (x * x is np.square(x), bit for bit)."""
    return interaction(column, column)


_SPLINE_KNOTS = 3


def spline(column):
    """A natural cubic spline with three interior knots at equally spaced
    quantiles (`_SPLINE_KNOTS`) as two terms to splice into a spec
    (``*spline(c)``): the column's main term and its curvature term."""
    return main(column), curvature(column)


def curvature(column, by=None):
    """The natural cubic basis of `column` without its linear column,
    multiplied by column `by` if given."""
    return ("curvature", column, by)


_TERM_KINDS = {"intercept", "main", "interaction", "curvature"}


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class Dataset:
    """Immutable covariate/treatment/outcome table.

    Construction copies X, t and y, so the table owns its arrays: they are
    read-only and no caller's array or view shares their memory.

    Attributes
    ----------
    X : (n, p) float array of covariates, p >= 1.
    columns : distinct covariate column names, length p.
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
        X = np.array(self.X, dtype=float)
        t = np.array(self.t, dtype=int)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        n = X.shape[0]
        if n == 0:
            raise ValueError("no data rows")
        if X.shape[1] == 0:
            raise ValueError("no covariate columns")
        if t.shape != (n,) or y.shape != (n,):
            raise ValueError("X, t, y must have matching row counts")
        if len(self.columns) != X.shape[1]:
            raise ValueError("column name count does not match X")
        repeated = [c for i, c in enumerate(self.columns) if c in self.columns[:i]]
        if repeated:
            raise ValueError(f"column {repeated[0]!r} is named more than once")
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite covariate")
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite outcome")
        if t.min() < 1 or t.max() > self.k:
            raise ValueError("treatment codes must lie in 1..k")
        _check_levels_present(t, self.k)
        if self.outcome_kind not in ("continuous", "binary"):
            raise ValueError("outcome_kind must be 'continuous' or 'binary'")
        if self.outcome_kind == "binary" and not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("binary outcome must take values in {0, 1}")
        if len(self.treatment_labels) != self.k:
            raise ValueError("treatment_labels must have length k")
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "treatment_labels", tuple(self.treatment_labels))
        self._set_arrays(X, t, y)

    def _set_arrays(self, X, t, y):
        """Store the checked arrays X, t, y, flagged read-only."""
        for name, array in (("X", X), ("t", t), ("y", y)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __setstate__(self, state):
        # unpickled arrays come back writeable
        self.__dict__.update(state)
        self._set_arrays(self.X, self.t, self.y)

    @property
    def n(self):
        return self.X.shape[0]

    def label_of(self, code):
        """Original treatment label for internal code `code` (1-based)."""
        return self.treatment_labels[code - 1]

    def take(self, rows):
        """Row subset / resample (used by the bootstrap and cross-validation
        loops).

        `rows` holds integer row indices (repeats and negative indices
        allowed, as in numpy indexing); any other dtype, boolean included,
        raises TypeError.

        Raises ValueError if a treatment level disappears, as construction
        does.  The other construction checks (finite values, codes in 1..k,
        binary outcome values, label count) hold for any rows of a checked
        Dataset, so they are not repeated; the subset equals the checked
        constructor's result field for field.  Its arrays are fresh,
        read-only and own their data, so a bound design keeps the term
        columns it expands from the subset's X (see the module docstring).
        """
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":
            raise TypeError(f"rows must be integer indices, not {rows.dtype}")
        t = self.t.take(rows)
        _check_levels_present(t, self.k)
        sub = object.__new__(Dataset)
        sub.__dict__.update(self.__dict__)
        sub._set_arrays(self.X.take(rows, axis=0), t, self.y.take(rows))
        return sub

    @staticmethod
    def from_arrays(X, t, y, columns=None, outcome_kind=None):
        """Build a Dataset from raw arrays, recoding treatment labels.

        `t` may hold arbitrary sortable labels; they are recoded to 1..k in
        sorted-label order.  `outcome_kind=None` triggers binary detection
        (binary iff the observed value set is a subset of {0, 1}).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim < 2:  # a flat X is one row, an empty one no rows
            X = X.reshape(1 if X.size else 0, X.size)
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


def _check_levels_present(t, k):
    """Raise ValueError naming the levels among 1..k absent from codes `t`."""
    counts = np.bincount(t, minlength=k + 1)[1:]
    if not counts.all():
        missing = (np.flatnonzero(counts == 0) + 1).tolist()
        raise ValueError(f"treatment level(s) {missing} have zero rows")


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
        # every field of a term after its kind is a column name or None
        return [c for term in self.terms for c in term[1:] if c is not None]


def all_pairs(k):
    """All k(k-1)/2 unordered pairs of levels 1..k, each ordered (higher,
    lower): (2, 1), (3, 1), ..., (k, 1), (3, 2), ..."""
    return [(b, a) for a in range(1, k + 1) for b in range(a + 1, k + 1)]


# ---------------------------------------------------------------------------
# treatment recoding / outcome detection


def recode_treatment(values):
    """Map arbitrary treatment labels to consecutive codes 1..k.

    Labels are ordered by sorted(label) so the coding is reproducible no
    matter the row order; numeric-looking labels sort numerically.  A
    missing label (None, a float NaN, or a string that is blank, `NA`, or
    parses as a float NaN such as `NaN`) raises ValueError naming the first
    such data row, counted from 1, and the number of such rows.  Two
    labels that read as the same number (`1` and `1.0`) raise ValueError
    naming both, in repr order rather than the order of the string hash.
    Returns (codes array, tuple of original labels indexed by code-1).
    """
    raw = list(values)
    distinct = set(raw)
    if any(map(_is_missing_label, distinct)):
        missing = [i for i, v in enumerate(raw) if _is_missing_label(v)]
        raise ValueError(
            f"missing treatment label in {len(missing)} row(s), first in data row {missing[0] + 1}"
        )
    uniq = sorted(distinct, key=lambda lab: (_label_sort_key(lab), repr(lab)))
    for a, b in zip(uniq, uniq[1:]):
        if _label_sort_key(a) == _label_sort_key(b):
            raise ValueError(f"treatment labels {a!r} and {b!r} read as the same number")
    code_of = {lab: i + 1 for i, lab in enumerate(uniq)}
    codes = np.array([code_of[v] for v in raw], dtype=int)
    return codes, tuple(uniq)


def _is_missing_label(label):
    if isinstance(label, str):
        label = label.strip()
        if label in ("", "NA"):
            return True
        try:
            return math.isnan(float(label))
        except ValueError:
            return False
    return label is None or (isinstance(label, (float, np.floating)) and np.isnan(label))


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
    """Read an RFC-4180 CSV (header row required, UTF-8 with or without a
    byte-order mark) into a Dataset.

    Treatment labels are recoded to 1..k in sorted order and the original
    labels retained.  Binary outcomes are detected from the values.  A cell
    that parses to a non-finite value is rejected with its line and column,
    a covariate that repeats by the Dataset checks, and a treatment column
    that is the outcome column, or a covariate that names either, before
    the file is read.  A requested column that the header names more than
    once, and a row whose cell count differs from the header's, are
    rejected too; blank lines are skipped.
    """
    if treatment_col == outcome_col:
        raise ValueError(f"column {treatment_col!r} is both the treatment and the outcome column")
    roles = {treatment_col: "treatment", outcome_col: "outcome"}
    for col in covariate_cols:
        if col in roles:
            raise ValueError(f"covariate {col!r} is the {roles[col]} column")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, header row required")
        for col in [treatment_col, outcome_col, *covariate_cols]:
            if col not in header:
                raise ValueError(f"{path}: missing column {col!r}")
            if header.count(col) > 1:
                raise ValueError(f"{path}: column {col!r} appears more than once in the header")
        t_at, y_at = header.index(treatment_col), header.index(outcome_col)
        x_at = [(header.index(c), c) for c in covariate_cols]
        t_raw, y_raw, x_rows = [], [], []
        for row in reader:
            if not row:
                continue
            where = f"line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells, the header has {len(header)}")
            t_raw.append(row[t_at])
            y_raw.append(_parse_cell(row[y_at], where, outcome_col))
            x_rows.append([_parse_cell(row[i], where, c) for i, c in x_at])
    if not x_rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset.from_arrays(x_rows, t_raw, y_raw, columns=tuple(covariate_cols))


def _parse_cell(value, where, col=None):
    """`value` as a finite float.  A value that does not parse as one raises
    ValueError naming `where` it stands and its column `col`, if given."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        problem = "unparseable"
    else:
        if math.isfinite(number):
            return number
        problem = "non-finite"
    within = "" if col is None else f" in column {col!r}"
    raise ValueError(f"{where}: {problem} cell {value!r}{within}")


def load_json(path):
    """Read a JSON dataset whose schema mirrors the Dataset fields:

    ``{"columns": [...], "X": [[...], ...], "T": [...], "Y": [...]}``
    with an optional ``"outcome_kind"`` override.  Each of the four keys
    must hold a list.  A value of "X" or "Y" that does not parse as a finite
    number is rejected with its key and row (from 1), and so is an "X" row
    whose cell count differs from the number of columns, and an entry of
    "columns" or "T" that is an array or an object.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    for key in ("columns", "X", "T", "Y"):
        if key not in obj:
            raise ValueError(f"{path}: missing key {key!r}")
        if not isinstance(obj[key], list):
            raise ValueError(f"{path}: key {key!r} must hold a list")
    for key, place, what in (("columns", "entry", "column name"), ("T", "row", "treatment label")):
        for i, v in enumerate(obj[key], start=1):
            if isinstance(v, (list, dict)):
                raise ValueError(f"{path}: key {key!r} {place} {i}: {v!r} is not a {what}")
    columns = tuple(obj["columns"])
    X = []
    for i, row in enumerate(obj["X"], start=1):
        where = f"{path}: key 'X' row {i}"
        if not isinstance(row, list):
            raise ValueError(f"{where}: {row!r} is not a list of cells")
        if len(row) != len(columns):
            raise ValueError(f"{where}: {len(row)} cells, 'columns' names {len(columns)}")
        X.append([_parse_cell(v, where, c) for v, c in zip(row, columns)])
    y = [_parse_cell(v, f"{path}: key 'Y' row {i}") for i, v in enumerate(obj["Y"], start=1)]
    return Dataset.from_arrays(X, obj["T"], y, columns=columns, outcome_kind=obj.get("outcome_kind"))


# ---------------------------------------------------------------------------
# design expansion


def _curvature_rows(x, knots, out):
    """Write the K-2 curvature columns of the natural cubic basis of column
    `x` on K knots, as rows, into the (K-2, n) block `out`: d_k - d_{K-2},
    where d_k = ((x - knots[k])_+^3 - (x - knots[-1])_+^3) / (knots[-1] -
    knots[k]).  All K truncated powers are evaluated in one broadcast, one
    row per knot so that inner loops run over the n rows, and cubed as
    u * u * u."""
    u = np.subtract(x, knots[:, None])
    np.maximum(u, 0.0, out=u)
    cubes = u * u
    cubes *= u
    d = cubes[:-1]
    np.subtract(d, cubes[-1], out=d)
    np.divide(d, (knots[-1] - knots[:-1])[:, None], out=d)
    np.subtract(d[:-1], d[-1], out=out)


def _quantiles_of_sorted(s, probs):
    """Quantiles at `probs` of a column whose values, sorted ascending, are
    `s`, by np.quantile's default (linear) rule, bit for bit.  np.quantile
    itself calls np.unique, which loads numpy.ma."""
    at = (len(s) - 1) * probs
    lo = at.astype(np.intp)
    a, b, g = s[lo], s[np.minimum(lo + 1, len(s) - 1)], at - lo
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def _knots_of_sorted(s, n_interior=_SPLINE_KNOTS):
    """Knots of a spline with `n_interior` interior knots on a column whose
    values, sorted ascending, are `s`: boundary knots at the data range,
    interior ones at equally spaced quantiles.  None when the column cannot
    carry the spline because its basis would be rank-deficient: two knots
    coincide (a column dominated by a few values), or the column has fewer
    distinct values than knots (interpolated quantiles can separate the
    knots of a 3-valued column).

    The sorted values give the range, the distinct-value count and the
    quantiles (`_quantiles_of_sorted`).
    """
    interior = _quantiles_of_sorted(s, np.arange(1, n_interior + 1) * (1.0 / (n_interior + 1)))
    # sorting leaves -0.0 and 0.0 in either order, so a knot at zero could
    # carry either sign; adding 0.0 makes it 0.0 and changes no other value
    knots = np.concatenate([s[:1], interior, s[-1:]]) + 0.0
    if (knots[1:] > knots[:-1]).all() and 1 + np.count_nonzero(s[1:] != s[:-1]) >= len(knots):
        return knots
    return None


@dataclass(frozen=True)
class BoundDesign:
    """A DesignSpec bound to training data: spline knots are frozen so the
    same basis can be evaluated on new rows (counterfactual prediction,
    cross-validation folds).

    Column counts are fixed at binding: `_n_terms` term columns (each
    term's count in `_widths`) and `n_columns` with the dummies.  Each
    instance keeps one private memo, the design of the last read-only,
    data-owning matrix it expanded (see `matrix`).  The memo takes no
    part in equality or repr and is dropped on pickling, so fits sent to
    worker processes carry no cached arrays."""

    spec: DesignSpec
    column_index: dict
    knots: dict = field(default_factory=dict)
    k: int = 2

    def __post_init__(self):
        n_terms = len(self.spec.terms)
        widths = tuple(len(self.knots[pos]) - 2 if pos in self.knots else 1 for pos in range(n_terms))
        dummies = self.k - 1 if self.spec.includes_treatment_dummies else 0
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_n_terms", sum(widths))
        object.__setattr__(self, "n_columns", sum(widths) + dummies)
        object.__setattr__(self, "_memo", None)

    def __eq__(self, other):
        # knots are arrays, which the generated field-tuple comparison
        # cannot reduce to one bool
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.spec, self.column_index, self.k) == (other.spec, other.column_index, other.k)
            and self.knots.keys() == other.knots.keys()
            and all(np.array_equal(self.knots[pos], other.knots[pos]) for pos in self.knots)
        )

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_memo"] = None
        return state

    def _expand(self, X, out, widths):
        """Write every term's columns, one row each, into the leading rows
        of the term-major block `out` (the transpose of a design's term
        columns)."""
        j = 0
        for pos, (term, width) in enumerate(zip(self.spec.terms, widths)):
            kind, rows = term[0], out[j:j + width]
            if kind == "intercept":
                rows.fill(1.0)
            elif kind == "main":
                rows[0] = X[:, self.column_index[term[1]]]
            elif kind == "interaction":
                np.multiply(X[:, self.column_index[term[1]]], X[:, self.column_index[term[2]]], out=rows[0])
            else:
                _curvature_rows(X[:, self.column_index[term[1]]], self.knots[pos], rows)
                if term[2] is not None:
                    np.multiply(rows, X[:, self.column_index[term[2]]], out=rows)
            j += width

    def _design(self, X, out):
        """Write the design of float matrix X with all-zero dummy columns
        into the (n, n_columns) matrix `out` and return it."""
        self._expand(X, out[:, : self._n_terms].T, self._widths)
        out[:, self._n_terms:] = 0.0
        return out

    def _set_dummies(self, out, t):
        """Set the zero dummy columns of design `out` for treatment codes
        `t`, or for one level `t` on every row; return `out`."""
        if not self.spec.includes_treatment_dummies:
            return out
        q = self._n_terms
        if isinstance(t, (int, np.integer)):
            if 2 <= t <= self.k:
                out[:, q + t - 2] = 1.0
        else:
            t = np.asarray(t, dtype=int)
            for j, level in enumerate(range(2, self.k + 1), start=q):
                out[:, j] = t == level
        return out

    def blocks(self, X):
        """The columns of each term, one (n, width) view of a fresh design
        per term, in term order (treatment dummies excluded)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        design = self._design(X, np.empty((X.shape[0], self.n_columns)))
        return np.split(design[:, : self._n_terms], np.cumsum(self._widths)[:-1], axis=1)

    def matrix(self, X, t=None, out=None):
        """The design matrix of rows X: the term columns, then the
        treatment dummies of levels 2..k when the spec includes them.  `t`
        is each row's treatment code, or one level for every row (a
        counterfactual prediction), which gives the same matrix as a
        constant array of that level.

        A writeable, C-ordered array, bit for bit what a fresh expansion
        gives.  With `out`, a flat float buffer of at least n * n_columns
        entries, the matrix is expanded into the start of that buffer (a
        workspace reused across calls) and the memo is left as it is.
        Otherwise it is a fresh array.  When X is read-only and owns its
        data (a Dataset's X, say), so that no view can change it, the memo
        keeps X and its read-only design with all-zero dummies, and the
        matrix is a copy of that design for as long as the same array
        object comes back still read-only; so a fit without `out` and its
        predictions on the same rows expand them once.  Any other X is expanded afresh and
        empties the memo, so an array flagged writeable in between is
        expanded anew.  (An array flagged writeable, changed and flagged
        read-only again with no call in between would go unnoticed; a
        Dataset's arrays are never flagged writeable again.)"""
        if self.spec.includes_treatment_dummies and t is None:
            raise ValueError("design includes treatment dummies but no t given")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        if out is not None:
            design = self._design(X, out[: n * self.n_columns].reshape(n, self.n_columns))
        elif X.flags.owndata and not X.flags.writeable:
            memo = self._memo
            if memo is None or memo[0] is not X:
                template = self._design(X, np.empty((n, self.n_columns)))
                template.setflags(write=False)
                memo = (X, template)
                object.__setattr__(self, "_memo", memo)
            design = memo[1].copy()
        else:
            object.__setattr__(self, "_memo", None)
            design = self._design(X, np.empty((n, self.n_columns)))
        return self._set_dummies(design, t)


def bind_design(data: Dataset, spec: DesignSpec, sorted_columns=None) -> BoundDesign:
    """Resolve columns and compute each curvature term's knots on `data`.

    A curvature term on a column that cannot carry the spline in `data`
    (coinciding knots, or fewer distinct values than knots) leaves the
    bound spec, and the column's main term stays; so a spline chosen on the
    full data still binds on a cross-validation fold or bootstrap resample
    that lacks a rare value, as a main term.

    `sorted_columns`, if given, maps the index j of every column that a
    curvature term names to column j of `data` sorted ascending, so that a
    caller holding those values already (the ml learners sort each
    covariate once per fit, and the super learner derives every fold's
    from one argsort per column) binds without sorting again; by default
    each column is sorted here."""
    index = {name: j for j, name in enumerate(data.columns)}
    for name in spec.referenced_columns():
        if name not in index:
            raise KeyError(f"unknown covariate column {name!r}")
    terms, knots = [], {}
    for term in spec.terms:
        if term[0] == "curvature":
            j = index[term[1]]
            found = _knots_of_sorted(np.sort(data.X[:, j]) if sorted_columns is None else sorted_columns[j])
            if found is None:
                continue
            knots[len(terms)] = found
        terms.append(term)
    if len(terms) < len(spec.terms):
        spec = DesignSpec(tuple(terms), spec.includes_treatment_dummies)
    return BoundDesign(spec=spec, column_index=index, knots=knots, k=data.k)
