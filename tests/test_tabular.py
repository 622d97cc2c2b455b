"""Data model, treatment recoding, design expansion, file loading."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlte.tabular import (
    BoundDesign,
    ContrastSet,
    Dataset,
    DesignSpec,
    bind_design,
    curvature,
    detect_outcome_kind,
    intercept,
    interaction,
    load_csv,
    load_json,
    main,
    recode_treatment,
    spline,
    square,
    _natural_cubic_basis,
    _spline_eligible,
    _spline_knots,
)


def toy_dataset(n=40, k=3, p=3, seed=0, binary_y=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    t = np.tile(np.arange(1, k + 1), n // k + 1)[:n]
    y = rng.random(n).round() if binary_y else rng.normal(size=n)
    return Dataset.from_arrays(X, t, y)


# ---------------------------------------------------------------------------
# recoding and outcome detection


def test_recode_numeric_labels_sort_numerically():
    codes, labels = recode_treatment([10, 2, 5, 2, 10])
    assert labels == (2, 5, 10)
    assert codes.tolist() == [3, 1, 2, 1, 3]


def test_recode_string_labels_sort_lexically():
    codes, labels = recode_treatment(["b", "a", "c", "a"])
    assert labels == ("a", "b", "c")
    assert codes.tolist() == [2, 1, 3, 1]


def test_recode_is_row_order_invariant():
    values = ["x", "y", "z", "y", "x", "z"]
    _, labels = recode_treatment(values)
    _, labels_rev = recode_treatment(values[::-1])
    assert labels == labels_rev


def test_detect_outcome_kind():
    assert detect_outcome_kind([0, 1, 1, 0]) == "binary"
    assert detect_outcome_kind([0.0, 1.0, 0.5]) == "continuous"
    assert detect_outcome_kind([1, 1, 1]) == "binary"


# ---------------------------------------------------------------------------
# Dataset validation


def test_dataset_requires_all_levels():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        Dataset(
            X=X,
            columns=("a", "b"),
            t=np.array([1, 1, 3, 3]),
            y=np.zeros(4),
            outcome_kind="continuous",
            k=3,
            treatment_labels=("u", "v", "w"),
        )


def test_from_arrays_recodes_label_gaps():
    # raw labels 1/3 become consecutive codes 1/2
    d = Dataset.from_arrays(np.zeros((4, 2)), [1, 1, 3, 3], np.zeros(4))
    assert d.k == 2
    assert d.t.tolist() == [1, 1, 2, 2]
    assert d.treatment_labels == (1, 3)


def test_dataset_rejects_nonfinite():
    X = np.zeros((3, 2))
    X[1, 0] = np.nan
    with pytest.raises(ValueError):
        Dataset.from_arrays(X, [1, 2, 1], np.zeros(3))


def test_dataset_arrays_are_readonly():
    d = toy_dataset()
    with pytest.raises(ValueError):
        d.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        d.y[0] = 5.0


def test_dataset_take_preserves_metadata():
    d = toy_dataset(n=30)
    sub = d.take(np.array([0, 1, 2, 3, 4, 5]))
    assert sub.n == 6
    assert sub.columns == d.columns
    assert sub.outcome_kind == d.outcome_kind
    np.testing.assert_array_equal(sub.X, d.X[:6])


def test_dataset_column_index_unknown_name():
    d = toy_dataset()
    with pytest.raises(KeyError):
        d.column_index("nope")


# ---------------------------------------------------------------------------
# contrast sets


def test_all_pairs_count_and_order():
    cs = ContrastSet.all_pairs(4)
    assert len(cs.pairs) == 6
    for t1, t0 in cs.pairs:
        assert t1 > t0


def test_versus_reference():
    cs = ContrastSet([(t, 1) for t in (2, 3)])
    assert cs.pairs == ((2, 1), (3, 1))
    cs.validate(3)


def test_contrast_set_rejects_duplicates():
    with pytest.raises(ValueError):
        ContrastSet(pairs=((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        ContrastSet(pairs=((2, 2),))


def test_contrast_set_validate_range():
    cs = ContrastSet(pairs=((3, 1),))
    with pytest.raises(ValueError):
        cs.validate(2)


# ---------------------------------------------------------------------------
# design expansion


def test_design_matrix_hand_checked():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = Dataset.from_arrays(X, [1, 2], [0.0, 1.0], columns=("a", "b"))
    spec = DesignSpec(terms=(intercept(), main("a"), interaction("a", "b"), square("b")))
    D = bind_design(d, spec).matrix(d.X, d.t)
    np.testing.assert_allclose(D, [[1, 1, 2, 4], [1, 3, 12, 16]])


def test_design_matrix_appends_treatment_dummies_last():
    d = toy_dataset(n=9, k=3)
    spec = DesignSpec(terms=(intercept(),), includes_treatment_dummies=True)
    D = bind_design(d, spec).matrix(d.X, d.t)
    assert D.shape[1] == 3  # intercept + two dummies
    np.testing.assert_array_equal(D[:, 1], (d.t == 2).astype(float))
    np.testing.assert_array_equal(D[:, 2], (d.t == 3).astype(float))


def test_design_validate_unknown_column():
    d = toy_dataset()
    spec = DesignSpec(terms=(main("x9"),))
    with pytest.raises(KeyError):
        spec.validate(d)


def test_bound_design_freezes_spline_knots():
    # prediction on new data must reuse the training knots
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 1))
    d = Dataset.from_arrays(X, np.tile([1, 2], 100), rng.normal(size=200))
    bound = bind_design(d, DesignSpec(terms=(intercept(), spline("X1"))))
    shifted = X + 50.0
    D_new = bound.matrix(shifted)
    D_refit = bind_design(
        Dataset.from_arrays(shifted, d.t, d.y), DesignSpec(terms=(intercept(), spline("X1")))
    ).matrix(shifted)
    assert not np.allclose(D_new, D_refit)


def test_curvature_term_is_spline_without_its_linear_column():
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=60), (rng.random(60) < 0.5).astype(float)])
    d = Dataset.from_arrays(X, np.tile([1, 2, 3], 20), rng.normal(size=60), columns=("c", "b"))
    bound = bind_design(
        d, DesignSpec(terms=(spline("c"), curvature("c"), curvature("c", by="b")))
    )
    D = bound.matrix(d.X)
    assert D.shape[1] == bound.n_columns == 4 + 3 + 3
    np.testing.assert_array_equal(D[:, 4:7], D[:, 1:4])
    np.testing.assert_array_equal(D[:, 7:], D[:, 1:4] * X[:, 1:])
    assert [b.shape[1] for b in bound.blocks(d.X)] == [4, 3, 3]
    assert DesignSpec(terms=(curvature("c", by="b"),)).referenced_columns() == ["c", "b"]


def test_spline_on_too_few_values_binds_as_main_term():
    rng = np.random.default_rng(4)
    d = Dataset.from_arrays(
        np.column_stack([rng.normal(size=40), rng.integers(0, 4, 40)]), rng.integers(1, 3, 40),
        rng.normal(size=40), columns=("c", "o"),
    )
    spec = DesignSpec(terms=(intercept(), spline("c"), spline("o")))
    bound = bind_design(d, spec)
    assert bound.spec.terms == (intercept(), spline("c"), main("o"))
    assert set(bound.knots) == {1}
    np.testing.assert_array_equal(bound.matrix(d.X)[:, -1], d.X[:, 1])
    eligible = DesignSpec(terms=(intercept(), spline("c")))
    assert bind_design(d, eligible).spec is eligible


def test_spline_needs_enough_distinct_values():
    x = np.array([1.0, 1.0, 2.0, 2.0])
    assert _spline_knots(x, 3) is None
    d = Dataset.from_arrays(x[:, None], [1, 2, 1, 2], np.zeros(4), columns=("c",))
    with pytest.raises(ValueError, match="cannot carry a spline"):
        bind_design(d, DesignSpec(terms=(curvature("c"),)))


def coincident_knot_column():
    """Values 1/2/3 about 100 times each plus one 4 and one 5: five distinct
    values, but the quantile knots are 1, 1, 2, 3, 5."""
    x = np.concatenate([np.repeat([1.0, 2.0, 3.0], [100, 99, 99]), [4.0, 5.0]])
    return np.random.default_rng(0).permutation(x)


def test_coincident_knots_make_a_column_spline_ineligible():
    x = coincident_knot_column()
    assert len(np.unique(x)) == 5
    assert _spline_knots(x) is None and not _spline_eligible(x)
    d = Dataset.from_arrays(x[:, None], np.tile([1, 2], 150), np.zeros(300), columns=("g",))
    bound = bind_design(d, DesignSpec(terms=(intercept(), spline("g"))))
    assert bound.spec.terms == (intercept(), main("g")) and bound.knots == {}


def test_no_bound_spline_basis_is_rank_deficient_on_coincident_knot_column():
    # the column and resamples of it, as folds and bootstrap draws see it
    x = coincident_knot_column()
    rng = np.random.default_rng(1)
    spec = DesignSpec(terms=(intercept(), spline("g")))
    for rows in [np.arange(300)] + [rng.integers(0, 300, 300) for _ in range(20)]:
        d = Dataset.from_arrays(x[rows, None], np.tile([1, 2], 150), np.zeros(300), columns=("g",))
        D = bind_design(d, spec).matrix(d.X)
        assert np.linalg.matrix_rank(D) == D.shape[1]


def reference_spline_knots(x, n_interior):
    """Range and np.quantile knots, and the distinct-value count."""
    qs = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate([[x.min()], np.quantile(x, qs), [x.max()]]), len(np.unique(x))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=1e-3, max_value=1e6),
    st.booleans(),
)
def test_spline_knots_equal_numpy_quantiles(values, n_interior, scale, jitter):
    # tied columns, and untied ones when jittered, of every small length
    x = np.asarray(values, dtype=float) * scale
    if jitter:
        x = x + np.random.default_rng(len(values)).normal(size=len(values))
    knots, distinct = reference_spline_knots(x, n_interior)
    got = _spline_knots(x, n_interior)
    if np.all(np.diff(knots) > 0) and distinct >= n_interior + 2:
        np.testing.assert_array_equal(got, knots)
    else:
        assert got is None


def test_distinct_knots_need_as_many_distinct_values():
    # interpolated quantiles separate the knots of this 3-valued column
    x = np.repeat([0.0, 1.0, 2.0], [3, 4, 3])
    qs = np.quantile(x, [0.25, 0.5, 0.75])
    assert np.all(np.diff(np.concatenate([[0.0], qs, [2.0]])) > 0)
    assert _spline_knots(x) is None


def test_natural_cubic_basis_is_linear_beyond_boundaries():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    knots = _spline_knots(x, 3)
    far = np.linspace(x.max() + 1, x.max() + 9, 9)
    basis = _natural_cubic_basis(far, knots)
    # second differences of each column vanish on an equally spaced grid
    second = np.diff(basis, n=2, axis=0)
    assert np.abs(second).max() < 1e-8


def reference_natural_cubic_basis(x, knots):
    """The basis written term by term with `** 3`."""
    K = len(knots)

    def d(k):
        num = np.maximum(x - knots[k], 0.0) ** 3 - np.maximum(x - knots[-1], 0.0) ** 3
        return num / (knots[-1] - knots[k])

    return np.column_stack([x] + [d(k) - d(K - 2) for k in range(K - 2)])


@pytest.mark.parametrize("n_interior", (1, 3, 5))
def test_natural_cubic_basis_matches_power_formula(n_interior):
    rng = np.random.default_rng(n_interior)
    x = rng.gamma(2.0, size=400)
    knots = _spline_knots(x, n_interior)
    # evaluation points inside the range and beyond both boundary knots
    at = np.concatenate([x, np.linspace(x.min() - 5, x.max() + 5, 101)])
    np.testing.assert_allclose(
        _natural_cubic_basis(at, knots), reference_natural_cubic_basis(at, knots), rtol=1e-12, atol=0
    )


def test_design_matrix_equals_stacked_blocks_and_dummies():
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.normal(size=90), rng.gamma(2.0, size=90), (rng.random(90) < 0.5) * 1.0])
    d = Dataset.from_arrays(X, np.tile([1, 2, 3], 30), rng.normal(size=90), columns=("a", "c", "b"))
    spec = DesignSpec(
        terms=(intercept(), main("a"), interaction("a", "c"), square("c"), spline("a"),
               curvature("c"), curvature("c", by="b")),
        includes_treatment_dummies=True,
    )
    bound = bind_design(d, spec)
    new = rng.normal(size=(25, 3))
    t = rng.integers(1, 4, 25)
    dummies = [(t == level).astype(float)[:, None] for level in (2, 3)]
    reference = np.column_stack(bound.blocks(new) + dummies)
    np.testing.assert_array_equal(bound.matrix(new, t), reference)
    assert reference.shape[1] == bound.n_columns
    np.testing.assert_array_equal(bound.matrix(new, t)[:, :-2], bind_design(d, DesignSpec(spec.terms)).matrix(new))


def test_take_missing_level_error_text():
    d = toy_dataset(n=12, k=3)
    with pytest.raises(ValueError, match=r"^treatment level\(s\) \[2\] have zero rows$"):
        d.take(np.flatnonzero(d.t != 2))
    with pytest.raises(ValueError, match=r"^treatment level\(s\) \[2, 3\] have zero rows$"):
        d.take(np.flatnonzero(d.t == 1))


def test_natural_cubic_basis_column_count():
    x = np.linspace(0, 1, 100)
    knots = _spline_knots(x, 3)  # 2 boundary + 3 interior
    assert len(knots) == 5
    assert _natural_cubic_basis(x, knots).shape[1] == 4


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=11))
def test_design_rows_independent(row):
    # expanding then slicing equals slicing then expanding
    d = toy_dataset(n=12)
    spec = DesignSpec(
        terms=(intercept(), main("X1"), square("X2"), interaction("X1", "X3")),
        includes_treatment_dummies=True,
    )
    full = bind_design(d, spec).matrix(d.X, d.t)
    keep = np.array([row])
    sub = d.take(np.concatenate([keep, np.flatnonzero(np.isin(d.t, [1, 2, 3]))]))
    np.testing.assert_allclose(bind_design(sub, spec).matrix(sub.X, sub.t)[0], full[row])


# ---------------------------------------------------------------------------
# file loading


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "grp,val,a,b\n"
        "ctl,1.5,0.1,2.0\n"
        "trtB,0.5,-0.2,1.0\n"
        "trtA,2.5,0.3,0.0\n"
        "ctl,1.0,0.4,1.5\n"
    )
    d = load_csv(str(path), "grp", "val", ["a", "b"])
    assert d.k == 3
    assert d.treatment_labels == ("ctl", "trtA", "trtB")
    assert d.columns == ("a", "b")
    np.testing.assert_allclose(d.y, [1.5, 0.5, 2.5, 1.0])
    assert d.t.tolist() == [1, 3, 2, 1]


def test_load_csv_reports_bad_cell_with_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,y,x\n1,2.0,0.5\n2,oops,0.1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(str(path), "t", "y", ["x"])


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,y,x\n1,2.0,0.5\n2,1.0,0.1\n")
    with pytest.raises(ValueError):
        load_csv(str(path), "t", "y", ["x", "z"])


def test_load_csv_rejects_nonfinite_covariate(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,y,x\n1,2.0,inf\n2,1.0,0.1\n")
    with pytest.raises(ValueError, match="non-finite covariate"):
        load_csv(str(path), "t", "y", ["x"])


def test_load_json_roundtrip(tmp_path):
    payload = {
        "columns": ["a", "b"],
        "X": [[0.1, 2.0], [-0.2, 1.0], [0.3, 0.0]],
        "T": [1, 2, 3],
        "Y": [0.0, 1.0, 0.0],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    d = load_json(str(path))
    assert d.outcome_kind == "binary"
    assert d.columns == ("a", "b")
    assert d.k == 3


def test_load_json_outcome_kind_override(tmp_path):
    payload = {"columns": ["a"], "X": [[0.0], [1.0]], "T": [1, 2], "Y": [0.0, 1.0],
               "outcome_kind": "continuous"}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    d = load_json(str(path))
    assert d.outcome_kind == "continuous"
