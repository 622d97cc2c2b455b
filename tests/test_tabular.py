"""Data model, treatment recoding, design expansion, file loading."""

import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlte.simengine import _SCENARIO_PAIRS
from mlte.tabular import (
    BoundDesign,
    Dataset,
    all_pairs,
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
    _knots_of_sorted,
)
from drawn_inputs import DRAWN_KINDS, drawn_column
from reference_paths import reference_natural_cubic_basis, reference_spline_knots


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


@pytest.mark.parametrize("values, named", (
    (["1", "1.0", "2", "1"], "'1' and '1.0'"),
    ([1, "1", 2, 2], "'1' and 1"),
    (["2", "01", "1", "1.0"], "'01' and '1'"),
))
def test_recode_rejects_two_labels_that_read_as_one_number(values, named):
    # their order would follow the string hash, not the sort
    with pytest.raises(ValueError, match=f"^treatment labels {re.escape(named)} read as the same number$"):
        recode_treatment(values)


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


def test_dataset_rejects_a_repeated_column_name(tmp_path):
    with pytest.raises(ValueError, match="column 'a' is named more than once"):
        Dataset.from_arrays(np.zeros((4, 3)), [1, 2, 1, 2], np.arange(4.0), columns=("a", "b", "a"))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(
        {"columns": ["c", "c"], "X": [[0.0, 1.0]] * 4, "T": [1, 2, 1, 2], "Y": [0.0, 1.0, 2.0, 3.0]}
    ))
    with pytest.raises(ValueError, match="column 'c' is named more than once"):
        load_json(str(path))


def test_dataset_owns_its_arrays():
    rng = np.random.default_rng(2)
    big = rng.normal(size=(30, 4))
    t = np.tile([1, 2, 3], 10)
    y = rng.normal(size=30)
    X = big[:, :2].copy()
    d = Dataset.from_arrays(X, t, y)
    view = Dataset.from_arrays(big[:, :2], t, y)
    kept = view.X.copy()
    big[:, :2] += 1.0  # the caller may still change its arrays
    X[0, 0] = y[0] = 0.0
    np.testing.assert_array_equal(view.X, kept)
    for got, given in ((d.X, X), (d.y, y), (view.X, big), (view.y, y)):
        assert not np.shares_memory(got, given)
        assert got.flags.owndata and not got.flags.writeable
    assert X.flags.writeable and y.flags.writeable


# ---------------------------------------------------------------------------
# contrast pairs


def test_all_pairs_count_and_order():
    for k in range(2, 7):
        pairs = all_pairs(k)
        assert len(pairs) == len(set(pairs)) == k * (k - 1) // 2
        for t1, t0 in pairs:
            assert 1 <= t0 < t1 <= k


def test_versus_reference():
    # every level against level 1 comes first, in level order; a scenario
    # study estimates just these pairs
    for k in range(2, 7):
        assert all_pairs(k)[: k - 1] == [(t, 1) for t in range(2, k + 1)]
    assert list(_SCENARIO_PAIRS) == all_pairs(3)[:2]


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
    with pytest.raises(KeyError, match="unknown covariate column 'x9'"):
        bind_design(d, spec)


def test_bound_design_freezes_spline_knots():
    # prediction on new data must reuse the training knots
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 1))
    d = Dataset.from_arrays(X, np.tile([1, 2], 100), rng.normal(size=200))
    bound = bind_design(d, DesignSpec(terms=(intercept(), *spline("X1"))))
    shifted = X + 50.0
    D_new = bound.matrix(shifted)
    D_refit = bind_design(
        Dataset.from_arrays(shifted, d.t, d.y), DesignSpec(terms=(intercept(), *spline("X1")))
    ).matrix(shifted)
    assert not np.allclose(D_new, D_refit)


def test_bound_designs_compare_by_their_knots():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 1))
    d = Dataset.from_arrays(X, np.tile([1, 2], 100), rng.normal(size=200))
    spec = DesignSpec(terms=(intercept(), *spline("X1")))
    bound = bind_design(d, spec)
    assert bound == bind_design(d, spec)
    other = bind_design(Dataset.from_arrays(X + 1.0, d.t, d.y), spec)
    assert (bound == other) is False
    assert (bound != other) is True
    assert bound != bind_design(d, DesignSpec(terms=(intercept(),)))


def test_curvature_term_is_spline_without_its_linear_column():
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=60), (rng.random(60) < 0.5).astype(float)])
    d = Dataset.from_arrays(X, np.tile([1, 2, 3], 20), rng.normal(size=60), columns=("c", "b"))
    bound = bind_design(
        d, DesignSpec(terms=(*spline("c"), curvature("c"), curvature("c", by="b")))
    )
    D = bound.matrix(d.X)
    assert D.shape[1] == bound.n_columns == 1 + 3 + 3 + 3
    np.testing.assert_array_equal(D[:, 0], X[:, 0])
    np.testing.assert_array_equal(D[:, 4:7], D[:, 1:4])
    np.testing.assert_array_equal(D[:, 7:], D[:, 1:4] * X[:, 1:])
    assert [b.shape[1] for b in bound.blocks(d.X)] == [1, 3, 3, 3]
    assert DesignSpec(terms=(curvature("c", by="b"),)).referenced_columns() == ["c", "b"]


def test_spline_on_too_few_values_binds_as_main_term():
    rng = np.random.default_rng(4)
    d = Dataset.from_arrays(
        np.column_stack([rng.normal(size=40), rng.integers(0, 4, 40)]), rng.integers(1, 3, 40),
        rng.normal(size=40), columns=("c", "o"),
    )
    spec = DesignSpec(terms=(intercept(), *spline("c"), *spline("o")))
    bound = bind_design(d, spec)
    assert bound.spec.terms == (intercept(), *spline("c"), main("o"))
    assert set(bound.knots) == {2}
    np.testing.assert_array_equal(bound.matrix(d.X)[:, -1], d.X[:, 1])
    eligible = DesignSpec(terms=(intercept(), *spline("c")))
    assert bind_design(d, eligible).spec is eligible


def test_spline_needs_enough_distinct_values():
    x = np.array([1.0, 1.0, 2.0, 2.0])
    assert _knots_of_sorted(np.sort(x), 3) is None
    d = Dataset.from_arrays(x[:, None], [1, 2, 1, 2], np.zeros(4), columns=("c",))
    bound = bind_design(d, DesignSpec(terms=(intercept(), curvature("c"))))
    assert bound.spec.terms == (intercept(),) and bound.knots == {}
    np.testing.assert_array_equal(bound.matrix(d.X), np.ones((4, 1)))


def coincident_knot_column():
    """Values 1/2/3 about 100 times each plus one 4 and one 5: five distinct
    values, but the quantile knots are 1, 1, 2, 3, 5."""
    x = np.concatenate([np.repeat([1.0, 2.0, 3.0], [100, 99, 99]), [4.0, 5.0]])
    return np.random.default_rng(0).permutation(x)


def test_coincident_knots_make_a_column_spline_ineligible():
    x = coincident_knot_column()
    assert len(np.unique(x)) == 5
    assert _knots_of_sorted(np.sort(x)) is None
    d = Dataset.from_arrays(x[:, None], np.tile([1, 2], 150), np.zeros(300), columns=("g",))
    bound = bind_design(d, DesignSpec(terms=(intercept(), *spline("g"))))
    assert bound.spec.terms == (intercept(), main("g")) and bound.knots == {}


def test_no_bound_spline_basis_is_rank_deficient_on_coincident_knot_column():
    # the column and resamples of it, as folds and bootstrap draws see it
    x = coincident_knot_column()
    rng = np.random.default_rng(1)
    spec = DesignSpec(terms=(intercept(), *spline("g")))
    for rows in [np.arange(300)] + [rng.integers(0, 300, 300) for _ in range(20)]:
        d = Dataset.from_arrays(x[rows, None], np.tile([1, 2], 150), np.zeros(300), columns=("g",))
        D = bind_design(d, spec).matrix(d.X)
        assert np.linalg.matrix_rank(D) == D.shape[1]


@settings(max_examples=200)
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
    got = _knots_of_sorted(np.sort(x), n_interior)
    if np.all(np.diff(knots) > 0) and distinct >= n_interior + 2:
        np.testing.assert_array_equal(got, knots)
    else:
        assert got is None


def test_distinct_knots_need_as_many_distinct_values():
    # interpolated quantiles separate the knots of this 3-valued column
    x = np.repeat([0.0, 1.0, 2.0], [3, 4, 3])
    qs = np.quantile(x, [0.25, 0.5, 0.75])
    assert np.all(np.diff(np.concatenate([[0.0], qs, [2.0]])) > 0)
    assert _knots_of_sorted(np.sort(x)) is None


def spline_basis(x, knots):
    """The natural cubic basis of column x on `knots`, as a bound design
    with those knots expands its spline terms."""
    bound = BoundDesign(DesignSpec(spline("x")), {"x": 0}, {1: knots})
    return bound.matrix(np.asarray(x, dtype=float)[:, None])


def test_natural_cubic_basis_is_linear_beyond_boundaries():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    knots = _knots_of_sorted(np.sort(x), 3)
    far = np.linspace(x.max() + 1, x.max() + 9, 9)
    basis = spline_basis(far, knots)
    # second differences of each column vanish on an equally spaced grid
    second = np.diff(basis, n=2, axis=0)
    assert np.abs(second).max() < 1e-8


@pytest.mark.parametrize("n_interior", (1, 3, 5))
def test_natural_cubic_basis_matches_power_formula(n_interior):
    rng = np.random.default_rng(n_interior)
    x = rng.gamma(2.0, size=400)
    knots = _knots_of_sorted(np.sort(x), n_interior)
    # evaluation points inside the range and beyond both boundary knots
    at = np.concatenate([x, np.linspace(x.min() - 5, x.max() + 5, 101)])
    np.testing.assert_allclose(
        spline_basis(at, knots), reference_natural_cubic_basis(at, knots), rtol=1e-12, atol=0
    )


@settings(max_examples=100)
@given(st.sampled_from(DRAWN_KINDS), st.integers(10, 200), st.integers(0, 2**16))
def test_bound_spline_is_its_column_then_its_natural_cubic_basis(kind, n, seed):
    # a column that cannot carry the spline binds as its main term alone
    x = drawn_column(kind, np.random.default_rng(seed), n)
    d = Dataset.from_arrays(x[:, None], np.arange(n) % 2, np.zeros(n), columns=("c",))
    D = bind_design(d, DesignSpec((intercept(), *spline("c")))).matrix(d.X)
    assert D[:, 1].tobytes() == x.tobytes()
    knots, distinct = reference_spline_knots(x, 3)
    if np.all(np.diff(knots) > 0) and distinct >= 5:
        np.testing.assert_allclose(D[:, 1:], reference_natural_cubic_basis(x, knots), rtol=1e-12, atol=0)
    else:
        assert D.shape[1] == 2


def test_design_matrix_equals_stacked_blocks_and_dummies():
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.normal(size=90), rng.gamma(2.0, size=90), (rng.random(90) < 0.5) * 1.0])
    d = Dataset.from_arrays(X, np.tile([1, 2, 3], 30), rng.normal(size=90), columns=("a", "c", "b"))
    spec = DesignSpec(
        terms=(intercept(), main("a"), interaction("a", "c"), square("c"), *spline("a"),
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


def memo_design(d):
    spec = DesignSpec(
        terms=(intercept(), main("X1"), interaction("X1", "X2"), square("X3"), *spline("X2"),
               curvature("X3", by="X1")),
        includes_treatment_dummies=True,
    )
    return spec, bind_design(d, spec)


def test_memoized_matrix_equals_fresh_expansion():
    d = toy_dataset(n=60)
    spec, bound = memo_design(d)
    for t in (d.t, np.full(d.n, 1), np.full(d.n, 2), np.full(d.n, 3), d.t):
        D = bound.matrix(d.X, t)
        np.testing.assert_array_equal(D, bind_design(d, spec).matrix(d.X, t))
        assert D.flags.writeable
        assert not np.shares_memory(D, bound._memo[1])
    assert bound._memo[0] is d.X
    D[:] = 0.0  # the caller's copy, not the kept block
    np.testing.assert_array_equal(bound.matrix(d.X, d.t), bind_design(d, spec).matrix(d.X, d.t))


def test_matrix_of_one_level_equals_constant_level_array():
    d = toy_dataset(n=60)
    _, bound = memo_design(d)
    fresh = np.array(d.X)  # writeable: expanded on every call
    for X in (d.X, fresh):
        for level in range(0, d.k + 2):  # 0 and k + 1 give no dummy, as a constant array does
            got = bound.matrix(X, level)
            want = bound.matrix(X, np.full(d.n, level))
            assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
            assert bound.matrix(X, np.int64(level)).tobytes() == want.tobytes()
            assert bound.matrix(X, np.array(level)).tobytes() == want.tobytes()


def test_matrix_into_workspace_equals_fresh_matrix_and_keeps_the_memo():
    d = toy_dataset(n=60)
    spec, bound = memo_design(d)
    bound.matrix(d.X, d.t)
    memo = bound._memo
    workspace = np.full(bound.n_columns * d.n + 7, np.nan)  # larger than needed, stale values
    fresh = np.array(d.X)
    for X, t in ((d.X, d.t), (fresh, d.t), (d.X[:25], d.t[:25]), (d.X, 3)):
        got = bound.matrix(X, t, out=workspace)
        want = bind_design(d, spec).matrix(np.array(X), t)
        assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
        assert np.shares_memory(got, workspace)
        assert bound._memo is memo


def test_unmemoized_matrix_is_its_own_fresh_array():
    d = toy_dataset(n=60)
    spec, bound = memo_design(d)
    X = np.array(d.X)
    D = bound.matrix(X, d.t)
    assert D.flags.writeable and D.flags.owndata and bound._memo is None
    np.testing.assert_array_equal(D, bind_design(d, spec).matrix(d.X, d.t))
    assert not np.shares_memory(D, bound.matrix(X, d.t))


def test_memo_skips_writeable_and_view_matrices():
    d = toy_dataset(n=60)
    _, bound = memo_design(d)
    X = np.array(d.X)
    first = bound.matrix(X, d.t)
    X[:, 0] += 1.0
    second = bound.matrix(X, d.t)
    assert bound._memo is None
    assert not np.array_equal(first, second)
    view = d.X[:30]
    assert not view.flags.writeable and not view.flags.owndata
    bound.matrix(view, d.t[:30])
    assert bound._memo is None


def test_memo_misses_an_array_flagged_writeable_again():
    d = toy_dataset(n=60)
    _, bound = memo_design(d)
    X = np.array(d.X)
    X.setflags(write=False)
    before = bound.matrix(X, d.t)
    assert bound._memo[0] is X
    X.setflags(write=True)
    X[:, 1] *= 2.0
    after = bound.matrix(X, d.t)
    assert not np.array_equal(before, after)
    assert bound._memo is None
    X.setflags(write=False)  # the writeable call emptied the memo, so X expands again
    np.testing.assert_array_equal(bound.matrix(X, d.t), after)


def test_take_equals_checked_constructor():
    d = toy_dataset(n=30, binary_y=True)
    rows = np.random.default_rng(3).integers(0, d.n, 45)
    sub = d.take(rows)
    checked = Dataset(
        X=d.X[rows], columns=d.columns, t=d.t[rows], y=d.y[rows],
        outcome_kind=d.outcome_kind, k=d.k, treatment_labels=d.treatment_labels,
    )
    for name in ("columns", "outcome_kind", "k", "treatment_labels"):
        assert getattr(sub, name) == getattr(checked, name)
    for name in ("X", "t", "y"):
        a, b = getattr(sub, name), getattr(checked, name)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags == b.flags


def test_take_missing_level_error_text():
    d = toy_dataset(n=12, k=3)
    with pytest.raises(ValueError, match=r"^treatment level\(s\) \[2\] have zero rows$"):
        d.take(np.flatnonzero(d.t != 2))
    with pytest.raises(ValueError, match=r"^treatment level\(s\) \[2, 3\] have zero rows$"):
        d.take(np.flatnonzero(d.t == 1))


@pytest.mark.parametrize("rows", (
    np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5, 2.5]), ["0", "1", "2"],
    np.array([True, True, False, False, True, True]),
))
def test_take_rejects_non_integer_rows(rows):
    d = toy_dataset(n=6, k=3)
    with pytest.raises(TypeError, match=str(np.asarray(rows).dtype)):
        d.take(rows)


def test_take_repeated_and_negative_rows_equal_fancy_indexing():
    d = toy_dataset(n=30, k=3)
    for rows in (np.array([0, 0, 1, 1, 2, 2, 2]), np.array([-1, -2, -3, 0, -1]),
                 np.arange(-30, 30), np.array([5, 4, 3], dtype=np.uint8), [29, -30, 1]):
        sub = d.take(rows)
        for name in ("X", "t", "y"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(d, name)[np.asarray(rows)])


def test_natural_cubic_basis_column_count():
    x = np.linspace(0, 1, 100)
    knots = _knots_of_sorted(np.sort(x), 3)  # 2 boundary + 3 interior
    assert len(knots) == 5
    assert spline_basis(x, knots).shape[1] == 4


@settings(max_examples=25)
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


def test_load_csv_accepts_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with the bytes EF BB BF
    text = "arm,val,a\ncontrôle,1.5,0.1\ntraité,0.5,-0.2\nautre,2.5,0.3\ncontrôle,1.0,0.4\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = (load_csv(str(path), "arm", "val", ["a"]) for path in (plain, bom))
    assert got.treatment_labels == ("autre", "contrôle", "traité")
    for name in ("columns", "outcome_kind", "k", "treatment_labels"):
        assert getattr(got, name) == getattr(want, name)
    for name in ("X", "t", "y"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_load_csv_reports_bad_cell_with_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,y,x\n1,2.0,0.5\n2,oops,0.1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(str(path), "t", "y", ["x"])


@pytest.mark.parametrize("text, message", (
    ("trt,resp,x1,x2\n1,0,5,1.5\n2,0,5\n", "line 3: 3 cells, the header has 4"),
    # a decimal comma splits a cell in two
    ("trt,resp,x1,x2\n1,0,5,1.5\n2,0,5,1.5,0.25\n", "line 3: 5 cells, the header has 4"),
    ("trt,resp,x1,x1\n1,0,5,100\n2,1,6,101\n", "column 'x1' appears more than once in the header"),
), ids=("short row", "long row", "repeated name"))
def test_load_csv_rejects_a_row_or_header_that_misplaces_cells(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_csv(str(path), "trt", "resp", ["x1"])


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,y,x\n1,2.0,0.5\n2,1.0,0.1\n")
    with pytest.raises(ValueError):
        load_csv(str(path), "t", "y", ["x", "z"])


def test_load_csv_rejects_nonfinite_covariate(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,y,x\n1,2.0,inf\n2,1.0,0.1\n")
    with pytest.raises(ValueError, match=r"^line 2: non-finite cell 'inf' in column 'x'$"):
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


@pytest.mark.parametrize("change, message", (
    ({"Y": [0.5, "a", 2.5, 3.5]}, r"key 'Y' row 2: unparseable cell 'a'$"),
    ({"Y": [0.5, 1.5, None, 3.5]}, r"key 'Y' row 3: unparseable cell None$"),
    ({"X": [[0.0, 1.0], [1.0, 0.0], [2.0, "b"], [3.0, 1.0]]},
     r"key 'X' row 3: unparseable cell 'b' in column 'x2'$"),
    ({"X": [[0.0, 1.0], [1.0, 0.0], [2.0], [3.0, 1.0]]}, r"key 'X' row 3: 1 cells, 'columns' names 2$"),
    ({"X": [[0.0, 1.0], 1.0, [2.0, 1.0], [3.0, 1.0]]}, r"key 'X' row 2: 1.0 is not a list of cells$"),
    ({"T": [1, [1], 1, 2]}, r"key 'T' row 2: \[1\] is not a treatment label$"),
    ({"T": [1, 2, {"a": 2}, 2]}, r"key 'T' row 3: \{'a': 2\} is not a treatment label$"),
    ({"columns": ["x1", ["a"]]}, r"key 'columns' entry 2: \['a'\] is not a column name$"),
), ids=("text outcome", "null outcome", "text covariate", "short row", "row not a list",
        "array label", "object label", "array column name"))
def test_load_json_names_the_key_and_row_of_a_bad_value(tmp_path, change, message):
    payload = {"columns": ["x1", "x2"], "X": [[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]],
               "T": [1, 2, 1, 2], "Y": [0.5, 1.5, 2.5, 3.5]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**payload, **change}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + message):
        load_json(str(path))


def test_a_dataset_without_rows_is_rejected_as_having_no_data_rows(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"columns": ["x"], "X": [], "T": [], "Y": []}))
    with pytest.raises(ValueError, match="^no data rows$"):
        load_json(str(path))
    with pytest.raises(ValueError, match="^no data rows$"):
        Dataset.from_arrays([], [], [])


def test_a_dataset_without_covariate_columns_is_rejected():
    with pytest.raises(ValueError, match="^no covariate columns$"):
        Dataset.from_arrays(np.empty((4, 0)), [1, 2, 1, 2], np.zeros(4))


def _missing_label_csv(tmp_path, first="", second="  "):
    path = tmp_path / "d.csv"
    path.write_text(f"trt,y,x\na,0.5,1.0\n{first},1.5,2.0\nb,2.5,3.0\n{second},3.5,4.0\nc,4.5,5.0\n")
    return load_csv(str(path), "trt", "y", ["x"])


def _missing_label_json(tmp_path):
    path = tmp_path / "d.json"
    payload = {"columns": ["x"], "X": [[1.0], [2.0], [3.0], [4.0], [5.0]],
               "T": ["a", None, "b", None, "c"], "Y": [0.5, 1.5, 2.5, 3.5, 4.5]}
    path.write_text(json.dumps(payload))
    return load_json(str(path))


def _missing_label_arrays(tmp_path):
    t = np.array([1.0, np.nan, 2.0, np.nan, 3.0])
    return Dataset.from_arrays(np.arange(5.0)[:, None], t, np.arange(5.0))


def _missing_label_strings(tmp_path):
    t = np.array(["a", "NAN", "b", " NA", "c"])
    return Dataset.from_arrays(np.arange(5.0)[:, None], t, np.arange(5.0))


@pytest.mark.parametrize("load", (
    _missing_label_csv, _missing_label_json, _missing_label_arrays,
    functools.partial(_missing_label_csv, first="NA", second="NaN"),
    functools.partial(_missing_label_csv, first=" nan ", second="NA"),
    _missing_label_strings,
), ids=("csv blank cells", "json nulls", "array nans", "csv NA and NaN", "csv nan and NA",
        "array NAN and NA strings"))
def test_missing_treatment_label_is_rejected(tmp_path, load):
    # rows 2 and 4 lack a label, written blank, as null or NaN, or as the
    # `NA`/`NaN` strings R and many exports write; none may become an arm
    with pytest.raises(ValueError, match=r"missing treatment label in 2 row\(s\), first in data row 2"):
        load(tmp_path)


def test_load_json_outcome_kind_override(tmp_path):
    payload = {"columns": ["a"], "X": [[0.0], [1.0]], "T": [1, 2], "Y": [0.0, 1.0],
               "outcome_kind": "continuous"}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    d = load_json(str(path))
    assert d.outcome_kind == "continuous"
