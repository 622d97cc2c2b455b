"""Nearest-neighbor matching with replacement and its bias-corrected form."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawn_inputs import super_learner_inputs
from fitstubs import StubOutcomeFit
from mlte import matching
from mlte.matching import METRICS, build_matches, estimate_bcm, estimate_match
from mlte.tabular import Dataset
from reference_paths import brute_force_matches, reference_matches


def outcome_stub(data, fn):
    return StubOutcomeFit("correct", data.k, "stub", fn, lambda d, s: None)


def random_k3(n=60, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    t = rng.integers(1, 4, n)
    t[:6] = [1, 1, 2, 2, 3, 3]
    y = rng.normal(size=n)
    return Dataset.from_arrays(X, t, y)


# ---------------------------------------------------------------------------
# match construction


def test_two_cluster_hand_example():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    data = Dataset.from_arrays(X, [1, 2, 1, 2], [0.0, 1.0, 0.0, 1.0])
    ms = build_matches(data)
    np.testing.assert_array_equal(ms.match_indices[:, 0, 0], [0, 0, 2, 2])
    np.testing.assert_array_equal(ms.match_indices[:, 1, 0], [1, 1, 3, 3])
    np.testing.assert_array_equal(ms.usage_counts, [1, 1, 1, 1])
    np.testing.assert_array_equal(ms.nn_same, [2, 3, 0, 1])
    est = estimate_match(data, ms, (2, 1))
    assert est.tau_hat == pytest.approx(1.0)
    assert est.variance == pytest.approx(0.0)


def test_tied_donors_resolve_to_lowest_row_index():
    X = np.array([[0.0], [0.0], [5.0], [5.0]])
    data = Dataset.from_arrays(X, [1, 1, 2, 2], [0.0, 0.0, 1.0, 1.0])
    ms = build_matches(data)
    assert ms.match_indices[2, 0, 0] == 0
    assert ms.match_indices[3, 0, 0] == 0
    assert ms.match_indices[0, 1, 0] == 2
    ms2 = build_matches(data, m=2)
    np.testing.assert_array_equal(ms2.match_indices[2, 0], [0, 1])
    np.testing.assert_array_equal(ms2.match_indices[0, 1], [2, 3])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", [1, 3])
def test_match_sets_agree_with_brute_force(metric, m):
    data = random_k3()
    ms = build_matches(data, m=m, metric=metric)
    match_indices, nn_same = brute_force_matches(data, m, metric)
    np.testing.assert_array_equal(np.sort(ms.match_indices, axis=2), np.sort(match_indices, axis=2))
    np.testing.assert_array_equal(ms.nn_same, nn_same)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", [1, 3])
def test_match_sets_equal_full_matrix_reference(metric, m):
    for seed, (n, p) in enumerate([(80, 1), (300, 2), (700, 5), (1200, 3)]):
        data = random_k3(n=n, p=p, seed=seed)
        ms = build_matches(data, m=m, metric=metric)
        match_indices, nn_same = reference_matches(data, m, metric)
        np.testing.assert_array_equal(ms.match_indices, match_indices)
        np.testing.assert_array_equal(ms.nn_same, nn_same)


@settings(max_examples=60)
@given(super_learner_inputs(), st.sampled_from((1, 2)), st.sampled_from(METRICS))
def test_match_sets_equal_full_matrix_reference_on_drawn_inputs(data, m, metric):
    # constant, rare-valued and tied columns, whose distances tie often
    ms = build_matches(data, m=m, metric=metric)
    match_indices, nn_same = reference_matches(data, m, metric)
    np.testing.assert_array_equal(ms.match_indices, match_indices)
    np.testing.assert_array_equal(ms.nn_same, nn_same)


def discrete_k3(n=1500, seed=0):
    """Binary and ordinal covariates only, so most rows have exact
    duplicates, each arm included."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 2, n), rng.integers(0, 3, n), rng.integers(0, 4, n),
        rng.integers(0, 2, n), rng.integers(0, 5, n),
    ]).astype(float)
    t = rng.integers(1, 4, n)
    return Dataset.from_arrays(X, t, rng.normal(size=n))


def assert_first_duplicates_chosen(data, ms):
    """Among donor rows identical to a chosen donor, the chosen ones are the
    lowest-indexed: within each group of identical rows, a query's donors
    are a prefix of the group's donors in row order."""
    group = np.unique(data.X, axis=0, return_inverse=True)[1].ravel()
    for lev in range(1, data.k + 1):
        donors = np.flatnonzero(data.t == lev)
        rank = np.empty(data.n, dtype=np.intp)
        for g in np.unique(group[donors]):
            members = donors[group[donors] == g]
            rank[members] = np.arange(len(members))
        queries = np.flatnonzero(data.t != lev)
        chosen = ms.match_indices[queries, lev - 1]
        same_group = group[chosen][:, :, None] == group[chosen][:, None, :]
        assert (rank[chosen] < same_group.sum(axis=2)).all(), f"level {lev}"
        # same-arm neighbor: the first row identical to it, the query skipped
        nn = ms.nn_same[donors]
        earlier = rank[nn] - (group[donors] == group[nn]) * (donors < nn)
        assert (earlier == 0).all(), f"level {lev} same-arm"


@pytest.mark.parametrize("m", [1, 3])
def test_duplicate_rows_resolve_to_first_donor(m):
    for seed in range(6):
        data = discrete_k3(seed=seed)
        assert_first_duplicates_chosen(data, build_matches(data, m=m))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_m_nearest_selection_equals_stable_argsort_on_ties(m):
    rng = np.random.default_rng(m)
    for _ in range(50):
        D = rng.integers(0, 4, size=(int(rng.integers(1, 70)), int(rng.integers(m, 60)))).astype(float)
        D[rng.random(D.shape) < 0.1] = np.inf  # an excluded donor
        got = matching._m_smallest(D, m, np.empty_like(D))
        np.testing.assert_array_equal(got, np.argsort(D, axis=1, kind="stable")[:, :m])
    for seed in range(2):
        data = discrete_k3(seed=seed)
        match_indices, _ = reference_matches(data, m, "euclidean-standardized")
        np.testing.assert_array_equal(build_matches(data, m=m).match_indices, match_indices)


@pytest.mark.parametrize("chunk", [1, 7, 128, 10**6])
def test_matches_do_not_depend_on_chunk_size(monkeypatch, chunk):
    data, dup = random_k3(n=500, seed=21), discrete_k3(seed=21)
    want = [build_matches(d, m=m) for d in (data, dup) for m in (1, 3)]
    monkeypatch.setattr(matching, "_CHUNK", chunk)
    got = [build_matches(d, m=m) for d in (data, dup) for m in (1, 3)]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.match_indices, b.match_indices)
        np.testing.assert_array_equal(a.usage_counts, b.usage_counts)
        np.testing.assert_array_equal(a.nn_same, b.nn_same)
    assert_first_duplicates_chosen(dup, got[2])


def test_search_memory_is_bounded_by_chunk_not_arm_size():
    # a 4000-row arm: an arm x arm distance matrix alone would take 128 MB
    rng = np.random.default_rng(23)
    n = 6000
    t = np.concatenate([np.ones(4000, dtype=int), rng.integers(2, 4, n - 4000)])
    data = Dataset.from_arrays(rng.normal(size=(n, 3)), t, rng.normal(size=n))
    tracemalloc.start()
    try:
        build_matches(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_usage_counts_total_m_per_query():
    data = random_k3(seed=3)
    for m in (1, 2):
        ms = build_matches(data, m=m)
        match_indices, _ = brute_force_matches(data, m)
        # each row's appearances as a donor to rows of other arms
        other_arm = data.t[:, None] != np.arange(1, data.k + 1)
        want = np.bincount(match_indices[other_arm].ravel(), minlength=data.n)
        np.testing.assert_array_equal(ms.usage_counts, want)
        assert ms.usage_counts.sum() == m * (data.k - 1) * data.n


def test_estimates_invariant_to_row_permutation():
    data = random_k3(seed=5)
    perm = np.random.default_rng(1).permutation(data.n)
    data2 = Dataset.from_arrays(data.X[perm], data.t[perm], data.y[perm])
    for pair in ((2, 1), (3, 2)):
        a = estimate_match(data, build_matches(data), pair)
        b = estimate_match(data2, build_matches(data2), pair)
        assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-10)
        assert a.variance == pytest.approx(b.variance, abs=1e-10)


def test_constant_outcome_gives_zero_effect():
    data = random_k3(seed=7)
    flat = Dataset.from_arrays(data.X, data.t, np.full(data.n, 2.0), outcome_kind="continuous")
    ms = build_matches(flat)
    est = estimate_match(flat, ms, (3, 1))
    assert est.tau_hat == 0.0
    assert est.variance == 0.0


def test_level_size_requirements():
    X = np.random.default_rng(0).normal(size=(10, 2))
    t = np.full(10, 1)
    t[-1] = 2
    data = Dataset.from_arrays(X, t, np.zeros(10))
    with pytest.raises(ValueError):
        build_matches(data)
    t[-2] = 2
    data2 = Dataset.from_arrays(X, t, np.zeros(10))
    build_matches(data2)  # two rows per level suffice for m=1
    with pytest.raises(ValueError):
        build_matches(data2, m=3)
    with pytest.raises(ValueError):
        build_matches(data2, m=0)
    with pytest.raises(ValueError):
        build_matches(data2, metric="cosine")
    # one level: no cross-arm queries, only same-arm neighbors
    single = build_matches(Dataset.from_arrays(X, np.ones(10, dtype=int), np.zeros(10)))
    np.testing.assert_array_equal(single.match_indices[:, 0, 0], np.arange(10))


# ---------------------------------------------------------------------------
# bias correction


def test_bcm_equals_match_when_predictions_are_level_constants():
    data = random_k3(seed=11)
    ms = build_matches(data)
    out = outcome_stub(data, lambda level, X: np.full(X.shape[0], [4.0, -2.0, 0.5][level - 1]))
    for pair in ((2, 1), (3, 1), (3, 2)):
        plain = estimate_match(data, ms, pair)
        corrected = estimate_bcm(data, ms, out, pair)
        assert corrected.tau_hat == pytest.approx(plain.tau_hat, abs=1e-12)
        assert corrected.variance == pytest.approx(plain.variance, abs=1e-12)


def test_bcm_exact_on_noiseless_linear_outcome():
    rng = np.random.default_rng(13)
    n = 90
    X = rng.normal(size=(n, 2))
    t = rng.integers(1, 4, n)
    t[:6] = [1, 1, 2, 2, 3, 3]
    shift = np.array([0.0, 1.5, 2.5])
    y = 1.0 + 2.0 * X[:, 0] - X[:, 1] + shift[t - 1]
    data = Dataset.from_arrays(X, t, y)
    out = outcome_stub(
        data, lambda level, X: 1.0 + 2.0 * X[:, 0] - X[:, 1] + shift[level - 1]
    )
    ms = build_matches(data)
    assert estimate_bcm(data, ms, out, (2, 1)).tau_hat == pytest.approx(1.5, abs=1e-10)
    assert estimate_bcm(data, ms, out, (3, 1)).tau_hat == pytest.approx(2.5, abs=1e-10)
    assert estimate_bcm(data, ms, out, (3, 2)).tau_hat == pytest.approx(1.0, abs=1e-10)
    # raw matching is not exact here, so the correction is doing the work
    assert abs(estimate_match(data, ms, (2, 1)).tau_hat - 1.5) > 1e-6


def test_match_sets_are_read_only():
    data = random_k3(seed=17)
    ms = build_matches(data)
    with pytest.raises(ValueError):
        ms.usage_counts[0] = 5
