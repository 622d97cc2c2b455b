"""Holm adjustment, all-pairs contrast tables, and rendering."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlte.reporting import (
    _wald_p,
    all_pairs_table,
    holm_adjust,
    render,
    render_contrasts,
    render_report,
    render_table,
)
from mlte.simengine import ScenarioConfig, run_scenario
from mlte.weighting import EffectEstimate


# ---------------------------------------------------------------------------
# Holm


def test_holm_hand_example():
    np.testing.assert_allclose(holm_adjust([0.01, 0.04, 0.03]), [0.03, 0.06, 0.06])


def test_holm_small_cases():
    np.testing.assert_allclose(holm_adjust([0.2]), [0.2])
    np.testing.assert_allclose(holm_adjust([1.0, 1.0]), [1.0, 1.0])
    np.testing.assert_allclose(holm_adjust([0.5, 0.9]), [1.0, 1.0])
    assert holm_adjust([]).shape == (0,)


def test_holm_rejects_bad_input():
    with pytest.raises(ValueError):
        holm_adjust([[0.1, 0.2]])
    with pytest.raises(ValueError):
        holm_adjust([0.1, 1.5])
    with pytest.raises(ValueError):
        holm_adjust([-0.1])


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_holm_properties(pvals, rnd):
    p = np.array(pvals)
    adj = holm_adjust(p)
    # never below the raw value, never above 1
    assert np.all(adj >= p - 1e-15)
    assert np.all(adj <= 1.0)
    # order preserving
    for i in range(len(p)):
        for j in range(len(p)):
            if p[i] <= p[j]:
                assert adj[i] <= adj[j] + 1e-15
    # label permutation commutes with adjustment
    perm = list(range(len(p)))
    rnd.shuffle(perm)
    np.testing.assert_allclose(holm_adjust(p[perm]), adj[perm])


# ---------------------------------------------------------------------------
# all-pairs tables


def pair_estimates(taus_by_pair, variance=0.04, method="crude", estimand="population"):
    return [
        EffectEstimate(pair, tau, variance, estimand, method)
        for pair, tau in taus_by_pair.items()
    ]


def test_table_orders_rows_and_labels():
    ests = pair_estimates({(3, 2): 0.5, (2, 1): 1.0, (3, 1): 1.5})
    table = all_pairs_table(ests, labels={1: "ctrl", 2: "low", 3: "high"})
    assert [r["pair"] for r in table["rows"]] == [(2, 1), (3, 1), (3, 2)]
    assert [r["label"] for r in table["rows"]] == ["low vs ctrl", "high vs ctrl", "high vs low"]
    assert table["method"] == "crude"
    assert table["adjustment"] == "holm"


def test_table_complete_five_levels():
    pairs = {(b, a): 0.1 * (a + b) for a in range(1, 6) for b in range(a + 1, 6)}
    table = all_pairs_table(pair_estimates(pairs))
    assert len(table["rows"]) == 10


def test_table_two_levels_adjustment_is_identity():
    table = all_pairs_table(pair_estimates({(2, 1): 0.3}))
    assert table["rows"][0]["p_adj"] == pytest.approx(table["rows"][0]["p"])


def test_table_wald_p_edge_cases():
    rows = all_pairs_table(pair_estimates({(2, 1): 0.0}))["rows"]
    assert rows[0]["p"] == 1.0
    ests = [EffectEstimate((2, 1), 0.0, 0.0, "population", "crude")]
    assert all_pairs_table(ests)["rows"][0]["p"] == 1.0
    ests = [EffectEstimate((2, 1), 0.5, 0.0, "population", "crude")]
    assert all_pairs_table(ests)["rows"][0]["p"] == 0.0


def test_table_p_matches_normal_tail():
    table = all_pairs_table(pair_estimates({(2, 1): 0.392}, variance=0.04))
    from scipy.stats import norm

    assert table["rows"][0]["p"] == pytest.approx(2 * norm.sf(0.392 / 0.2))


def test_wald_p_matches_scipy_normal_tail():
    # scipy is the oracle: 2 * norm.sf, within 1e-13 relative where that is
    # a normal float; below the smallest normal (|z| > ~37.5) scipy flushes
    # to 0 while erfc returns subnormals
    from scipy.stats import norm

    tiny = np.finfo(float).tiny
    special = [0.0, 1e-300, 1e-8, 0.5, 1.96, 8.3, 37.5, 37.7, 38.5, 40.0, np.inf]
    spread = np.random.default_rng(0).exponential(3.0, 400)
    z = np.concatenate([special, np.linspace(0.0, 40.0, 801), spread])
    for se in (1.0, 0.2, 3.7):
        for tau in (z * se, -z * se):
            expected = 2.0 * norm.sf(np.abs(tau) / se)
            got = np.array([_wald_p(a, se) for a in tau])
            normal = expected >= tiny
            np.testing.assert_allclose(got[normal], expected[normal], rtol=1e-13, atol=0)
            np.testing.assert_allclose(got[~normal], expected[~normal], rtol=0, atol=tiny)
            assert np.all((got >= 0) & (got <= 1))


def test_wald_p_exact_cases():
    for se in (1.0, 0.2):
        assert _wald_p(0.0, se) == 1.0
        assert _wald_p(-0.0, se) == 1.0
        assert _wald_p(np.inf, se) == 0.0
        assert _wald_p(-np.inf, se) == 0.0
    assert _wald_p(0.0, 0.0) == 1.0
    assert _wald_p(0.5, 0.0) == 0.0
    assert _wald_p(-0.5, 0.0) == 0.0
    for tau in (0.0, 0.5):
        assert np.isnan(_wald_p(tau, float("nan")))
        assert np.isnan(_wald_p(tau, np.inf))


def test_table_nan_variance_excluded_from_family():
    ests = pair_estimates({(2, 1): 0.5, (3, 1): 0.5})
    ests.append(EffectEstimate((3, 2), 0.5, float("nan"), "population", "crude"))
    table = all_pairs_table(ests)
    by_pair = {r["pair"]: r for r in table["rows"]}
    assert np.isnan(by_pair[(3, 2)]["p"]) and np.isnan(by_pair[(3, 2)]["p_adj"])
    # family of two finite p-values, both equal: Holm doubles the smaller
    assert by_pair[(2, 1)]["p_adj"] == pytest.approx(min(1.0, 2 * by_pair[(2, 1)]["p"]))


def test_table_validation_errors():
    with pytest.raises(ValueError):
        all_pairs_table([])
    both_orders = pair_estimates({(2, 1): 0.5}) + pair_estimates({(1, 2): -0.5})
    with pytest.raises(ValueError):
        all_pairs_table(both_orders)
    incomplete = pair_estimates({(2, 1): 0.5, (3, 1): 0.5})
    with pytest.raises(ValueError):
        all_pairs_table(incomplete)
    mixed_method = pair_estimates({(2, 1): 0.5}) + pair_estimates({(3, 1): 0.5}, method="ipw")
    with pytest.raises(ValueError):
        all_pairs_table(mixed_method)
    mixed_estimand = pair_estimates({(2, 1): 0.5}) + pair_estimates(
        {(3, 1): 0.5}, estimand="overlap"
    )
    with pytest.raises(ValueError):
        all_pairs_table(mixed_estimand)


# ---------------------------------------------------------------------------
# rendering


def small_report():
    cfg = ScenarioConfig.named("t-y-", n=120, reps=2, seed=5, regime="mainterms")
    return run_scenario(cfg, methods=["crude"])


def test_render_table_csv_full_precision_round_trip():
    # a cell is quoted only when it holds a comma, a quote or a line break
    rows = [{"a": 0.1 + 0.2, "b": None, "c": float("nan"), "d": "x", "e": 'say "hi",\nbye'}]
    out = render(None, (rows, ("a", "b", "c", "d", "e")), None, "csv")
    assert out.split("\n")[:2] == ["a,b,c,d,e", f'{0.1 + 0.2!r},,,x,"say ""hi"",']
    header, line = csv.reader(io.StringIO(out))
    assert header == ["a", "b", "c", "d", "e"]
    a, b, c, d, e = line
    assert float(a) == 0.1 + 0.2  # repr round-trips exactly
    assert b == "" and c == "" and d == "x" and e == rows[0]["e"]


def test_render_table_text_alignment_and_rounding():
    rows = [{"name": "crude", "bias": 0.123456}, {"name": "aow", "bias": -1.5}]
    out = render_table(rows, ("name", "bias"), title="metrics")
    lines = out.strip().split("\n")
    assert lines[0] == "metrics"
    assert "0.123" in lines[2] and "0.123456" not in out
    assert lines[2].startswith("crude")


def test_render_unknown_format():
    for fmt in ("yaml", "md"):
        with pytest.raises(ValueError, match="unknown format"):
            render({}, ([], ("a",)), lambda: "", fmt)


def test_render_report_json_payload():
    report = small_report()
    payload = json.loads(render_report(report, fmt="json"))
    assert payload["kind"] == "scenario"
    assert payload["seed"] == 5
    assert payload["config"]["treatment_strength"] == "t-"
    assert payload["truths"]["tau21"]["population"] == 1.0
    stored = {(r["method"], r["parameter"]): r["bias"] for r in payload["rows"]}
    original = {(r["method"], r["parameter"]): r["bias"] for r in report.rows}
    assert stored == original  # full precision survives the round trip


def test_render_report_csv_and_text():
    report = small_report()
    csv_out = render_report(report, fmt="csv")
    assert csv_out.startswith("method,regime,parameter,bias,std,rmse,coverage,failures\n")
    assert csv_out.count("\n") == len(report.rows) + 1
    text_out = render_report(report, fmt="text")
    assert "truths: tau21: 1.000, tau31: 1.500" in text_out
    assert "crude" in text_out
    with pytest.raises(ValueError):
        render_report(report, fmt="md")


def test_render_contrasts_formats():
    # text only: the json and csv outputs of `estimate` come from the
    # table document and `render`
    ests = pair_estimates({(2, 1): 0.4, (3, 1): 0.9, (3, 2): 0.5})
    text_out = render_contrasts(all_pairs_table(ests))
    lines = text_out.splitlines()
    assert lines[0] == "method=crude estimand=population adjustment=holm"
    assert lines[1].split() == ["label", "estimate", "se", "ci_low", "ci_high", "p", "p_adj"]
    assert len(lines) == 5
    with pytest.raises(TypeError):
        render_contrasts(all_pairs_table(ests), fmt="json")


def test_rendering_is_deterministic():
    report = small_report()
    for fmt in ("json", "csv", "text"):
        assert render_report(report, fmt=fmt) == render_report(report, fmt=fmt)
