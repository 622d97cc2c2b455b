"""The verdicts that tools/ab_bench.py prints on each bounded metric."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)
verdicts = ab_bench.verdicts

# ten base runs of a memory peak: median 43.29, interquartile range 0.0275
BASE = [43.28, 43.34, 43.29, 43.27, 43.30, 43.31, 43.26, 43.29, 43.33, 43.28]


def shifted(runs, by, losers=()):
    """`runs` moved by `by`, except the pairs in `losers`, which move the
    other way."""
    return [v - by if i in losers else v + by for i, v in enumerate(runs)]


@pytest.mark.parametrize("losers, claim", (
    ((), "claim rule met"),
    ((4,), "claim rule met"),  # nine pairs in ten
    ((4, 7), "claim rule not met"),  # eight
))
def test_the_claim_needs_nine_pairs_in_ten(losers, claim):
    assert verdicts(BASE, shifted(BASE, -0.4, losers), "lower", 0.1) == (claim, "within bound")


def test_a_tie_counts_for_neither_side():
    new = shifted(BASE, -0.4)
    new[0] = BASE[0]
    assert verdicts(BASE, new, "lower", 0.1)[0] == "claim rule met"
    new[1] = BASE[1]
    assert verdicts(BASE, new, "lower", 0.1)[0] == "claim rule not met"


def test_the_claim_needs_the_medians_apart_by_more_than_the_base_spread():
    # every pair won, but the medians are 0.02 apart and the base IQR 0.0275
    assert verdicts(BASE, shifted(BASE, -0.02), "lower", 0.1)[0] == "claim rule not met"


def test_the_claim_needs_ten_pairs():
    assert verdicts(BASE[:9], shifted(BASE[:9], -0.4), "lower", 0.1)[0] == "claim rule not met"


@pytest.mark.parametrize("factor, check", (
    (0.8, "within bound"), (0.7, "beyond bound"), (1.5, "within bound"),
))
def test_the_bound_is_a_fraction_of_the_base_median(factor, check):
    # a throughput (higher is better) 20% or 30% down against a 0.25 bound
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdicts(base, [v * factor for v in base], "higher", 0.25)[1] == check


def test_a_base_spread_wider_than_the_bound_leaves_the_change_unresolved():
    base = [0.15, 0.23, 0.19, 0.16, 0.22, 0.18, 0.24, 0.15, 0.21, 0.17]  # IQR 0.055, median 0.185
    assert verdicts(base, [v * 1.01 for v in base], "lower", 0.25)[1] == "unresolved"
    # unless every new run reads better than every base run
    assert verdicts(base, [v * 0.6 for v in base], "lower", 0.25)[1] == "within bound"
