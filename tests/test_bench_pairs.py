"""Tests for the pair statistics of ``tools/bench_pairs.py``.

The tool is imported from its path; no benchmark run or subprocess is
started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "frac", "better": "higher", "bound": 0.06}
# ten parent runs with quartiles 10.225 and 10.675: an IQR of 0.45
PARENT = [10.0 + 0.1 * i for i in range(10)]


def compare(metric, parent, change):
    return bench_pairs.compare(metric, parent, change, len(parent))


class TestGain:
    def test_all_pairs_won_by_more_than_the_iqr(self):
        result = compare(LOWER, PARENT, [v - 1.0 for v in PARENT])
        assert result["change_wins"] == 10 and result["gain"]

    def test_nine_of_ten_pairs_suffice(self):
        change = [v - 1.0 for v in PARENT]
        change[0] = PARENT[0] + 1.0
        result = compare(LOWER, PARENT, change)
        assert (result["change_wins"], result["parent_wins"]) == (9, 1)
        assert result["gain"]

    def test_eight_of_ten_pairs_do_not(self):
        change = [v - 1.0 for v in PARENT]
        change[0], change[1] = PARENT[0] + 1.0, PARENT[1] + 1.0
        result = compare(LOWER, PARENT, change)
        assert result["change_wins"] == 8 and not result["gain"]

    def test_gap_within_the_parent_iqr_is_no_gain(self):
        result = compare(LOWER, PARENT, [v - 0.3 for v in PARENT])
        assert result["change_wins"] == 10 and not result["gain"]

    def test_higher_is_better_wins_by_rising(self):
        assert compare(HIGHER, PARENT, [v + 1.0 for v in PARENT])["gain"]
        assert not compare(HIGHER, PARENT, [v - 1.0 for v in PARENT])["gain"]


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] -= 1.0
    result = compare(LOWER, PARENT, change)
    assert (result["change_wins"], result["parent_wins"], result["ties"]) == (1, 0, 9)
    assert not compare(LOWER, PARENT, PARENT)["gain"]


@pytest.mark.parametrize("metric, parent, change, worse", [
    (LOWER, [1.0] * 3, [1.3] * 3, True),     # 30% slower, bound 25%
    (LOWER, [1.0] * 3, [1.2] * 3, False),
    (LOWER, [1.0] * 3, [0.5] * 3, False),    # faster is never worse
    (HIGHER, [1.0] * 3, [0.9] * 3, True),    # 10% lower, bound 6%
    (HIGHER, [1.0] * 3, [0.95] * 3, False),
    (HIGHER, [1.0] * 3, [2.0] * 3, False),
    (HIGHER, [0.0] * 3, [0.5] * 3, False),   # rose from 0
    (HIGHER, [0.5] * 3, [0.0] * 3, True),
    (LOWER, [0.0] * 3, [0.5] * 3, True),     # rose from 0
    (LOWER, [0.0] * 3, [0.0] * 3, False),
    (HIGHER, [0.0] * 3, [0.0] * 3, False),
], ids=["lower-slower", "lower-within-bound", "lower-faster", "higher-dropped",
        "higher-within-bound", "higher-rose", "higher-rose-from-zero",
        "higher-dropped-to-zero", "lower-rose-from-zero", "lower-zero-both",
        "higher-zero-both"])
def test_worse_than_bound(metric, parent, change, worse):
    assert compare(metric, parent, change)["worse_than_bound"] is worse


def test_rise_from_zero_is_a_gain_not_a_regression():
    result = compare(HIGHER, [0.0] * 10, [0.5] * 10)
    assert result["gain"] and not result["worse_than_bound"]
    assert result["median_rel_change"] is None
