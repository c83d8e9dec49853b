"""tools/pairs.py: the rule that shows a gain in alternating pairs of runs."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(HERE, os.pardir, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _verdict(pairs, old, new):
    line = pairs.judge("cpu", old, new)
    assert line.startswith("cpu: new won ")
    return line.rsplit(": ", 1)[1]


def test_summary_is_median_and_quartiles(pairs):
    med, q1, q3 = pairs.summary(OLD)
    assert med == pytest.approx(1.045)
    assert (q1, q3) == pytest.approx((1.0175, 1.0725))
    assert pairs.summary([2.0]) == (2.0, 2.0, 2.0)


def test_nine_of_ten_with_a_wide_gap_shows_a_gain(pairs):
    # OLD's quartile spread is 0.055; nine pairs 0.2 lower, one 0.2 higher
    new = [o - 0.2 for o in OLD[:9]] + [OLD[9] + 0.2]
    assert "new won 9/10 pairs" in pairs.judge("cpu", OLD, new)
    assert _verdict(pairs, OLD, new) == "gain shown"


def test_eight_of_ten_shows_no_gain(pairs):
    new = [o - 0.2 for o in OLD[:8]] + [o + 0.2 for o in OLD[8:]]
    assert "new won 8/10 pairs" in pairs.judge("cpu", OLD, new)
    assert _verdict(pairs, OLD, new) == "no gain shown"


def test_a_gap_no_wider_than_the_spread_shows_no_gain(pairs):
    # every pair won, by 0.05, inside OLD's quartile spread of 0.055
    new = [o - 0.05 for o in OLD]
    assert "new won 10/10 pairs" in pairs.judge("cpu", OLD, new)
    assert _verdict(pairs, OLD, new) == "no gain shown"
    # the same gap clears a spread of 0.0275
    old = [1.0 + (o - 1.0) / 2 for o in OLD]
    assert _verdict(pairs, old, [o - 0.05 for o in old]) == "gain shown"


def test_ties_count_for_neither_side(pairs):
    # nine wins and one tie: 9/10, a gain; one tie more makes 8/10
    new = [o - 0.2 for o in OLD[:9]] + [OLD[9]]
    assert "new won 9/10 pairs" in pairs.judge("cpu", OLD, new)
    assert _verdict(pairs, OLD, new) == "gain shown"
    new = [o - 0.2 for o in OLD[:8]] + OLD[8:]
    assert "new won 8/10 pairs" in pairs.judge("cpu", OLD, new)
    assert _verdict(pairs, OLD, new) == "no gain shown"
    # all ties: no pair is won
    assert "new won 0/10 pairs" in pairs.judge("cpu", OLD, list(OLD))
