"""Quick checks of the benchmark's own oracles and summaries.

    python3 -m pytest -q vfbench

The oracles are compared with values worked out by hand, so a wrong
oracle cannot pass a wrong vflab output.
"""

import math

import pytest

import oracles
import rounds


def test_lse_is_exact_and_does_not_overflow():
    assert oracles.lse([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert oracles.lse([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
    assert oracles.lse([-math.inf, 0.0]) == 0.0
    assert oracles.lse([-math.inf]) == -math.inf


def test_log_integral_hand_values():
    # log(0.25 * 3 + 0.75 * 1) = log 1.5
    assert oracles.log_integral([0.25, 0.75], [math.log(3.0), 0.0]) == pytest.approx(math.log(1.5), abs=1e-15)
    # (1/2) log(0.5 e^2 + 0.5 e^0), and zero weights drop out
    want = 0.5 * math.log(0.5 * math.e**2 + 0.5)
    assert oracles.log_integral([0.5, 0.0, 0.5], [1.0, 99.0, 0.0], n=2) == pytest.approx(want, abs=1e-15)


def test_kl_hand_values():
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert oracles.kl([0.5, 0.5], [0.25, 0.75]) == pytest.approx(want, abs=1e-15)
    assert oracles.kl([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert oracles.kl([0.5, 0.5], [1.0, 0.0]) == math.inf
    assert oracles.kl([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_tilt_and_total_variation():
    assert oracles.tilt([0.5, 0.5], [math.log(3.0), 0.0]) == pytest.approx([0.75, 0.25], abs=1e-15)
    assert oracles.total_variation([0.75, 0.25], [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)


def test_cramer_rate_hand_values():
    assert oracles.cramer_rate(0.5, 0.5) == 0.0
    assert oracles.cramer_rate(0.3, 0.0) == pytest.approx(-math.log(0.7), abs=1e-15)
    assert oracles.cramer_rate(0.3, 1.0) == pytest.approx(-math.log(0.3), abs=1e-15)
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert oracles.cramer_rate(0.5, 0.75) == pytest.approx(want, abs=1e-15)


def test_cramer_sup_of_identity_is_the_log_moment_generating_function():
    for p in (0.5, 0.3):
        assert oracles.cramer_sup(p, lambda x: x) == pytest.approx(math.log(1 - p + p * math.e), abs=1e-8)


def test_binomial_logpmf_hand_values():
    assert oracles.binomial_logpmf(4, 2, 0.5) == pytest.approx(math.log(6 / 16), abs=1e-14)
    assert oracles.binomial_logpmf(10, 0, 0.3) == pytest.approx(10 * math.log(0.7), abs=1e-14)
    assert oracles.binomial_rate(10, 0, 0.3) == pytest.approx(-math.log(0.7), abs=1e-15)
    total = math.fsum(math.exp(oracles.binomial_logpmf(30, k, 0.3)) for k in range(31))
    assert total == pytest.approx(1.0, abs=1e-13)


def test_sublevel_diameter_bounds_straddle_the_level():
    rates, points = [2.0, 0.5, 0.0, 1.0], [0.0, 0.25, 0.5, 0.75]
    assert oracles.sublevel_diameter_bounds(rates, points, 1.0) == (0.25, 0.5)
    assert oracles.sublevel_diameter_bounds(rates, points, 0.1) == (0.0, 0.0)


def test_piecewise_linear_interpolates():
    xs = [i / 4 for i in range(5)]
    fn = oracles.piecewise_linear(xs, [0.0, 1.0, 0.0, 2.0, 4.0])
    assert fn(0.125) == 0.5 and fn(0.625) == 1.0 and fn(1.0) == 4.0


def test_p90_only_from_100_operations():
    assert "op_p90_ms" not in rounds.latency_metrics([[0.001] * (rounds.P90_MIN_OPS - 1)])
    out = rounds.latency_metrics([[k / 1000 for k in range(1, 101)]])
    assert out["op_p50_ms"] == (pytest.approx(50.5), "ms")
    assert out["op_p90_ms"][0] == pytest.approx(90.1)


def test_p50_is_the_upper_quartile_of_round_medians():
    # round medians 1, 2, 3, 4, 5 ms: inclusive upper quartile 4 ms
    out = rounds.latency_metrics([[0.0005, m / 1000, 0.009] for m in (3, 1, 5, 2, 4)])
    assert out["op_p50_ms"] == (pytest.approx(4.0), "ms")
    assert rounds.upper_quartile([2.0, 1.0]) == pytest.approx(1.75)
    assert rounds.upper_quartile([7.0]) == 7.0


def test_no_operations_is_an_error():
    with pytest.raises(ValueError):
        rounds.latency_metrics([])
    with pytest.raises(ValueError):
        rounds.upper_quartile([])
