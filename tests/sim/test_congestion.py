"""Tests for the congestion-aware cost model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    RunResult,
    congested_access_time,
    link_transfers_per_ref,
    paper_two_level,
    saturation_rate,
)


def make_result(hits, miss, demotions, t_ave=1.0):
    return RunResult(
        scheme="x",
        workload="w",
        capacities=[4] * len(hits),
        num_clients=1,
        references=1000,
        warmup_references=100,
        level_hit_rates=list(hits),
        miss_rate=miss,
        demotion_rates=list(demotions),
        t_ave_ms=t_ave,
        t_hit_ms=0.2,
        t_miss_ms=0.6,
        t_demotion_ms=0.2,
    )


class TestLinkTransfers:
    def test_two_level(self):
        result = make_result([0.5, 0.3], 0.2, [0.4])
        transfers = link_transfers_per_ref(result, 2)
        # Link 1 carries L2 hits + misses up (0.5) and demotions down (0.4).
        assert transfers == [pytest.approx(0.9)]

    def test_three_level(self):
        result = make_result([0.5, 0.2, 0.2], 0.1, [0.3, 0.1])
        transfers = link_transfers_per_ref(result, 3)
        assert transfers[0] == pytest.approx(0.2 + 0.2 + 0.1 + 0.3)
        assert transfers[1] == pytest.approx(0.2 + 0.1 + 0.1)


class TestCongestedAccessTime:
    def test_zero_rate_rejected(self):
        result = make_result([0.5, 0.3], 0.2, [0.4])
        with pytest.raises(ConfigurationError):
            congested_access_time(result, paper_two_level(), 0)

    def test_low_rate_close_to_uncongested(self):
        result = make_result([0.5, 0.3], 0.2, [0.4])
        costs = paper_two_level()
        out = congested_access_time(result, costs, 1.0)  # ~idle link
        analytic = 0.3 * 1.0 + 0.2 * 11.2 + 0.4 * 1.0
        assert out["t_ave_ms"] == pytest.approx(analytic, rel=0.01)
        assert not out["saturated"]

    def test_inflation_monotone_in_rate(self):
        result = make_result([0.5, 0.3], 0.2, [0.4])
        costs = paper_two_level()
        slow = congested_access_time(result, costs, 100)["t_ave_ms"]
        fast = congested_access_time(result, costs, 500)["t_ave_ms"]
        assert fast > slow

    def test_saturation(self):
        result = make_result([0.1, 0.4], 0.5, [0.9])
        costs = paper_two_level()
        # 1.8 transfers/ref x 1 ms: saturates at ~528 refs/s.
        out = congested_access_time(result, costs, 600)
        assert out["saturated"]
        assert out["t_ave_ms"] == float("inf")
        assert out["links"][0].saturated

    def test_saturation_rate_formula(self):
        result = make_result([0.1, 0.4], 0.5, [0.9])
        costs = paper_two_level()
        rate = saturation_rate(result, costs)
        # transfers/ref = 0.4 + 0.5 + 0.9 = 1.8; base 1 ms.
        assert rate == pytest.approx(0.95 * 1000 / 1.8, rel=1e-6)
        # Just below that rate: not saturated; just above: saturated.
        below = congested_access_time(result, costs, rate * 0.99)
        above = congested_access_time(result, costs, rate * 1.01)
        assert not below["saturated"]
        assert above["saturated"]

    def test_no_traffic_never_saturates(self):
        result = make_result([1.0, 0.0], 0.0, [0.0])
        costs = paper_two_level()
        assert saturation_rate(result, costs) == float("inf")
        out = congested_access_time(result, costs, 10_000)
        assert out["t_ave_ms"] == pytest.approx(0.0)

    def test_end_to_end_unilru_saturates_before_ulc(self):
        """The Chen et al. [15] result: on a looping workload uniLRU's
        demotion traffic saturates the link at a rate ULC sustains
        easily."""
        from repro.hierarchy import ULCScheme, UnifiedLRUMultiScheme
        from repro.sim import Engine
        from repro.workloads import looping_trace

        trace = looping_trace(60, 8000)
        costs = paper_two_level()
        uni = Engine(UnifiedLRUMultiScheme([20, 50]), costs).drive(trace)
        ulc = Engine(
            ULCScheme([20, 50], templru_capacity=0), costs
        ).drive(trace)
        assert saturation_rate(ulc, costs) > 2 * saturation_rate(uni, costs)
