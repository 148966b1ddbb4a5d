"""End-to-end integration tests across the whole library."""

from __future__ import annotations

import pytest

from repro.hierarchy import available_schemes, make_scheme
from repro.sim import Engine, paper_three_level, paper_two_level
from repro.workloads import (
    classify_pattern,
    describe,
    filter_through_cache,
    make_large_workload,
    make_multi_workload,
)


class TestSingleClientPipeline:
    @pytest.fixture(scope="class")
    def trace(self):
        return make_large_workload("zipf", scale=1 / 256, num_refs=20000)

    @pytest.mark.parametrize("name", ["indlru", "unilru", "ulc", "agglru",
                                      "eviction-based"])
    def test_every_single_client_scheme_runs(self, trace, name):
        levels = [40, 40] if name == "eviction-based" else [40, 40, 40]
        scheme = make_scheme(name, levels)
        costs = (
            paper_two_level() if len(levels) == 2 else paper_three_level()
        )
        result = Engine(scheme, costs).drive(trace)
        # Accounting coherence.
        assert result.total_hit_rate + result.miss_rate == pytest.approx(1.0)
        assert result.t_ave_ms == pytest.approx(
            result.t_hit_ms
            + result.t_miss_ms
            + result.t_demotion_ms
            + result.t_message_ms
        )
        assert all(0 <= r <= 1 for r in result.level_hit_rates)
        assert all(r >= 0 for r in result.demotion_rates)

    def test_scheme_ordering_end_to_end(self, trace):
        costs = paper_three_level()
        t_ind = Engine(
            make_scheme("indlru", [40, 40, 40]), costs
        ).drive(trace).t_ave_ms
        t_uni = Engine(
            make_scheme("unilru", [40, 40, 40]), costs
        ).drive(trace).t_ave_ms
        t_ulc = Engine(
            make_scheme("ulc", [40, 40, 40]), costs
        ).drive(trace).t_ave_ms
        assert t_ulc < t_uni < t_ind

    def test_oracle_bounds_everything(self, trace):
        """The aggregate OPT oracle's hit rate upper-bounds every online
        scheme with the same total capacity."""
        from repro.hierarchy import AggregateOPTOracle

        costs = paper_three_level()
        opt = Engine(
            AggregateOPTOracle([40, 40, 40], trace.blocks.tolist()), costs
        ).drive(trace)
        for name in ("indlru", "unilru", "ulc"):
            online = Engine(
                make_scheme(name, [40, 40, 40]), costs
            ).drive(trace)
            assert opt.total_hit_rate >= online.total_hit_rate - 1e-9, name

    def test_filtered_stream_feeds_back_into_simulation(self, trace):
        filtered = filter_through_cache(trace, 40)
        scheme = make_scheme("ulc", [40, 40])
        result = Engine(scheme, paper_two_level()).drive(filtered)
        assert result.references > 0


class TestMultiClientPipeline:
    @pytest.fixture(scope="class")
    def trace(self):
        return make_multi_workload("db2", scale=1 / 1024, num_refs=20000)

    def test_available_schemes_listing_is_accurate(self, trace):
        for name in available_schemes(multi_client=True):
            if name in ("agglru",):
                continue
            levels = (
                [16, 64, 128] if name == "ulc-nlevel" else [16, 64]
            )
            scheme = make_scheme(name, levels, num_clients=trace.num_clients)
            costs = (
                paper_three_level() if len(levels) == 3 else paper_two_level()
            )
            result = Engine(scheme, costs).drive(trace)
            assert 0 <= result.total_hit_rate <= 1, name

    def test_per_client_extras_present(self, trace):
        scheme = make_scheme("ulc", [16, 64], num_clients=trace.num_clients)
        result = Engine(scheme, paper_two_level()).drive(trace)
        for client in range(trace.num_clients):
            assert f"client{client}_hit_rate" in result.extras
        total_refs = sum(
            result.extras[f"client{c}_refs"]
            for c in range(trace.num_clients)
        )
        assert total_refs == result.references

    def test_characterisation_matches_generation(self, trace):
        stats = describe(trace)
        assert stats.num_clients == 8
        verdict = classify_pattern(trace.aggregate())
        assert verdict.label in ("looping", "mixed")
