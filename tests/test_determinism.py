"""Determinism guarantees: every experiment replays bit-for-bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import run_figure6, run_figure7, run_section2
from repro.sim import Engine, paper_two_level
from repro.hierarchy import make_scheme
from repro.workloads import make_large_workload, make_multi_workload


class TestWorkloadDeterminism:
    @pytest.mark.parametrize("name", ["random", "zipf", "httpd", "dev1",
                                      "tpcc1"])
    def test_large_workloads(self, name):
        a = make_large_workload(name, scale=1 / 256, num_refs=4000)
        b = make_large_workload(name, scale=1 / 256, num_refs=4000)
        assert np.array_equal(a.blocks, b.blocks)
        assert np.array_equal(a.clients, b.clients)

    @pytest.mark.parametrize("name", ["httpd", "openmail", "db2"])
    def test_multi_workloads(self, name):
        a = make_multi_workload(name, scale=1 / 1024, num_refs=4000)
        b = make_multi_workload(name, scale=1 / 1024, num_refs=4000)
        assert np.array_equal(a.blocks, b.blocks)
        assert np.array_equal(a.clients, b.clients)


class TestSchemeDeterminism:
    @pytest.mark.parametrize(
        "name", ["indlru", "unilru", "unilru-adaptive", "mq", "ulc",
                 "ulc-nlevel", "eviction-based"]
    )
    def test_multi_client_schemes_replay_identically(self, name):
        trace = make_multi_workload("db2", scale=1 / 1024, num_refs=6000)
        levels = [16, 64, 128] if name == "ulc-nlevel" else [16, 64]
        results = []
        for _ in range(2):
            scheme = make_scheme(name, levels, num_clients=trace.num_clients)
            if len(levels) == 3:
                from repro.sim import paper_three_level

                costs = paper_three_level()
            else:
                costs = paper_two_level()
            results.append(Engine(scheme, costs).drive(trace))
        assert results[0].t_ave_ms == results[1].t_ave_ms
        assert results[0].level_hit_rates == results[1].level_hit_rates
        assert results[0].demotion_rates == results[1].demotion_rates


class TestExperimentDeterminism:
    def test_section2_replays(self):
        a = run_section2("tiny", workloads=("zipf",))
        b = run_section2("tiny", workloads=("zipf",))
        ra = a.analyses["zipf"].reports["LLD-R"]
        rb = b.analyses["zipf"].reports["LLD-R"]
        assert np.array_equal(ra.segment_refs, rb.segment_refs)
        assert np.array_equal(ra.crossings, rb.crossings)

    def test_figure6_replays(self):
        a = run_figure6("tiny", workloads=("tpcc1",))
        b = run_figure6("tiny", workloads=("tpcc1",))
        assert a.render() == b.render()

    def test_figure7_replays(self):
        a = run_figure7("tiny", workloads=("db2",))
        b = run_figure7("tiny", workloads=("db2",))
        assert a.render() == b.render()
