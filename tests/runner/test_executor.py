"""Executor: parallel determinism, caching, timing metadata."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    CostSpec,
    RunSpec,
    SchemeSpec,
    WorkloadSpec,
    execute_spec,
    resolve_check_interval,
    resolve_jobs,
    run_specs,
)
from repro.runner.executor import _execute_payload
from repro.sim import (
    TIMING_EXTRAS,
    paper_three_level,
    paper_two_level,
    sweep_server_size,
)

WORKLOAD = WorkloadSpec(
    "synthetic", "zipf", {"num_blocks": 80, "num_refs": 3000, "seed": 7}
)
COSTS = CostSpec.from_model(paper_three_level())


def batch() -> list:
    return [
        RunSpec(
            scheme=name,
            capacities=(capacity, capacity, capacity),
            workload=WORKLOAD,
            costs=COSTS,
        )
        for name in ("indlru", "unilru", "ulc")
        for capacity in (12, 24)
    ]


class TestResolveJobs:
    def test_serial_defaults(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)


class TestResolveCheckInterval:
    """``check_invariants=True`` must be a configuration error, not a
    silent check-every-1-reference (bools pass ``isinstance(x, int)``)."""

    def test_none_and_ints_pass(self):
        assert resolve_check_interval(None) is None
        assert resolve_check_interval(1) == 1
        assert resolve_check_interval(500) == 500

    @pytest.mark.parametrize("bad", [True, False, 1.5, "100", 0, -3])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="check_invariants"):
            resolve_check_interval(bad)

    def test_run_specs_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="check_invariants"):
            run_specs(batch()[:1], check_invariants=True)

    def test_execute_payload_rejects_bool(self):
        payload = dict(batch()[0].to_dict())
        payload["check_invariants"] = True
        with pytest.raises(ConfigurationError, match="check_invariants"):
            _execute_payload(payload)

    def test_sweep_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="check_invariants"):
            sweep_server_size(
                {"uniLRU": SchemeSpec("unilru")},
                WORKLOAD,
                16,
                [32],
                paper_two_level(),
                check_invariants=True,
            )


class TestDeterminism:
    def test_parallel_matches_serial(self):
        specs = batch()
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert [r.comparable() for r in serial] == [
            r.comparable() for r in parallel
        ]

    def test_timing_extras_are_stamped_but_not_compared(self):
        result = execute_spec(batch()[0])
        assert result.extras["wall_time_s"] > 0
        assert result.extras["refs_per_s"] > 0
        for key in TIMING_EXTRAS:
            assert key not in result.comparable()["extras"]


class TestCaching:
    def test_rerun_from_cache_is_byte_identical(self, tmp_path):
        specs = batch()
        first = run_specs(specs, cache_dir=tmp_path)
        second = run_specs(specs, cache_dir=tmp_path)
        # Includes the original run's timing metadata: cached results
        # round-trip the stored JSON exactly.
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_warm_cache_skips_simulation(self, tmp_path, monkeypatch):
        specs = batch()
        first = run_specs(specs, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("scheme was rebuilt despite a warm cache")

        # Poison scheme construction: a warm cache must not touch it.
        monkeypatch.setattr("repro.runner.spec.make_scheme", boom)
        second = run_specs(specs, cache_dir=tmp_path)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_changed_spec_misses_cache(self, tmp_path, monkeypatch):
        spec = batch()[0]
        run_specs([spec], cache_dir=tmp_path)
        changed = RunSpec(
            scheme=spec.scheme,
            capacities=spec.capacities,
            workload=WorkloadSpec(
                WORKLOAD.kind, WORKLOAD.name, {**WORKLOAD.params, "seed": 8}
            ),
            costs=spec.costs,
        )

        def boom(*args, **kwargs):
            raise AssertionError("miss expected")

        monkeypatch.setattr("repro.runner.spec.make_scheme", boom)
        with pytest.raises(AssertionError, match="miss expected"):
            run_specs([changed], cache_dir=tmp_path)


class TestPerClient:
    def test_typed_entries_match_legacy_extras(self):
        spec = RunSpec(
            scheme="ulc",
            capacities=(16, 64),
            workload=WorkloadSpec(
                "multi", "httpd", {"scale": 0.01, "num_refs": 3000}
            ),
            costs=CostSpec.from_model(paper_two_level()),
            num_clients=7,
        )
        result = execute_spec(spec)
        assert len(result.per_client) == 7
        for entry in result.per_client:
            assert entry.refs == result.extras[f"client{entry.client}_refs"]
            assert entry.hit_rate == pytest.approx(
                result.extras[f"client{entry.client}_hit_rate"]
            )
            assert entry.demotions == (
                result.extras[f"client{entry.client}_demotions"]
            )


class TestSweepSpecPath:
    def test_in_process_sweep_matches_spec_sweep(self):
        """A live-Trace sweep (serial, in-process, point-simulated)
        matches the WorkloadSpec sweep through run_specs."""
        from repro.runner import materialize_trace

        trace = materialize_trace(WORKLOAD)
        costs = paper_two_level()
        builders = {"indLRU": SchemeSpec("indlru"), "ULC": SchemeSpec("ulc")}
        in_process = sweep_server_size(
            builders,
            trace,
            client_capacity=16,
            server_sizes=[24, 48],
            costs=costs,
            use_mrc=False,
        )
        via_specs = sweep_server_size(
            builders,
            WORKLOAD,
            client_capacity=16,
            server_sizes=[24, 48],
            costs=costs,
            jobs=2,
        )
        for label in ("indLRU", "ULC"):
            old = [p.result.comparable() for p in in_process[label]]
            new = [p.result.comparable() for p in via_specs[label]]
            assert old == new

    def test_spec_sweep_requires_workload_spec(self):
        with pytest.raises(TypeError):
            sweep_server_size(
                {"ULC": SchemeSpec("ulc")},
                object(),
                client_capacity=16,
                server_sizes=[24],
                costs=paper_two_level(),
            )
