"""RunSpec / WorkloadSpec / CostSpec: hashing, serialization, rebuild."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.hierarchy import available_schemes
from repro.hierarchy.base import MultiLevelScheme
from repro.runner import (
    CostSpec,
    RunSpec,
    SchemeSpec,
    WorkloadSpec,
    materialize_trace,
    specs_for_sweep,
)
from repro.sim import paper_three_level, paper_two_level
from repro.workloads import save_text, zipf_trace
from repro.workloads.largescale import LARGE_WORKLOADS

ZIPF = {"num_blocks": 60, "num_refs": 2000, "seed": 1}


def small_spec(**overrides) -> RunSpec:
    base = dict(
        scheme="ulc",
        capacities=(16, 32, 48),
        workload=WorkloadSpec("synthetic", "zipf", dict(ZIPF)),
        costs=CostSpec.from_model(paper_three_level()),
    )
    base.update(overrides)
    return RunSpec(**base)


class TestHashing:
    def test_hash_is_stable(self):
        a, b = small_spec(), small_spec()
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() == a.spec_hash()

    def test_hash_covers_every_field(self):
        variants = [
            small_spec(),
            small_spec(scheme="unilru"),
            small_spec(capacities=(16, 32, 64)),
            small_spec(num_clients=1, scheme_kwargs={"templru_capacity": 4}),
            small_spec(warmup_fraction=0.25),
            small_spec(costs=CostSpec.from_model(paper_two_level())),
            small_spec(
                workload=WorkloadSpec(
                    "synthetic", "zipf", {**ZIPF, "seed": 2}
                )
            ),
        ]
        hashes = [v.spec_hash() for v in variants]
        assert len(set(hashes)) == len(hashes)

    def test_file_workload_hash_tracks_content(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_text(zipf_trace(40, 500, seed=3), path)
        spec = WorkloadSpec("file", str(path))
        before = spec.content_hash()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("0 1\n")
        assert spec.content_hash() != before


class TestSerialization:
    def test_json_round_trip(self):
        spec = small_spec(scheme_kwargs={"templru_capacity": 8})
        back = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()

    def test_pickle_round_trip(self):
        spec = small_spec()
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()

    def test_version_mismatch_rejected(self):
        payload = small_spec().to_dict()
        payload["version"] = 999
        with pytest.raises(ConfigurationError):
            RunSpec.from_dict(payload)

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec("nope", "zipf")

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec("synthetic", "zipf", {"seed": {1, 2}})
        with pytest.raises(ConfigurationError):
            small_spec(scheme_kwargs={"notify": object()})


class TestReconstruction:
    @pytest.mark.parametrize("name", available_schemes(multi_client=False))
    def test_single_client_registry_rebuilds(self, name):
        levels = (8, 16) if name == "eviction-based" else (8, 16, 24)
        spec = small_spec(scheme=name, capacities=levels)
        scheme = spec.build_scheme()
        assert isinstance(scheme, MultiLevelScheme)
        assert tuple(scheme.capacities) == levels

    @pytest.mark.parametrize("name", available_schemes(multi_client=True))
    def test_multi_client_registry_rebuilds(self, name):
        levels = (8, 16, 24) if name == "ulc-nlevel" else (8, 16)
        spec = small_spec(scheme=name, capacities=levels, num_clients=3)
        scheme = spec.build_scheme()
        assert isinstance(scheme, MultiLevelScheme)
        assert scheme.num_clients == 3

    def test_build_trace_and_costs(self):
        spec = small_spec()
        trace = spec.build_trace()
        assert len(trace) == ZIPF["num_refs"]
        costs = spec.build_costs()
        assert costs.hit_times == paper_three_level().hit_times


class TestSweepExpansion:
    def test_rows_are_server_size_major(self):
        schemes = {"A": SchemeSpec("indlru"), "B": SchemeSpec("ulc")}
        rows = specs_for_sweep(
            schemes,
            WorkloadSpec("synthetic", "zipf", dict(ZIPF)),
            client_capacity=16,
            server_sizes=[32, 64],
            costs=CostSpec.from_model(paper_two_level()),
        )
        assert [(label, size) for label, size, _ in rows] == [
            ("A", 32), ("B", 32), ("A", 64), ("B", 64),
        ]
        for _, size, spec in rows:
            assert spec.capacities == (16, size)


class TestLargeWorkloadSeed:
    """``WorkloadSpec("large", ..., {"seed": s})`` reaches the generator;
    a spec without a seed keeps its trace and its hash."""

    #: ``spec_hash`` of :meth:`unseeded_spec`, pinned from before
    #: ``make_large_workload`` accepted a seed.
    UNSEEDED_SPEC_HASH = (
        "056d66cebc0eff85105629849bbbb85309332d8ed43da8877a8ee55fecda5f61"
    )

    @staticmethod
    def unseeded_spec() -> RunSpec:
        return RunSpec(
            scheme="ulc",
            capacities=(100, 100, 100),
            workload=WorkloadSpec("large", "zipf", {"num_refs": 2000}),
            costs=CostSpec.from_model(paper_three_level()),
        )

    def test_seed_is_forwarded(self):
        spec = WorkloadSpec("large", "zipf", {"seed": 7, "num_refs": 2000})
        trace = materialize_trace(spec)
        expected = LARGE_WORKLOADS["zipf"](seed=7, num_refs=2000)
        assert trace.blocks.tolist() == expected.blocks.tolist()
        default = LARGE_WORKLOADS["zipf"](num_refs=2000)
        assert trace.blocks.tolist() != default.blocks.tolist()

    def test_unseeded_spec_keeps_trace_and_hash(self):
        spec = self.unseeded_spec()
        assert spec.spec_hash() == self.UNSEEDED_SPEC_HASH
        expected = LARGE_WORKLOADS["zipf"](num_refs=2000)
        assert spec.workload.build().blocks.tolist() == (
            expected.blocks.tolist()
        )
