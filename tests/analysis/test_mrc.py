"""The single-pass miss-ratio-curve engine vs the simulator.

The load-bearing property is *bit-identity*: every hit rate, demotion
rate and time component of an MRC-derived sweep point must equal — as
floats, not approximately — what per-capacity ``Engine.drive`` + the
live scheme produce. These tests pin that equivalence for the LRU-family
schemes on the seed synthetic workloads, warm-up included, plus the
profiling kernel itself against a reference implementation and the
Che/Fagin estimator against the exact curve.
"""

from __future__ import annotations

import pytest

from repro.analysis.mrc import (
    COLD_DISTANCE,
    che_mrc,
    derive_sweep_results,
    mrc_for_trace,
    stack_distances,
    stack_distances_reference,
    supports_scheme,
)
from repro.errors import ConfigurationError
from repro.hierarchy.registry import make_scheme
from repro.runner.spec import SchemeSpec, WorkloadSpec
from repro.sim import Engine, paper_two_level, sweep_server_size
from repro.workloads.base import Trace
from repro.workloads.synthetic import (
    looping_trace,
    random_trace,
    sequential_trace,
    zipf_trace,
)


def _naive_distances(blocks):
    """Textbook O(n^2) stack distances: count distinct blocks between
    consecutive references by set construction."""
    out = []
    last = {}
    for t, block in enumerate(blocks):
        if block in last:
            out.append(len(set(blocks[last[block] : t])))
        else:
            out.append(int(COLD_DISTANCE))
        last[block] = t
    return out


class TestStackDistances:
    def test_known_small_stream(self):
        # a b c b b a: b at t=3 has distance 2 (c, b), b at t=4 distance
        # 1, a at t=5 distance 3 (a under b under c... -> {b, c, a}).
        profile = stack_distances([1, 2, 3, 2, 2, 1])
        cold = int(COLD_DISTANCE)
        assert profile.distances.tolist() == [cold, cold, cold, 2, 1, 3]
        assert profile.distinct_before.tolist() == [0, 1, 2, 3, 3, 3]
        assert profile.num_unique == 3

    @pytest.mark.parametrize(
        "trace",
        [
            random_trace(60, 800, seed=3),
            zipf_trace(100, 800, seed=4),
            looping_trace(40, 800),
            sequential_trace(300),
        ],
        ids=["random", "zipf", "looping", "sequential"],
    )
    def test_matches_reference_and_naive(self, trace):
        blocks = trace.blocks.tolist()
        fenwick = stack_distances(blocks).distances.tolist()
        assert fenwick == stack_distances_reference(blocks)
        assert fenwick == _naive_distances(blocks)

    def test_distinct_before_is_nondecreasing(self):
        profile = stack_distances(zipf_trace(80, 500, seed=9).blocks)
        assert all(
            a <= b
            for a, b in zip(
                profile.distinct_before, profile.distinct_before[1:]
            )
        )

    def test_empty_stream(self):
        profile = stack_distances([])
        assert len(profile) == 0
        assert profile.num_unique == 0


class TestMissRatioCurve:
    def test_matches_lru_simulation_at_every_capacity(self):
        trace = zipf_trace(120, 2000, seed=5)
        costs = paper_two_level()
        curve = mrc_for_trace(trace, 0.1, capacities=[4, 16, 48, 96, 200])
        for capacity, rate in zip(curve.capacities, curve.hit_rates):
            # A [C, 1] uniLRU's level 1 is exactly an LRU of capacity C.
            sim = Engine(
                make_scheme("unilru", [capacity, 1], 1),
                costs,
                warmup_fraction=0.1,
            ).drive(trace)
            assert sim.level_hit_rates[0] == rate

    def test_warmup_region_excluded_but_warms(self):
        # 50 distinct warm-up blocks, then pure re-references: with the
        # warm-up excluded the measured hit rate at C=50 is 1.0 even
        # though every first access missed.
        blocks = list(range(50)) + [i % 50 for i in range(50)]
        trace = Trace(blocks)
        curve = mrc_for_trace(trace, 0.5, capacities=[50])
        assert curve.warmup_references == 50
        assert curve.references == 50
        assert curve.hit_rates == (1.0,)

    def test_curve_is_monotone_in_capacity(self):
        trace = zipf_trace(150, 1500, seed=6)
        curve = mrc_for_trace(trace, 0.1)
        assert list(curve.hit_rates) == sorted(curve.hit_rates)
        assert curve.capacities[-1] == curve.num_unique_blocks

    def test_accessors(self):
        trace = zipf_trace(50, 500, seed=7)
        curve = mrc_for_trace(trace, 0.1, capacities=[8, 32])
        assert curve.hit_rate(8) == curve.hit_rates[0]
        assert curve.miss_ratio(32) == 1.0 - curve.hit_rates[1]
        assert curve.miss_ratios == tuple(
            1.0 - r for r in curve.hit_rates
        )
        with pytest.raises(ConfigurationError):
            curve.hit_rate(9)

    def test_bad_parameters_rejected(self):
        trace = zipf_trace(50, 500, seed=7)
        with pytest.raises(ConfigurationError):
            mrc_for_trace(trace, 1.5)
        with pytest.raises(ConfigurationError):
            mrc_for_trace(trace, 0.1, capacities=[0])


class TestCheApproximation:
    def test_tracks_exact_curve_on_zipf(self):
        trace = zipf_trace(800, 12000, alpha=0.9, seed=8)
        capacities = [32, 128, 400]
        exact = mrc_for_trace(trace, 0.1, capacities=capacities)
        approx = che_mrc(trace, capacities, 0.1)
        for a, e in zip(approx.hit_rates, exact.hit_rates):
            assert a == pytest.approx(e, abs=0.08)

    def test_saturates_at_full_coverage(self):
        trace = zipf_trace(100, 2000, seed=8)
        approx = che_mrc(trace, [10_000], 0.1)
        assert approx.hit_rates[0] == pytest.approx(1.0)


class TestSupportsScheme:
    def test_lru_family_single_client(self):
        assert supports_scheme("unilru")
        assert supports_scheme("indlru")
        assert supports_scheme("indlru", {"policies": ["lru", "lru"]})

    def test_rejections(self):
        assert not supports_scheme("unilru", num_clients=4)
        assert not supports_scheme("ulc")
        assert not supports_scheme("mq")
        assert not supports_scheme("unilru-lru")
        assert not supports_scheme("indlru", {"policies": ["lru", "mq"]})
        assert not supports_scheme("unilru", {"anything": 1})

    def test_derive_rejects_unsupported(self):
        trace = zipf_trace(50, 500, seed=1)
        with pytest.raises(ConfigurationError):
            derive_sweep_results(
                "ulc", trace, 16, [32], paper_two_level()
            )


#: Seed synthetic workloads the equivalence is pinned on (zipf and
#: random match the golden-fixture trace parameters).
EQUIVALENCE_TRACES = [
    ("zipf", lambda: zipf_trace(1024, 3000, seed=11)),
    ("random", lambda: random_trace(512, 3000, seed=7)),
    ("looping", lambda: looping_trace(300, 3000)),
]


class TestSweepEquivalence:
    @pytest.mark.parametrize("scheme", ["unilru", "indlru"])
    @pytest.mark.parametrize(
        "maker", [m for _, m in EQUIVALENCE_TRACES],
        ids=[n for n, _ in EQUIVALENCE_TRACES],
    )
    def test_derived_points_bit_identical_to_simulation(
        self, scheme, maker
    ):
        trace = maker()
        costs = paper_two_level()
        sizes = [16, 64, 256, 1024]
        derived = derive_sweep_results(
            scheme, trace, 48, sizes, costs, 0.1
        )
        for size, result in zip(sizes, derived):
            sim = Engine(
                make_scheme(scheme, [48, size], 1), costs, warmup_fraction=0.1
            ).drive(trace)
            assert result.comparable() == sim.comparable()

    def test_zero_warmup_included(self):
        trace = zipf_trace(200, 1500, seed=2)
        costs = paper_two_level()
        [derived] = derive_sweep_results(
            "unilru", trace, 32, [128], costs, warmup_fraction=0.0
        )
        sim = Engine(
            make_scheme("unilru", [32, 128], 1), costs, warmup_fraction=0.0
        ).drive(trace)
        assert derived.comparable() == sim.comparable()

    def test_sweep_auto_detection_matches_point_simulation(self):
        builders = {
            "uniLRU": SchemeSpec("unilru"),
            "indLRU": SchemeSpec("indlru"),
            "ULC": SchemeSpec("ulc"),
        }
        workload = WorkloadSpec(
            "synthetic",
            "zipf",
            {"num_blocks": 400, "num_refs": 2500, "seed": 5},
        )
        costs = paper_two_level()
        sizes = [32, 128, 512]
        fast = sweep_server_size(builders, workload, 48, sizes, costs)
        slow = sweep_server_size(
            builders, workload, 48, sizes, costs, use_mrc=False
        )
        for label in builders:
            for a, b in zip(fast[label], slow[label]):
                assert a.value == b.value
                assert a.result.comparable() == b.result.comparable()
        # Provenance: LRU-family points were derived, ULC was simulated.
        assert all(
            p.result.extras.get("mrc_derived") for p in fast["uniLRU"]
        )
        assert all(
            p.result.extras.get("mrc_derived") for p in fast["indLRU"]
        )
        assert not any(
            p.result.extras.get("mrc_derived") for p in fast["ULC"]
        )

    def test_multi_client_falls_back(self):
        builders = {"uniLRU": SchemeSpec("unilru")}
        workload = WorkloadSpec(
            "multi", "httpd", {"scale": 0.02, "num_refs": 1500}
        )
        points = sweep_server_size(
            builders, workload, 32, [64], paper_two_level(), num_clients=7
        )
        assert not points["uniLRU"][0].result.extras.get("mrc_derived")

    def test_legacy_trace_path_uses_mrc_for_schemespec_builders(self):
        trace = zipf_trace(300, 2000, seed=4)
        costs = paper_two_level()
        fast = sweep_server_size(
            {"uniLRU": SchemeSpec("unilru")}, trace, 32, [64, 256], costs
        )
        slow = sweep_server_size(
            {"uniLRU": SchemeSpec("unilru")},
            trace, 32, [64, 256], costs, use_mrc=False,
        )
        for a, b in zip(fast["uniLRU"], slow["uniLRU"]):
            assert a.result.comparable() == b.result.comparable()
        assert fast["uniLRU"][0].result.extras.get("mrc_derived")
        assert not slow["uniLRU"][0].result.extras.get("mrc_derived")


class TestCacheInterchange:
    BUILDERS = {"uniLRU": SchemeSpec("unilru")}
    WORKLOAD = WorkloadSpec(
        "synthetic",
        "zipf",
        {"num_blocks": 300, "num_refs": 2000, "seed": 3},
    )

    def _sweep(self, tmp_path, use_mrc):
        return sweep_server_size(
            self.BUILDERS,
            self.WORKLOAD,
            32,
            [64, 256],
            paper_two_level(),
            cache_dir=tmp_path,
            use_mrc=use_mrc,
        )

    def test_derived_entries_serve_point_sweeps(self, tmp_path):
        first = self._sweep(tmp_path, use_mrc=None)
        second = self._sweep(tmp_path, use_mrc=False)
        for a, b in zip(first["uniLRU"], second["uniLRU"]):
            # Cache hit: the MRC-derived entry (provenance flag and all)
            # is returned verbatim to the point-simulation sweep.
            assert b.result == a.result
            assert b.result.extras.get("mrc_derived")

    def test_point_entries_serve_mrc_sweeps(self, tmp_path):
        first = self._sweep(tmp_path, use_mrc=False)
        second = self._sweep(tmp_path, use_mrc=None)
        for a, b in zip(first["uniLRU"], second["uniLRU"]):
            assert b.result == a.result
            assert not b.result.extras.get("mrc_derived")
