"""``Engine.drive``/``collect`` over chunks: bit-identical results.

The engine consumes a :class:`Trace` or a :class:`StreamingTrace` one
``chunk_size`` span at a time — warm-up is clamped per chunk — and
promises counters *bit-identical* whatever the chunk size and whether
the source is in memory or on disk. These tests pin that promise across
chunk sizes that straddle the warm-up boundary, multi-client traces,
and an actual on-disk columnar source (proving the engine path works
off the mmap reader, not just in-memory slices).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hierarchy import ULCMultiScheme, ULCScheme
from repro.sim import Engine, paper_three_level, paper_two_level
from repro.workloads import Trace, zipf_trace
from repro.workloads.io import save_columnar
from tests.core.golden_core import result_hash

CHUNK_SIZES = [1, 97, 400, 1_000, 10_000]


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_stream_scalar_matches_drive(chunk_size):
    trace = zipf_trace(512, 4_000, seed=5)
    costs = paper_three_level()
    plain = Engine(ULCScheme([64, 128, 256]), costs).drive(trace)
    streamed = Engine(ULCScheme([64, 128, 256]), costs).drive(
        trace, chunk_size=chunk_size
    )
    assert result_hash(streamed) == result_hash(plain)
    assert streamed.comparable() == plain.comparable()


@pytest.mark.parametrize("chunk_size", [100, 2_000])
def test_stream_multi_client_matches_drive(chunk_size):
    blocks = zipf_trace(256, 3_000, seed=9).blocks
    trace = Trace(blocks, clients=[i % 3 for i in range(len(blocks))])
    costs = paper_two_level()
    plain = Engine(
        ULCMultiScheme([32, 128], 3), costs
    ).drive(trace)
    streamed = Engine(
        ULCMultiScheme([32, 128], 3), costs
    ).drive(trace, chunk_size=chunk_size)
    assert result_hash(streamed) == result_hash(plain)


def test_stream_from_columnar_source_matches_drive(tmp_path):
    trace = zipf_trace(512, 5_000, seed=3)
    columnar = save_columnar(trace, tmp_path / "t.ctr")
    costs = paper_three_level()
    plain = Engine(ULCScheme([64, 128, 256]), costs).drive(trace)
    streamed = Engine(ULCScheme([64, 128, 256]), costs).drive(
        columnar, chunk_size=512
    )
    assert result_hash(streamed) == result_hash(plain)


def test_stream_warmup_straddles_chunks():
    # warmup_count = 400 with chunk_size 300: the boundary falls inside
    # the second chunk, exercising the per-chunk clamp.
    trace = zipf_trace(128, 4_000, seed=2)
    costs = paper_three_level()
    engine = Engine(
        ULCScheme([32, 64, 128]), costs, warmup_fraction=0.1
    )
    plain = Engine(
        ULCScheme([32, 64, 128]), costs, warmup_fraction=0.1
    ).drive(trace)
    assert result_hash(
        engine.drive(trace, chunk_size=300)
    ) == result_hash(plain)


def test_collect_stream_matches_collect():
    trace = zipf_trace(128, 2_000, seed=4)
    scheme_a = ULCScheme([32, 64, 128])
    scheme_b = ULCScheme([32, 64, 128])
    collected = Engine(scheme_a).collect(trace)
    streamed = Engine(scheme_b).collect(trace, chunk_size=257)
    assert streamed.summary() == collected.summary()


def test_collect_from_columnar_source_matches_collect(tmp_path):
    trace = zipf_trace(256, 3_000, seed=8)
    columnar = save_columnar(trace, tmp_path / "t.ctr")
    collected = Engine(ULCScheme([32, 64, 128])).collect(trace)
    streamed = Engine(ULCScheme([32, 64, 128])).collect(columnar)
    assert streamed.summary() == collected.summary()


def test_drive_stream_without_costs_rejected():
    with pytest.raises(ConfigurationError):
        Engine(ULCScheme([8, 8, 8])).drive(
            zipf_trace(16, 100, seed=1)
        )
