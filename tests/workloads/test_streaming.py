"""Streaming trace ingestion: round-trips, chunk protocol, interning.

The columnar ``.ctr`` format is the on-disk substrate of the
10^8-reference workflow, so its round-trips must be *bit-identical*:
CSV/text/binary/in-memory sources converted through
:func:`convert_to_columnar` and read back through the mmap reader must
reproduce every block and client id exactly — including empty traces,
block ids beyond 2^31, and the lazy client column (a single-client
stream writes no ``clients.bin`` at all). The chunk protocol itself
(offsets, sizes, never materialising) and :class:`DenseInterner`'s
deterministic id assignment are pinned alongside, as are the
``TraceFormatError`` cases a corrupt directory must raise.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.workloads import Trace, zipf_trace
from repro.workloads.io import (
    ColumnarTrace,
    DenseInterner,
    convert_to_columnar,
    iter_chunks,
    load_text,
    open_trace_chunks,
    save_columnar,
    stream_binary,
    stream_csv,
    stream_text,
    text_trace_info,
)


def read_back(columnar: ColumnarTrace, chunk_size: int = 1 << 20):
    """Concatenate every chunk of a columnar trace (test-side only)."""
    blocks, clients = [], []
    for chunk in columnar.chunks(chunk_size):
        blocks.append(np.asarray(chunk.blocks, dtype=np.int64))
        if chunk.clients is not None:
            clients.append(np.asarray(chunk.clients, dtype=np.int32))
    all_blocks = (
        np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
    )
    all_clients = np.concatenate(clients) if clients else None
    return all_blocks, all_clients


class TestColumnarRoundTrip:
    def test_in_memory_trace_round_trips_bit_identical(self, tmp_path):
        trace = zipf_trace(500, 10_000, seed=11)
        columnar = save_columnar(trace, tmp_path / "t.ctr")
        blocks, clients = read_back(columnar, chunk_size=999)
        np.testing.assert_array_equal(blocks, np.asarray(trace.blocks))
        assert clients is None  # single-client: lazy column never written
        assert not (tmp_path / "t.ctr" / "clients.bin").exists()
        assert len(columnar) == len(trace)
        assert columnar.info.name == trace.info.name

    def test_multi_client_round_trips_bit_identical(self, tmp_path):
        blocks = zipf_trace(128, 3_000, seed=2).blocks
        trace = Trace(blocks, clients=[i % 5 for i in range(len(blocks))])
        columnar = save_columnar(trace, tmp_path / "m.ctr")
        got_blocks, got_clients = read_back(columnar, chunk_size=777)
        np.testing.assert_array_equal(got_blocks, np.asarray(trace.blocks))
        np.testing.assert_array_equal(got_clients, np.asarray(trace.clients))
        assert columnar.has_clients

    def test_client_column_backfills_single_client_prefix(self, tmp_path):
        # First chunks carry no client ids; a later chunk does. The
        # column must backfill zeros for everything already written.
        from repro.workloads.io import TraceChunk

        chunks = [
            TraceChunk(np.arange(10, dtype=np.int64), None, 0),
            TraceChunk(
                np.arange(10, dtype=np.int64),
                np.full(10, 3, dtype=np.int32),
                10,
            ),
        ]
        columnar = convert_to_columnar(chunks, tmp_path / "b.ctr")
        _, clients = read_back(columnar)
        np.testing.assert_array_equal(
            clients, np.concatenate((np.zeros(10), np.full(10, 3)))
        )

    def test_empty_trace_round_trips(self, tmp_path):
        trace = Trace(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32)
        )
        columnar = save_columnar(trace, tmp_path / "e.ctr")
        assert len(columnar) == 0
        assert list(columnar.chunks()) == []
        blocks, clients = read_back(columnar)
        assert len(blocks) == 0 and clients is None

    def test_huge_block_ids_survive(self, tmp_path):
        # Block ids beyond 2^31 (and 2^32) must not be truncated.
        ids = np.array(
            [0, 2**31 + 7, 2**40, 2**62, 5, 2**31 + 7], dtype=np.int64
        )
        trace = Trace(ids, np.zeros(len(ids), dtype=np.int32))
        columnar = save_columnar(trace, tmp_path / "big.ctr")
        blocks, _ = read_back(columnar)
        np.testing.assert_array_equal(blocks, ids)

    def test_csv_to_columnar_to_mmap_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 2**40, size=2_500)
        clients = rng.integers(0, 4, size=2_500)
        csv = tmp_path / "acc.csv"
        lines = ["client,block"]
        lines += [f"{c},{b}" for c, b in zip(clients, blocks)]
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        chunks = stream_csv(
            csv, block_column=1, client_column=0, skip_header=True,
            chunk_size=333,
        )
        columnar = convert_to_columnar(chunks, tmp_path / "acc.ctr")
        got_blocks, got_clients = read_back(columnar, chunk_size=1000)
        np.testing.assert_array_equal(got_blocks, blocks)
        np.testing.assert_array_equal(got_clients, clients.astype(np.int32))

    def test_binary_to_columnar_bit_identical(self, tmp_path):
        blocks = np.array([9, 2**35, 1, 9, 0], dtype="<i8")
        raw = tmp_path / "t.bin"
        blocks.tofile(raw)
        chunks, info = open_trace_chunks(raw, chunk_size=2)
        columnar = convert_to_columnar(chunks, tmp_path / "t.ctr", info=info)
        got, _ = read_back(columnar)
        np.testing.assert_array_equal(got, blocks.astype(np.int64))


class TestChunkProtocol:
    def test_iter_chunks_offsets_and_sizes(self):
        trace = zipf_trace(64, 1_000, seed=1)
        chunks = list(iter_chunks(trace, chunk_size=300))
        assert [c.offset for c in chunks] == [0, 300, 600, 900]
        assert [len(c.blocks) for c in chunks] == [300, 300, 300, 100]
        rebuilt = np.concatenate([c.blocks for c in chunks])
        np.testing.assert_array_equal(rebuilt, np.asarray(trace.blocks))

    def test_columnar_chunks_are_mmap_views(self, tmp_path):
        trace = zipf_trace(64, 5_000, seed=1)
        columnar = save_columnar(trace, tmp_path / "v.ctr")
        chunk = next(iter(columnar.chunks(chunk_size=1024)))
        # Zero-copy contract: the chunk is a view into the map, not a
        # per-chunk heap copy of the column.
        assert isinstance(chunk.blocks.base, np.memmap)

    def test_materialize_matches_source(self, tmp_path):
        trace = zipf_trace(64, 2_000, seed=8)
        columnar = save_columnar(trace, tmp_path / "m.ctr")
        loaded = columnar.materialize()
        np.testing.assert_array_equal(
            np.asarray(loaded.blocks), np.asarray(trace.blocks)
        )
        assert loaded.info.name == trace.info.name

    def test_binary_size_mismatch_rejected(self, tmp_path):
        raw = tmp_path / "odd.bin"
        raw.write_bytes(b"\x00" * 11)  # not a whole number of int64s
        with pytest.raises(TraceFormatError):
            list(stream_binary(raw))


class TestCorruptColumnar:
    def build(self, tmp_path):
        return save_columnar(
            zipf_trace(32, 400, seed=1), tmp_path / "c.ctr"
        ).path

    def test_missing_manifest_rejected(self, tmp_path):
        path = self.build(tmp_path)
        (path / "meta.json").unlink()
        with pytest.raises(TraceFormatError):
            ColumnarTrace(path)

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = self.build(tmp_path)
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = "something-else"
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(TraceFormatError):
            ColumnarTrace(path)

    def test_truncated_column_rejected(self, tmp_path):
        path = self.build(tmp_path)
        column = path / "blocks.bin"
        column.write_bytes(column.read_bytes()[:-8])
        with pytest.raises(TraceFormatError):
            ColumnarTrace(path)


class TestNonUtf8Text:
    """A text/CSV trace that is not UTF-8 is a format error, not a
    ``UnicodeDecodeError`` escaping the reader."""

    @pytest.fixture
    def path(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe1\x002\x00\n")
        return bad

    def test_load_text(self, path):
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_stream_text(self, path):
        with pytest.raises(TraceFormatError):
            list(stream_text(path))

    def test_stream_csv(self, path):
        with pytest.raises(TraceFormatError):
            list(stream_csv(path))

    def test_text_trace_info(self, path):
        with pytest.raises(TraceFormatError):
            text_trace_info(path)


class TestDenseInterner:
    def test_first_appearance_dense_ids(self):
        interner = DenseInterner()
        out = interner.intern(np.array([100, 7, 100, 9]))
        # Within one chunk ties break in sorted order: 7 < 9 < 100.
        assert out.tolist() == [2, 0, 2, 1]
        assert len(interner) == 3
        # A later chunk reuses earlier assignments and extends densely.
        out2 = interner.intern(np.array([9, 3, 100]))
        assert out2.tolist() == [1, 3, 2]
        assert len(interner) == 4

    def test_interned_conversion_records_num_unique(self, tmp_path):
        trace = zipf_trace(50, 1_000, seed=3, base_block=10_000)
        interner = DenseInterner()
        columnar = convert_to_columnar(
            iter_chunks(trace, 100), tmp_path / "i.ctr",
            info=trace.info, interner=interner,
        )
        assert columnar.num_unique == len(interner)
        blocks, _ = read_back(columnar)
        assert blocks.max() == columnar.num_unique - 1
        assert blocks.min() == 0
