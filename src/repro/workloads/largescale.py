"""Large single-client workloads for the Figure-6 experiments.

Equivalents of the paper's five single-client traces (Section 4.2):
``random``, ``zipf``, ``httpd`` (aggregated), ``dev1`` and ``tpcc1``.
Universe sizes default to 1/16 of the paper's (the experiments shrink the
caches by the same factor, preserving every cache:data-set ratio), and
reference counts are scaled down ~100x; see DESIGN.md for the
substitution rationale.

Paper geometry (8 KB blocks):

================  ==============  ============  ===================
trace             data set        references    pattern
================  ==============  ============  ===================
random            512 MB (64 Ki)  ~65 M         uniform
zipf              768 MB (96 Ki)  ~98 M         zipf(1)
httpd             524 MB          ~1.5 M        zipf + temporal, 7 streams
dev1              ~600 MB         ~100 K        desktop mixture
tpcc1             ~256 MB         ~3.9 M        looping + index zipf
================  ==============  ============  ===================
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.util.rng import derive_seed
from repro.workloads.base import Trace
from repro.workloads.multiclient import httpd_like
from repro.workloads.synthetic import (
    interleaved_trace,
    looping_trace,
    random_trace,
    sequential_trace,
    temporal_trace,
    zipf_trace,
)

#: Paper universe sizes in 8 KB blocks.
PAPER_BLOCKS = {
    "random": 65536,
    "zipf": 98304,
    "httpd": 67072,
    "dev1": 76800,
    "tpcc1": 32768,
}

#: Default down-scaling of block universes (and cache sizes) vs the paper.
DEFAULT_GEOMETRY_SCALE = 1.0 / 16.0


def _universe(trace: str, scale: float) -> int:
    return max(64, int(PAPER_BLOCKS[trace] * scale))


def random_large(
    scale: float = DEFAULT_GEOMETRY_SCALE,
    num_refs: int = 400_000,
    seed: int = 201,
) -> Trace:
    """Large uniform-random workload (the paper's synthetic ``random``)."""
    return random_trace(_universe("random", scale), num_refs, seed=seed, name="random")


def zipf_large(
    scale: float = DEFAULT_GEOMETRY_SCALE,
    num_refs: int = 400_000,
    seed: int = 202,
) -> Trace:
    """Large Zipf workload (the paper's synthetic ``zipf``)."""
    return zipf_trace(
        _universe("zipf", scale),
        num_refs,
        alpha=1.0,
        seed=seed,
        shuffle_ranks=True,
        name="zipf",
    )


def httpd_like_single(
    scale: float = DEFAULT_GEOMETRY_SCALE,
    num_refs: int = 400_000,
    seed: int = 203,
) -> Trace:
    """``httpd`` aggregated into one stream, as in the paper's Figure 6.

    Built from the same 7-client generator used for Figure 7 and merged
    in request-time order.
    """
    return httpd_like(scale=scale, num_refs=num_refs, seed=seed).aggregate(
        name_suffix=""
    )


def dev1_like(
    scale: float = DEFAULT_GEOMETRY_SCALE,
    num_refs: int = 100_000,
    seed: int = 204,
) -> Trace:
    """``dev1`` equivalent: 15 days of desktop I/O.

    Mixture of (a) a small hot working set touched with strong temporal
    locality (editor/compiler/desktop files), (b) sequential whole-file
    reads, and (c) occasional wide scans over a large mostly-cold set
    (backups, indexing) — giving the large-set/small-reuse profile of a
    desktop trace.
    """
    universe = _universe("dev1", scale)
    hot = max(32, universe // 40)
    hot_stream = temporal_trace(
        hot,
        max(1, int(num_refs * 0.6)),
        mean_depth=hot / 12.0,
        seed=derive_seed(seed, "hot"),
        name="dev1-hot",
    )
    files = sequential_trace(
        max(64, universe // 3),
        max(1, int(num_refs * 0.25)),
        base_block=hot,
        name="dev1-files",
    )
    scans = looping_trace(
        universe - hot,
        max(1, int(num_refs * 0.15)),
        jitter=0.05,
        seed=derive_seed(seed, "scan"),
        base_block=hot,
        name="dev1-scan",
    )
    return interleaved_trace(
        [hot_stream, files, scans],
        weights=[0.6, 0.25, 0.15],
        seed=derive_seed(seed, "mix"),
        name="dev1",
    )


def tpcc1_like(
    scale: float = DEFAULT_GEOMETRY_SCALE,
    num_refs: int = 400_000,
    seed: int = 205,
) -> Trace:
    """``tpcc1`` equivalent: TPC-C on Postgres.

    Dominated by looping table/index scans over the warehouse data
    (loop distance larger than any single cache level — the pattern that
    drives uniLRU to a 100% first-boundary demotion rate in Figure 6),
    mixed with a Zipf-like stream of B-tree hot pages.
    """
    universe = _universe("tpcc1", scale)
    # The dominant scan loop sits between one and two cache levels deep
    # (the paper's Figure 6: uniLRU serves 92.5% of tpcc1 from L2): with
    # 50 MB levels over a 256 MB set, that is ~0.2-0.39 of the universe.
    loop_span = int(universe * 0.32)
    index_span = universe - loop_span
    scans = looping_trace(
        loop_span,
        max(1, int(num_refs * 0.85)),
        jitter=0.01,
        seed=derive_seed(seed, "scan"),
        name="tpcc1-scan",
    )
    index = zipf_trace(
        index_span,
        max(1, int(num_refs * 0.15)),
        alpha=1.1,
        seed=derive_seed(seed, "index"),
        base_block=loop_span,
        name="tpcc1-index",
    )
    return interleaved_trace(
        [scans, index],
        weights=[0.85, 0.15],
        seed=derive_seed(seed, "mix"),
        name="tpcc1",
    )


LARGE_WORKLOADS: Dict[str, Callable[..., Trace]] = {
    "random": random_large,
    "zipf": zipf_large,
    "httpd": httpd_like_single,
    "dev1": dev1_like,
    "tpcc1": tpcc1_like,
}


def make_large_workload(
    name: str,
    scale: float = DEFAULT_GEOMETRY_SCALE,
    num_refs: Optional[int] = None,
    seed: Optional[int] = None,
) -> Trace:
    """Build one of the five Figure-6 workloads by name.

    ``num_refs`` and ``seed`` are forwarded only when set, so each
    generator otherwise keeps its own default length and seed.
    """
    try:
        factory = LARGE_WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown large workload {name!r}; available: {sorted(LARGE_WORKLOADS)}"
        ) from None
    kwargs: Dict[str, int] = {}
    if num_refs is not None:
        kwargs["num_refs"] = num_refs
    if seed is not None:
        kwargs["seed"] = seed
    return factory(scale=scale, **kwargs)
