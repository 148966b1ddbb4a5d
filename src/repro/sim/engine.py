"""The trace-driven simulation engine.

Feeds a :class:`~repro.workloads.base.Trace` (or any
:class:`~repro.workloads.io.StreamingTrace`) through a
:class:`~repro.hierarchy.base.MultiLevelScheme`, warming the hierarchy on
a leading fraction of the trace (the paper uses the first tenth) and
collecting metrics over the remainder.

:class:`Engine` is the one drive entry point: construct it with a scheme
(and a cost model for packaged results) and call :meth:`Engine.drive`
for a :class:`~repro.sim.results.RunResult` or :meth:`Engine.collect`
for the raw :class:`~repro.sim.metrics.MetricsCollector`. Every drive
— in-memory or streamed from disk — runs one chunked loop
(:func:`_drive`) over one per-reference span loop
(:func:`_span_scalar`): one ``scheme.access`` call per reference and,
past warm-up, one :meth:`~repro.sim.metrics.MetricsCollector.record_all`
fold per span over the events of :func:`_span_events`, so warm-up
handling and iteration order cannot diverge between sources.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

import numpy as np

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError
from repro.hierarchy.base import MultiLevelScheme
from repro.sim.costs import CostModel
from repro.sim.metrics import MetricsCollector
from repro.sim.results import ClientStats, RunResult
from repro.util.validation import check_fraction
from repro.workloads.base import Trace
from repro.workloads.io import DEFAULT_CHUNK_REFS, StreamingTrace, iter_chunks

#: The paper's warm-up fraction ("the first one tenth of block references").
DEFAULT_WARMUP = 0.1


# repro: hot
def _span_scalar(
    scheme: MultiLevelScheme,
    blocks_arr: np.ndarray,
    clients_arr: Optional[np.ndarray],
    warmup_local: int,
    metrics: MetricsCollector,
) -> None:
    """Feed one contiguous span of references through ``scheme``,
    recording every event from local index ``warmup_local`` onward.

    The span is one chunk of :func:`_drive` (``warmup_local`` is the
    global warm-up boundary clamped into the chunk — 0 once warm-up is
    behind us).

    Zero-allocation iteration: the column arrays are walked through
    ``memoryview`` s, which yield plain Python ints per element (dict-key
    speed, no NumPy scalar boxing) without materialising a list copy of
    the span. The span is split at the warm-up boundary: warm-up
    references are only accessed, and the measured ones stream from
    :func:`_span_events` through one
    :meth:`MetricsCollector.record_all` fold. A span without client
    annotations skips the client column entirely.
    """
    blocks = memoryview(blocks_arr)
    access = scheme.access
    if clients_arr is not None and clients_arr.any():
        clients: Optional[memoryview] = memoryview(clients_arr)
        for client, block in zip(
            clients[:warmup_local], blocks[:warmup_local]
        ):
            access(client, block)
        clients = clients[warmup_local:]
    else:
        clients = None
        for block in blocks[:warmup_local]:
            access(0, block)
    metrics.record_all(_span_events(scheme, clients, blocks[warmup_local:]))


# repro: hot
def _span_events(
    scheme: MultiLevelScheme,
    clients: Optional[memoryview],
    blocks: memoryview,
) -> Iterator[AccessEvent]:
    """The events of one measured span, one ``scheme.access`` per
    reference, generated lazily for :meth:`MetricsCollector.record_all`.

    A generator rather than ``map(access, ...)``: ``map`` saves ~20 ns
    per reference but hides the scheme dispatch from the flow call
    graph (``repro check --deep``/``--bounds``), and a generator
    expression inside :func:`_span_scalar` would be an allocation in a
    ``# repro: hot`` body (FLOW004).
    """
    access = scheme.access
    if clients is None:
        for block in blocks:
            yield access(0, block)
    else:
        for client, block in zip(clients, blocks):
            yield access(client, block)


# repro: bound O(n) amortized -- chunks partition the stream and
# each span loop visits every reference of its chunk once
def _drive(
    scheme: MultiLevelScheme,
    source: Union[Trace, StreamingTrace],
    warmup_fraction: float,
    metrics: MetricsCollector,
    chunk_size: int,
) -> int:
    """Feed ``source`` through ``scheme`` chunk by chunk, recording
    post-warm-up events into ``metrics``; returns the warm-up reference
    count.

    Each chunk goes through :func:`_span_scalar` with the global warm-up
    boundary clamped into the chunk (``warmup_local``), so the recorded
    counters do not depend on ``chunk_size`` — only peak memory does: at
    most one chunk of the reference stream is resident at a time (for an
    mmap-backed :class:`~repro.workloads.io.ColumnarTrace`, a zero-copy
    view of the page cache; an in-memory :class:`Trace` is sliced
    without copying).
    """
    check_fraction("warmup_fraction", warmup_fraction)
    warmup_count = int(len(source) * warmup_fraction)
    for chunk in iter_chunks(source, chunk_size):
        span = len(chunk.blocks)
        if span == 0:
            continue
        warmup_local = warmup_count - chunk.offset
        if warmup_local < 0:
            warmup_local = 0
        elif warmup_local > span:
            warmup_local = span
        _span_scalar(
            scheme, chunk.blocks, chunk.clients, warmup_local, metrics
        )
    return warmup_count


class Engine:
    """The unified drive entry point.

    One :class:`Engine` binds a scheme, an optional cost model and a
    warm-up fraction; every way of pushing a trace through a hierarchy
    (end-to-end runs, sweeps, tests on raw collectors) goes through
    :meth:`drive` or :meth:`collect`.

    Args:
        scheme: the hierarchy to drive.
        costs: cost model for packaged :class:`RunResult` s; optional
            when only :meth:`collect` is used.
        warmup_fraction: leading fraction of each trace that updates the
            caches but is excluded from every metric.
    """

    def __init__(
        self,
        scheme: MultiLevelScheme,
        costs: Optional[CostModel] = None,
        warmup_fraction: float = DEFAULT_WARMUP,
    ) -> None:
        check_fraction("warmup_fraction", warmup_fraction)
        self.scheme = scheme
        self.costs = costs
        self.warmup_fraction = warmup_fraction

    def drive(
        self,
        source: Union[Trace, StreamingTrace],
        *,
        chunk_size: int = DEFAULT_CHUNK_REFS,
    ) -> RunResult:
        """Drive ``source`` through the scheme; return the measured result.

        ``source`` is an in-memory :class:`Trace` or any
        :class:`~repro.workloads.io.StreamingTrace` (e.g. an on-disk
        :class:`~repro.workloads.io.ColumnarTrace`), consumed one
        ``chunk_size`` span at a time; the result does not depend on
        ``chunk_size``.
        """
        if self.costs is None:
            raise ConfigurationError(
                "Engine.drive needs a cost model: construct the Engine "
                "with costs=..., or use Engine.collect for raw counters"
            )
        metrics = MetricsCollector(
            self.scheme.num_levels, self.scheme.num_clients
        )
        warmup_count = _drive(
            self.scheme, source, self.warmup_fraction, metrics, chunk_size
        )
        return result_from_metrics(
            self.scheme.name,
            source.info.name,
            list(self.scheme.capacities),
            metrics,
            self.costs,
            warmup_count,
        )

    def collect(
        self,
        source: Union[Trace, StreamingTrace],
        *,
        chunk_size: int = DEFAULT_CHUNK_REFS,
    ) -> MetricsCollector:
        """Drive ``source`` and return the raw collector (tests,
        custom analyses). Same loop as :meth:`drive`."""
        metrics = MetricsCollector(
            self.scheme.num_levels, self.scheme.num_clients
        )
        _drive(
            self.scheme, source, self.warmup_fraction, metrics, chunk_size
        )
        return metrics


def result_from_metrics(
    scheme_name: str,
    workload_name: str,
    capacities: list,
    metrics: MetricsCollector,
    costs: CostModel,
    warmup_count: int,
) -> RunResult:
    """Package a collector's counters into a :class:`RunResult`.

    This is the *single* place the measured counters turn into reported
    rates and time components; :meth:`Engine.drive` and the analytic
    miss-ratio-curve engine (:mod:`repro.analysis.mrc`) both go through
    it, so a curve-derived result is arithmetically identical to a
    simulated one whenever the underlying counters agree. The time
    decomposition keeps the control-message share in its own
    ``t_message_ms`` field (``t_hit + t_miss + t_demotion + t_message ==
    t_ave`` exactly), matching :meth:`MetricsCollector.summary`.
    """
    num_levels = metrics.num_levels
    return RunResult(
        scheme=scheme_name,
        workload=workload_name,
        capacities=list(capacities),
        num_clients=metrics.num_clients,
        references=metrics.references,
        warmup_references=warmup_count,
        level_hit_rates=[
            metrics.hit_rate(level) for level in range(1, num_levels + 1)
        ],
        miss_rate=metrics.miss_rate,
        demotion_rates=[
            metrics.demotion_rate(boundary)
            for boundary in range(1, num_levels)
        ],
        t_ave_ms=metrics.average_access_time(costs),
        t_hit_ms=metrics.hit_time_component(costs),
        t_miss_ms=metrics.miss_time_component(costs),
        t_demotion_ms=metrics.demotion_time_component(costs),
        t_message_ms=metrics.message_time_component(costs),
        extras=_result_extras(metrics),
        per_client=_per_client_stats(metrics),
    )


def _per_client_stats(metrics: MetricsCollector) -> list:
    if metrics.num_clients <= 1:
        return []
    stats = []
    for client in range(metrics.num_clients):
        refs = metrics.per_client_refs[client]
        misses = metrics.per_client_misses[client]
        stats.append(
            ClientStats(
                client=client,
                refs=refs,
                hit_rate=(refs - misses) / refs if refs else 0.0,
                demotions=metrics.per_client_demotions[client],
            )
        )
    return stats


def _result_extras(metrics: MetricsCollector) -> dict:
    extras = {
        "temp_hits": float(metrics.temp_hits),
        "control_messages": float(metrics.control_messages),
        "evictions": float(metrics.evictions),
    }
    if metrics.num_clients > 1:
        # The stringly clientN_* keys duplicate the typed
        # RunResult.per_client entries. They stay because
        # RunResult.comparable() includes them and the committed golden
        # and benchmark digests hash comparable(); dropping them must
        # wait for a benchmark change that re-records those digests.
        for client in range(metrics.num_clients):
            refs = metrics.per_client_refs[client]
            misses = metrics.per_client_misses[client]
            extras[f"client{client}_refs"] = float(refs)
            extras[f"client{client}_hit_rate"] = (
                (refs - misses) / refs if refs else 0.0
            )
            extras[f"client{client}_demotions"] = float(
                metrics.per_client_demotions[client]
            )
    return extras

