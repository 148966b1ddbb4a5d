"""``MetricsCollector.record_all`` against a tally written here.

The oracle below counts straight from the event fields, one event at a
time, with no code shared with the collector: hypothesis generates
streams of mixed-client events (hits at any level, misses, temp hits,
demotions that cross a boundary and demotions whose ``dst`` lies beyond
the last level — evictions, which are not demotions — evicted blocks
and control messages), and every counter the fold keeps must equal the
oracle's.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import AccessEvent, Demotion
from repro.sim.metrics import MetricsCollector

NUM_LEVELS = 3
NUM_CLIENTS = 3

demotions = st.builds(
    Demotion,
    block=st.integers(0, 50),
    src=st.integers(1, NUM_LEVELS),
    # dst up to two past the last level: both out-of-hierarchy values
    # are evictions.
    dst=st.integers(2, NUM_LEVELS + 2),
)

events = st.builds(
    AccessEvent,
    block=st.integers(0, 50),
    client=st.integers(0, NUM_CLIENTS - 1),
    hit_level=st.one_of(st.none(), st.integers(1, NUM_LEVELS)),
    served_from_temp=st.booleans(),
    placed_level=st.one_of(st.none(), st.integers(1, NUM_LEVELS)),
    demotions=st.lists(demotions, max_size=4).map(tuple),
    evicted=st.lists(st.integers(0, 50), max_size=3).map(tuple),
    control_messages=st.integers(0, 3),
)


def oracle(stream):
    """Every counter, tallied directly from the event fields."""
    tally = {
        "references": len(stream),
        "misses": 0,
        "level_hits": [0] * NUM_LEVELS,
        "boundary_demotions": [0] * NUM_LEVELS,
        "evictions": 0,
        "control_messages": 0,
        "temp_hits": 0,
        "per_client_refs": [0] * NUM_CLIENTS,
        "per_client_misses": [0] * NUM_CLIENTS,
        "per_client_demotions": [0] * NUM_CLIENTS,
    }
    for event in stream:
        tally["per_client_refs"][event.client] += 1
        if event.hit_level is None:
            tally["misses"] += 1
            tally["per_client_misses"][event.client] += 1
        else:
            tally["level_hits"][event.hit_level - 1] += 1
        tally["temp_hits"] += int(event.served_from_temp)
        crossing = [d for d in event.demotions if d.dst <= NUM_LEVELS]
        for demotion in crossing:
            tally["boundary_demotions"][demotion.src - 1] += 1
        tally["per_client_demotions"][event.client] += len(crossing)
        tally["evictions"] += len(event.evicted)
        tally["control_messages"] += event.control_messages
    return tally


def counters(metrics):
    return {key: getattr(metrics, key) for key in oracle([])}


@settings(max_examples=200, deadline=None)
@given(st.lists(events, max_size=40))
def test_fold_matches_oracle(stream):
    metrics = MetricsCollector(NUM_LEVELS, NUM_CLIENTS)
    metrics.record_all(stream)
    assert counters(metrics) == oracle(stream)


@settings(max_examples=100, deadline=None)
@given(st.lists(events, max_size=40), st.integers(0, 40))
def test_split_folds_equal_one_fold(stream, cut):
    # The engine folds once per chunk: folding a stream in two spans
    # (one of them from a generator, as the engine feeds it) must
    # accumulate exactly what one fold does.
    metrics = MetricsCollector(NUM_LEVELS, NUM_CLIENTS)
    metrics.record_all(stream[:cut])
    metrics.record_all(event for event in stream[cut:])
    assert counters(metrics) == oracle(stream)
