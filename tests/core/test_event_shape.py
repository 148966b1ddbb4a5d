"""Event shape: every scheme's events are full eight-field AccessEvents.

The per-reference builders construct events through ``new_event`` /
``new_demotion`` (C-level ``tuple.__new__``), which does not check
arity: a builder that passes a seven-field tuple would get a
seven-field "AccessEvent" silently. Driving every registered scheme over
a short zipf trace catches that for every builder on its path.
"""

from __future__ import annotations

import pytest

from repro.core.events import AccessEvent, Demotion, new_demotion, new_event
from repro.hierarchy import available_schemes, make_scheme
from repro.workloads import zipf_trace

#: Three-level schemes of the Figure-6 grid, driven with a deep cascade.
FIGURE6_SCHEMES = ("indlru", "unilru", "ulc")

CASES = (
    [("single", name, (8, 32), 1) for name in available_schemes(False)]
    + [("single", name, (4, 8, 16), 1) for name in FIGURE6_SCHEMES]
    + [("multi", name, (8, 32), 3) for name in available_schemes(True)]
)


def _events(name, capacities, num_clients):
    scheme = make_scheme(name, list(capacities), num_clients)
    trace = zipf_trace(120, 1500, alpha=0.8, seed=11)
    return [
        scheme.access(index % num_clients, block)
        for index, block in enumerate(trace.blocks.tolist())
    ]


def _check_shape(event):
    assert type(event) is AccessEvent
    assert len(event) == len(AccessEvent._fields)
    assert isinstance(event.demotions, tuple)
    assert isinstance(event.evicted, tuple)
    for demotion in event.demotions:
        assert type(demotion) is Demotion
        assert len(demotion) == len(Demotion._fields)


@pytest.mark.parametrize(
    "structure,name,capacities,num_clients",
    CASES,
    ids=[f"{s}-{n}-{len(c)}L" for s, n, c, _ in CASES],
)
def test_every_event_has_every_field(structure, name, capacities, num_clients):
    events = _events(name, capacities, num_clients)
    for event in events:
        _check_shape(event)
    # The short trace must reach hits and misses for the check to bite.
    assert any(event.hit_level is None for event in events)
    assert any(event.hit_level is not None for event in events)


def test_demoting_schemes_emit_demotions():
    # The Demotion shape check above is vacuous for a scheme that never
    # demotes; the Figure-6 uniLRU and ULC must demote on this trace.
    for name in ("unilru", "ulc"):
        events = _events(name, (4, 8, 16), 1)
        assert any(event.demotions for event in events), name


def test_new_event_equals_positional_construction():
    fields = (7, 2, 3, True, 1, (Demotion(9, 1, 2),), (4, 5), 6)
    event = new_event(fields)
    assert event == AccessEvent(*fields)
    assert type(event) is AccessEvent
    assert event.control_messages == 6
    assert event.hit


def test_new_demotion_equals_positional_construction():
    demotion = new_demotion((9, 2, 3))
    assert demotion == Demotion(9, 2, 3)
    assert type(demotion) is Demotion
    assert (demotion.block, demotion.src, demotion.dst) == (9, 2, 3)
