"""Golden equivalence for the single-level policies off the shared slab.

``tests/data/golden_policy_streams.json`` pins the ``(access, victim)``
stream of LRU, MRU, FIFO, CLOCK, ARC, 2Q, LFU, LIRS, MQ, S3-FIFO,
W-TinyLFU and LeCaR at two cache sizes on the two golden traces, with
periodic ``remove()`` calls and a final invariant check, plus
``LRUPolicy``'s ``recency_order`` / ``insert_at_lru_end`` extras (see
:mod:`tests.core.golden_policies`).
A changed tie-break or eviction order in any of their queues shows up as
a digest mismatch here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.core.golden_core import TRACES
from tests.core.golden_policies import (
    CAPACITIES,
    POLICIES,
    collect_policy_streams,
)

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_policy_streams.json"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return collect_policy_streams()


def test_fixture_covers_every_policy_size_and_trace(golden):
    assert len(golden) == len(TRACES) * (len(POLICIES) * len(CAPACITIES) + 1)
    for digest in golden.values():
        assert digest["events"] == 3000


def test_policy_streams_match_golden(golden, current):
    assert set(current) == set(golden)
    for name, digest in golden.items():
        assert current[name] == digest, f"{name}: policy stream diverged"
