"""Shared machinery for the single-level policy stream fixture.

``tests/data/golden_policy_streams.json`` was produced by executing
:func:`collect_policy_streams` unchanged against the node-list / slab
implementations of the LRU family, ARC, 2Q, LFU and LIRS, before they
moved onto ``OrderedDict`` queues; the MQ, S3-FIFO, W-TinyLFU and LeCaR
streams were added the same way, recorded against their slab
implementations before those moved too.
``tests/core/test_policy_streams.py`` re-runs the same collection
against the current policies and requires identical digests.

Each stream records ``(access(block), victim())`` at every step of a
:data:`tests.core.golden_core.TRACES` trace; every
:data:`REMOVE_EVERY`-th step also ``remove()``\\ s the smallest resident
block, so explicit invalidation is pinned as well. ``check_invariants()``
runs at the end of every stream. One extra stream per trace drives
``LRUPolicy``'s scheme-facing extras (``touch``/``recency_order``,
``insert`` and ``insert_at_lru_end``).

Only public APIs are used, so the module keeps working as the
implementations underneath evolve.
"""

from __future__ import annotations

from typing import Dict, List

from tests.core.golden_core import _traces, stream_digest

#: Policies pinned by the fixture (registry names).
POLICIES = (
    "lru",
    "mru",
    "fifo",
    "clock",
    "arc",
    "2q",
    "lfu",
    "lirs",
    "mq",
    "s3fifo",
    "wtinylfu",
    "lecar",
)

#: Cache sizes: a tiny one (every step evicts) and a mid-size one.
CAPACITIES = (3, 128)

#: Every this-many steps the smallest resident block is removed.
REMOVE_EVERY = 97


def policy_stream(name: str, capacity: int, blocks: List[int]):
    """Digest of one policy's ``(access, victim)`` stream on ``blocks``."""
    from repro.policies import make_policy

    policy = make_policy(name, capacity)
    outcomes = []
    for step, block in enumerate(blocks, 1):
        outcomes.append((policy.access(block), policy.victim()))
        if step % REMOVE_EVERY == 0:
            policy.remove(min(policy.resident()))
    policy.check_invariants()
    return stream_digest(outcomes)


def lru_extras_stream(blocks: List[int], capacity: int = 128):
    """Digest of ``LRUPolicy`` driven through its scheme-facing extras.

    Hits ``touch`` and record the four most recent blocks; misses
    alternate between ``insert`` (MRU end) and ``insert_at_lru_end``
    (the adaptive-insertion hook of uniLRU).
    """
    from repro.policies import LRUPolicy
    from repro.policies.base import AccessResult

    policy = LRUPolicy(capacity)
    outcomes = []
    for step, block in enumerate(blocks):
        if block in policy:
            policy.touch(block)
            outcomes.append((AccessResult(hit=True), policy.recency_order()[:4]))
            continue
        if step % 2:
            evicted = policy.insert_at_lru_end(block)
        else:
            evicted = policy.insert(block)
        outcomes.append(
            (AccessResult(hit=False, evicted=evicted), policy.victim())
        )
    policy.check_invariants()
    return stream_digest(outcomes)


def collect_policy_streams() -> Dict[str, Dict[str, object]]:
    """The full golden document (what the committed fixture holds)."""
    streams: Dict[str, Dict[str, object]] = {}
    for trace_name, trace in _traces():
        blocks = trace.blocks.tolist()
        for name in POLICIES:
            for capacity in CAPACITIES:
                streams[f"{name}@{capacity}/{trace_name}"] = policy_stream(
                    name, capacity, blocks
                )
        streams[f"lru-extras/{trace_name}"] = lru_extras_stream(blocks)
    return streams
