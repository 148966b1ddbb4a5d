"""Multi-Queue (MQ) replacement — Zhou, Philbin & Li, USENIX 2001.

MQ was designed for *second-level* buffer caches, whose access streams
have had their recency skimmed off by the client cache. It maintains
``num_queues`` LRU queues Q0..Qm-1 plus a ghost queue Qout of recently
evicted block identities:

- A resident block with reference count ``f`` lives in queue
  ``min(log2(f), m-1)``.
- On every access the block moves to the MRU end of its queue and its
  ``expire_time`` is set to ``current_time + life_time``.
- ``Adjust()``: when the LRU block of a queue has expired, it is demoted
  one queue down (to the MRU end) and its timer restarts — this lets MQ
  respond to blocks that cool off.
- On eviction the victim is the LRU block of the lowest non-empty queue;
  its identity and reference count are remembered in Qout (FIFO), so a
  quick re-reference can re-enter a high queue.

Each queue Qk is an ``OrderedDict`` of block -> entry whose first key
is the LRU end, so a move, a demotion and an eviction are each one call
into the dict; Qout is an ``OrderedDict`` of block -> frequency.

This is the comparison scheme used in Figure 7 of the ULC paper (LRU at
the client, MQ at the server).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_int, check_non_negative, check_positive


class _MQEntry:
    __slots__ = ("block", "frequency", "expire_time", "queue_index")

    def __init__(self, block: Block, frequency: int) -> None:
        self.block = block
        self.frequency = frequency
        self.expire_time = 0
        self.queue_index = 0


class MQPolicy(ReplacementPolicy):
    """Multi-Queue replacement for second-level buffer caches.

    Args:
        capacity: cache size in blocks.
        num_queues: number of frequency queues (``m``; the paper uses 8).
        life_time: accesses a block may sit unreferenced in its queue
            before being demoted one queue down. Zhou et al. recommend the
            peak temporal distance; by default we use ``4 * capacity``
            which approximates that for the paper's workloads.
        ghost_capacity: Qout size in block identities; defaults to
            ``4 * capacity`` following the original evaluation.
    """

    name = "mq"

    def __init__(
        self,
        capacity: int,
        num_queues: int = 8,
        life_time: Optional[int] = None,
        ghost_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(capacity)
        check_int("num_queues", num_queues)
        check_positive("num_queues", num_queues)
        self.num_queues = num_queues
        self.life_time = life_time if life_time is not None else 4 * capacity
        check_int("life_time", self.life_time)
        check_positive("life_time", self.life_time)
        self.ghost_capacity = (
            ghost_capacity if ghost_capacity is not None else 4 * capacity
        )
        check_int("ghost_capacity", self.ghost_capacity)
        check_non_negative("ghost_capacity", self.ghost_capacity)
        # Qk: block -> entry, first key = LRU end, last key = MRU end.
        self._queues: "List[OrderedDict[Block, _MQEntry]]" = [
            OrderedDict() for _ in range(num_queues)
        ]
        self._entries: Dict[Block, _MQEntry] = {}
        # Qout: block -> frequency at eviction, FIFO order preserved.
        self._ghost: "OrderedDict[Block, int]" = OrderedDict()
        self._time = 0

    # -- plumbing -----------------------------------------------------------

    def _queue_for(self, frequency: int) -> int:
        index = max(0, frequency.bit_length() - 1)  # floor(log2(f))
        return min(index, self.num_queues - 1)

    def _enqueue(self, entry: _MQEntry) -> None:
        entry.queue_index = self._queue_for(entry.frequency)
        entry.expire_time = self._time + self.life_time
        self._queues[entry.queue_index][entry.block] = entry

    def _dequeue(self, block: Block) -> _MQEntry:
        entry = self._entries.pop(block)
        del self._queues[entry.queue_index][block]
        return entry

    # repro: bound O(1) amortized -- Zhou's Adjust(): each demotion
    # moves a block one queue down, prepaid by the promotion that
    # raised it
    def _adjust(self) -> None:
        """Demote expired LRU blocks one queue down (Zhou's Adjust())."""
        time = self._time
        queues = self._queues
        for index in range(1, self.num_queues):
            queue = queues[index]
            lower = queues[index - 1]
            while queue:
                entry = queue[next(iter(queue))]
                if entry.expire_time >= time:
                    break
                queue.popitem(last=False)
                entry.queue_index = index - 1
                entry.expire_time = time + self.life_time
                lower[entry.block] = entry

    # repro: bound O(1) amortized -- the ghost trim pops at most the
    # entries earlier calls pushed
    def _remember_ghost(self, block: Block, frequency: int) -> None:
        if self.ghost_capacity == 0:
            return
        ghost = self._ghost
        ghost.pop(block, None)
        ghost[block] = frequency
        while len(ghost) > self.ghost_capacity:
            ghost.popitem(last=False)

    # -- ReplacementPolicy interface ----------------------------------------

    def __contains__(self, block: Block) -> bool:
        return block in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        self._time += 1
        entry = self._entries[block]
        del self._queues[entry.queue_index][block]
        entry.frequency += 1
        self._enqueue(entry)
        self._adjust()

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        self._time += 1
        evicted: List[Block] = []
        if self.full:
            victim = self.victim()
            if victim is None:
                raise ProtocolError("MQ full but no victim available")
            entry = self._dequeue(victim)
            self._remember_ghost(victim, entry.frequency)
            evicted.append(victim)
        remembered = self._ghost.pop(block, 0)
        entry = _MQEntry(block, remembered + 1)
        self._entries[block] = entry
        self._enqueue(entry)
        self._adjust()
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        self._dequeue(block)

    def victim(self) -> Optional[Block]:
        if not self.full or not self._entries:
            return None
        for queue in self._queues:
            if queue:
                return next(iter(queue))
        return None  # pragma: no cover - unreachable

    def resident(self) -> Iterator[Block]:
        for queue in self._queues:
            yield from reversed(queue)

    # -- introspection for tests ---------------------------------------------

    def queue_of(self, block: Block) -> int:
        """Queue index a resident block currently sits in."""
        self._require_resident(block)
        return self._entries[block].queue_index

    def frequency_of(self, block: Block) -> int:
        """Reference count of a resident block."""
        self._require_resident(block)
        return self._entries[block].frequency

    def in_ghost(self, block: Block) -> bool:
        """Whether Qout currently remembers ``block``."""
        return block in self._ghost
