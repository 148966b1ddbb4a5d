"""Least Recently Used replacement, plus an MRU variant.

LRU is the workhorse of the paper: the client policy in every scheme, the
per-level policy of indLRU, and the basis of uniLRU and of ULC's stacks.
All operations are O(1) over the flat-array slab list
(:mod:`repro.util.intlist`): a block maps to a slab slot, and the recency
stack is splices on ``prev``/``next`` integer arrays — no per-reference
node allocation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.intlist import SENTINEL, UNLINKED, IntLinkedList


class LRUPolicy(ReplacementPolicy):
    """Classic LRU: evict the block whose last reference is oldest."""

    name = "lru"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._stack = IntLinkedList()
        self._slots: Dict[Block, int] = {}
        self._block_at: List[Optional[Block]] = [None]

    def __contains__(self, block: Block) -> bool:
        return block in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def _alloc(self, block: Block) -> int:
        slot = self._stack.slab.alloc()
        if slot == len(self._block_at):
            self._block_at.append(block)
        else:
            self._block_at[slot] = block
        self._slots[block] = slot
        return slot

    def _release(self, slot: int) -> Block:
        block = self._block_at[slot]
        self._block_at[slot] = None
        self._stack.slab.free(slot)
        del self._slots[block]
        return block

    def touch(self, block: Block) -> None:
        slot = self._slots.get(block)
        if slot is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        # Inline move_to_front (kernel contract; hot path).
        stack = self._stack
        prv, nxt = stack.prev, stack.next
        if nxt[SENTINEL] == slot:
            return
        p, n = prv[slot], nxt[slot]
        nxt[p] = n
        prv[n] = p
        first = nxt[SENTINEL]
        prv[slot] = SENTINEL
        nxt[slot] = first
        prv[first] = slot
        nxt[SENTINEL] = slot

    def insert(self, block: Block) -> List[Block]:
        slots = self._slots
        if block in slots:
            self._require_absent(block)
        evicted: List[Block] = []
        stack = self._stack
        prv, nxt = stack.prev, stack.next
        if len(slots) >= self.capacity:
            # Inline pop_back of the eviction-end slot.
            tail = prv[SENTINEL]
            p = prv[tail]
            nxt[p] = SENTINEL
            prv[SENTINEL] = p
            prv[tail] = UNLINKED
            nxt[tail] = UNLINKED
            stack.size -= 1
            evicted.append(self._release(tail))
        slot = self._alloc(block)
        first = nxt[SENTINEL]
        prv[slot] = SENTINEL
        nxt[slot] = first
        prv[first] = slot
        nxt[SENTINEL] = slot
        stack.size += 1
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        slot = self._slots[block]
        self._stack.remove(slot)
        self._release(slot)

    def victim(self) -> Optional[Block]:
        if not self.full or not self._stack.size:
            return None
        return self._block_at[self._stack.prev[SENTINEL]]

    def resident(self) -> Iterator[Block]:
        """Iterate blocks from most to least recently used."""
        block_at = self._block_at
        for slot in self._stack:
            block = block_at[slot]
            if block is not None:
                yield block

    def check_invariants(self) -> None:
        """Slot index and stack must agree."""
        super().check_invariants()
        self._stack.check_invariants()
        if self._stack.size != len(self._slots):
            raise ProtocolError(
                f"{self.name}: stack size {self._stack.size} != "
                f"{len(self._slots)} indexed blocks"
            )
        for block, slot in self._slots.items():
            if self._block_at[slot] != block:
                raise ProtocolError(
                    f"{self.name}: slot {slot} holds "
                    f"{self._block_at[slot]!r}, index says {block!r}"
                )

    # -- extras used by the unified schemes --------------------------------

    def insert_at_lru_end(self, block: Block) -> List[Block]:
        """Insert ``block`` at the cold (eviction) end of the stack.

        Wong & Wilkes' adaptive multi-client insertion places demoted
        blocks of "cache-polluting" clients at the LRU end instead of the
        MRU end; this hook supports that variant.
        """
        self._require_absent(block)
        evicted: List[Block] = []
        if self.full:
            evicted.append(self._release(self._stack.pop_back()))
        self._stack.push_back(self._alloc(block))
        return evicted

    def recency_order(self) -> List[Block]:
        """Snapshot of blocks from MRU to LRU (O(n); tests/analysis)."""
        return list(self.resident())


class MRUPolicy(LRUPolicy):
    """Most Recently Used: evict the block referenced most recently.

    MRU is optimal for pure cyclic scans that exceed the cache size, which
    makes it a useful extra baseline for the looping workloads (``cs``,
    ``tpcc1``) discussed in the paper.
    """

    name = "mru"

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if self.full:
            evicted.append(self._release(self._stack.pop_front()))
        self._stack.push_front(self._alloc(block))
        return evicted

    def victim(self) -> Optional[Block]:
        if not self.full or not self._stack.size:
            return None
        return self._block_at[self._stack.next[SENTINEL]]
