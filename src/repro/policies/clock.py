"""CLOCK (second-chance) replacement.

CLOCK approximates LRU with a circular scan and per-block reference bits;
it is what most operating systems actually run, so it serves as a
realistic stand-in for "the client's kernel page cache" in ablations.

The ring is the same flat-array slab queue as
:class:`~repro.policies.lru.LRUPolicy` (head = hand position, tail =
most recent insert) with the reference bits in a parallel array indexed
by slab slot. A hit only sets a bit — no splice.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block
from repro.policies.lru import LRUPolicy
from repro.util.intlist import SENTINEL


class CLOCKPolicy(LRUPolicy):
    """Second-chance replacement over a circular list of blocks.

    The hand sweeps from the oldest entry; entries with the reference bit
    set get the bit cleared and a second chance, the first entry found
    with a clear bit is evicted.
    """

    name = "clock"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        # Reference bit per slab slot (parallel to _block_at).
        self._refbit: List[bool] = [False]

    def _alloc(self, block: Block) -> int:
        slot = super()._alloc(block)
        if slot == len(self._refbit):
            self._refbit.append(False)
        else:
            self._refbit[slot] = False
        return slot

    def touch(self, block: Block) -> None:
        slot = self._slots.get(block)
        if slot is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        self._refbit[slot] = True

    # repro: bound O(1) amortized -- the hand sweep clears reference
    # bits; each cleared bit was set by one earlier hit
    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        stack = self._stack
        if len(self._slots) >= self.capacity:
            # Sweep the hand (ring head), clearing reference bits, to
            # the first second-chance-exhausted entry.
            refbit = self._refbit
            nxt = stack.next
            while True:
                head = nxt[SENTINEL]
                if head == SENTINEL:  # pragma: no cover - capacity >= 1
                    raise ProtocolError("clock sweep on empty ring")
                if refbit[head]:
                    refbit[head] = False
                    stack.move_to_back(head)
                else:
                    break
            stack.remove(head)
            evicted.append(self._release(head))
        stack.push_back(self._alloc(block))
        return evicted

    # repro: bound O(n) -- pure prediction: simulates the sweep over a
    # snapshot without clearing bits, so it cannot amortize
    def victim(self) -> Optional[Block]:
        """Predict the next eviction without moving the hand.

        The prediction simulates the sweep over a snapshot: the victim is
        the first entry (in hand order) with a clear reference bit, or the
        current hand position if every bit is set.
        """
        if not self.full or not self._stack.size:
            return None
        refbit = self._refbit
        block_at = self._block_at
        for slot in self._stack:
            if not refbit[slot]:
                return block_at[slot]
        return block_at[self._stack.next[SENTINEL]]
