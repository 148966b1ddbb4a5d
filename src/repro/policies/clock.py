"""CLOCK (second-chance) replacement.

CLOCK approximates LRU with a circular scan and per-block reference bits;
it is what most operating systems actually run, so it serves as a
realistic stand-in for "the client's kernel page cache" in ablations.

The ring is :class:`~repro.policies.lru.LRUPolicy`'s ``OrderedDict``
with the reference bit as each block's value: the first key is the hand
position, the last key the most recent insert. A hit only sets a bit —
no reordering.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.policies.base import Block
from repro.policies.lru import LRUPolicy


class CLOCKPolicy(LRUPolicy):
    """Second-chance replacement over a circular list of blocks.

    The hand sweeps from the oldest entry; entries with the reference bit
    set get the bit cleared and a second chance, the first entry found
    with a clear bit is evicted.
    """

    name = "clock"

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        self._order[block] = True

    # repro: bound O(1) amortized -- the hand sweep clears reference
    # bits; each cleared bit was set by one earlier hit
    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        order = self._order
        evicted: List[Block] = []
        if len(order) >= self.capacity:
            # Sweep the hand (ring head), clearing reference bits, to
            # the first second-chance-exhausted entry.
            while True:
                hand, referenced = order.popitem(last=False)
                if not referenced:
                    break
                order[hand] = False
            evicted.append(hand)
        order[block] = False
        return evicted

    # repro: bound O(n) -- pure prediction: simulates the sweep over a
    # snapshot without clearing bits, so it cannot amortize
    def victim(self) -> Optional[Block]:
        """Predict the next eviction without moving the hand.

        The prediction simulates the sweep over a snapshot: the victim is
        the first entry (in hand order) with a clear reference bit, or the
        current hand position if every bit is set.
        """
        if len(self._order) < self.capacity:
            return None
        for block, referenced in self._order.items():
            if not referenced:
                return block
        return next(iter(self._order))

    def resident(self) -> Iterator[Block]:
        """Iterate blocks in hand order (oldest insert first)."""
        return iter(self._order)
