"""First-In First-Out replacement.

FIFO ignores references after insertion; it is included as a cheap
baseline and as the building block of the CLOCK approximation.

Structurally FIFO is LRU with the recency movement deleted: the same
slab queue (insert at the front, evict at the back), but :meth:`touch`
leaves the order alone. Subclassing :class:`~repro.policies.lru.LRUPolicy`
buys the flat-array kernel for free.
"""

from __future__ import annotations

from repro.policies.base import Block
from repro.policies.lru import LRUPolicy


class FIFOPolicy(LRUPolicy):
    """Evict the block that has been resident longest."""

    name = "fifo"

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        # FIFO position is fixed at insertion time.
