"""2Q replacement — Johnson & Shasha, VLDB 1994.

2Q keeps fresh blocks in a FIFO probation queue ``A1in``; blocks
re-referenced *after* leaving probation (their identity remembered in
the ghost queue ``A1out``) are promoted to the main LRU ``Am``. One-shot
blocks therefore flow through ``A1in`` without ever polluting ``Am`` —
the same one-shot resistance motif the paper's low-level caches need.

Parameters follow the paper's "2Q, Full Version": ``Kin`` (A1in size)
defaults to 25% of the cache and ``Kout`` (A1out ghosts) to 50%.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_fraction

_A1IN = "a1in"
_AM = "am"


class TwoQPolicy(ReplacementPolicy):
    """The full 2Q algorithm."""

    name = "2q"

    def __init__(
        self,
        capacity: int,
        kin_fraction: float = 0.25,
        kout_fraction: float = 0.5,
    ) -> None:
        super().__init__(capacity)
        check_fraction("kin_fraction", kin_fraction)
        check_fraction("kout_fraction", kout_fraction)
        self.kin = max(1, int(capacity * kin_fraction))
        if self.kin >= capacity and capacity > 1:
            self.kin = capacity - 1
        self.kout = max(1, int(capacity * kout_fraction))
        # Each queue is oldest first, newest last.
        self._a1in: "OrderedDict[Block, None]" = OrderedDict()   # FIFO
        self._am: "OrderedDict[Block, None]" = OrderedDict()     # LRU
        self._where: Dict[Block, str] = {}  # block -> queue name
        self._a1out: "OrderedDict[Block, None]" = OrderedDict()  # ghosts

    def __contains__(self, block: Block) -> bool:
        return block in self._where

    def __len__(self) -> int:
        return len(self._where)

    # repro: bound O(1) amortized -- the A1out trim pops at most the
    # ghosts earlier evictions pushed
    def _evict_one(self) -> Block:
        """Reclaim per 2Q: prefer the oldest A1in block (remembering its
        ghost), otherwise the Am LRU block."""
        if len(self._a1in) > self.kin or not self._am:
            victim = self._a1in.popitem(last=False)[0]
            a1out = self._a1out
            a1out[victim] = None
            while len(a1out) > self.kout:
                a1out.popitem(last=False)
        else:
            victim = self._am.popitem(last=False)[0]
        del self._where[victim]
        return victim

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        if self._where[block] == _AM:
            self._am.move_to_end(block)
        # A hit in A1in leaves the block in place (2Q's defining rule:
        # correlated re-references inside probation prove nothing).

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if self.full:
            evicted.append(self._evict_one())
        if block in self._a1out:
            del self._a1out[block]
            self._am[block] = None
            self._where[block] = _AM
        else:
            self._a1in[block] = None
            self._where[block] = _A1IN
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        where = self._where.pop(block)
        del (self._am if where == _AM else self._a1in)[block]

    def victim(self) -> Optional[Block]:
        if not self.full:
            return None
        if len(self._a1in) > self.kin or not self._am:
            return next(iter(self._a1in))
        return next(iter(self._am))

    def resident(self) -> Iterator[Block]:
        yield from reversed(self._a1in)
        yield from reversed(self._am)

    def check_invariants(self) -> None:
        super().check_invariants()
        if len(self._a1out) > self.kout:
            raise ProtocolError(
                f"2q: {len(self._a1out)} ghosts exceed Kout={self.kout}"
            )
        if len(self._where) != len(self._a1in) + len(self._am):
            raise ProtocolError(
                f"2q: index tracks {len(self._where)} blocks, queues hold "
                f"{len(self._a1in) + len(self._am)}"
            )
        for block, name in self._where.items():
            if block not in (self._am if name == _AM else self._a1in):
                raise ProtocolError(
                    f"2q: index puts {block!r} in {name}, which lacks it"
                )
            if block in self._a1out:
                raise ProtocolError(f"2q: block {block!r} both resident and ghost")

    def in_ghost(self, block: Block) -> bool:
        """Whether A1out remembers ``block`` (tests)."""
        return block in self._a1out

    def queue_of(self, block: Block) -> str:
        """``"a1in"`` or ``"am"`` for a resident block (tests)."""
        self._require_resident(block)
        return self._where[block]
