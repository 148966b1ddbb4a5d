"""W-TinyLFU replacement — Einziger, Friedman & Manes, ACM ToS 2017.

The admission-controlled design behind Caffeine: a small *window* LRU
(~1% of capacity) absorbs bursts, and the main region is a segmented
LRU (probation + protected) guarded by the TinyLFU admission filter. A
block leaving the window duels the main region's next victim — it is
admitted only if its estimated frequency is higher, so one-hit wonders
never displace proven blocks.

Frequency lives in a small count-min sketch with saturating 4-bit-style
counters plus a *doorkeeper* set that absorbs first occurrences; every
``sample_size`` recorded references the sketch is halved and the
doorkeeper cleared (the aging scheme that keeps estimates fresh).

All three resident lists are slab lists over one shared
:class:`~repro.util.intlist.IntSlab`; hashing is ``zlib.crc32`` with
per-row salts, so estimates are deterministic across processes (no
reliance on randomised ``hash()``).
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.intlist import IntLinkedList, IntSlab
from repro.util.validation import check_fraction

#: Sketch counters saturate here (4 bits in Caffeine).
_COUNTER_MAX = 15

_WINDOW = "window"
_PROBATION = "probation"
_PROTECTED = "protected"

#: Block ids reach the sketch as Python ints and as numpy scalars (a
#: caller iterating a numpy array); both must hash to the same counters.
_INTEGRAL = (int, np.integer)


class _FrequencySketch:
    """Count-min sketch with halving decay and a doorkeeper set."""

    __slots__ = ("_width", "_mask", "_rows", "_door", "_ops", "_sample")

    _SALTS = (0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35, 0x27D4EB2F)

    def __init__(self, capacity: int) -> None:
        width = 16
        while width < 4 * capacity:
            width *= 2
        self._width = width
        self._mask = width - 1
        self._rows = [[0] * width for _ in self._SALTS]
        self._door: set = set()
        self._ops = 0
        self._sample = max(16, 10 * capacity)

    # repro: bound O(1) amortized -- the halving decay scans the sketch
    # once per sample window (>= 10x capacity references), so its cost
    # per recorded reference is a constant fraction of a counter
    def record(self, block: Block) -> None:
        """Count one reference to ``block`` (with doorkeeper + aging)."""
        if isinstance(block, _INTEGRAL):
            block = int(block)
        if block not in self._door:
            self._door.add(block)
        else:
            key = repr(block).encode()
            mask = self._mask
            rows = self._rows
            salts = self._SALTS
            row = rows[0]
            index = zlib.crc32(key, salts[0]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
            row = rows[1]
            index = zlib.crc32(key, salts[1]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
            row = rows[2]
            index = zlib.crc32(key, salts[2]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
            row = rows[3]
            index = zlib.crc32(key, salts[3]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
        self._ops += 1
        if self._ops >= self._sample:
            self._age()

    def _age(self) -> None:
        for row in self._rows:
            for index in range(self._width):
                row[index] >>= 1
        self._door.clear()
        self._ops = 0

    def estimate(self, block: Block) -> int:
        """Estimated reference count (pure)."""
        if isinstance(block, _INTEGRAL):
            block = int(block)
        key = repr(block).encode()
        mask = self._mask
        rows = self._rows
        salts = self._SALTS
        freq = rows[0][zlib.crc32(key, salts[0]) & mask]
        value = rows[1][zlib.crc32(key, salts[1]) & mask]
        if value < freq:
            freq = value
        value = rows[2][zlib.crc32(key, salts[2]) & mask]
        if value < freq:
            freq = value
        value = rows[3][zlib.crc32(key, salts[3]) & mask]
        if value < freq:
            freq = value
        return freq + 1 if block in self._door else freq


class WTinyLFUPolicy(ReplacementPolicy):
    """W-TinyLFU: window LRU + TinyLFU-admitted segmented-LRU main.

    Args:
        capacity: total resident blocks.
        window_fraction: share of capacity for the window (default
            0.01; at least one block).
        protected_fraction: share of the main region reserved for the
            protected segment (default 0.8).
    """

    name = "wtinylfu"

    def __init__(
        self,
        capacity: int,
        window_fraction: float = 0.01,
        protected_fraction: float = 0.8,
    ) -> None:
        super().__init__(capacity)
        check_fraction("window_fraction", window_fraction)
        check_fraction("protected_fraction", protected_fraction)
        self.window_target = max(1, int(capacity * window_fraction))
        if self.window_target > capacity:
            self.window_target = capacity  # pragma: no cover - defensive
        self.main_target = capacity - self.window_target
        self.protected_target = int(self.main_target * protected_fraction)
        self._slab = IntSlab()
        self._window = IntLinkedList(self._slab)
        self._probation = IntLinkedList(self._slab)
        self._protected = IntLinkedList(self._slab)
        self._lists = {
            _WINDOW: self._window,
            _PROBATION: self._probation,
            _PROTECTED: self._protected,
        }
        self._slots: Dict[Block, int] = {}
        self._block_at: List[Optional[Block]] = [None]
        self._region: List[str] = [""]
        self._sketch = _FrequencySketch(capacity)

    def __contains__(self, block: Block) -> bool:
        return block in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    # -- slab bookkeeping --------------------------------------------------

    def _alloc(self, block: Block, region: str) -> int:
        slot = self._slab.alloc()
        if slot == len(self._block_at):
            self._block_at.append(block)
            self._region.append(region)
        else:
            self._block_at[slot] = block
            self._region[slot] = region
        self._slots[block] = slot
        return slot

    def _release(self, slot: int) -> Block:
        block = self._block_at[slot]
        self._block_at[slot] = None
        self._region[slot] = ""
        self._slab.free(slot)
        del self._slots[block]
        return block

    # -- internals ---------------------------------------------------------

    def _main_victim_slot(self) -> Optional[int]:
        """Slot the main region would evict next (probation LRU first)."""
        if self._probation.size:
            return self._probation.tail
        if self._protected.size:
            return self._protected.tail
        return None

    def _demote_window_tail(self) -> Optional[Block]:
        """Move the window LRU into the main region through the TinyLFU
        admission duel; returns the evicted block, if any."""
        slot = self._window.pop_back()
        candidate = self._block_at[slot]
        if (
            self._probation.size + self._protected.size < self.main_target
        ):
            self._region[slot] = _PROBATION
            self._probation.push_front(slot)
            return None
        victim_slot = self._main_victim_slot()
        if victim_slot is None:
            # Degenerate split (main_target == 0): the candidate itself
            # is the eviction victim.
            return self._release(slot)
        victim_block = self._block_at[victim_slot]
        if self._sketch.estimate(candidate) > self._sketch.estimate(
            victim_block
        ):
            victim_list = self._lists[self._region[victim_slot]]
            victim_list.remove(victim_slot)
            evicted = self._release(victim_slot)
            self._region[slot] = _PROBATION
            self._probation.push_front(slot)
            return evicted
        return self._release(slot)

    # -- ReplacementPolicy interface ---------------------------------------

    def touch(self, block: Block) -> None:
        slot = self._slots.get(block)
        if slot is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        self._sketch.record(block)
        region = self._region[slot]
        if region == _WINDOW:
            self._window.move_to_front(slot)
            return
        if region == _PROTECTED:
            self._protected.move_to_front(slot)
            return
        # Probation hit: promote to protected, demoting its LRU back to
        # probation when the segment overflows.
        self._probation.remove(slot)
        self._region[slot] = _PROTECTED
        self._protected.push_front(slot)
        if self._protected.size > max(1, self.protected_target):
            demoted = self._protected.pop_back()
            self._region[demoted] = _PROBATION
            self._probation.push_front(demoted)

    # repro: bound O(1) amortized -- each window-overflow iteration
    # demotes one block that exactly one insertion pushed
    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        self._sketch.record(block)
        evicted: List[Block] = []
        window = self._window
        target = self.window_target
        window.push_front(self._alloc(block, _WINDOW))
        while window.size > target:
            victim = self._demote_window_tail()
            if victim is not None:
                evicted.append(victim)
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        slot = self._slots[block]
        self._lists[self._region[slot]].remove(slot)
        self._release(slot)

    def victim(self) -> Optional[Block]:
        """Approximate peek (ARC precedent): the block the admission
        duel would drop if a fresh block arrived now. Pure — reads the
        sketch without recording."""
        if not self.full:
            return None
        candidate_slot = self._window.tail
        if candidate_slot is None:
            slot = self._main_victim_slot()
            return self._block_at[slot] if slot is not None else None
        if self._probation.size + self._protected.size < self.main_target:
            # The window tail would slide into main without an eviction;
            # fall back to the main region's own victim. Unreachable
            # when full (main is at target then), but kept for safety.
            slot = self._main_victim_slot()  # pragma: no cover
            return (  # pragma: no cover
                self._block_at[slot] if slot is not None else None
            )
        victim_slot = self._main_victim_slot()
        if victim_slot is None:
            return self._block_at[candidate_slot]
        candidate = self._block_at[candidate_slot]
        victim_block = self._block_at[victim_slot]
        if self._sketch.estimate(candidate) > self._sketch.estimate(
            victim_block
        ):
            return victim_block
        return candidate

    def resident(self) -> Iterator[Block]:
        """Iterate window, then probation, then protected (MRU first)."""
        block_at = self._block_at
        for lst in (self._window, self._probation, self._protected):
            for slot in lst:
                block = block_at[slot]
                if block is not None:
                    yield block

    def check_invariants(self) -> None:
        super().check_invariants()
        for lst in self._lists.values():
            lst.check_invariants()
        total = sum(lst.size for lst in self._lists.values())
        if total != len(self._slots):
            raise ProtocolError(
                f"wtinylfu: lists hold {total} slots, index tracks "
                f"{len(self._slots)}"
            )
        if self._window.size > self.window_target:
            raise ProtocolError(
                f"wtinylfu: window holds {self._window.size} blocks, "
                f"target {self.window_target}"
            )
        if self._probation.size + self._protected.size > self.main_target:
            raise ProtocolError(
                f"wtinylfu: main region holds "
                f"{self._probation.size + self._protected.size} blocks, "
                f"target {self.main_target}"
            )
        for block, slot in self._slots.items():
            if self._block_at[slot] != block:
                raise ProtocolError(
                    f"wtinylfu: slot {slot} holds "
                    f"{self._block_at[slot]!r}, index says {block!r}"
                )
            region = self._region[slot]
            if region not in self._lists or not self._lists[region].linked(
                slot
            ):
                raise ProtocolError(
                    f"wtinylfu: block {block!r} not linked in its region "
                    f"{region!r}"
                )
