"""LIRS replacement — Jiang & Zhang, SIGMETRICS 2002.

LIRS (Low Inter-reference Recency Set) is the same authors' single-level
algorithm whose *last locality distance* idea the ULC paper generalises to
hierarchies (Section 5: "This single-level cache replacement motivates us
to investigate if the last locality distance, LLD, can be effectively
used to exploit hierarchical locality"). It is included both as an extra
baseline and because implementing it validates our reading of the LLD
machinery.

State:

- Stack ``S`` holds LIR blocks, resident HIR blocks and a bounded number
  of non-resident HIR blocks, ordered by recency.
- Queue ``Q`` holds the resident HIR blocks; its oldest entry is the
  eviction victim.
- ``S`` and ``Q`` are ``OrderedDict`` s of block -> entry, oldest (the
  stack bottom / queue victim) first; each entry records whether it sits
  in ``S`` and in ``Q``.
- The cache is split into ``capacity - hir_size`` LIR slots and
  ``hir_size`` HIR slots (``hir_size`` ~1% of capacity, at least 1).
- Stack pruning keeps an LIR block at the bottom of ``S``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_finite, check_positive

_LIR = "LIR"
_HIR_RESIDENT = "HIRr"
_HIR_NONRESIDENT = "HIRn"


class _LirsEntry:
    __slots__ = ("block", "state", "in_stack", "in_queue")

    def __init__(self, block: Block, state: str) -> None:
        self.block = block
        self.state = state
        self.in_stack = False
        self.in_queue = False


class LIRSPolicy(ReplacementPolicy):
    """LIRS with configurable HIR fraction and ghost budget.

    Args:
        capacity: total resident blocks.
        hir_fraction: fraction of capacity assigned to resident HIR
            blocks (default 0.05; at least one slot either way).
        ghost_factor: bound on non-resident HIR entries kept in stack S,
            as a multiple of capacity (default 2.0).
    """

    name = "lirs"

    def __init__(
        self,
        capacity: int,
        hir_fraction: float = 0.05,
        ghost_factor: float = 2.0,
    ) -> None:
        super().__init__(capacity)
        if not 0 < hir_fraction < 1:
            raise ConfigurationError(
                f"hir_fraction must be in (0, 1), got {hir_fraction!r}"
            )
        check_positive("ghost_factor", ghost_factor)
        check_finite("ghost_factor", ghost_factor)
        self.hir_size = max(1, int(round(capacity * hir_fraction)))
        if self.hir_size >= capacity:
            self.hir_size = max(1, capacity - 1) if capacity > 1 else 1
        self.lir_size = max(1, capacity - self.hir_size)
        self.ghost_limit = max(1, int(capacity * ghost_factor))
        self._stack: "OrderedDict[Block, _LirsEntry]" = OrderedDict()
        self._queue: "OrderedDict[Block, _LirsEntry]" = OrderedDict()
        self._entries: Dict[Block, _LirsEntry] = {}
        self._lir_count = 0
        self._ghost_count = 0

    # -- bookkeeping ----------------------------------------------------------

    def _resident_count(self) -> int:
        return self._lir_count + len(self._queue)

    def __contains__(self, block: Block) -> bool:
        entry = self._entries.get(block)
        return entry is not None and entry.state != _HIR_NONRESIDENT

    def __len__(self) -> int:
        return self._resident_count()

    def _stack_push(self, entry: _LirsEntry) -> None:
        """Put ``entry`` on top of ``S`` (moving it if already there)."""
        if entry.in_stack:
            self._stack.move_to_end(entry.block)
        else:
            self._stack[entry.block] = entry
            entry.in_stack = True

    def _stack_remove(self, entry: _LirsEntry) -> None:
        if entry.in_stack:
            del self._stack[entry.block]
            entry.in_stack = False

    def _queue_push(self, entry: _LirsEntry) -> None:
        """Put ``entry`` at the newest end of ``Q`` (moving it if queued)."""
        if entry.in_queue:
            self._queue.move_to_end(entry.block)
        else:
            self._queue[entry.block] = entry
            entry.in_queue = True

    def _queue_remove(self, entry: _LirsEntry) -> None:
        if entry.in_queue:
            del self._queue[entry.block]
            entry.in_queue = False

    def _drop_entry(self, entry: _LirsEntry) -> None:
        self._stack_remove(entry)
        self._queue_remove(entry)
        del self._entries[entry.block]

    # repro: bound O(1) amortized -- each popped HIR entry was pushed
    # onto the LIRS stack exactly once, so pruning is prepaid
    def _prune_stack(self) -> None:
        """Remove HIR entries from the stack bottom until a LIR block (or
        nothing) remains at the bottom; demote that LIR block if it was
        just exposed by the caller."""
        stack = self._stack
        while stack:
            entry = next(iter(stack.values()))
            if entry.state == _LIR:
                return
            del stack[entry.block]
            entry.in_stack = False
            if entry.state == _HIR_NONRESIDENT:
                self._ghost_count -= 1
                del self._entries[entry.block]
            # Resident HIR entries stay tracked via the queue.

    # repro: bound O(n) amortized -- the bottom-up walk removes ghosts
    # beyond the limit; each removed ghost was inserted once
    def _enforce_ghost_limit(self) -> None:
        excess = self._ghost_count - self.ghost_limit
        if excess <= 0:
            return
        stack = self._stack
        doomed: List[_LirsEntry] = []
        for entry in stack.values():
            if entry.state == _HIR_NONRESIDENT:
                doomed.append(entry)
                if len(doomed) == excess:
                    break
        for entry in doomed:
            del stack[entry.block]
            entry.in_stack = False
            del self._entries[entry.block]
        self._ghost_count -= len(doomed)
        self._prune_stack()

    def _evict_hir_victim(self) -> Block:
        """Evict the oldest resident HIR block.

        If every resident block is LIR (possible for degenerate
        capacities such as 1), the LIR stack bottom is demoted to HIR
        first so there is always a queue victim.
        """
        if not self._queue:
            self._demote_lir_bottom()
        if not self._queue:
            raise ProtocolError("LIRS eviction with empty HIR queue")
        entry = self._queue.popitem(last=False)[1]
        entry.in_queue = False
        if entry.in_stack:
            entry.state = _HIR_NONRESIDENT
            self._ghost_count += 1
            self._enforce_ghost_limit()
        else:
            del self._entries[entry.block]
        return entry.block

    def _demote_lir_bottom(self) -> None:
        """Turn the bottom-most LIR block of the stack into a resident HIR
        block.

        ``remove()`` can leave HIR entries below every LIR block (the
        stack is only pruned lazily), so tolerate a non-LIR bottom by
        pruning it away first.
        """
        self._prune_stack()
        if not self._stack:
            raise ProtocolError("LIRS demotion with no LIR block in stack")
        entry = next(iter(self._stack.values()))
        if entry.state != _LIR:
            raise ProtocolError("LIRS stack bottom is not LIR after pruning")
        self._stack_remove(entry)
        entry.state = _HIR_RESIDENT
        self._lir_count -= 1
        self._queue_push(entry)
        self._prune_stack()

    # -- ReplacementPolicy interface -------------------------------------------

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        entry = self._entries[block]
        if entry.state == _LIR:
            was_bottom = next(iter(self._stack)) == block
            self._stack_push(entry)
            if was_bottom:
                self._prune_stack()
            return
        # Resident HIR hit.
        if entry.in_stack:
            # In stack: promote to LIR; demote the LIR bottom to HIR.
            self._stack_push(entry)
            self._queue_remove(entry)
            entry.state = _LIR
            self._lir_count += 1
            if self._lir_count > self.lir_size:
                self._demote_lir_bottom()
        else:
            # Not in stack: stays HIR, moves to queue MRU, re-enters stack.
            self._queue_push(entry)
            self._stack_push(entry)

    def insert(self, block: Block) -> List[Block]:
        entry = self._entries.get(block)
        if entry is not None and entry.state != _HIR_NONRESIDENT:
            raise ProtocolError(f"block {block!r} is already resident in lirs")
        evicted: List[Block] = []
        if self._resident_count() >= self.capacity:
            evicted.append(self._evict_hir_victim())
            # The eviction may have pushed the ghost list over its limit
            # and trimmed the very ghost being promoted — re-fetch it.
            entry = self._entries.get(block)

        if entry is not None:
            # Ghost hit: small inter-reference recency, promote to LIR.
            self._ghost_count -= 1
            self._stack_push(entry)
            entry.state = _LIR
            self._lir_count += 1
            if self._lir_count > self.lir_size:
                self._demote_lir_bottom()
            return evicted

        entry = _LirsEntry(block, _LIR)
        self._entries[block] = entry
        if self._lir_count < self.lir_size:
            # Cold start: fill the LIR set first.
            entry.state = _LIR
            self._lir_count += 1
            self._stack_push(entry)
        else:
            entry.state = _HIR_RESIDENT
            self._stack_push(entry)
            self._queue_push(entry)
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        entry = self._entries[block]
        if entry.state == _LIR:
            self._lir_count -= 1
            self._drop_entry(entry)
            self._prune_stack()
        else:
            self._drop_entry(entry)

    # repro: bound O(n) -- pure prediction: the degenerate all-LIR
    # case walks the stack snapshot without pruning it
    def victim(self) -> Optional[Block]:
        if not self.full:
            return None
        if self._queue:
            return next(iter(self._queue))
        # Degenerate: all resident blocks are LIR (can happen transiently
        # for capacity 1); the next eviction demotes the bottom-most LIR
        # block, so peek that.  Pure walk: skip unpruned HIR entries.
        for block, entry in self._stack.items():
            if entry.state == _LIR:
                return block
        return None

    def resident(self) -> Iterator[Block]:
        for block, entry in list(self._entries.items()):
            if entry.state != _HIR_NONRESIDENT:
                yield block

    def check_invariants(self) -> None:
        super().check_invariants()
        lir = hir_resident = ghosts = 0
        for block, entry in self._entries.items():
            if entry.block != block:
                raise ProtocolError(f"lirs: entry keyed {block!r} holds {entry.block!r}")
            if entry.state == _LIR:
                lir += 1
                if not entry.in_stack:
                    raise ProtocolError(f"lirs: LIR block {block!r} not in stack")
                if entry.in_queue:
                    raise ProtocolError(f"lirs: LIR block {block!r} in HIR queue")
            elif entry.state == _HIR_RESIDENT:
                hir_resident += 1
                if not entry.in_queue:
                    raise ProtocolError(f"lirs: resident HIR block {block!r} not in queue")
            elif entry.state == _HIR_NONRESIDENT:
                ghosts += 1
                if not entry.in_stack:
                    raise ProtocolError(f"lirs: ghost {block!r} not in stack")
                if entry.in_queue:
                    raise ProtocolError(f"lirs: ghost {block!r} in HIR queue")
            else:
                raise ProtocolError(f"lirs: block {block!r} has state {entry.state!r}")
        if lir != self._lir_count:
            raise ProtocolError(
                f"lirs: lir_count {self._lir_count} != {lir} LIR entries"
            )
        if ghosts != self._ghost_count:
            raise ProtocolError(
                f"lirs: ghost_count {self._ghost_count} != {ghosts} ghost entries"
            )
        if ghosts > self.ghost_limit:
            raise ProtocolError(
                f"lirs: {ghosts} ghosts exceed limit {self.ghost_limit}"
            )
        if hir_resident != len(self._queue):
            raise ProtocolError(
                f"lirs: queue length {len(self._queue)} != "
                f"{hir_resident} resident HIR entries"
            )
        for name, members in (("stack", self._stack), ("queue", self._queue)):
            for block, entry in members.items():
                if self._entries.get(block) is not entry:
                    raise ProtocolError(
                        f"lirs: {name} holds {block!r} with a stale entry"
                    )
        tracked = sum(1 for e in self._entries.values() if e.in_stack)
        if len(self._stack) != tracked:
            raise ProtocolError(
                f"lirs: stack length {len(self._stack)} != {tracked} "
                f"entries flagged in stack"
            )

    # -- introspection ---------------------------------------------------------

    def state_of(self, block: Block) -> Optional[str]:
        """``"LIR"``, ``"HIRr"``, ``"HIRn"`` or ``None`` (untracked)."""
        entry = self._entries.get(block)
        return entry.state if entry is not None else None
