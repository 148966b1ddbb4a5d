"""The single-client ULC protocol engine (paper Section 3.2.1).

The engine runs at the client (level 1) and directs the whole hierarchy:
for every reference it decides which level should cache the block
(``Retrieve(b, i, j)``) and which blocks must move down to make room
(``Demote(b, i, i+1)``), based on the block's position in the
uniLRUstack relative to the yardsticks.

Decision rule for a reference to block ``b`` with level status ``L_i``
and recency status ``R_j`` (the paper guarantees ``i >= j``):

- ``i == j``: the block stays where it is (``Retrieve(b, i, i)``); its
  stack entry moves to the top.
- ``i > j``: the block's last locality distance says it belongs at the
  higher level ``j`` (``Retrieve(b, i, j)``); one slot must be freed at
  level ``j``, which demotes yardstick blocks down the chain
  ``j -> j+1 -> ...`` until the slot vacated at level ``i`` absorbs the
  cascade (demotion out of the last level is an eviction).
- not tracked (first access or long-since pruned): ``L_out``; while some
  level still has spare capacity the block fills the highest such level,
  otherwise it is not cached at all and passes through the client's
  small tempLRU buffer.

The engine only manipulates metadata and emits :class:`AccessEvent`s;
costs are attached later by the simulator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.events import AccessEvent, Demotion
from repro.core.stack import UniLRUStack
from repro.errors import ConfigurationError
from repro.policies.base import Block
from repro.policies.lru import LRUPolicy
from repro.util.validation import check_int, check_non_negative


class ULCClient:
    """Client-resident engine implementing single-client ULC.

    Args:
        capacities: block capacity of each level, client first.
        templru_capacity: size of the client's tempLRU buffer holding
            passing-through blocks (those not cached at level 1). The
            paper only calls it "small"; 16 blocks is our default.
        max_metadata: optional bound on uniLRUstack entries (Section 5
            metadata trimming).
    """

    def __init__(
        self,
        capacities: Sequence[int],
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        check_int("templru_capacity", templru_capacity)
        check_non_negative("templru_capacity", templru_capacity)
        self.stack = UniLRUStack(capacities, max_size=max_metadata)
        self.capacities = self.stack.capacities
        self.num_levels = self.stack.num_levels
        self._temp: Optional[LRUPolicy] = (
            LRUPolicy(templru_capacity) if templru_capacity > 0 else None
        )

    # -- queries -------------------------------------------------------------

    def cached_level(self, block: Block) -> Optional[int]:
        """Level currently holding ``block`` (``None`` if uncached)."""
        node = self.stack.lookup(block)
        if node is None or node.level == self.stack.out_level:
            return None
        return node.level

    def resident_blocks(self, level: int) -> List[Block]:
        """Blocks cached at ``level`` (most recently ranked first)."""
        return self.stack.level_blocks(level)

    # -- the protocol ----------------------------------------------------------

    def access(self, block: Block, client: int = 0) -> AccessEvent:  # repro: hot
        """Process one reference and return the resulting event.

        This is the hottest function in the library: the whole
        per-reference protocol is fused into one frame with locals bound
        once, and events are built positionally (field order is part of
        the :class:`AccessEvent` contract). The logic is exactly the
        decision rule from the module docstring.
        """
        stack = self.stack
        temp = self._temp
        node = stack._nodes.get(block)
        in_temp = temp is not None and block in temp

        if node is None:
            event = self._access_untracked(block, client, in_temp)
        else:
            out = stack.out_level
            level_status = node.level  # i
            region = stack.recency_region(node)  # j

            # The stack construction guarantees i >= j for cached blocks
            # (see UniLRUStack docs); for L_out blocks i is out_level.
            if region == out:
                # Re-reference of an uncached block whose recency fell
                # below every yardstick: behave like a fresh L_out block.
                fill_level = stack.first_unfilled_level()
                stack.touch(
                    node, fill_level if fill_level is not None else out
                )
                event = AccessEvent(
                    block, client, 1 if in_temp else None, in_temp, fill_level
                )
            elif region == level_status:
                # i == j: the block stays at its level; no cascade runs
                # (its own slot absorbs its re-insertion). Hits at the
                # cached level (or disk for an L_out block — unreachable
                # here since region < out implies level_status < out).
                stack.touch(node, region)
                event = AccessEvent(
                    block, client, 1 if in_temp else level_status, in_temp,
                    region,
                )
            else:
                # i > j: move the block up to level j; free one slot
                # there by demoting yardstick blocks down the chain until
                # the slot vacated at level i absorbs the cascade.
                hit_level = 1 if in_temp else (
                    None if level_status == out else level_status
                )
                demotions: List[Demotion] = []
                evicted: List[Block] = []
                stack.touch(node, region)
                level = region
                num_levels = self.num_levels
                capacities = self.capacities
                levels = stack._levels
                while (
                    level <= num_levels
                    and levels[level - 1].size > capacities[level - 1]
                ):
                    victim = stack.demote_tail(level)
                    demotions.append(Demotion(victim.block, level, level + 1))
                    if victim.level == out:
                        evicted.append(victim.block)
                    level += 1
                event = AccessEvent(
                    block, client, hit_level, in_temp, region,
                    tuple(demotions), tuple(evicted),
                )

        # Maintain the tempLRU holding blocks that pass through the
        # client without being cached at level 1.
        if temp is not None:
            if event.placed_level == 1:
                if in_temp:
                    temp.remove(block)
            elif in_temp:
                temp.touch(block)
            else:
                temp.insert(block)
        return event

    def _access_untracked(
        self, block: Block, client: int, in_temp: bool
    ) -> AccessEvent:
        """First access (or access after pruning): L_out / R_out."""
        fill_level = self.stack.first_unfilled_level()
        if fill_level is None:
            # All caches full: the block is not cached anywhere.
            self.stack.insert_new(block, self.stack.out_level)
        else:
            self.stack.insert_new(block, fill_level)
        return AccessEvent(
            block, client, 1 if in_temp else None, in_temp, fill_level
        )

    # -- diagnostics ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate the underlying stack invariants (tests)."""
        self.stack.check_invariants()
        for level in range(1, self.num_levels + 1):
            if self.stack.level_size(level) > self.capacities[level - 1]:
                raise ConfigurationError(
                    f"level {level} over capacity after access"
                )
