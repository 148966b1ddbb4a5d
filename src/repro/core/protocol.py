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

from collections import OrderedDict
from typing import List, Optional, Sequence

from repro.core.events import AccessEvent, Demotion, new_demotion, new_event
from repro.core.stack import UniLRUStack
from repro.errors import ConfigurationError
from repro.policies.base import Block
from repro.util.intlist import SENTINEL
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
        # The tempLRU: block -> None, LRU first; capacity 0 disables it
        # (the dict then stays empty).
        self._temp: "OrderedDict[Block, None]" = OrderedDict()
        self._temp_capacity = templru_capacity

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
        per-reference protocol — the recency-region scan included — is
        fused into one frame with locals bound once, and the event is
        built by :data:`~repro.core.events.new_event` from one tuple of
        all eight fields in field order. The logic is exactly the
        decision rule from the module docstring.
        """
        stack = self.stack
        temp = self._temp
        node = stack._nodes.get(block)
        in_temp = block in temp
        out = stack.out_level

        if node is None:
            # First access (or access after pruning): L_out / R_out.
            placed = stack.first_unfilled_level()
            stack.insert_new(block, out if placed is None else placed)
            event = new_event((
                block, client, 1 if in_temp else None, in_temp, placed,
                (), (), 0,
            ))
        else:
            level_status = node.level  # i
            # The recency region R_j: the first level whose yardstick
            # (its list tail) is at or below the node, else R_out.
            seq = node.seq
            node_at = stack._node_at
            region = 1  # j
            for lst in stack._levels:
                tail = lst.prev[SENTINEL]
                if (
                    tail != SENTINEL
                    and seq >= node_at[tail].seq  # type: ignore[union-attr]
                ):
                    break
                region += 1

            # The stack construction guarantees i >= j for cached blocks
            # (see UniLRUStack docs); for L_out blocks i is out_level.
            if region == out:
                # Re-reference of an uncached block whose recency fell
                # below every yardstick: behave like a fresh L_out block.
                placed = stack.first_unfilled_level()
                stack.touch(node, out if placed is None else placed)
                event = new_event((
                    block, client, 1 if in_temp else None, in_temp, placed,
                    (), (), 0,
                ))
            elif region == level_status:
                # i == j: the block stays at its level; no cascade runs
                # (its own slot absorbs its re-insertion).
                placed = region
                stack.touch(node, region)
                event = new_event((
                    block, client, 1 if in_temp else level_status, in_temp,
                    region, (), (), 0,
                ))
            else:
                # i > j: move the block up to level j; free one slot
                # there by demoting yardstick blocks down the chain until
                # the slot vacated at level i absorbs the cascade.
                placed = region
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
                    demotions.append(new_demotion((victim.block, level, level + 1)))
                    if victim.level == out:
                        evicted.append(victim.block)
                    level += 1
                event = new_event((
                    block, client, hit_level, in_temp, region,
                    tuple(demotions), tuple(evicted), 0,
                ))

        # Maintain the tempLRU holding blocks that pass through the
        # client without being cached at level 1.
        if placed == 1:
            if in_temp:
                del temp[block]
        elif in_temp:
            temp.move_to_end(block)
        elif self._temp_capacity:
            if len(temp) >= self._temp_capacity:
                temp.popitem(last=False)
            temp[block] = None
        return event

    # -- diagnostics ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate the underlying stack invariants (tests)."""
        self.stack.check_invariants()
        for level in range(1, self.num_levels + 1):
            if self.stack.level_size(level) > self.capacities[level - 1]:
                raise ConfigurationError(
                    f"level {level} over capacity after access"
                )
