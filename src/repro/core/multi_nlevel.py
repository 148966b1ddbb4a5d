"""Multi-client ULC over an n-level hierarchy of shared caches.

The paper describes the multi-client protocol for one shared server
(Section 3.2.2). Real installations chain *several* shared tiers — file
server caches over a disk array's RAM — so this module generalises the
protocol to ``n`` levels: level 1 is private per client, levels 2..n are
shared caches, each running its own owner-tagged gLRU with delayed
eviction notices.

Generalisation rules (each reduces to the paper's design for n = 2):

- Placement: a client's recency region ``j`` directs caching at shared
  level ``j`` (``Retrieve(b, i, j)``); the fill rule tries levels top
  down, a shared level counting as unfilled while the client's own view
  of it is below the level's full size.
- Client demotions: promoting a block to the private cache demotes
  ``Y_1``'s block to shared level 2, anchored at its recency rank among
  the owner's blocks (as in the 2-level protocol).
- Shared-tier demotions: when shared level ``k``'s gLRU evicts a block,
  the block *demotes into level k+1*'s gLRU (a physical transfer down
  the SAN — priced by the cost model) instead of vanishing; eviction
  from the bottom shared level drops the block. Either way the owner is
  notified lazily and adjusts its view (the node's level status moves to
  ``k+1`` or ``L_out``).
- A client believing a block sits at level ``k`` may be stale (the block
  demoted or evicted under another owner); the retrieve simply finds the
  block lower (or misses to disk) and the client's own direction repairs
  the state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.events import AccessEvent, Demotion, new_demotion, new_event
from repro.core.multi import ULCServer, _Eviction
from repro.core.stack import UniLRUStack
from repro.errors import ConfigurationError
from repro.policies.base import Block
from repro.policies.lru import LRUPolicy
from repro.util.validation import check_int, check_positive


class ULCSharedTier(ULCServer):
    """One shared cache level: an owner-tagged gLRU with notice queues.

    Identical to the 2-level server except that the caller may route its
    evictions into a lower tier instead of dropping them.
    """


class ULCMultiLevelClient:
    """One client's n-level engine over shared tiers."""

    def __init__(
        self,
        client_id: int,
        capacity: int,
        tiers: Sequence[ULCSharedTier],
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        self.client_id = client_id
        self.tiers = list(tiers)  # shared levels 2..n, top first
        capacities = [capacity] + [tier.capacity for tier in self.tiers]
        self.stack = UniLRUStack(capacities, max_size=max_metadata)
        self.capacity = capacity
        self.num_levels = len(capacities)
        self._temp: Optional[LRUPolicy] = (
            LRUPolicy(templru_capacity) if templru_capacity > 0 else None
        )

    def _tier(self, level: int) -> ULCSharedTier:
        return self.tiers[level - 2]

    # -- notice application ---------------------------------------------------

    def apply_notice(self, level: int, block: Block, demoted: bool) -> None:
        """A shared tier evicted ``block`` we own: it moved down one
        level (``demoted``) or left the hierarchy."""
        node = self.stack.lookup(block)
        if node is None or node.level != level:
            return  # stale: we re-ranked the block since
        if demoted and level < self.num_levels:
            self.stack.relocate(node, level + 1)
        else:
            self.stack.evict(node)

    # -- the per-reference protocol ----------------------------------------------

    def access(
        self, block: Block, count_notice_messages: int = 0
    ) -> AccessEvent:
        node = self.stack.lookup(block)
        in_temp = self._temp is not None and block in self._temp
        out = self.stack.out_level

        demotions: List[Demotion] = []

        if node is None:
            level_status = out
            region = out
        else:
            level_status = node.level
            region = self.stack.recency_region(node)

        # -- where is the block actually served from? ---------------------
        hit_level: Optional[int] = None
        if level_status == 1:
            hit_level = 1
        elif level_status != out:
            # The view may be stale: search from the believed level down.
            for level in range(level_status, self.num_levels + 1):
                if self._tier(level).peek(block):
                    hit_level = level
                    break

        # -- placement decision --------------------------------------------
        if region == out:
            placed = self._fill_level()
        else:
            placed = region

        if node is None:
            self.stack.insert_new(block, placed if placed is not None else out)
            node = self.stack.lookup(block)
        else:
            self.stack.touch(node, placed if placed is not None else out)

        # -- effects at the shared tiers ------------------------------------
        if placed is not None and placed >= 2:
            self._want_cached(placed, block, demotions)
        if (
            level_status != out
            and level_status >= 2
            and placed is not None
            and placed < level_status
        ):
            # The block left its old shared level per our direction.
            self._tier(level_status).release(block, self.client_id)

        # -- make room at the private cache -----------------------------------
        if placed == 1 and self.stack.level_size(1) > self.capacity:
            victim = self.stack.demote_tail(1)
            demotions.append(new_demotion((victim.block, 1, 2)))
            colder = self.stack.colder_neighbour(victim)
            warmer = self.stack.warmer_neighbour(victim)
            eviction = self._tier(2).want_cached_demoted(
                victim.block,
                self.client_id,
                colder.block if colder is not None else None,
                warmer.block if warmer is not None else None,
            )
            self._route_tier_eviction(2, eviction, demotions)

        if in_temp:
            hit_level = 1

        event = new_event((
            block, self.client_id, hit_level, in_temp, placed,
            tuple(demotions), (), count_notice_messages,
        ))
        self._maintain_temp(block, event)
        return event

    def _want_cached(
        self, level: int, block: Block, demotions: List[Demotion]
    ) -> None:
        eviction = self._tier(level).want_cached(block, self.client_id)
        self._route_tier_eviction(level, eviction, demotions)

    # repro: bound O(1) -- the demotion cascade descends at most
    # num_levels shared tiers (config-bounded)
    def _route_tier_eviction(
        self,
        level: int,
        eviction: Optional[_Eviction],
        demotions: List[Demotion],
    ) -> None:
        """An overflowing shared tier demotes its victim one tier down
        (cascading), or drops it from the bottom tier."""
        while eviction is not None:
            victim, owner = eviction.block, eviction.owner
            # The tier queued a plain eviction notice; the system layer
            # rewrites it as a demotion notice where applicable.
            if level >= self.num_levels:
                return  # fell out of the hierarchy
            demotions.append(new_demotion((victim, level, level + 1)))
            next_eviction = self._tier(level + 1).want_cached_demoted(
                victim, owner
            )
            level += 1
            eviction = next_eviction

    def _fill_level(self) -> Optional[int]:
        level_size = self.stack.level_size
        if level_size(1) < self.capacity:
            return 1
        for level in range(2, self.num_levels + 1):
            if level_size(level) < self._tier(level).capacity:
                return level
        return None

    def _maintain_temp(self, block: Block, event: AccessEvent) -> None:
        if self._temp is None:
            return
        if event.placed_level == 1:
            if block in self._temp:
                self._temp.remove(block)
            return
        if block in self._temp:
            self._temp.touch(block)
        else:
            self._temp.insert(block)

    def check_invariants(self) -> None:
        self.stack.check_invariants(enforce_capacity=False)
        if self.stack.level_size(1) > self.capacity:
            raise ConfigurationError(
                f"client {self.client_id} cache over capacity"
            )


class ULCMultiLevelSystem:
    """Complete multi-client system over n levels (private + shared tiers).

    Demoted-into-lower-tier blocks keep their owner; the owner learns of
    the level change with its next retrieval (piggybacked), like the
    2-level protocol's eviction notices.
    """

    def __init__(
        self,
        num_clients: int,
        client_capacity: int,
        shared_capacities: Sequence[int],
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        check_int("num_clients", num_clients)
        check_positive("num_clients", num_clients)
        if not shared_capacities:
            raise ConfigurationError("at least one shared tier is required")
        self.tiers = [ULCSharedTier(c) for c in shared_capacities]
        self.clients = [
            ULCMultiLevelClient(
                client_id,
                client_capacity,
                self.tiers,
                templru_capacity=templru_capacity,
                max_metadata=max_metadata,
            )
            for client_id in range(num_clients)
        ]
        self.num_levels = 1 + len(self.tiers)

    # repro: bound O(1) amortized -- each delivered notice was queued by
    # exactly one earlier tier eviction, so the drain cost is prepaid by
    # the evictions that produced the notices
    def _deliver_notices(self, engine: ULCMultiLevelClient) -> None:
        """Deliver pending notices from every tier. A block evicted from
        tier k was demoted into tier k+1 (unless k was the bottom): the
        client checks where it actually is and adjusts its view."""
        for level in range(2, self.num_levels + 1):
            tier = engine._tier(level)  # noqa: SLF001 - system layer
            for block_id in tier.collect_notices(client=engine.client_id):
                demoted = (
                    level < self.num_levels
                    and engine._tier(level + 1).peek(block_id)  # noqa: SLF001
                )
                engine.apply_notice(level, block_id, demoted)

    def access(self, client: int, block: Block) -> AccessEvent:
        if not 0 <= client < len(self.clients):
            raise ConfigurationError(
                f"client {client} out of range [0, {len(self.clients)})"
            )
        engine = self.clients[client]
        self._deliver_notices(engine)
        return engine.access(block)

    def check_invariants(self) -> None:
        for engine in self.clients:
            engine.check_invariants()
        for tier in self.tiers:
            if len(tier) > tier.capacity:
                raise ConfigurationError("shared tier over capacity")
