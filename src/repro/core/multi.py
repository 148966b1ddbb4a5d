"""The multi-client ULC protocol (paper Section 3.2.2, Figure 5).

Multiple clients share one server cache. Each client runs its own
two-level ULC instance (its cache is level 1, the server is level 2);
the server keeps a single global LRU stack ``gLRU`` whose order is set by
the *caching requests* of all clients, which approximates dynamic
partitioning of the server buffers by working-set size (the paper cites
Cao/Felten/Li for global LRU approximating dynamic partition).

Key mechanisms implemented here:

- **Owner tags**: every gLRU entry records the client that most recently
  directed it to be cached; a block stays cached as long as the most
  recent direction wanted it cached ("a block is cached on the highest
  level among all the clients' direction").
- **Eviction notices**: when gLRU replaces a block, its owner's view of
  level 2 must shrink by one (a yardstick adjustment at that client).
  Notices are *delayed* — queued and delivered along the next block the
  server sends to that owner — so they cost no extra messages; an
  ``immediate`` mode is provided for the ablation study.
- **Stale views**: a client may believe a *shared* block is still at the
  server after another owner let it be evicted (only the owner is
  notified). Such a retrieve simply misses at the server and falls
  through to disk; the client's placement direction re-caches it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import AccessEvent, Demotion, new_demotion, new_event
from repro.core.stack import UniLRUStack
from repro.errors import ConfigurationError, ProtocolError
from repro.policies.base import Block
from repro.util.intlist import SENTINEL, IntLinkedList
from repro.util.rng import make_rng
from repro.util.validation import (
    check_fraction,
    check_in,
    check_int,
    check_positive,
)

NOTIFY_PIGGYBACK = "piggyback"
NOTIFY_IMMEDIATE = "immediate"


@dataclass
class _Eviction:
    """A server eviction pending delivery to its owner."""

    block: Block
    owner: int


class ULCServer:
    """Shared server cache driven by client directions (gLRU + owners).

    The gLRU is a slab list (:mod:`repro.util.intlist`): each cached
    block owns one slot, with the block identity and owner tag held in
    parallel arrays indexed by that slot — no per-entry objects.
    """

    def __init__(self, capacity: int) -> None:
        check_int("capacity", capacity)
        check_positive("capacity", capacity)
        self.capacity = capacity
        self._glru = IntLinkedList()
        self._slots: Dict[Block, int] = {}
        self._block_at: List[Optional[Block]] = [None]
        self._owner_at: List[int] = [-1]
        self._pending: Dict[int, List[Block]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, block: Block) -> bool:
        return block in self._slots

    @property
    def full(self) -> bool:
        return len(self._slots) >= self.capacity

    def _alloc(self, block: Block, owner: int) -> int:
        slot = self._glru.slab.alloc()
        if slot == len(self._block_at):
            self._block_at.append(block)
            self._owner_at.append(owner)
        else:
            self._block_at[slot] = block
            self._owner_at[slot] = owner
        self._slots[block] = slot
        return slot

    def _release_slot(self, slot: int) -> None:
        block = self._block_at[slot]
        self._block_at[slot] = None
        self._glru.slab.free(slot)
        del self._slots[block]

    def owner_of(self, block: Block) -> Optional[int]:
        """Owner tag of a cached block (``None`` if absent)."""
        slot = self._slots.get(block)
        return self._owner_at[slot] if slot is not None else None

    def peek(self, block: Block) -> bool:
        """Serve a block without a caching direction (level-1 tag).

        gLRU order is driven by *caching* requests only, so serving a
        pass-through retrieve does not update recency or ownership.
        """
        return block in self._slots

    def want_cached(self, block: Block, owner: int) -> Optional[_Eviction]:
        """Direct the server to cache ``block`` on behalf of ``owner``.

        Moves/inserts the block at the gLRU MRU end with the new owner
        tag. Returns the eviction this caused, if any (already queued for
        delayed delivery to its owner).
        """
        glru = self._glru
        slot = self._slots.get(block)
        if slot is not None:
            # Inline move to the head (kernel contract; hot path).
            self._owner_at[slot] = owner
            prv, nxt = glru.prev, glru.next
            if nxt[SENTINEL] != slot:
                p, n = prv[slot], nxt[slot]
                nxt[p] = n
                prv[n] = p
                first = nxt[SENTINEL]
                prv[slot] = SENTINEL
                nxt[slot] = first
                prv[first] = slot
                nxt[SENTINEL] = slot
            return None
        eviction = self._make_room()
        slot = self._alloc(block, owner)
        prv, nxt = glru.prev, glru.next
        first = nxt[SENTINEL]
        prv[slot] = SENTINEL
        nxt[slot] = first
        prv[first] = slot
        nxt[SENTINEL] = slot
        glru.size += 1
        return eviction

    def want_cached_demoted(
        self,
        block: Block,
        owner: int,
        colder_neighbour: Optional[Block] = None,
        warmer_neighbour: Optional[Block] = None,
    ) -> Optional[_Eviction]:
        """Cache a *demoted* block at its recency-sorted position.

        A demoted block is not a fresh reference: its recency rank is
        known to the directing client, which names the owner's
        neighbouring blocks already at the server. The server inserts the
        demoted block just warmer than ``colder_neighbour`` (or, lacking
        one, just colder than ``warmer_neighbour``) — the server-side
        counterpart of the paper's DemotionSearching, and what keeps the
        single-client gLRU identical to the client's ``LRU_2`` stack (so
        the gLRU bottom is exactly ``Y_2``).

        With no usable neighbour (the owner has no other block here) the
        block enters at the MRU end like a fresh request.

        The block is inserted at its rank *first* and the gLRU tail
        evicted afterwards — so a demoted block that ranks coldest of
        all is evicted immediately, exactly like the single-client
        cascade where the incoming block can itself be "demoted in turn"
        out of the level (and what keeps the single-client gLRU
        identical to the client's ``LRU_2`` stack).
        """
        slot = self._slots.pop(block, None)
        if slot is not None:
            # Already present (e.g. a stale shared copy): re-own it and
            # reposition it per the demotion rank.
            self._glru.remove(slot)
            self._owner_at[slot] = owner
            self._slots[block] = slot
        else:
            slot = self._alloc(block, owner)
        cold_anchor = (
            self._slots.get(colder_neighbour)
            if colder_neighbour is not None
            else None
        )
        warm_anchor = (
            self._slots.get(warmer_neighbour)
            if warmer_neighbour is not None
            else None
        )
        if cold_anchor is not None and cold_anchor != slot:
            self._glru.insert_before(slot, cold_anchor)
        elif warm_anchor is not None and warm_anchor != slot:
            self._glru.insert_after(slot, warm_anchor)
        else:
            self._glru.push_front(slot)
        if len(self._slots) > self.capacity:
            return self._make_room()
        return None

    def _make_room(self) -> Optional[_Eviction]:
        if not self.full:
            return None
        victim_slot = self._glru.pop_back()
        eviction = _Eviction(
            self._block_at[victim_slot], self._owner_at[victim_slot]
        )
        self._release_slot(victim_slot)
        self._pending.setdefault(eviction.owner, []).append(eviction.block)
        return eviction

    def release(self, block: Block, owner: int) -> bool:
        """Drop a cached block whose owner just redirected it elsewhere
        (e.g. ``Retrieve(b, 2, 1)``). No notice is needed — the owner
        initiated the release. A non-owner release is ignored: another
        client still wants the block at the server. Returns whether the
        block was dropped."""
        slot = self._slots.get(block)
        if slot is None or self._owner_at[slot] != owner:
            return False
        self._glru.remove(slot)
        self._release_slot(slot)
        return True

    def collect_notices(self, client: int) -> List[Block]:
        """Drain the eviction notices queued for ``client``."""
        return self._pending.pop(client, [])

    def resident_blocks(self) -> List[Block]:
        """gLRU contents, MRU first (O(n); tests)."""
        return [self._block_at[slot] for slot in self._glru]

    def share_of(self, client: int) -> int:
        """Number of server buffers currently owned by ``client``."""
        owner_at = self._owner_at
        return sum(1 for slot in self._glru if owner_at[slot] == client)


class ULCMultiClient:
    """One client's two-level ULC engine inside a multi-client system.

    The client's level-2 view (its ``LRU_2`` stack) mirrors which of its
    blocks it believes the server caches; the view shrinks on eviction
    notices and grows when the client directs more blocks to the server
    — the gLRU thereby allocates server buffers between clients
    dynamically.
    """

    def __init__(
        self,
        client_id: int,
        capacity: int,
        server: ULCServer,
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        self.client_id = client_id
        self.server = server
        # Level 2 capacity in the local stack is the full server size: the
        # client's share can never exceed it, and the *actual* bound is
        # enforced by gLRU evictions, not by a local cascade.
        self.stack = UniLRUStack(
            [capacity, server.capacity], max_size=max_metadata
        )
        self.capacity = capacity
        # The tempLRU: block -> None, LRU first; a capacity <= 0
        # disables it (the dict then stays empty).
        self._temp: "OrderedDict[Block, None]" = OrderedDict()
        self._temp_capacity = max(templru_capacity, 0)
        # Kernel-caller handles for the fused access path (the stack's
        # level lists; see the intlist kernel contract).
        self._l1 = self.stack._levels[0]
        self._l2 = self.stack._levels[1]

    # -- notices -------------------------------------------------------------

    # repro: bound O(n) amortized -- each queued server notice is
    # generated by one eviction and delivered once
    def apply_notices(self, blocks: Sequence[Block]) -> int:
        """Apply server eviction notices; returns how many were live.

        A notice is stale when the client has since re-ranked the block
        (e.g. promoted it to its own cache); stale notices are ignored.
        """
        applied = 0
        lookup = self.stack.lookup
        evict = self.stack.evict
        for block in blocks:
            node = lookup(block)
            if node is not None and node.level == 2:
                evict(node)
                applied += 1
        return applied

    # -- the per-reference protocol ----------------------------------------------

    def access(self, block: Block, count_notice_messages: int = 0) -> AccessEvent:
        """Process one reference by this client.

        ``count_notice_messages`` is added to the event's control-message
        count (used by the immediate-notification ablation). Like
        :meth:`repro.core.protocol.ULCClient.access`, the whole protocol
        runs in one fused frame, recency-region scan included, and
        builds its event with :data:`~repro.core.events.new_event`.
        """
        stack = self.stack
        server = self.server
        temp = self._temp
        client_id = self.client_id
        l1, l2 = self._l1, self._l2
        node = stack._nodes.get(block)
        in_temp = block in temp
        out = stack.out_level

        demotions: Tuple[Demotion, ...] = ()

        if node is None:
            level_status = out
            region = out
        else:
            level_status = node.level
            # Inline recency_region for the two-level case: R_j is the
            # first level whose yardstick (list tail) is at or below us.
            node_at = stack._node_at
            seq = node.seq
            t1 = l1.prev[SENTINEL]
            if t1 != SENTINEL and seq >= node_at[t1].seq:
                region = 1
            else:
                t2 = l2.prev[SENTINEL]
                if t2 != SENTINEL and seq >= node_at[t2].seq:
                    region = 2
                else:
                    region = out

        # -- where is the block actually served from? ---------------------
        if in_temp or level_status == 1:
            hit_level: Optional[int] = 1
        elif level_status == 2 and block in server:
            hit_level = 2
        else:
            hit_level = None  # disk (includes stale level-2 views)

        # -- placement decision (the level tag on the Retrieve) ------------
        if region != out:
            placed = region
        elif l1.size < self.capacity:  # _fill_level, inlined
            placed = 1
        elif l2.size < server.capacity:
            placed = 2
        else:
            placed = None

        # -- metadata update ------------------------------------------------
        if node is None:
            stack.insert_new(block, placed if placed is not None else out)
        else:
            stack.touch(node, placed if placed is not None else out)

        # -- server-side effects of the Retrieve tag -----------------------
        if placed == 2:
            ev = server.want_cached(block, client_id)
            if ev is not None:
                self._handle_own_eviction(ev)
        elif level_status == 2:
            # The block leaves the server level per our direction.
            server.release(block, client_id)

        # -- make room at the client cache ----------------------------------
        if placed == 1 and l1.size > self.capacity:
            victim = stack.demote_tail(1)
            demotions = (new_demotion((victim.block, 1, 2)),)
            colder = stack.colder_neighbour(victim)
            warmer = stack.warmer_neighbour(victim)
            ev = server.want_cached_demoted(
                victim.block,
                client_id,
                colder.block if colder is not None else None,
                warmer.block if warmer is not None else None,
            )
            if ev is not None:
                self._handle_own_eviction(ev)

        # Maintain the tempLRU of blocks passing through uncached.
        if placed == 1:
            if in_temp:
                del temp[block]
        elif in_temp:
            temp.move_to_end(block)
        elif self._temp_capacity:
            if len(temp) >= self._temp_capacity:
                temp.popitem(last=False)
            temp[block] = None
        return new_event((
            block, client_id, hit_level, in_temp, placed,
            demotions, (), count_notice_messages,
        ))

    def _fill_level(self) -> Optional[int]:
        """Placement for an L_out block: fill the client cache first,
        then the server.

        The server level is "unfilled" from this client's perspective
        while its *own view* of the server is below the full server size
        — the client keeps directing blocks there and the gLRU arbitrates
        the actual allocation between clients (dynamic partitioning).
        With a single client this reduces exactly to the single-client
        fill rule. Caching at the server on the fill path costs nothing
        extra: the block passes through the server on its way up anyway.
        """
        if self.stack.level_size(1) < self.capacity:
            return 1
        if self.stack.level_size(2) < self.server.capacity:
            return 2
        return None

    # repro: bound O(n) amortized -- drains notices queued since the
    # last access; each notice is generated once and applied once
    def _handle_own_eviction(self, eviction: _Eviction) -> None:
        """When our own caching request evicts one of our *own* blocks,
        the notice can be applied immediately — it rides back on the
        response to the very request that caused it."""
        if eviction.owner != self.client_id:
            return
        lookup = self.stack.lookup
        evict = self.stack.evict
        pending_notices = self.server.collect_notices(self.client_id)
        for pending in pending_notices:
            node = lookup(pending)
            if node is not None and node.level == 2:
                evict(node)

    def check_invariants(self) -> None:
        """Validate stack invariants (tests).

        The level-2 view is elastic: it may transiently exceed the
        server capacity by the number of undelivered eviction notices
        (stale entries), so capacity is checked for level 1 only.
        """
        self.stack.check_invariants(enforce_capacity=False)
        if self.stack.level_size(1) > self.capacity:
            raise ProtocolError(
                f"client {self.client_id} cache over capacity"
            )


class ULCMultiSystem:
    """A complete multi-client two-level ULC system.

    Routes each reference to its client engine, delivering any pending
    server eviction notices to that client first (the paper's delayed,
    piggybacked notification), or immediately in ``immediate`` mode
    (ablation: one extra control message per notice).
    """

    def __init__(
        self,
        num_clients: int,
        client_capacity: int,
        server_capacity: int,
        templru_capacity: int = 16,
        notify: str = NOTIFY_PIGGYBACK,
        max_metadata: Optional[int] = None,
        notice_loss_rate: float = 0.0,
        notice_loss_seed: int = 0,
    ) -> None:
        """``notice_loss_rate`` drops that fraction of eviction notices
        before delivery (fault injection): the protocol must stay
        *correct* — a stale level-2 view only costs a server miss that
        falls through to disk and is repaired by the client's own
        re-direction (see ``tests/core/test_fault_injection.py``)."""
        check_int("num_clients", num_clients)
        check_positive("num_clients", num_clients)
        check_in("notify", notify, [NOTIFY_PIGGYBACK, NOTIFY_IMMEDIATE])
        check_fraction("notice_loss_rate", notice_loss_rate)
        self.notify = notify
        self.notice_loss_rate = notice_loss_rate
        self._loss_rng = (
            make_rng(notice_loss_seed) if notice_loss_rate > 0 else None
        )
        self._immediate = notify == NOTIFY_IMMEDIATE
        self.server = ULCServer(server_capacity)
        self._server_pending = self.server._pending
        self.clients = [
            ULCMultiClient(
                client_id,
                client_capacity,
                self.server,
                templru_capacity=templru_capacity,
                max_metadata=max_metadata,
            )
            for client_id in range(num_clients)
        ]
        # Dispatch tables hoisted out of the per-reference path: binding
        # the engine list, its length and the bound access methods once
        # here removes three attribute/len lookups per reference from
        # the hot loop below (multi_client_throughput).
        self._num_clients = num_clients
        self._engines = tuple(self.clients)
        self._access_by_client = tuple(
            engine.access for engine in self.clients
        )

    def access(self, client: int, block: Block) -> AccessEvent:  # repro: hot
        """Process one reference from ``client``.

        The common case — no pending eviction notices for this client —
        dispatches straight through the prebuilt bound-method table; the
        notice-delivery slow path is factored out so this frame stays
        small.
        """
        if not 0 <= client < self._num_clients:
            raise ConfigurationError(
                f"client {client} out of range [0, {self._num_clients})"
            )
        # Deliver pending notices only when there are any — draining an
        # empty queue per reference would allocate a list each time.
        if client in self._server_pending:
            return self._access_with_notices(client, block)
        return self._access_by_client[client](block)

    # repro: bound O(n) amortized -- delivers the notices queued for
    # this client; each notice is generated once and delivered once
    def _access_with_notices(self, client: int, block: Block) -> AccessEvent:
        """Slow path: deliver queued eviction notices, then access."""
        engine = self._engines[client]
        notices = self.server.collect_notices(client)
        if self._loss_rng is not None and notices:
            notices = [
                n
                for n in notices
                if self._loss_rng.random() >= self.notice_loss_rate
            ]
        engine.apply_notices(notices)
        messages = len(notices) if self._immediate else 0
        return engine.access(block, count_notice_messages=messages)

    def check_invariants(self) -> None:
        """Validate every client's invariants plus server consistency."""
        for engine in self.clients:
            engine.check_invariants()
        if len(self.server) > self.server.capacity:
            raise ProtocolError("server over capacity")
