"""ULC as a :class:`MultiLevelScheme` — adapters over the core engines.

:class:`ULCScheme` wraps the single-client n-level engine
(:class:`repro.core.protocol.ULCClient`); :class:`ULCMultiScheme` wraps
the two-level multi-client system (:class:`repro.core.multi.ULCMultiSystem`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.events import AccessEvent
from repro.core.multi import NOTIFY_PIGGYBACK, ULCMultiSystem
from repro.core.protocol import ULCClient
from repro.errors import ConfigurationError, ProtocolError
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block


class ULCScheme(MultiLevelScheme):
    """Single-client Unified Level-aware Caching over n levels."""

    name = "ULC"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        if num_clients != 1:
            raise ConfigurationError(
                "ULCScheme is single-client; use ULCMultiScheme"
            )
        super().__init__(capacities, num_clients)
        self.engine = ULCClient(
            capacities,
            templru_capacity=templru_capacity,
            max_metadata=max_metadata,
        )

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        return self.engine.access(block, client)

    def check_invariants(self) -> None:
        """Stack consistency, per-level occupancy and level exclusivity."""
        self.engine.check_invariants()
        seen: Dict[Block, int] = {}
        for level in range(1, self.num_levels + 1):
            for resident in self.engine.resident_blocks(level):
                if resident in seen:
                    raise ProtocolError(
                        f"block {resident!r} cached at levels "
                        f"{seen[resident]} and {level} simultaneously"
                    )
                seen[resident] = level


class ULCMultiLevelScheme(MultiLevelScheme):
    """Multi-client ULC over n levels: a private client cache plus a
    chain of shared tiers (e.g. clients -> file-server cache -> disk
    array cache). Generalises :class:`ULCMultiScheme`; see
    :mod:`repro.core.multi_nlevel`."""

    name = "ULC-nlevel"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        if len(capacities) < 2:
            raise ConfigurationError(
                "ULCMultiLevelScheme needs a client level and at least "
                "one shared tier"
            )
        super().__init__(capacities, num_clients)
        from repro.core.multi_nlevel import ULCMultiLevelSystem

        self.system = ULCMultiLevelSystem(
            num_clients=num_clients,
            client_capacity=capacities[0],
            shared_capacities=list(capacities[1:]),
            templru_capacity=templru_capacity,
            max_metadata=max_metadata,
        )

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        return self.system.access(client, block)

    def check_invariants(self) -> None:
        """Delegate to the n-level system's client/tier checks."""
        self.system.check_invariants()


class ULCMultiScheme(MultiLevelScheme):
    """Multi-client ULC: per-client engines over a shared gLRU server.

    Registered as ``ulc`` in the multi-client registry; the display name
    is ``ULC-multi`` so its :attr:`RunResult.scheme` is distinguishable
    from the single-client :class:`ULCScheme` (``ULC``).
    """

    name = "ULC-multi"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        templru_capacity: int = 16,
        notify: str = NOTIFY_PIGGYBACK,
        max_metadata: Optional[int] = None,
        notice_loss_rate: float = 0.0,
        notice_loss_seed: int = 0,
    ) -> None:
        if len(capacities) != 2:
            raise ConfigurationError(
                "ULCMultiScheme models a two-level structure"
            )
        super().__init__(capacities, num_clients)
        self.system = ULCMultiSystem(
            num_clients=num_clients,
            client_capacity=capacities[0],
            server_capacity=capacities[1],
            templru_capacity=templru_capacity,
            notify=notify,
            max_metadata=max_metadata,
            notice_loss_rate=notice_loss_rate,
            notice_loss_seed=notice_loss_seed,
        )

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        return self.system.access(client, block)

    def check_invariants(self) -> None:
        """System checks plus per-client L1/L2-view exclusivity.

        A client's stack assigns each tracked block exactly one level;
        this re-derives the property from the per-level lists so a
        corrupted list link cannot hide behind the node index.
        """
        self.system.check_invariants()
        for engine in self.system.clients:
            own = set(engine.stack.level_blocks(1))
            view = set(engine.stack.level_blocks(2))
            overlap = own & view
            if overlap:
                raise ProtocolError(
                    f"client {engine.client_id}: blocks "
                    f"{sorted(overlap)!r} in both its cache and its "
                    f"server view"
                )
