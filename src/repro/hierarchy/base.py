"""The common interface all multi-level caching schemes implement.

A *scheme* owns a complete cache hierarchy — every level's contents and
whatever coordination state it needs — and processes one reference at a
time, reporting an :class:`repro.core.events.AccessEvent`. The simulation
engine, metrics and sweeps are written against this interface only, so
indLRU, uniLRU, MQ, ULC and the oracles are interchangeable.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError
from repro.policies.base import Block
from repro.util.validation import check_int, check_positive


class MultiLevelScheme(abc.ABC):
    """Abstract multi-level caching scheme.

    Subclasses set :attr:`name` and implement :meth:`access`.

    Args:
        capacities: block capacity of each level, client (level 1)
            first. In multi-client structures the first entry is the
            *per-client* cache size and the second the shared server
            size.
        num_clients: number of clients issuing references.
    """

    name = "abstract"

    def __init__(self, capacities: Sequence[int], num_clients: int = 1) -> None:
        capacities = list(capacities)
        if not capacities:
            raise ConfigurationError("at least one cache level is required")
        for index, capacity in enumerate(capacities):
            check_int(f"capacities[{index}]", capacity)
            check_positive(f"capacities[{index}]", capacity)
        check_int("num_clients", num_clients)
        check_positive("num_clients", num_clients)
        self.capacities = capacities
        self.num_levels = len(capacities)
        self.num_clients = num_clients

    @abc.abstractmethod
    def access(self, client: int, block: Block) -> AccessEvent:
        """Process one reference from ``client`` and report the outcome."""

    def describe(self) -> str:
        """One-line human-readable description."""
        sizes = "/".join(str(c) for c in self.capacities)
        return f"{self.name} ({sizes} blocks, {self.num_clients} client(s))"

    def _check_client(self, client: int) -> None:
        if not 0 <= client < self.num_clients:
            raise ConfigurationError(
                f"client {client} out of range [0, {self.num_clients})"
            )

    def check_invariants(self) -> None:
        """Validate internal structural invariants.

        Raises :class:`~repro.errors.ProtocolError` on violation. The
        base implementation checks nothing; every concrete scheme
        overrides it with its structural checks (per-level occupancy,
        exclusivity, stack consistency). Driven periodically by
        :class:`repro.checks.invariants.InvariantCheckedScheme` when a
        run is started with ``--check-invariants``.
        """
