"""Protocol event types shared by the single- and multi-client engines.

The core engines report *what happened* — where a reference was served
from, where the block was placed, which demotions the placement forced —
and leave all timing/cost interpretation to :mod:`repro.sim.costs`.

Both types are ``NamedTuple`` s rather than frozen dataclasses: one
event is built per simulated reference, and tuple construction is ~4x
cheaper than a frozen dataclass ``__init__`` (which routes every field
through ``object.__setattr__``). Field order is part of the contract.

Even a positional ``AccessEvent(...)`` call runs the NamedTuple's
Python-level ``__new__`` (~600 ns; ~1 us with keywords), so every
per-reference builder goes through :data:`new_event` instead: the C-level
``tuple.__new__`` bound to :class:`AccessEvent`, which takes *one* tuple
of all eight fields in field order (~300 ns). :data:`new_demotion` does
the same for :class:`Demotion`. ``tuple.__new__`` does not check arity,
so a builder that passes a short tuple gets a short event;
``tests/core/test_event_shape.py`` drives every registered scheme to
catch that.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Tuple

from repro.policies.base import Block


class Demotion(NamedTuple):
    """One block transfer down the hierarchy (level ``src`` to ``dst``).

    ``dst`` may be ``num_levels + 1``, meaning the block fell out of the
    hierarchy (an eviction — no data actually moves, only a discard
    instruction).
    """

    block: Block
    src: int
    dst: int


class AccessEvent(NamedTuple):
    """Outcome of one block reference processed by a caching engine.

    Attributes:
        block: the referenced block.
        client: issuing client (0 in single-client structures).
        hit_level: 1-based level that served the block, ``None`` on a
            miss (served from disk).
        served_from_temp: True when the block was served from the
            client's tempLRU buffer (counts as a level-1 hit with no
            network transfer).
        placed_level: level the block was directed to be cached at
            (``None`` when the protocol decided not to cache it — L_out).
        demotions: block transfers down the hierarchy triggered by this
            reference, in the order they were issued.
        evicted: blocks that left the bottom of the hierarchy entirely.
        control_messages: number of control messages (demote
            instructions, eviction notices) that could not be piggybacked
            on the data path.
    """

    block: Block
    client: int = 0
    hit_level: Optional[int] = None
    served_from_temp: bool = False
    placed_level: Optional[int] = None
    demotions: Tuple[Demotion, ...] = ()
    evicted: Tuple[Block, ...] = ()
    control_messages: int = 0

    @property
    def hit(self) -> bool:
        """Whether the reference was served from some cache level."""
        return self.hit_level is not None

    def demotion_count(self, src: int) -> int:
        """Number of demotions leaving level ``src`` in this event."""
        return sum(1 for d in self.demotions if d.src == src)


#: ``new_event((block, client, hit_level, served_from_temp, placed_level,
#: demotions, evicted, control_messages))`` builds an :class:`AccessEvent`
#: through C-level ``tuple.__new__`` — all eight fields, in field order,
#: no defaults and no arity check.
new_event = functools.partial(tuple.__new__, AccessEvent)

#: ``new_demotion((block, src, dst))``: the same for :class:`Demotion`.
new_demotion = functools.partial(tuple.__new__, Demotion)
