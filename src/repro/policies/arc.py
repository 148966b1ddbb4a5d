"""ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).

ARC balances recency (list T1) against frequency (list T2) with ghost
lists B1/B2 steering an adaptation parameter ``p``. It is contemporary
with the ULC paper and serves as an additional single-level baseline in
the extension benchmarks.

Lists (one ``OrderedDict`` each, LRU first, MRU last):

- T1: resident, seen exactly once recently.
- T2: resident, seen at least twice recently.
- B1/B2: ghosts of blocks evicted from T1/T2.

Invariant: ``len(T1) + len(T2) <= capacity`` and
``len(T1) + len(B1) <= capacity`` and total tracked <= 2 * capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy

_T1, _T2, _B1, _B2 = "T1", "T2", "B1", "B2"


class ARCPolicy(ReplacementPolicy):
    """Adaptive Replacement Cache."""

    name = "arc"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._lists: "Dict[str, OrderedDict[Block, None]]" = {
            name: OrderedDict() for name in (_T1, _T2, _B1, _B2)
        }
        # block -> name of the list holding it
        self._where: Dict[Block, str] = {}
        self._p = 0.0  # target size of T1

    # -- plumbing ------------------------------------------------------------

    def _list_len(self, name: str) -> int:
        return len(self._lists[name])

    def _push(self, name: str, block: Block) -> None:
        self._lists[name][block] = None
        self._where[block] = name

    def _drop(self, block: Block) -> str:
        name = self._where.pop(block)
        del self._lists[name][block]
        return name

    def _pop_lru(self, name: str) -> Block:
        block = self._lists[name].popitem(last=False)[0]
        del self._where[block]
        return block

    def _replace(self, in_b2: bool) -> Block:
        """Evict from T1 or T2 per the REPLACE subroutine; ghost kept."""
        t1_len = self._list_len(_T1)
        if t1_len > 0 and (
            t1_len > self._p or (in_b2 and t1_len == int(self._p))
        ):
            victim = self._pop_lru(_T1)
            self._push(_B1, victim)
        else:
            victim = self._pop_lru(_T2)
            self._push(_B2, victim)
        return victim

    # -- ReplacementPolicy interface -------------------------------------------

    def __contains__(self, block: Block) -> bool:
        return self._where.get(block) in (_T1, _T2)

    def __len__(self) -> int:
        return self._list_len(_T1) + self._list_len(_T2)

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        self._drop(block)
        self._push(_T2, block)

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        where = self._where.get(block)
        evicted: List[Block] = []
        capacity = self.capacity

        if where == _B1:
            # Ghost hit in B1: favour recency.
            delta = max(1.0, self._list_len(_B2) / max(1, self._list_len(_B1)))
            self._p = min(float(capacity), self._p + delta)
            if self.full:
                evicted.append(self._replace(in_b2=False))
            self._drop(block)
            self._push(_T2, block)
            return evicted

        if where == _B2:
            # Ghost hit in B2: favour frequency.
            delta = max(1.0, self._list_len(_B1) / max(1, self._list_len(_B2)))
            self._p = max(0.0, self._p - delta)
            if self.full:
                evicted.append(self._replace(in_b2=True))
            self._drop(block)
            self._push(_T2, block)
            return evicted

        # Completely new block (case IV of the paper).
        l1 = self._list_len(_T1) + self._list_len(_B1)
        l2 = self._list_len(_T2) + self._list_len(_B2)
        if l1 == capacity:
            if self._list_len(_T1) < capacity:
                self._pop_lru(_B1)
                if self.full:
                    evicted.append(self._replace(in_b2=False))
            else:
                evicted.append(self._pop_lru(_T1))
        elif l1 < capacity and l1 + l2 >= capacity:
            if l1 + l2 == 2 * capacity:
                self._pop_lru(_B2)
            if self.full:
                evicted.append(self._replace(in_b2=False))
        self._push(_T1, block)
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        self._drop(block)

    def victim(self) -> Optional[Block]:
        """Victim a brand-new insert would evict (approximate peek)."""
        if not self.full:
            return None
        t1_len = self._list_len(_T1)
        if t1_len and (t1_len > self._p or self._list_len(_T2) == 0):
            return next(iter(self._lists[_T1]))
        return next(iter(self._lists[_T2]))

    def resident(self) -> Iterator[Block]:
        for name in (_T1, _T2):
            yield from reversed(self._lists[name])

    def check_invariants(self) -> None:
        super().check_invariants()
        capacity = self.capacity
        sizes = {name: len(lst) for name, lst in self._lists.items()}
        if sizes[_T1] + sizes[_B1] > capacity:
            raise ProtocolError(
                f"arc: |T1|+|B1| = {sizes[_T1] + sizes[_B1]} exceeds c={capacity}"
            )
        if sum(sizes.values()) > 2 * capacity:
            raise ProtocolError(
                f"arc: directory holds {sum(sizes.values())} blocks, limit {2 * capacity}"
            )
        if not 0.0 <= self._p <= capacity:
            raise ProtocolError(f"arc: adaptation target p={self._p} outside [0, c]")
        if len(self._where) != sum(sizes.values()):
            raise ProtocolError(
                f"arc: index tracks {len(self._where)} blocks, "
                f"lists hold {sum(sizes.values())}"
            )
        for block, name in self._where.items():
            if block not in self._lists[name]:
                raise ProtocolError(
                    f"arc: index puts {block!r} in {name}, which lacks it"
                )

    # -- introspection ----------------------------------------------------------

    @property
    def p(self) -> float:
        """Current adaptation target for T1's size."""
        return self._p

    def list_of(self, block: Block) -> Optional[str]:
        """Which ARC list currently tracks ``block`` (or ``None``)."""
        return self._where.get(block)
