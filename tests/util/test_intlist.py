"""Property tests: IntLinkedList/IntSlab vs a plain Python list model.

The slab list is the array kernel under the structures that splice at
arbitrary positions (the uniLRUstack, the server gLRU, SIEVE's hand). A
random operation interpreter drives it in lockstep with a model — two
slab lists sharing one slot space, each mirrored by a Python ``list`` of
slots, head first — and compares order, size, ends and error behaviour
after every step, then validates the array invariants and slab
accounting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.util.intlist import SENTINEL, IntLinkedList, IntSlab

OPS = (
    "alloc",
    "free",
    "push_front",
    "push_back",
    "insert_before",
    "insert_after",
    "remove",
    "pop_back",
)

operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=63),  # slot choice
        st.integers(min_value=0, max_value=63),  # anchor / list choice
    ),
    max_size=120,
)


class Lockstep:
    """Drive an IntLinkedList pair and its list-of-slots model together.

    Both slab lists share one :class:`IntSlab` (the layout the
    uniLRUstack uses: the same slot linked into the global and a level
    list); each is mirrored by a Python list of slots, head first.
    """

    def __init__(self) -> None:
        self.slab = IntSlab()
        self.real = [IntLinkedList(self.slab), IntLinkedList(self.slab)]
        self.mirror = [[], []]
        self.allocated = set()

    # -- operand selection (deterministic in the op's integers) ----------

    def pick_slot(self, index: int):
        slots = sorted(self.allocated)
        return slots[index % len(slots)] if slots else None

    def assert_equal(self) -> None:
        for lst, mirror in zip(self.real, self.mirror):
            assert list(lst) == mirror
            assert len(lst) == len(mirror)
            assert bool(lst) == bool(mirror)
            assert lst.next[SENTINEL] == (mirror[0] if mirror else SENTINEL)
            assert lst.prev[SENTINEL] == (mirror[-1] if mirror else SENTINEL)
            assert lst.tail == (mirror[-1] if mirror else None)
            for slot in self.allocated:
                assert lst.linked(slot) == (slot in mirror)

    def run(self, ops) -> None:
        for name, a, b in ops:
            self.step(name, a, b)
            self.assert_equal()
        for lst in self.real:
            lst.check_invariants()
        self.slab.check_invariants()

    def step(self, name: str, a: int, b: int) -> None:
        which = b % 2
        lst, mirror = self.real[which], self.mirror[which]
        slot = self.pick_slot(a)

        if name == "alloc":
            fresh = self.slab.alloc()
            assert fresh != SENTINEL
            assert fresh not in self.allocated
            assert not any(other.linked(fresh) for other in self.real)
            self.allocated.add(fresh)
            return
        if slot is None:
            return

        if name == "free":
            if any(slot in other for other in self.mirror):
                with pytest.raises(ProtocolError):
                    self.slab.free(slot)
                return
            self.slab.free(slot)
            self.allocated.discard(slot)
        elif name in ("push_front", "push_back"):
            if slot in mirror:
                with pytest.raises(ProtocolError):
                    getattr(lst, name)(slot)
                return
            getattr(lst, name)(slot)
            if name == "push_front":
                mirror.insert(0, slot)
            else:
                mirror.append(slot)
        elif name in ("insert_before", "insert_after"):
            anchor = self.pick_slot(b)
            if anchor is None:
                return
            if slot in mirror or anchor not in mirror:
                with pytest.raises(ProtocolError):
                    getattr(lst, name)(slot, anchor)
                return
            getattr(lst, name)(slot, anchor)
            index = mirror.index(anchor)
            mirror.insert(index if name == "insert_before" else index + 1, slot)
        elif name == "remove":
            if slot not in mirror:
                with pytest.raises(ProtocolError):
                    lst.remove(slot)
                return
            lst.remove(slot)
            mirror.remove(slot)
        elif name == "pop_back":
            if not mirror:
                with pytest.raises(ProtocolError):
                    lst.pop_back()
                return
            assert lst.pop_back() == mirror.pop()


@settings(max_examples=200, deadline=None)
@given(operations)
def test_random_ops_match_doubly_linked_list(ops):
    Lockstep().run(ops)


def test_neighbour_queries_match():
    state = Lockstep()
    for _ in range(6):
        state.step("alloc", 0, 0)
    slots = sorted(state.allocated)
    for slot in slots[:4]:
        state.step("push_back", slots.index(slot), 0)
    lst, mirror = state.real[0], state.mirror[0]
    assert list(lst) == mirror == slots[:4]
    for index, slot in enumerate(mirror):
        assert lst.next_towards_head(slot) == (
            mirror[index - 1] if index > 0 else None
        )
        assert lst.next[slot] == (
            mirror[index + 1] if index + 1 < len(mirror) else SENTINEL
        )


def test_slot_numbering_is_dense_and_deterministic():
    """Geometric batch growth must hand out the same slots one-at-a-time
    growth would: 1, 2, 3, ... with LIFO recycling."""
    slab = IntSlab()
    IntLinkedList(slab)
    slots = [slab.alloc() for _ in range(100)]
    assert slots == list(range(1, 101))
    slab.free(42)
    slab.free(7)
    assert slab.alloc() == 7
    assert slab.alloc() == 42
    assert slab.in_use == 100


def test_shared_slab_lists_are_independent():
    """One slot may be linked into several lists at once (the
    uniLRUstack layout); orders evolve independently."""
    slab = IntSlab()
    first, second = IntLinkedList(slab), IntLinkedList(slab)
    slots = [slab.alloc() for _ in range(4)]
    for slot in slots:
        first.push_back(slot)
        second.push_front(slot)
    assert list(first) == slots
    assert list(second) == slots[::-1]
    first.push_front(first.remove(slots[2]))
    assert list(first) == [slots[2], slots[0], slots[1], slots[3]]
    assert list(second) == slots[::-1]
    second.remove(slots[0])
    first.check_invariants()
    second.check_invariants()
    with pytest.raises(ProtocolError):
        slab.free(slots[0])  # still linked in `first`
    first.remove(slots[0])
    slab.free(slots[0])


def test_iteration_tolerates_removing_current():
    slab = IntSlab()
    lst = IntLinkedList(slab)
    slots = [lst.push_back(slab.alloc()) for _ in range(8)]
    seen = []
    for slot in lst:
        seen.append(slot)
        lst.remove(slot)
    assert seen == slots
    assert len(lst) == 0
    for slot in slots:
        lst.push_front(slot)
    seen = []
    for slot in lst.iter_reverse():
        seen.append(slot)
        lst.remove(slot)
    assert seen == slots


def test_insert_before_and_after_splice_at_anchor():
    slab = IntSlab()
    lst = IntLinkedList(slab)
    a, b, c, d = (slab.alloc() for _ in range(4))
    lst.push_back(a)
    lst.push_back(b)
    lst.insert_before(c, b)
    lst.insert_after(d, b)
    assert list(lst) == [a, c, b, d]
    lst.check_invariants()
