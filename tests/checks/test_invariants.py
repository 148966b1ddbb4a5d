"""Tests for the runtime invariant harness (``--check-invariants``).

Covers the three promises of :class:`InvariantCheckedScheme`:

- a broken scheme is caught loudly (ProtocolError at the exposing
  reference), both for malformed events and corrupted structures,
- the wrapper is observationally transparent — a checked run's
  RunResult equals the unchecked run's,
- ``validate_structure`` reaches the support containers too.
"""

from __future__ import annotations

import pytest

from repro.checks import (
    DEFAULT_CHECK_EVERY,
    InvariantCheckedScheme,
    validate_scheme,
    validate_structure,
)
from repro.core.events import AccessEvent, Demotion
from repro.errors import ConfigurationError, ProtocolError
from repro.hierarchy import ULCScheme, UnifiedLRUScheme
from repro.sim import Engine
from repro.sim.costs import paper_two_level
from repro.util.fenwick import FenwickTree
from repro.util.ostree import OrderStatisticTree
from repro.workloads import zipf_trace


class BadEventScheme(ULCScheme):
    """Reports hits from a level the hierarchy does not have."""

    def access(self, client, block):
        event = super().access(client, block)
        return AccessEvent(
            block=event.block,
            client=event.client,
            hit_level=self.num_levels + 3,
        )


class SkippingDemotionScheme(ULCScheme):
    """Emits a demotion that skips a level boundary."""

    def access(self, client, block):
        event = super().access(client, block)
        return AccessEvent(
            block=event.block,
            client=event.client,
            hit_level=event.hit_level,
            placed_level=event.placed_level,
            demotions=(Demotion(block=block, src=1, dst=3),),
        )


class CorruptStateScheme(ULCScheme):
    """Structurally fine events, but the structure check fails."""

    def check_invariants(self):
        raise ProtocolError("synthetic structural corruption")


class TestEventValidation:
    def test_out_of_range_hit_level_caught(self):
        scheme = InvariantCheckedScheme(BadEventScheme([4, 4]))
        with pytest.raises(ProtocolError, match="hit_level"):
            scheme.access(0, "a")

    def test_boundary_skipping_demotion_caught(self):
        scheme = InvariantCheckedScheme(SkippingDemotionScheme([4, 4, 4]))
        with pytest.raises(ProtocolError, match="skips a boundary"):
            scheme.access(0, "a")

    def test_well_behaved_scheme_passes(self):
        scheme = InvariantCheckedScheme(ULCScheme([4, 8]), every=1)
        for ref in range(64):
            scheme.access(0, ref % 13)
        assert scheme.validations == 64


class TestStructuralValidation:
    def test_corruption_surfaces_on_the_period(self):
        scheme = InvariantCheckedScheme(CorruptStateScheme([4, 4]), every=3)
        scheme.access(0, "a")
        scheme.access(0, "b")
        with pytest.raises(ProtocolError, match="synthetic"):
            scheme.access(0, "c")

    def test_every_defaults_sane(self):
        scheme = InvariantCheckedScheme(ULCScheme([4, 4]))
        assert scheme.every == DEFAULT_CHECK_EVERY

    def test_every_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            InvariantCheckedScheme(ULCScheme([4, 4]), every=0)

    def test_validate_scheme_on_healthy_schemes(self):
        scheme = UnifiedLRUScheme([8, 16])
        for ref in range(200):
            scheme.access(0, ref % 31)
        validate_scheme(scheme)


class TestTransparency:
    def test_checked_run_result_is_identical(self):
        trace = zipf_trace(num_blocks=150, num_refs=2_000, seed=11)
        costs = paper_two_level()
        plain = Engine(ULCScheme([32, 64]), costs).drive(trace)
        checked = Engine(
            InvariantCheckedScheme(ULCScheme([32, 64]), every=1), costs
        ).drive(trace)
        assert checked == plain

    def test_wrapper_adopts_inner_name(self):
        inner = ULCScheme([4, 4])
        assert InvariantCheckedScheme(inner).name == inner.name

    def test_describe_mentions_the_period(self):
        assert "every 25 refs" in (
            InvariantCheckedScheme(ULCScheme([4, 4]), every=25).describe()
        )


class TestSupportStructures:
    def test_fenwick_tree_validates(self):
        tree = FenwickTree(16)
        for index in range(16):
            tree.add(index, index % 5)
        validate_structure(tree)

    def test_order_statistic_tree_validates(self):
        tree = OrderStatisticTree(seed=7)
        for key in (5, 1, 9, 3, 7, 2, 8):
            tree.insert(key)
        validate_structure(tree)

    def test_object_without_checker_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_structure(object())
