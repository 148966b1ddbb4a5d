"""Cross-implementation equivalences between the ULC variants.

Three independent implementations cover the two-level single-client
semantics: the n-level single-client engine, the 2-level multi-client
system with one client, and the n-level multi-client system with one
shared tier. They were written against different parts of the paper
(Sections 3.2.1 and 3.2.2) — agreeing on arbitrary traffic is strong
evidence each reads the paper correctly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy import ULCMultiLevelScheme, ULCMultiScheme, ULCScheme


def data_moving_demotions(event, num_levels):
    """Demotions that transfer data (dst still inside the hierarchy)."""
    return [
        (d.src, d.dst) for d in event.demotions if d.dst <= num_levels
    ]


class TestSingleClientEquivalences:
    @settings(max_examples=40, deadline=None)
    @given(blocks=st.lists(st.integers(0, 15), max_size=200))
    def test_single_engine_vs_one_client_multi(self, blocks):
        """ULCScheme([c, s]) and ULCMultiScheme([c, s], 1) serve and
        place identically; they may differ only in how the free
        bottom-level eviction is *reported* (a cascade demotion vs a
        server-internal drop)."""
        single = ULCScheme([3, 5], templru_capacity=0)
        multi = ULCMultiScheme([3, 5], 1, templru_capacity=0)
        for block in blocks:
            a = single.access(0, block)
            b = multi.access(0, block)
            assert a.hit_level == b.hit_level
            assert a.placed_level == b.placed_level
            assert data_moving_demotions(a, 2) == data_moving_demotions(b, 2)
        # Final layouts agree: client contents and server contents.
        assert single.engine.stack.level_blocks(1) == (
            multi.system.clients[0].stack.level_blocks(1)
        )
        assert set(single.engine.stack.level_blocks(2)) == set(
            multi.system.server.resident_blocks()
        )

    @settings(max_examples=40, deadline=None)
    @given(blocks=st.lists(st.integers(0, 15), max_size=200))
    def test_single_engine_vs_one_client_nlevel(self, blocks):
        single = ULCScheme([2, 4], templru_capacity=0)
        nlevel = ULCMultiLevelScheme([2, 4], 1, templru_capacity=0)
        for block in blocks:
            a = single.access(0, block)
            b = nlevel.access(0, block)
            assert a.hit_level == b.hit_level
            assert a.placed_level == b.placed_level
            assert data_moving_demotions(a, 2) == data_moving_demotions(b, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(st.integers(0, 9), max_size=200),
        client_capacity=st.integers(1, 3),
        server_capacity=st.integers(1, 5),
    )
    def test_equivalence_across_geometries(
        self, blocks, client_capacity, server_capacity
    ):
        """The regression geometry: a demoted block that ranks coldest
        of the whole server must be dropped immediately (the cascade's
        'demoted in turn'), not displace an older block — checked for
        all three implementations across many cache shapes."""
        caps = [client_capacity, server_capacity]
        single = ULCScheme(caps, templru_capacity=0)
        multi = ULCMultiScheme(caps, 1, templru_capacity=0)
        nlevel = ULCMultiLevelScheme(caps, 1, templru_capacity=0)
        for block in blocks:
            a = single.access(0, block)
            b = multi.access(0, block)
            c = nlevel.access(0, block)
            assert a.hit_level == b.hit_level == c.hit_level
            assert a.placed_level == b.placed_level == c.placed_level

    def test_cost_equivalence_on_real_workload(self):
        """The reporting difference is cost-free: T_ave agrees exactly."""
        from repro.sim import Engine, paper_two_level
        from repro.workloads import zipf_trace

        trace = zipf_trace(200, 20000, seed=9)
        costs = paper_two_level()
        single = Engine(
            ULCScheme([30, 60], templru_capacity=0), costs
        ).drive(trace)
        multi = Engine(
            ULCMultiScheme([30, 60], 1, templru_capacity=0), costs
        ).drive(trace)
        assert single.t_ave_ms == pytest.approx(multi.t_ave_ms, abs=1e-9)
        assert single.level_hit_rates == pytest.approx(multi.level_hit_rates)
        assert single.demotion_rates == pytest.approx(multi.demotion_rates)
