"""Tests for the cooperative caching extension."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hierarchy import CooperativeScheme, IndependentScheme, cooperative_costs
from repro.sim import Engine
from repro.workloads import openmail_like


class TestGreedyForwarding:
    def test_peer_hit_is_level_three(self):
        scheme = CooperativeScheme([2, 1], num_clients=2)
        scheme.access(0, "x")          # client 0 caches x (server too)
        scheme.access(0, "y")          # pushes x out of the 1-slot server
        event = scheme.access(1, "x")  # client 1: not local, not server
        assert event.hit_level == 3    # forwarded from client 0

    def test_own_cache_beats_peer(self):
        scheme = CooperativeScheme([2, 1], num_clients=2)
        scheme.access(0, "x")
        scheme.access(1, "x")
        assert scheme.access(1, "x").hit_level == 1

    def test_directory_tracks_evictions(self):
        scheme = CooperativeScheme([1, 4], num_clients=2)
        scheme.access(0, "a")
        assert scheme.holders_of("a") == {0}
        scheme.access(0, "b")          # evicts a from client 0
        assert scheme.holders_of("a") == set()

    def test_no_peer_no_level_three(self):
        scheme = CooperativeScheme([1, 1], num_clients=1)
        scheme.access(0, "a")
        scheme.access(0, "b")
        event = scheme.access(0, "a")
        assert event.hit_level in (None, 2)

    def test_server_hit_preferred_over_peer(self):
        scheme = CooperativeScheme([2, 4], num_clients=2)
        scheme.access(0, "x")          # x at client 0 and server
        event = scheme.access(1, "x")
        assert event.hit_level == 2    # the server copy answers first

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            CooperativeScheme([1, 1, 1])
        with pytest.raises(ConfigurationError):
            CooperativeScheme([1, 1], n_chance=-1)


class TestNChance:
    def test_singlet_forwarded_to_peer(self):
        scheme = CooperativeScheme([1, 1], num_clients=2, n_chance=2, seed=1)
        scheme.access(0, "a")          # a is a singlet at client 0
        scheme.access(0, "b")          # evicts a -> forwarded to client 1
        assert scheme.holders_of("a") == {1}

    def test_greedy_drops_singlets(self):
        scheme = CooperativeScheme([1, 1], num_clients=2, n_chance=0)
        scheme.access(0, "a")
        scheme.access(0, "b")
        assert scheme.holders_of("a") == set()

    def test_credits_run_out(self):
        scheme = CooperativeScheme([1, 1], num_clients=2, n_chance=1, seed=2)
        scheme.access(0, "a")
        scheme.access(0, "b")          # a forwarded once (credit used)
        assert scheme.holders_of("a") == {1}
        scheme.access(1, "c")          # evicts a again; no credits left
        assert scheme.holders_of("a") == set()

    def test_duplicate_not_forwarded(self):
        scheme = CooperativeScheme([2, 4], num_clients=2, n_chance=2)
        scheme.access(0, "a")
        scheme.access(1, "a")          # two copies
        scheme.access(0, "b")
        scheme.access(0, "c")          # evicts a at client 0; copy remains
        assert scheme.holders_of("a") == {1}

    def test_nchance_improves_partitioned_workload(self):
        """With a small server, remote client memory rescues capacity:
        N-chance beats plain independent caching on openmail-like
        partitioned traffic."""
        trace = openmail_like(scale=1 / 1024, num_refs=30000)
        costs = cooperative_costs()
        clients = trace.num_clients
        coop = CooperativeScheme([64, 32], num_clients=clients, n_chance=2)
        base = IndependentScheme([64, 32], num_clients=clients)
        coop_result = Engine(coop, costs).drive(trace)
        from repro.sim import paper_two_level

        base_result = Engine(base, paper_two_level()).drive(trace)
        assert coop_result.total_hit_rate >= base_result.total_hit_rate

    @settings(max_examples=20, deadline=None)
    @given(
        refs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 25)), max_size=250
        ),
        n_chance=st.integers(0, 3),
    )
    def test_property_directory_consistent(self, refs, n_chance):
        """The directory exactly mirrors the union of client caches."""
        scheme = CooperativeScheme(
            [2, 3], num_clients=4, n_chance=n_chance, seed=5
        )
        for client, block in refs:
            event = scheme.access(client, block)
            assert event.hit_level in (None, 1, 2, 3)
        for block in range(26):
            holders = scheme.holders_of(block)
            actual = {
                c for c in range(4) if block in scheme._clients[c]
            }
            assert holders == actual
