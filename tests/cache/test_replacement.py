"""Tests for the baseline replacement policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement import (
    CharPolicy,
    LRUPolicy,
    make_policy,
    NRUPolicy,
    POLICIES,
    RandomPolicy,
    SRRIPPolicy,
)
from repro.cache.replacement.base import BLOCK_DRAWS, DeterministicRandom


class TestLRU:
    def test_victim_is_least_recent(self):
        policy = LRUPolicy()
        state = policy.make_set_state(4, 0)
        for way in range(4):
            policy.on_fill(state, way)
        policy.on_hit(state, 0)  # 1 is now LRU
        assert policy.choose_victim(state) == 1

    def test_fill_is_mru(self):
        policy = LRUPolicy()
        state = policy.make_set_state(4, 0)
        for way in range(4):
            policy.on_fill(state, way)
        policy.on_fill(state, 0)
        assert policy.choose_victim(state) == 1

    def test_stack_order(self):
        policy = LRUPolicy()
        state = policy.make_set_state(3, 0)
        for way in (2, 0, 1):
            policy.on_fill(state, way)
        assert policy.stack_order(state) == [1, 0, 2]

    def test_eligible_victims_is_bottom_half(self):
        policy = LRUPolicy()
        state = policy.make_set_state(4, 0)
        for way in (0, 1, 2, 3):
            policy.on_fill(state, way)
        assert policy.eligible_victims(state) == [0, 1]


class TestNRU:
    def test_first_unreferenced_is_victim(self):
        policy = NRUPolicy()
        state = policy.make_set_state(4, 0)
        for way in range(4):
            policy.on_fill(state, way)
        # Everything referenced: choose_victim resets all and evicts at hand.
        victim = policy.choose_victim(state)
        assert 0 <= victim < 4
        # After the reset, other ways are unreferenced.
        assert not all(state.referenced)

    def test_hit_protects(self):
        policy = NRUPolicy()
        state = policy.make_set_state(2, 0)
        policy.on_fill(state, 0)
        policy.on_fill(state, 1)
        first = policy.choose_victim(state)  # resets bits
        policy.on_hit(state, 1 - first)
        assert policy.choose_victim(state) != 1 - first

    def test_eligible_victims_excludes_referenced(self):
        policy = NRUPolicy()
        state = policy.make_set_state(4, 0)
        policy.on_fill(state, 2)
        eligible = policy.eligible_victims(state)
        assert 2 not in eligible
        assert sorted(eligible) == [0, 1, 3]

    def test_eligible_victims_ages_when_all_referenced(self):
        policy = NRUPolicy()
        state = policy.make_set_state(2, 0)
        policy.on_fill(state, 0)
        policy.on_fill(state, 1)
        assert sorted(policy.eligible_victims(state)) == [0, 1]

    def test_hint_clears_bit(self):
        policy = NRUPolicy()
        state = policy.make_set_state(2, 0)
        policy.on_fill(state, 0)
        policy.on_hint(state, 0)
        assert not state.referenced[0]


class TestSRRIP:
    def test_insertion_is_long_not_distant(self):
        policy = SRRIPPolicy()
        state = policy.make_set_state(2, 0)
        policy.on_fill(state, 0)
        assert state.rrpv[0] == 2

    def test_hit_promotes_to_zero(self):
        policy = SRRIPPolicy()
        state = policy.make_set_state(2, 0)
        policy.on_fill(state, 0)
        policy.on_hit(state, 0)
        assert state.rrpv[0] == 0

    def test_victim_has_max_rrpv(self):
        policy = SRRIPPolicy()
        state = policy.make_set_state(4, 0)
        for way in range(4):
            policy.on_fill(state, way)
        policy.on_hit(state, 2)
        victim = policy.choose_victim(state)
        assert victim != 2
        assert state.rrpv[victim] == 3

    def test_aging_saturates(self):
        policy = SRRIPPolicy()
        state = policy.make_set_state(2, 0)
        policy.on_fill(state, 0)
        policy.on_hit(state, 0)
        policy.on_fill(state, 1)
        victim = policy.choose_victim(state)
        # way 1 (rrpv 2) ages to 3 before way 0 (rrpv 0).
        assert victim == 1


class TestCHAR:
    def test_leader_sets_alternate(self):
        policy = CharPolicy()
        s0 = policy.make_set_state(4, 0)
        s1 = policy.make_set_state(4, 1)
        s2 = policy.make_set_state(4, 2)
        assert s0.leader == 1
        assert s1.leader == -1
        assert s2.leader == 0

    def test_psel_moves_on_leader_misses(self):
        policy = CharPolicy()
        s0 = policy.make_set_state(4, 0)
        start = policy.psel
        policy.on_fill(s0, 0)  # miss in the +1 leader
        assert policy.psel == start + 1

    def test_hint_ages_line(self):
        policy = CharPolicy()
        state = policy.make_set_state(4, 2)
        policy.on_hit(state, 1)
        policy.on_hint(state, 1)
        assert not state.referenced[1]

    def test_follower_insertion_tracks_psel(self):
        policy = CharPolicy()
        leader_b = policy.make_set_state(4, 1)
        follower = policy.make_set_state(4, 2)
        # Drive PSEL low: misses in the -1 leader decrement it.
        for _ in range(600):
            policy.on_fill(leader_b, 0)
        policy.on_fill(follower, 3)
        assert follower.referenced[3]  # low PSEL -> insert referenced


class TestRandomAndRegistry:
    def test_random_victims_cover_all_ways(self):
        policy = RandomPolicy(seed=7)
        state = policy.make_set_state(4, 0)
        seen = {policy.choose_victim(state) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_registry_instantiates_all(self):
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("belady")

    def test_deterministic_random_reproducible(self):
        a = DeterministicRandom(42)
        b = DeterministicRandom(42)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_deterministic_random_below_bounds(self):
        rng = DeterministicRandom(1)
        for _ in range(100):
            assert 0 <= rng.below(7) < 7

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeterministicRandom(1).below(0)

    @pytest.mark.parametrize("seed", [1, 42, 0xFFFFFFFFFFFFFFFF, 1 << 64])
    def test_block_is_the_next_draws(self, seed):
        fast = DeterministicRandom(seed)
        slow = DeterministicRandom(seed)
        for _ in range(2):
            assert fast.block().tolist() == [slow.next() for _ in range(BLOCK_DRAWS)]
            fast.skip(BLOCK_DRAWS)
            assert fast._state == slow._state

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 12345, BLOCK_DRAWS - 1, BLOCK_DRAWS])
    def test_skip_matches_next(self, count):
        fast = DeterministicRandom(7)
        slow = DeterministicRandom(7)
        fast.skip(count)
        for _ in range(count):
            slow.next()
        assert fast.next() == slow.next()

    def test_skip_is_bounded_by_one_block(self):
        with pytest.raises(ValueError):
            DeterministicRandom(1).skip(BLOCK_DRAWS + 1)


@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    ops=st.lists(
        st.tuples(st.sampled_from(["hit", "fill", "invalidate", "hint"]), st.integers(0, 7)),
        max_size=200,
    ),
)
@settings(max_examples=100)
def test_policies_always_return_valid_victims(policy_name, ops):
    """Any op sequence leaves the policy able to name a victim in range."""
    policy = make_policy(policy_name)
    state = policy.make_set_state(8, 0)
    for op, way in ops:
        if op == "hit":
            policy.on_hit(state, way)
        elif op == "fill":
            policy.on_fill(state, way)
        elif op == "invalidate":
            policy.on_invalidate(state, way)
        else:
            policy.on_hint(state, way)
    assert 0 <= policy.choose_victim(state) < 8
    eligible = policy.eligible_victims(state)
    assert eligible and all(0 <= w < 8 for w in eligible)
