"""Stream states, derivation, disciplines, and uniform-draw guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgrid import (RngStream, SeedSpec, StreamState, derive_state,
                    derive_streams, seed_for)
from mcgrid.seeding import ambient_stream


class TestStreamState:
    def test_hex_width_is_fixed(self):
        h = derive_state(1).to_hex()
        assert len(h) == 208
        assert h == h.lower()
        int(h, 16)  # must be pure hex

    def test_hex_roundtrip(self):
        s = derive_state(42)
        assert StreamState.from_hex(s.to_hex()) == s

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_hex_roundtrip_arbitrary_integers(self, seed):
        s = derive_state(seed)
        assert StreamState.from_hex(s.to_hex()) == s

    def test_from_hex_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            StreamState.from_hex("ab" * 10)

    def test_state_survives_draws(self):
        a = RngStream.from_integer(7)
        a.uniforms(17)  # odd count leaves a partially consumed buffer
        mid = a.state
        rest_a = a.uniforms(100)
        b = RngStream.from_state(mid)
        assert np.array_equal(b.uniforms(100), rest_a)

    def test_from_state_matches_entropy_seeded_construction(self):
        # mid-buffer states: the buffer position and the 32-bit leftover vary
        bg = np.random.Philox(key=np.array((3, 5), dtype=np.uint64))
        gen = np.random.Generator(bg)
        states = []
        for i in range(50):
            bg.random_raw(i % 5)
            if i % 3:
                gen.integers(0, 2**32, dtype=np.uint32)
            states.append(StreamState._from_philox(bg.state))
        assert len({(s.buffer_pos, s.has_uint32) for s in states}) > 4
        for st in states:
            old = RngStream(np.random.Philox(key=0))
            old.state = st
            new = RngStream.from_state(st)
            assert new.state == st
            assert np.array_equal(new.uniforms(7), old.uniforms(7))
            assert np.array_equal(new.standard_gamma(0.7, 5), old.standard_gamma(0.7, 5))
            assert new.state == old.state


class TestDerivation:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_fresh_state_is_numpy_philox_from_the_key(self, seed):
        s = derive_state(seed)
        bg = np.random.Philox(key=np.array(s.key, dtype=np.uint64))
        assert StreamState._from_philox(bg.state) == s

    def test_derive_is_deterministic(self):
        assert derive_state(5) == derive_state(5)
        assert derive_state(5) != derive_state(6)

    def test_identical_streams_from_identical_states(self):
        a = RngStream.from_state(derive_state(9))
        b = RngStream.from_state(derive_state(9))
        assert np.array_equal(a.uniforms(1000), b.uniforms(1000))

    def test_nearby_integers_give_unrelated_output(self):
        a = RngStream.from_state(derive_state(1)).uniforms(4096)
        b = RngStream.from_state(derive_state(2)).uniforms(4096)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.08


class TestMasterSeedStreams:
    def test_repeatable(self):
        master = [2, 11, 15, 27, 21, 26]
        s1 = derive_streams(2, master)
        s2 = derive_streams(2, master)
        assert s1 == s2
        assert s1[0] != s1[1]

    def test_streams_are_disjoint_over_many_draws(self):
        states = derive_streams(3, [123])
        draws = [RngStream.from_state(s).uniforms(10**6) for s in states]
        seen = set()
        for d in draws:
            bits = d.tobytes()
            assert bits not in seen
            seen.add(bits)
        # no pairwise overlap anywhere in the sampled window
        all_vals = np.concatenate(draws)
        assert len(np.unique(all_vals)) == all_vals.size

    @given(st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_stream_i_is_numpy_base_jumped_i_times(self, master):
        states = derive_streams(64, master)
        base = np.random.Philox(key=np.array(states[0].key, dtype=np.uint64))
        for i, s in enumerate(states):
            assert StreamState._from_philox(base.jumped(i).state) == s

    def test_order_of_master_integers_matters(self):
        a = derive_streams(1, [1, 2])[0]
        b = derive_streams(1, [2, 1])[0]
        assert a != b


class TestUniformGuarantees:
    def test_strictly_inside_unit_interval(self):
        u = RngStream.from_integer(99).uniforms(10**7)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_mean_near_half(self):
        u = RngStream.from_integer(4).uniforms(10**5)
        assert abs(u.mean() - 0.5) < 0.01

    def test_scalar_matches_vector_path(self):
        a = RngStream.from_integer(3)
        b = RngStream.from_integer(3)
        singles = np.array([a.uniform() for _ in range(8)])
        assert np.array_equal(singles, b.uniforms(8))

    def test_exponentials_positive_finite(self):
        e = RngStream.from_integer(5).exponentials(10**5)
        assert (e > 0).all() and np.isfinite(e).all()
        assert abs(e.mean() - 1.0) < 0.02


class TestDisciplines:
    def test_seq_equals_derive_of_rep(self):
        spec = SeedSpec.seq()
        for rep in (1, 2, 3, 32):
            assert seed_for(spec, rep) == derive_state(rep)

    def test_rep_state_identical_across_everything_else(self):
        # the state depends only on (spec, rep): common random numbers
        spec = SeedSpec.per_rep_integer(range(100, 200))
        first = seed_for(spec, 3)
        for _ in range(5):
            assert seed_for(spec, 3) == first

    def test_per_rep_stream_returns_given_states(self):
        states = derive_streams(4, [7])
        spec = SeedSpec.per_rep_stream(states)
        assert seed_for(spec, 1) == states[0]
        assert seed_for(spec, 4) == states[3]

    def test_none_and_unseeded_have_no_state(self):
        assert seed_for(SeedSpec.none_reseed(), 2) is None
        assert seed_for(SeedSpec.unseeded(), 2) is None

    def test_rep_is_one_based(self):
        with pytest.raises(ValueError):
            seed_for(SeedSpec.seq(), 0)

    def test_validation_catches_short_seed_lists(self):
        assert SeedSpec.per_rep_integer([1, 2]).validate(8)
        assert not SeedSpec.per_rep_integer(range(8)).validate(8)

    def test_canonical_roundtrip(self):
        for spec in (SeedSpec.seq(), SeedSpec.none_reseed(), SeedSpec.unseeded(),
                     SeedSpec.per_rep_integer([5, 6, 7]),
                     SeedSpec.per_rep_stream(derive_streams(2, [1]))):
            assert SeedSpec.from_canonical(spec.canonical()) == spec


class TestAmbient:
    def test_ambient_stream_is_reused_within_thread(self):
        assert ambient_stream() is ambient_stream()

    def test_ambient_draws_move_forward(self):
        s = ambient_stream()
        assert s.uniform() != s.uniform()
