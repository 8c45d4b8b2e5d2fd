"""Tests for the piece bitfield."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sim.bitfield import Bitfield


def bitfields(num_pieces=12):
    return st.builds(
        lambda pieces: Bitfield.from_pieces(num_pieces, pieces),
        st.sets(st.integers(min_value=0, max_value=num_pieces - 1)),
    )


class TestConstruction:
    def test_empty(self):
        bf = Bitfield(8)
        assert bf.count == 0
        assert bf.is_empty
        assert not bf.is_complete

    def test_full(self):
        bf = Bitfield.full(8)
        assert bf.count == 8
        assert bf.is_complete

    def test_from_pieces(self):
        bf = Bitfield.from_pieces(8, [0, 3, 7])
        assert sorted(bf.pieces()) == [0, 3, 7]

    def test_from_pieces_out_of_range(self):
        with pytest.raises(ParameterError):
            Bitfield.from_pieces(8, [8])

    def test_invalid_size(self):
        with pytest.raises(ParameterError):
            Bitfield(0)

    def test_mask_outside_universe(self):
        with pytest.raises(ParameterError):
            Bitfield(4, mask=0b10000)

    def test_copy_is_independent(self):
        bf = Bitfield.from_pieces(8, [1])
        clone = bf.copy()
        clone.add(2)
        assert not bf.has(2)


class TestMutation:
    def test_add_new(self):
        bf = Bitfield(8)
        assert bf.add(3) is True
        assert bf.has(3)
        assert bf.count == 1

    def test_add_duplicate(self):
        bf = Bitfield.from_pieces(8, [3])
        assert bf.add(3) is False
        assert bf.count == 1

    def test_add_out_of_range(self):
        with pytest.raises(ParameterError):
            Bitfield(8).add(9)

    def test_completion_by_adds(self):
        bf = Bitfield(3)
        for piece in range(3):
            bf.add(piece)
        assert bf.is_complete


class TestQueries:
    def test_missing_count(self):
        bf = Bitfield.from_pieces(8, [0, 1])
        assert bf.missing_count() == 6

    def test_contains(self):
        bf = Bitfield.from_pieces(8, [2])
        assert 2 in bf
        assert 3 not in bf

    def test_len(self):
        assert len(Bitfield.from_pieces(8, [1, 2, 3])) == 3

    def test_exchangeable_pieces(self):
        mine = Bitfield.from_pieces(8, [0, 1])
        theirs = Bitfield.from_pieces(8, [1, 2, 3])
        assert mine.exchangeable_pieces_from(theirs) == [2, 3]

    def test_mutual_interest_true(self):
        a = Bitfield.from_pieces(8, [0])
        b = Bitfield.from_pieces(8, [1])
        assert a.mutual_interest(b)
        assert b.mutual_interest(a)

    def test_mutual_interest_subset_false(self):
        a = Bitfield.from_pieces(8, [0, 1])
        b = Bitfield.from_pieces(8, [0])
        assert not a.mutual_interest(b)
        assert not b.mutual_interest(a)

    def test_mutual_interest_identical_false(self):
        a = Bitfield.from_pieces(8, [0, 1])
        b = Bitfield.from_pieces(8, [0, 1])
        assert not a.mutual_interest(b)

    def test_exchangeable_from_is_one_directional(self):
        a = Bitfield.from_pieces(8, [0])
        b = Bitfield.from_pieces(8, [0, 1])
        assert a.exchangeable_from(b) == 0b10
        assert b.exchangeable_from(a) == 0

    def test_incompatible_sizes(self):
        with pytest.raises(ParameterError):
            Bitfield(4).mutual_interest(Bitfield(5))

    def test_hash_eq(self):
        a = Bitfield.from_pieces(8, [0, 1])
        b = Bitfield.from_pieces(8, [1, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Bitfield.from_pieces(8, [0])

    def test_repr(self):
        assert repr(Bitfield.from_pieces(8, [1, 2])) == "Bitfield(2/8)"


class TestProperties:
    @given(a=bitfields(), b=bitfields())
    @settings(max_examples=80)
    def test_mutual_interest_symmetric(self, a, b):
        assert a.mutual_interest(b) == b.mutual_interest(a)

    @given(a=bitfields(), b=bitfields())
    @settings(max_examples=80)
    def test_mutual_iff_both_interested(self, a, b):
        assert a.mutual_interest(b) == (
            bool(a.exchangeable_from(b)) and bool(b.exchangeable_from(a))
        )

    @given(a=bitfields(), b=bitfields())
    @settings(max_examples=80)
    def test_exchangeable_disjoint_from_holdings(self, a, b):
        for piece in a.exchangeable_pieces_from(b):
            assert not a.has(piece)
            assert b.has(piece)

    @given(a=bitfields())
    @settings(max_examples=50)
    def test_count_matches_iteration(self, a):
        assert a.count == len(list(a.pieces()))
