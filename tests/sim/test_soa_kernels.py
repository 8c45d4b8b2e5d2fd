"""Unit tests for the soa backend's array kernels.

Each kernel is checked against a straightforward scalar reference
(the ``Bitfield`` class, a per-group Python loop, or a brute-force
lexsort), including the fast paths that bypass the general code.
"""

import dataclasses
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.soa as soa_module
from repro.errors import SimulationError
from repro.sim.bitfield import Bitfield
from repro.sim.config import SimConfig
from repro.sim.piece_selection import RARITY_EXPONENT
from repro.sim.soa import (
    PEER_COLUMNS,
    PeerStore,
    ScratchArena,
    SoaSwarm,
    _contiguous_ranks,
    entries_in,
    first_pairs,
    group_ranks,
    interest_flags,
    mask_from_words,
    occurrence_ranks,
    pack_mask,
    pack_rows,
    partner_cells,
    popcount_rows,
    row_interest,
    unpack_rows,
    weighted_pick_columns,
    words_for,
)

#: The row-lookup kernels must equal their references on every input,
#: so the examples are derandomized: a failure replays on every run.
KERNEL_SETTINGS = dict(max_examples=300, deadline=None, derandomize=True)


@pytest.mark.parametrize("num_pieces", [1, 7, 63, 64, 65, 70, 128, 200])
def test_pack_unpack_rows_round_trip(num_pieces):
    rng = np.random.default_rng(num_pieces)
    held = rng.random((17, num_pieces)) < 0.4
    packed = pack_rows(held)
    assert packed.shape == (17, words_for(num_pieces))
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(unpack_rows(packed, num_pieces), held)


@pytest.mark.parametrize("num_pieces", [1, 64, 70, 200])
def test_pack_rows_matches_bitfield_masks(num_pieces):
    """Row packing and the scalar ``Bitfield`` agree bit for bit."""
    rng = np.random.default_rng(3)
    held = rng.random((9, num_pieces)) < 0.5
    packed = pack_rows(held)
    for row, bools in zip(packed, held):
        pieces = [p for p in range(num_pieces) if bools[p]]
        mask = Bitfield.from_pieces(num_pieces, pieces)._mask
        assert mask_from_words(row) == mask
        np.testing.assert_array_equal(row, pack_mask(num_pieces, mask))


def test_pack_mask_high_bit():
    """Bit 63 set: the word value exceeds int64 range and must survive."""
    mask = 1 << 63
    words = pack_mask(64, mask)
    assert int(words[0]) == 1 << 63
    assert mask_from_words(words) == mask


def test_popcount_rows_matches_bitfield_count():
    rng = np.random.default_rng(11)
    held = rng.random((25, 130)) < 0.3
    counts = popcount_rows(pack_rows(held))
    np.testing.assert_array_equal(counts, held.sum(axis=1))


def test_import_without_bitwise_count_names_numpy_2(monkeypatch):
    import importlib
    import sys

    monkeypatch.delattr(np, "bitwise_count")
    monkeypatch.delitem(sys.modules, "repro.sim.soa")
    with pytest.raises(ImportError, match=r"numpy>=2\.0.*np\.bitwise_count"):
        importlib.import_module("repro.sim.soa")


def test_interest_flags_matches_bitfield_reference():
    """Edge novelty flags equal the scalar subset comparisons."""
    rng = np.random.default_rng(5)
    num_pieces = 70
    held = rng.random((30, num_pieces)) < 0.5
    held[0, :] = False            # empty peer
    held[1, :] = True             # complete peer
    bits = pack_rows(held)
    src = rng.integers(0, 30, size=200)
    dst = rng.integers(0, 30, size=200)
    give_sd, give_ds = interest_flags(bits, src, dst)
    for k in range(src.size):
        s, d = held[src[k]], held[dst[k]]
        assert give_sd[k] == bool((s & ~d).any())
        assert give_ds[k] == bool((d & ~s).any())


def flatten_rows(owners, nbr, deg):
    """The row cells as a flat ``(owner, neighbor)`` edge list, in
    row-major order, with the mask of the real cells."""
    valid = np.arange(nbr.shape[1])[None, :] < deg[:, None]
    src = np.broadcast_to(owners[:, None], nbr.shape)[valid]
    return src, nbr[valid], valid


def test_row_interest_is_exact_on_empty_and_complete_endpoints():
    """A flash-crowd mix of empty, complete and partial peers on both
    sides of the rows: the row kernel equals the per-edge XOR path."""
    rng = np.random.default_rng(6)
    num_pieces = 40
    held = rng.random((50, num_pieces)) < 0.5
    held[:10, :] = False          # flash-crowd bootstrap: many empties
    held[10:14, :] = True
    bits = pack_rows(held)
    owners = rng.permutation(50)[:30]
    nbr = np.full((30, 8), -1, dtype=np.int64)
    deg = rng.integers(0, 9, size=30)
    for row, owner in enumerate(owners):
        others = rng.permutation(np.delete(np.arange(50), owner))
        nbr[row, : deg[row]] = others[: deg[row]]
    give, take = row_interest(bits, owners, nbr, deg)
    src, dst, valid = flatten_rows(owners, nbr, deg)
    give_sd, give_ds = interest_flags(bits, src, dst)
    np.testing.assert_array_equal(give[valid], give_sd)
    np.testing.assert_array_equal(take[valid], give_ds)
    assert not (give[~valid] | take[~valid]).any()
    # The count rules: an empty peer offers nothing, a complete one
    # wants nothing, whichever side of the row it sits on.
    empty = ~held.any(axis=1)
    complete = held.all(axis=1)
    assert not give[empty[owners]].any() and not take[complete[owners]].any()
    assert not (take & empty[nbr]).any() and not (give & complete[nbr]).any()
    assert give[empty[nbr] & valid & ~empty[owners][:, None]].all()


def _rank_reference(keys, priority):
    """Brute-force group ranks: lexsort, then position within group."""
    order = np.lexsort((priority, keys))
    ranks = np.empty(keys.size, dtype=np.int64)
    for key in np.unique(keys):
        members = order[keys[order] == key]
        ranks[members] = np.arange(members.size)
    return ranks


def test_group_ranks_matches_reference():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 12, size=300)
    priority = rng.permutation(300)
    np.testing.assert_array_equal(
        group_ranks(keys, priority), _rank_reference(keys, priority)
    )


def test_group_ranks_ascending_priority_fast_path():
    """Already-ascending priorities rank each key's copies in array
    order, the ranks ``occurrence_ranks`` gives."""
    rng = np.random.default_rng(8)
    keys = rng.integers(0, 9, size=120)
    priority = np.arange(120)
    np.testing.assert_array_equal(
        group_ranks(keys, priority), _rank_reference(keys, priority)
    )
    np.testing.assert_array_equal(
        group_ranks(keys, priority), occurrence_ranks(keys)
    )


def test_group_ranks_lexsort_fallback_on_huge_keys():
    """Keys too large for the fused int64 sort fall back to lexsort."""
    rng = np.random.default_rng(9)
    keys = rng.integers(0, 5, size=64) + (1 << 61)
    priority = rng.permutation(64)
    np.testing.assert_array_equal(
        group_ranks(keys, priority), _rank_reference(keys, priority)
    )


def test_group_ranks_empty_and_singleton():
    assert group_ranks(np.zeros(0, np.int64), np.zeros(0, np.int64)).size == 0
    np.testing.assert_array_equal(
        group_ranks(np.array([4]), np.array([0])), [0]
    )


def test_contiguous_ranks_matches_group_ranks():
    """For pre-grouped keys the sort-free rank equals the general one."""
    keys = np.repeat(np.array([3, 7, 7, 1, 9]), [2, 1, 3, 4, 2])
    expected = group_ranks(keys, np.arange(keys.size))
    np.testing.assert_array_equal(_contiguous_ranks(keys), expected)
    assert _contiguous_ranks(np.zeros(0, np.int64)).size == 0


# ----------------------------------------------------------------------
# Announce kernels: occurrence ranks and the first-pair dedupe
# ----------------------------------------------------------------------
def occurrence_reference(keys):
    """Ranks from an int64 stable argsort: position in the sorted array
    minus the position of the key's first copy there."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.arange(keys.size) - np.searchsorted(ordered, ordered)
    return ranks


@settings(**KERNEL_SETTINGS)
@given(keys=st.one_of(
    st.lists(st.integers(0, 6), max_size=60),
    st.lists(st.integers(0, 2**16 + 40), max_size=60),
    # Low digits that collide across different high digits.
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4))
        .map(lambda hl: hl[0] * 2**16 + hl[1]),
        max_size=60,
    ),
    st.lists(st.integers(0, 2**32 - 1), max_size=30),
    # Keys at and above 2**32 and 2**48 need a third and fourth digit;
    # the low digits collide across them.
    st.lists(
        st.tuples(st.sampled_from([0, 1, 2**16, 2**31 - 1]), st.integers(0, 2))
        .map(lambda hl: hl[0] * 2**32 + hl[1]),
        max_size=60,
    ),
    st.lists(st.integers(0, 2**63 - 1), max_size=30),
))
def test_occurrence_ranks_match_stable_argsort_reference(keys):
    keys = np.array(keys, dtype=np.int64)
    np.testing.assert_array_equal(
        occurrence_ranks(keys), occurrence_reference(keys)
    )


@pytest.mark.parametrize("keys", [
    [],
    [7],
    [5] * 9,
    [70_000, 5, 70_000, 2**16 + 5, 5, 2**16 + 5, 2**32 - 1],
    [2**32, 3, 2**32, 2**48 + 3, 3, 2**48 + 3, 2**48, 2**63 - 1],
])
def test_occurrence_ranks_edge_cases(keys):
    keys = np.array(keys, dtype=np.int64)
    ranks = occurrence_ranks(keys)
    assert ranks.dtype == np.int64
    np.testing.assert_array_equal(ranks, occurrence_reference(keys))
    np.testing.assert_array_equal(
        ranks, group_ranks(keys, np.arange(keys.size))
    )


def test_occurrence_ranks_refuse_negative_keys():
    """Digits are read from the two's-complement bits, which would rank
    a negative key after every non-negative one: it must fail loudly."""
    with pytest.raises(ValueError, match="non-negative"):
        occurrence_ranks(np.array([-1, 4], dtype=np.int64))


def unique_first_reference(owners, values, capacity):
    """The sorting dedupe: keep each unordered pair's first occurrence
    via ``np.unique(return_index=True)``."""
    key = np.minimum(owners, values) * capacity + np.maximum(owners, values)
    _, first = np.unique(key, return_index=True)
    first.sort()
    keep = np.zeros(owners.size, dtype=bool)
    keep[first] = True
    return keep


def grouped_pairs(ann, groups, capacity):
    """Proposals grouped by announcer, as the announce pass builds them:
    ``(owners, values, cols, row_of)`` for ``first_pairs``."""
    owners = np.repeat(np.array(ann, dtype=np.int64), [len(g) for g in groups])
    values = np.array([v for g in groups for v in g], dtype=np.int64)
    row_of = np.full(capacity, -1, dtype=np.int64)
    row_of[np.array(ann, dtype=np.int64)] = np.arange(len(ann))
    return owners, values, _contiguous_ranks(owners), row_of


@st.composite
def announce_groups(draw):
    """Distinct announcers in any order, each with 0..5 candidates that
    are other slots, repeats allowed; an empty group may sit anywhere,
    the last row included."""
    capacity = draw(st.integers(2, 10))
    ann = draw(st.permutations(range(capacity)))
    ann = ann[: draw(st.integers(1, capacity))]
    groups = [
        draw(st.lists(
            st.integers(0, capacity - 1).filter(lambda v, a=a: v != a),
            max_size=5,
        ))
        for a in ann
    ]
    return ann, groups, capacity


@settings(**KERNEL_SETTINGS)
@given(case=announce_groups())
def test_first_pairs_match_unique_reference(case):
    ann, groups, capacity = case
    owners, values, cols, row_of = grouped_pairs(ann, groups, capacity)
    np.testing.assert_array_equal(
        first_pairs(owners, values, cols, row_of),
        unique_first_reference(owners, values, capacity),
    )


@pytest.mark.parametrize("ann, groups, expected", [
    # A repeat inside one row keeps its first column.
    ([0], [[1, 1, 2, 1]], [True, False, True, False]),
    # A reverse pair: the earlier group wins, in either group order.
    ([0, 1], [[1], [0]], [True, False]),
    ([1, 0], [[0], [1]], [True, False]),
    ([1, 0], [[2, 0], [1, 2]], [True, True, False, True]),
    # Repeated and reversed: only the very first draw survives.
    ([0, 1], [[1, 1], [0, 0]], [True, False, False, False]),
    ([2, 0], [[0], [2, 2, 1]], [True, False, False, True]),
    # The last announcer drew nothing but was drawn: its row is empty.
    ([0, 1, 2], [[2, 1], [0], []], [True, True, False]),
])
def test_first_pairs_cases(ann, groups, expected):
    owners, values, cols, row_of = grouped_pairs(ann, groups, 4)
    keep = first_pairs(owners, values, cols, row_of)
    assert keep.tolist() == expected
    np.testing.assert_array_equal(
        keep, unique_first_reference(owners, values, 4)
    )


def test_first_pairs_signature_collisions_still_look_up_the_row():
    """Slots 64 apart share a signature bit: the signature only rules a
    lookup out, and the row lookup decides.  Row 0 holds 64 and 192, so
    its bit for 128 is set although 128 is not there."""
    ann = [0, 64, 128]
    groups = [[64, 192], [128, 0], [0, 256]]
    owners, values, cols, row_of = grouped_pairs(ann, groups, 300)
    keep = first_pairs(owners, values, cols, row_of)
    assert keep.tolist() == [True, True, True, False, True, True]
    np.testing.assert_array_equal(
        keep, unique_first_reference(owners, values, 300)
    )
    assert first_pairs(*grouped_pairs([3], [[]], 5)).size == 0


def row_wise_pick(weights, u):
    """The row-major draw that piece-major picking replaced: a row
    cumsum per transfer, counted against the row's scaled uniform."""
    if weights.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    cdf = np.cumsum(weights, axis=1)
    total = cdf[:, -1]
    idx = (cdf <= (u * total)[:, None]).sum(axis=1).astype(np.int64)
    np.minimum(idx, weights.shape[1] - 1, out=idx)
    idx[total <= 0.0] = -1
    return idx


def pick_columns(weights, u):
    """``weighted_pick_columns`` of transfer-major ``weights`` (one row
    per transfer), on a piece-major copy."""
    return weighted_pick_columns(weights.T.copy(), u)


#: Piece counts around each boundary of the pick's count dtype and of
#: a 64-bit word.
PICK_WIDTHS = [1, 7, 60, 64, 65, 255, 256, 300]

#: Just below 1: the largest uniform ``Generator.random`` can return.
ALMOST_ONE = np.nextafter(1.0, 0.0)


@st.composite
def pick_cases(draw):
    """Transfer-major weights and uniforms, one transfer of one kind per
    row: no candidate, a point mass, equal weights on a subset (with a
    uniform that lands exactly on a cdf entry), rarity weights that
    span many orders of magnitude, or one tiny last weight drawn with a
    uniform just below 1."""
    pieces = draw(st.sampled_from(PICK_WIDTHS))
    rows = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.zeros((rows, pieces))
    u = rng.random(rows)
    for row in range(rows):
        kind = draw(st.sampled_from(
            ["empty", "point", "equal", "rarity", "tiny-last"]
        ))
        if kind == "point":
            weights[row, rng.integers(pieces)] = rng.random() + 0.5
        elif kind == "equal":
            held = rng.random(pieces) < draw(st.sampled_from([0.1, 0.5, 1.0]))
            weights[row] = held
            # 2**k equal weights: ``u * total`` is exactly the cdf entry
            # ``u * 2**k`` whenever ``u`` is a multiple of 2**-k.
            k = int(np.log2(max(held.sum(), 1)))
            if held.sum() == 2**k:
                u[row] = rng.integers(2**k + 1) / 2**k
        elif kind == "rarity":
            counts = rng.integers(0, 10**5, pieces)
            weights[row] = (
                (rng.random(pieces) < 0.6) * (counts + 1.0) ** -RARITY_EXPONENT
            )
        elif kind == "tiny-last":
            weights[row, 0] = 1.0
            weights[row, -1] += 1e-12
            u[row] = ALMOST_ONE
    return weights, u


@settings(**KERNEL_SETTINGS)
@given(case=pick_cases())
def test_weighted_pick_columns_matches_row_wise_reference(case):
    weights, u = case
    np.testing.assert_array_equal(
        pick_columns(weights, u), row_wise_pick(weights, u)
    )


@pytest.mark.parametrize("pieces", PICK_WIDTHS)
def test_weighted_pick_columns_boundary_uniforms(pieces):
    """Draws that sit on the cdf's edges, at every width: ``u`` = 0 skips
    leading zero weights, ``u`` just below 1 reaches a tiny last weight
    that a float32 cdf would round away, ``u * total`` equal to a cdf
    entry counts that entry (``<=``), and an all-candidate row counts
    up to the last piece."""
    weights = np.zeros((5, pieces))
    weights[0, -1] = 1.0                        # only the last piece
    weights[1, 0] = 1.0
    weights[1, -1] = 1e-12                      # tiny last weight
    weights[2, :] = 1.0                         # every piece
    weights[3, : min(pieces, 4)] = 1.0          # 4 equal weights
    u = np.array([0.0, ALMOST_ONE, ALMOST_ONE, 0.5, 0.0])
    picks = pick_columns(weights, u)
    np.testing.assert_array_equal(picks, row_wise_pick(weights, u))
    assert picks[0] == pieces - 1
    assert picks[1] == (pieces - 1 if pieces > 1 else 0)
    assert picks[2] == pieces - 1
    assert picks[3] == min(2, min(pieces, 4) - 1)
    assert picks[4] == -1


def test_weighted_pick_columns_zero_columns_and_point_masses():
    rng = np.random.default_rng(10)
    weights = np.zeros((4, 6))
    weights[1, 3] = 2.5           # point mass -> always piece 3
    weights[3, 0] = 1.0
    picks = pick_columns(weights, rng.random(4))
    assert picks[0] == -1 and picks[2] == -1
    assert picks[1] == 3 and picks[3] == 0
    assert weighted_pick_columns(np.zeros((5, 0)), rng.random(0)).size == 0


def test_weighted_pick_columns_frequencies_track_weights():
    """The inverse-transform draw reproduces the weight distribution."""
    rng = np.random.default_rng(12)
    weights = np.tile(np.array([[1.0], [2.0], [5.0]]), (1, 30_000))
    picks = weighted_pick_columns(weights, rng.random(weights.shape[1]))
    freq = np.bincount(picks, minlength=3) / picks.size
    np.testing.assert_allclose(freq, np.array([1, 2, 5]) / 8.0, atol=0.02)


def row_wise_select(swarm, recv, send, offer_words, u):
    """``SoaSwarm._select_pieces`` as it was before piece-major picking:
    row-major candidates and weights, then :func:`row_wise_pick`."""
    config, store = swarm.config, swarm.store
    counts_snap = swarm._rarity_snapshot()
    offered = store.bits[send] if offer_words is None else offer_words
    cand = unpack_rows(offered & ~store.bits[recv], config.num_pieces)
    below = store.counts[recv] < config.random_first_cutoff
    if config.piece_selection == "random":
        weights = cand.astype(np.float64)
    elif config.piece_selection == "rarest":
        weights = cand * ((counts_snap + 1.0) ** -RARITY_EXPONENT)[None, :]
        weights[below] = cand[below]
    else:
        masked = np.where(cand, counts_snap[None, :], np.iinfo(np.int64).max)
        weights = (
            (masked == masked.min(axis=1)[:, None]) & cand
        ).astype(np.float64)
        weights[below] = cand[below]
    return row_wise_pick(weights, u)


@st.composite
def selection_cases(draw):
    """A swarm of a few dozen peers with drawn bitfields (some empty,
    some complete) and replication counts, a policy, a random-first
    cutoff, and transfers that read either the senders' bitfields or
    explicit offers."""
    pieces = draw(st.sampled_from(PICK_WIDTHS))
    policy = draw(st.sampled_from(["rarest", "strict-rarest", "random"]))
    cutoff = draw(st.sampled_from([0, 4, pieces // 2 + 1]))
    transfers = draw(st.integers(1, 60))
    offers = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return pieces, policy, cutoff, transfers, offers, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=selection_cases())
def test_select_pieces_matches_row_wise_reference(case):
    """Every policy, rows below and above the random-first cutoff, and
    super-seeding offers pick what the row-major block picked, from the
    same uniforms, leaving the generator in the same state."""
    pieces, policy, cutoff, transfers, offers, seed = case
    swarm = SoaSwarm(SimConfig(
        num_pieces=pieces,
        max_conns=2,
        ns_size=4,
        initial_leechers=30,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=2,
        piece_selection=policy,
        random_first_cutoff=cutoff,
        seed=1,
    ))
    swarm.setup()
    store = swarm.store
    rng = np.random.default_rng(seed)
    slots = np.flatnonzero(store.alive)
    fill = rng.choice([0.0, 0.05, 0.5, 0.95, 1.0], slots.size)
    held = rng.random((slots.size, pieces)) < fill[:, None]
    store.bits[slots] = pack_rows(held)
    store.counts[slots] = held.sum(axis=1)
    swarm.piece_counts = rng.integers(0, 40, pieces)
    recv = rng.choice(slots, transfers)
    send = rng.choice(slots, transfers)
    offer = None
    if offers:
        offer = pack_rows(rng.random((transfers, pieces)) < 0.5)
    swarm.rng = np.random.default_rng(seed)
    picks = swarm._select_pieces(
        recv, send=None if offers else send, offer_words=offer
    )
    reference = np.random.default_rng(seed)
    expected = row_wise_select(
        swarm, recv, send, offer, reference.random(transfers)
    )
    np.testing.assert_array_equal(picks, expected)
    assert swarm.rng.bit_generator.state == reference.bit_generator.state


# ----------------------------------------------------------------------
# Neighbor-row lookups: partner exclusion, row deletion, the seed scan
# ----------------------------------------------------------------------
@st.composite
def neighbor_rows(draw, max_slots=14, max_width=6):
    """A padded adjacency: each row holds distinct other slots, then -1.

    Rows need not be symmetric and any slot may have an empty row, so
    the kernels are checked beyond the invariants the swarm keeps.
    """
    n = draw(st.integers(2, max_slots))
    width = draw(st.integers(1, max_width))
    nbr = np.full((n, width), -1, dtype=np.int64)
    for slot in range(n):
        others = [o for o in range(n) if o != slot]
        row = draw(st.lists(
            st.sampled_from(others), unique=True,
            max_size=min(width, len(others)),
        ))
        nbr[slot, : len(row)] = row
    return nbr


@st.composite
def peer_rows(draw):
    """Neighbor rows over peers whose bitfields span 1, 2 or 3 words.

    Each slot holds no piece, every piece (a seed) or a random subset.
    Row 0 always holds the last slot: that is the real peer a -1
    padding cell's gather wraps to.
    """
    words = draw(st.sampled_from([1, 2, 3]))
    num_pieces = draw(st.integers(64 * (words - 1) + 1, 64 * words))
    nbr = draw(neighbor_rows(max_slots=10, max_width=6))
    last = nbr.shape[0] - 1
    if last not in nbr[0]:
        nbr[0, 0] = last
    held = np.zeros((nbr.shape[0], num_pieces), dtype=bool)
    for slot in range(nbr.shape[0]):
        kind = draw(st.sampled_from(["empty", "seed", "partial"]))
        if kind == "seed":
            held[slot] = True
        elif kind == "partial":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            held[slot] = rng.random(num_pieces) < draw(st.floats(0.05, 0.95))
    return pack_rows(held), nbr, num_pieces


@settings(**KERNEL_SETTINGS)
@given(rows=peer_rows())
def test_row_interest_matches_bitfield_reference(rows):
    """Every real cell equals the scalar ``Bitfield`` interest test in
    both directions, and every padding cell is False."""
    bits, nbr, num_pieces = rows
    owners = np.arange(nbr.shape[0])
    deg = (nbr >= 0).sum(axis=1)
    give, take = row_interest(bits, owners, nbr, deg)
    fields = [Bitfield(num_pieces, mask_from_words(row)) for row in bits]
    for row, owner in enumerate(owners):
        for col in range(nbr.shape[1]):
            if col >= deg[row]:
                assert not give[row, col] and not take[row, col]
                continue
            mine, theirs = fields[owner], fields[nbr[row, col]]
            assert give[row, col] == bool(theirs.exchangeable_from(mine))
            assert take[row, col] == bool(mine.exchangeable_from(theirs))


def test_row_interest_masks_padding_not_the_wrapped_slot():
    """The padding cell of row 0 gathers the last slot, a seed that the
    empty owner would want: only the column mask keeps it False."""
    held = np.zeros((3, 70), dtype=bool)
    held[1, :5] = True
    held[2, :] = True
    nbr = np.array([[1, -1], [0, 2]], dtype=np.int64)
    give, take = row_interest(
        pack_rows(held), np.array([0, 1]), nbr, np.array([1, 2])
    )
    assert take.tolist() == [[True, False], [False, True]]
    assert give.tolist() == [[False, False], [True, False]]


def isin_partner_mask(owners, rows, pairs, cap):
    """The sort-based reference: a row cell is a partner cell when its
    owner and its entry are a current pair."""
    lo = np.minimum(owners[:, None], rows)
    hi = np.maximum(owners[:, None], rows)
    key = lo * cap + hi
    return np.isin(key, pairs[:, 0] * cap + pairs[:, 1]) & (rows >= 0)


def partner_mask(nbr, leech, pairs):
    """The cells ``partner_cells`` clears in the leecher rows, and the
    reference's."""
    rows = nbr[leech]
    row_of = np.full(nbr.shape[0], -1, dtype=np.int64)
    row_of[leech] = np.arange(leech.size)
    mask = np.zeros(rows.shape, dtype=bool)
    mask[partner_cells(rows, row_of, pairs)] = True
    return mask, isin_partner_mask(leech, rows, pairs, nbr.shape[0])


@settings(**KERNEL_SETTINGS)
@given(data=st.data(), nbr=neighbor_rows())
def test_partner_cells_match_isin_reference(data, nbr):
    n = nbr.shape[0]
    is_leech = np.array(data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
    ))
    leech = np.flatnonzero(is_leech)
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: (min(p), max(p))),
        unique=True, max_size=2 * n,
    ))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    mask, reference = partner_mask(nbr, leech, pairs)
    np.testing.assert_array_equal(mask, reference)


def test_partner_cells_skip_absent_entries_and_non_leechers():
    """Slot 3 is no leecher, and pair (0, 2) is in no row at all."""
    nbr = np.array([
        [1, 3, -1],
        [0, 2, 3],
        [1, -1, -1],
        [0, 1, -1],  # a non-leecher's row is never searched
    ], dtype=np.int64)
    leech = np.array([0, 1, 2])
    pairs = np.array([[0, 1], [0, 2], [0, 3], [1, 3]], dtype=np.int64)
    mask, reference = partner_mask(nbr, leech, pairs)
    np.testing.assert_array_equal(mask, reference)
    # (1, 2) is no pair, so row 1's middle cell and row 2 stay clear.
    assert mask.tolist() == [
        [True, True, False], [True, False, True], [False, False, False]
    ]


def scalar_remove(rows, named, gone):
    """Per-row reference: each named row drops the values ``gone``
    marks, keeping the rest in order; other rows stay as they are."""
    return [
        [v for v in row if not (slot in named and gone[v])]
        for slot, row in enumerate(rows)
    ]


def store_with_rows(rows, width):
    store = PeerStore(len(rows), num_pieces=4, nbr_width=width)
    for slot, row in enumerate(rows):
        store.nbr[slot, : len(row)] = row
        store.nbr_deg[slot] = len(row)
    return store


def gone_mask(store, slots):
    """A departing-slot mask with the spare cell the padding reads."""
    gone = np.zeros(store.capacity + 1, dtype=bool)
    gone[list(slots)] = True
    return gone


def doomed_holders(rows, named, gone):
    """Each named row once per marked entry it holds."""
    return np.array(
        [h for h in named for v in rows[h] if gone[v]], dtype=np.int64
    )


def assert_rows(store, expected, width):
    for slot, row in enumerate(expected):
        assert store.nbr_deg[slot] == len(row)
        assert store.nbr[slot].tolist() == row + [-1] * (width - len(row))


@settings(**KERNEL_SETTINGS)
@given(data=st.data(), nbr=neighbor_rows(max_slots=10, max_width=8))
def test_remove_row_entries_matches_scalar_reference(data, nbr):
    """Any departing set, deleted from any rows, holders in any order."""
    n, width = nbr.shape
    rows = [row[row >= 0].tolist() for row in nbr]
    departing = data.draw(st.sets(st.integers(0, n - 1)))
    named = data.draw(st.sets(st.integers(0, n - 1)))
    store = store_with_rows(rows, width)
    gone = gone_mask(store, departing)
    holders = doomed_holders(rows, sorted(named), gone)
    holders = np.array(data.draw(st.permutations(holders.tolist())),
                       dtype=np.int64)
    store.remove_row_entries(holders, gone)
    assert_rows(store, scalar_remove(rows, named, gone), width)


def many_loss_rows(seed, width=12):
    """Rows of 60 slots, with two thirds of the slots departing, so
    most rows lose several entries."""
    rng = np.random.default_rng(seed)
    rows = [
        rng.permutation(60)[: rng.integers(0, width + 1)].tolist()
        for _ in range(60)
    ]
    departing = rng.permutation(60)[:40].tolist()
    return rows, departing


def test_remove_row_entries_many_holders_per_row():
    width = 12
    rows, departing = many_loss_rows(8, width)
    store = store_with_rows(rows, width)
    gone = gone_mask(store, departing)
    named = range(len(rows))
    holders = doomed_holders(rows, named, gone)
    assert np.bincount(holders).max() >= 5
    store.remove_row_entries(holders, gone)
    assert_rows(store, scalar_remove(rows, set(named), gone), width)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
def test_remove_row_entries_chunked_lookup_matches_unchunked(
    monkeypatch, chunk_rows
):
    """Rows are rewritten in blocks of ``_CHUNK_CELLS`` cells; block
    boundaries must not change the result."""
    width = 12
    rows, departing = many_loss_rows(9, width)
    named = range(0, len(rows), 2)
    reference = store_with_rows(rows, width)
    gone = gone_mask(reference, departing)
    holders = doomed_holders(rows, named, gone)
    assert np.unique(holders).size > 2 * chunk_rows
    reference.remove_row_entries(holders, gone)

    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", chunk_rows * width)
    store = store_with_rows(rows, width)
    store.remove_row_entries(holders, gone)
    np.testing.assert_array_equal(store.nbr, reference.nbr)
    np.testing.assert_array_equal(store.nbr_deg, reference.nbr_deg)
    assert_rows(store, scalar_remove(rows, set(named), gone), width)


def test_remove_row_entries_takes_departing_seeds_from_entries_in():
    """Seeds keep no row: the holders of a departing seed are the rows
    :func:`entries_in` finds, one per entry, and the same mask deletes
    the entries."""
    rows = [[1, 4, 2], [0, 4, 5], [0, 5], [1], [], []]
    store = store_with_rows(rows, width=3)
    store.is_seed[[4, 5]] = True
    store.nbr_deg[[4, 5]] = [2, 2]
    gone = gone_mask(store, [4, 5])
    holders, values = entries_in(store.nbr, gone)
    assert holders.tolist() == [0, 1, 1, 2]
    assert values.tolist() == [4, 4, 5, 5]
    store.remove_row_entries(holders, gone)
    expected = scalar_remove(rows[:4], {0, 1, 2}, gone)
    assert expected == [[1, 2], [0], [0], [1]]
    assert_rows(store, expected, width=3)


def test_remove_row_entries_chunked_lookup_names_the_missing_entry(
    monkeypatch,
):
    """A holder named once too often is caught after the last block,
    and the error gives both counts."""
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", 3)  # one row a block
    store = store_with_rows([[1, 2], [0], [0]], width=3)
    with pytest.raises(SimulationError, match=r"lost 2 .*expected 3"):
        store.remove_row_entries(
            np.array([1, 2, 2], dtype=np.int64), gone_mask(store, [0])
        )


def test_remove_row_entries_missing_entry_fails_loudly():
    """Both directions of a mismatch raise: a holder whose row lacks
    the departing slot, and a row holding more marked entries than it
    is named for (a one-sided relation)."""
    store = store_with_rows([[1, 2], [0], [0]], width=3)
    with pytest.raises(SimulationError, match="one-sided"):
        store.remove_row_entries(
            np.array([0, 1], dtype=np.int64), gone_mask(store, [2])
        )
    store = store_with_rows([[1, 2], [0], [0]], width=3)
    with pytest.raises(SimulationError, match=r"lost 2 .*expected 1"):
        store.remove_row_entries(
            np.array([0], dtype=np.int64), gone_mask(store, [1, 2])
        )


@settings(**KERNEL_SETTINGS)
@given(data=st.data(), nbr=neighbor_rows())
def test_entries_in_matches_isin_reference(data, nbr):
    """The seed-departure scan.  When the last slot is in the set, a
    mask without the spare cell would also mark every -1 padding cell."""
    n = nbr.shape[0]
    gone = np.array(data.draw(st.lists(
        st.integers(0, n - 1), unique=True, max_size=n
    )), dtype=np.int64)
    mask = np.zeros(n + 1, dtype=bool)
    mask[gone] = True
    rows, values = entries_in(nbr, mask)
    hit = np.isin(nbr, gone)
    counts = hit.sum(axis=1)
    np.testing.assert_array_equal(rows, np.repeat(np.arange(n), counts))
    np.testing.assert_array_equal(values, nbr[hit])
    # Any ascending row subset that covers the hits scans to the same.
    extra = np.array(data.draw(st.lists(
        st.integers(0, n - 1), unique=True, max_size=n
    )), dtype=np.int64)
    subset = np.union1d(np.flatnonzero(counts), extra)
    assert_same(entries_in(nbr, mask, subset), (rows, values))


@pytest.mark.parametrize("shape", [(50_000, 6), (9, 40_000)])
def test_entries_in_blocks_match_the_one_shot_gather(shape):
    """``entries_in`` gathers blocks of ``_CHUNK_CELLS`` cells; over a
    matrix taller than one block (or a block of one wide row) it equals
    the one-shot gather of the whole matrix."""
    rows, width = shape
    assert rows * width > soa_module._CHUNK_CELLS
    rng = np.random.default_rng(11)
    nbr = rng.integers(-1, rows, size=shape)
    mask = np.zeros(rows + 1, dtype=bool)
    mask[rng.permutation(rows)[: rows // 7]] = True
    flat = np.flatnonzero(mask[nbr])
    got_rows, got_values = entries_in(nbr, mask)
    np.testing.assert_array_equal(got_rows, flat // width)
    np.testing.assert_array_equal(got_values, nbr.reshape(-1)[flat])
    # The same over the rows that hold a marked entry; over a subset
    # of rows taller than one block, the entries of those rows.
    held = np.unique(got_rows)
    assert_same(entries_in(nbr, mask, held), (got_rows, got_values))
    some = np.flatnonzero(rng.random(rows) < 0.9)
    assert some.size * width > soa_module._CHUNK_CELLS
    keep = np.isin(got_rows, some)
    assert_same(
        entries_in(nbr, mask, some), (got_rows[keep], got_values[keep])
    )


def random_adjacency(rng, n, width):
    """A padded adjacency over ``n`` slots: distinct other slots, -1."""
    nbr = np.full((n, width), -1, dtype=np.int64)
    for slot in range(n):
        others = rng.permutation(n)[: rng.integers(0, width + 1)]
        others = others[others != slot]
        nbr[slot, : others.size] = others
    return nbr


def test_partner_cells_blocks_match_one_block(monkeypatch):
    """``partner_cells`` looks the pairs up in blocks of rows; blocks of
    a few cells find the same cells as one block."""
    rng = np.random.default_rng(12)
    n, width = 300, 5
    nbr = random_adjacency(rng, n, width)
    leech = np.flatnonzero(rng.random(n) < 0.8)
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[leech] = np.arange(leech.size)
    filled = np.argwhere(nbr >= 0)
    pairs = np.sort(np.column_stack([filled[:, 0], nbr[nbr >= 0]]), axis=1)
    pairs = pairs[rng.random(len(pairs)) < 0.5]
    expected = partner_cells(nbr[leech], row_of, pairs)
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", 2 * width)
    got = partner_cells(nbr[leech], row_of, pairs)
    assert expected[0].size > 20
    for want, have in zip(expected, got):
        np.testing.assert_array_equal(have, want)


def test_entries_in_ignores_padding_when_the_last_slot_departs():
    nbr = np.array([[2, -1], [-1, -1], [0, 1]], dtype=np.int64)
    mask = np.zeros(4, dtype=bool)
    mask[2] = True
    rows, values = entries_in(nbr, mask)
    assert rows.tolist() == [0]
    assert values.tolist() == [2]


# ----------------------------------------------------------------------
# Free-list kernels and the scratch arena
# ----------------------------------------------------------------------
def test_peer_store_allocate_release_matches_scalar_reference():
    """The vectorized free-list ops replay a scalar pop/append loop
    exactly, so slot recycling order (and thus checkpoints) is pinned."""
    store = PeerStore(32, num_pieces=10, nbr_width=4)
    reference = list(store.free)
    rng = np.random.default_rng(5)
    live: list = []
    for _ in range(200):
        if live and rng.random() < 0.45:
            pick = rng.permutation(len(live))[: rng.integers(1, 4)]
            slots = np.array([live[i] for i in pick], dtype=np.int64)
            live = [s for i, s in enumerate(live) if i not in set(pick)]
            store.release(slots)
            for slot in np.sort(slots):  # scalar reference: sorted appends
                reference.append(int(slot))
        else:
            count = int(rng.integers(1, 4))
            if count > len(reference):
                continue
            slots = store.allocate(count)
            expected = [reference.pop() for _ in range(count)]
            assert slots.tolist() == expected
            live.extend(slots.tolist())
        assert store.free == reference


def test_peer_store_released_slot_is_reset_when_allocated_after_grow():
    """``release`` restores every column's free value and ``allocate``
    only pops slots, so a slot released dirty, then handed out again
    after a ``grow`` copied it, reads every column's reset value."""
    store = PeerStore(8, num_pieces=70, nbr_width=4)
    slots = store.allocate(3)
    for column in PEER_COLUMNS:
        dirty = np.ones(1, dtype=column.dtype)
        getattr(store, column.name)[slots] = 7 * dirty[0]
    store.nbr[slots] = 5
    store.nbr_deg[slots] = 2
    store.release(slots[1:2])
    store.grow(40)
    (again,) = store.allocate(1)
    assert again == slots[1]
    assert store.alive[again]
    for column in PEER_COLUMNS:
        value = getattr(store, column.name)[again]
        np.testing.assert_array_equal(
            value, np.full_like(value, column.reset), err_msg=column.name
        )
    assert store.nbr[again].tolist() == [-1] * 4
    assert store.nbr_deg[again] == 0
    # The slots still alive keep their values through the grow.
    assert store.counts[slots[0]] == 7 and store.nbr_deg[slots[2]] == 2


def test_scratch_arena_reuses_buffers():
    arena = ScratchArena()
    first = arena.take("x", 8)
    assert arena.created == 1
    again = arena.take("x", 5)
    assert arena.created == 1
    assert np.shares_memory(first, again)
    assert again.size == 5


def test_scratch_arena_grows_and_switches_dtype():
    arena = ScratchArena()
    arena.take("x", 8)
    grown = arena.take("x", 20)
    assert arena.created == 2
    assert grown.size == 20
    # Growth is geometric: a slightly larger ask reuses the slack.
    assert arena.take("x", 16).size == 16
    assert arena.created == 2
    switched = arena.take("x", 4, np.bool_)
    assert switched.dtype == np.bool_
    assert arena.created == 3


def test_scratch_arena_views_are_reset():
    arena = ScratchArena()
    arena.take("z", 6)[:] = 7
    assert not arena.zeros("z", 6).any()
    np.testing.assert_array_equal(
        arena.full("z", 4, -1), np.full(4, -1, dtype=np.int64)
    )


def test_soa_steady_state_rounds_allocate_no_new_scratch():
    """After warm-up, rounds must not create new arena buffers: every
    per-round temporary is served from the reused slabs."""
    config = SimConfig(
        num_pieces=16,
        max_conns=2,
        ns_size=5,
        arrival_process="poisson",
        arrival_rate=0.5,
        initial_leechers=30,
        initial_distribution="uniform",
        initial_fill=0.7,
        num_seeds=2,
        seed_upload_slots=2,
        completed_become_seeds=0.0,
        abort_rate=0.05,
        shake_threshold=0.5,
        piece_selection="rarest",
        max_time=40.0,
        seed=3,
    )
    swarm = SoaSwarm(config)
    swarm.setup()
    while swarm._rounds < 10 and swarm.engine.step() is not None:
        pass
    assert swarm._rounds >= 10
    warm = swarm.scratch.created
    assert warm > 0
    capacity = swarm.store.capacity
    while swarm._rounds < 30 and swarm.engine.step() is not None:
        pass
    assert swarm._rounds >= 30
    assert swarm.store.capacity == capacity  # no slab growth mid-test
    assert swarm.scratch.created == warm


def test_scratch_arena_blank_fills_only_on_allocation():
    arena = ScratchArena()
    row = arena.blank("r", 6, -1)
    assert row.tolist() == [-1] * 6
    assert arena.created == 1
    row[2] = 5
    row[2] = -1  # the caller restores every cell it wrote
    again = arena.blank("r", 4, -1)
    assert arena.created == 1
    assert np.shares_memory(row, again)
    # A reused buffer is not refilled: what the caller left stays.
    again[1] = 9
    assert arena.blank("r", 4, -1)[1] == 9
    grown = arena.blank("r", 20, -1)
    assert arena.created == 2
    assert grown.tolist() == [-1] * 20


def test_announce_passes_leave_their_row_map_blank(monkeypatch):
    """Each announce pass writes only its announcers' cells of the
    slot-to-announcer map and resets them, so the map is all -1 after
    every pass, the slab's growth included."""
    real = SoaSwarm._announce_pass
    passes = []

    def spy(self, ann, need, alive):
        added = real(self, ann, need, alive)
        row_of = self.scratch.blank("announce_row", self.store.capacity, -1)
        assert (row_of == -1).all()
        passes.append(ann.size)
        return added

    monkeypatch.setattr(SoaSwarm, "_announce_pass", spy)
    config = SimConfig(
        num_pieces=16,
        max_conns=2,
        ns_size=8,
        arrival_process="poisson",
        arrival_rate=20.0,
        initial_leechers=40,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=2,
        max_time=15.0,
        seed=8,
    )
    swarm = SoaSwarm(config)
    swarm.run()
    assert len(passes) > 10
    assert swarm.store.capacity > 64


def all_rows_fill_slots(self, trade, nbr, mutual):
    """``SoaSwarm._fill_slots`` as it was before matching read only the
    rows with an open slot: partner exclusion, the candidate gather and
    the pool counts run over every trading row."""
    if not mutual.any():
        return
    config = self.config
    cap = self.store.capacity
    degrees = self._partner_degrees()
    open_slots = config.max_conns - degrees[trade]
    # Candidate pool per proposer = potential minus current partners
    # (the object backend's ``candidates`` list): each pair is an
    # entry in its trading endpoints' rows, cleared by row lookup.
    if self._pairs.shape[0]:
        row_of = self.scratch.full("leech_row", cap, -1)
        row_of[trade] = np.arange(trade.size)
        mutual[partner_cells(nbr, row_of, self._pairs)] = False
    # ``nbr[mutual]``; ``compress`` gathers a scattered mask's cells
    # several times faster than boolean indexing does.
    m_dst = np.compress(mutual.ravel(), nbr.ravel())
    avail = mutual.sum(axis=1)
    proposing = (avail > 0) & (open_slots > 0)
    if not proposing.any():
        return
    starts = np.cumsum(avail) - avail
    rows = np.flatnonzero(proposing)
    prop_row = np.repeat(rows, open_slots[rows])
    n_prop = prop_row.size
    self.connection_stats.attempts += n_prop
    u = self.rng.random(n_prop)
    span = avail[prop_row]
    pick = starts[prop_row] + np.minimum(
        (u * span).astype(np.int64), span - 1
    )
    candidate = m_dst[pick]
    proposer = trade[prop_row]
    # Per-peer sweep positions (the object backend's random
    # processing order); a proposal's priority is its owner's turn,
    # slots within the turn in draw order.
    sweep = self.scratch.full("sweep", cap, -1)
    sweep[trade[rows]] = self.rng.permutation(rows.size)
    priority = (
        sweep[proposer] * config.max_conns
        + _contiguous_ranks(prop_row)
    )

    key = (
        np.minimum(proposer, candidate) * cap
        + np.maximum(proposer, candidate)
    )
    ok = np.ones(n_prop, dtype=bool)
    if config.connection_setup_prob < 1.0:
        idx = np.flatnonzero(ok)
        keep = (
            self.rng.random(idx.size) < config.connection_setup_prob
        )
        ok[idx[~keep]] = False
    injector = self.fault_injector
    if (
        injector is not None
        and injector.plan.handshake_failure_prob > 0.0
    ):
        idx = np.flatnonzero(ok)
        failed = injector.handshake_mask(idx.size)
        if failed.any():
            ok[idx[failed]] = False
    ok_idx = np.flatnonzero(ok)
    if ok_idx.size == 0:
        return
    # Dedupe duplicate proposals of the same unordered pair, keeping
    # the earliest sweep turn (the object backend's repeat draws of
    # a formed partner are wasted attempts, so they stay counted).
    keep = group_ranks(key[ok_idx], priority[ok_idx]) == 0
    keep_idx = ok_idx[keep]
    end_a = proposer[keep_idx]
    end_b = candidate[keep_idx]
    remaining = self.scratch.zeros("remaining", cap)
    remaining[trade] = open_slots
    priority = priority[keep_idx]
    # Iterated two-sided rank filter: each pass admits proposals
    # ranked inside both endpoints' residual capacity, then charges
    # the accepted ones and retries the rest — converging on the
    # sequential walk's fill level without its O(N) loop.
    accept = np.zeros(keep_idx.size, dtype=bool)
    pending = np.arange(keep_idx.size)
    for _ in range(3):
        if pending.size == 0:
            break
        pr = priority[pending]
        # Rank both endpoint roles in one group per slot: a peer
        # proposing while also being proposed to spends the same
        # open slots either way (the object backend's busy check
        # counts total partners, not per-role).
        ends = np.concatenate([end_a[pending], end_b[pending]])
        ranks = group_ranks(ends, np.concatenate([pr, pr]))
        n_pend = pending.size
        admitted = (ranks[:n_pend] < remaining[end_a[pending]]) & (
            ranks[n_pend:] < remaining[end_b[pending]]
        )
        if not admitted.any():
            break
        taken = pending[admitted]
        accept[taken] = True
        np.subtract.at(remaining, end_a[taken], 1)
        np.subtract.at(remaining, end_b[taken], 1)
        pending = pending[~admitted]
        if pending.size:
            # A failed attempt is wasted, not queued: proposals
            # whose endpoint ran out of slots can never be admitted
            # and must stop occupying ranks ahead of later-priority
            # proposals (the object backend's busy-candidate waste
            # does not reserve the proposer's own slot either).
            live = (remaining[end_a[pending]] > 0) & (
                remaining[end_b[pending]] > 0
            )
            pending = pending[live]
    formed = int(accept.sum())
    if formed:
        # Sequential-sweep attempt accounting: a formed connection
        # consumes one of the candidate's open slots *before its
        # own turn* when the candidate proposes later, so that slot
        # never becomes an attempt in the object backend.
        acc = np.flatnonzero(accept)
        later = (sweep[end_b[acc]] >= 0) & (
            sweep[end_b[acc]] > sweep[end_a[acc]]
        )
        self.connection_stats.attempts -= int(later.sum())
    if formed:
        new_pairs = np.stack(
            [
                np.minimum(end_a, end_b)[accept],
                np.maximum(end_a, end_b)[accept],
            ],
            axis=1,
        )
        self._pairs = np.concatenate([self._pairs, new_pairs], axis=0)
    self.connection_stats.formed += formed


def test_fill_slots_on_open_rows_matches_all_rows_body(monkeypatch):
    """Matching that builds its candidate pools from the rows with an
    open slot forms the pairs, counts the attempts and consumes the
    generator exactly as matching over every trading row did, call by
    call, in rounds where full rows hold mutual cells and open rows
    hold partners whose cells must be excluded."""
    seen = Counter()
    real = SoaSwarm._fill_slots

    def both(self, trade, nbr, mutual):
        degrees = self._partner_degrees()[trade]
        full = degrees >= self.config.max_conns
        seen["full rows with mutual cells"] += int(mutual[full].any(axis=1).sum())
        seen["open rows with partners"] += int(((degrees > 0) & ~full).sum())
        stats = self.connection_stats
        saved = (
            self.rng.bit_generator.state,
            self._pairs.copy(),
            dataclasses.asdict(stats),
        )
        all_rows_fill_slots(self, trade, nbr, mutual.copy())
        want = (
            self.rng.bit_generator.state,
            self._pairs,
            dataclasses.asdict(stats),
        )
        self.rng.bit_generator.state = saved[0]
        self._pairs = saved[1]
        for name, value in saved[2].items():
            setattr(stats, name, value)
        real(self, trade, nbr, mutual)
        assert self.rng.bit_generator.state == want[0]
        np.testing.assert_array_equal(self._pairs, want[1])
        assert dataclasses.asdict(stats) == want[2]
        seen["formed"] += self._pairs.shape[0] - saved[1].shape[0]

    monkeypatch.setattr(SoaSwarm, "_fill_slots", both)
    config = SimConfig(
        num_pieces=30,
        max_conns=2,
        ns_size=12,
        arrival_process="poisson",
        arrival_rate=5.0,
        initial_leechers=300,
        initial_distribution="uniform",
        initial_fill=0.3,
        num_seeds=3,
        connection_setup_prob=0.9,
        piece_selection="rarest",
        max_time=15.0,
        seed=7,
    )
    SoaSwarm(config).run()
    assert seen["full rows with mutual cells"] > 100, seen
    assert seen["open rows with partners"] > 100, seen
    assert seen["formed"] > 100, seen


# ----------------------------------------------------------------------
# Threaded blocks: the thread count must not change any kernel's output
# ----------------------------------------------------------------------
#: 2**6 cells a block: a few rows, so every matrix here spans many.
SMALL_BLOCK = 1 << 6

THREADS = [2, 3]


def on_threads(monkeypatch, threads, kernel, *args):
    """``kernel(*args)`` in small blocks on ``threads`` threads."""
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", SMALL_BLOCK)
    monkeypatch.setattr(soa_module, "_THREADS", threads)
    return kernel(*args)


def assert_same(got, want):
    """Equal tuples of arrays, as the kernels here return."""
    assert len(got) == len(want)
    for have, expected in zip(got, want):
        np.testing.assert_array_equal(have, expected)


@pytest.mark.parametrize("threads", THREADS)
def test_threaded_row_and_edge_interest_match_one_thread(monkeypatch, threads):
    rng = np.random.default_rng(21)
    n, width, num_pieces = 400, 8, 90  # two words a bitfield
    bits = pack_rows(rng.random((n, num_pieces)) < 0.5)
    nbr = random_adjacency(rng, n, width)
    deg = (nbr >= 0).sum(axis=1)
    owners = np.arange(n)
    src, dst = rng.integers(0, n, (2, 3_000))
    for kernel, args in (
        (row_interest, (bits, owners, nbr, deg)),
        (interest_flags, (bits, src, dst)),
    ):
        want = on_threads(monkeypatch, 1, kernel, *args)
        assert_same(on_threads(monkeypatch, threads, kernel, *args), want)


@pytest.mark.parametrize("threads", THREADS)
def test_threaded_row_lookups_match_one_thread(monkeypatch, threads):
    rng = np.random.default_rng(22)
    n, width = 400, 8
    nbr = random_adjacency(rng, n, width)
    leech = np.flatnonzero(rng.random(n) < 0.8)
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[leech] = np.arange(leech.size)
    filled = np.argwhere(nbr >= 0)
    pairs = np.sort(np.column_stack([filled[:, 0], nbr[nbr >= 0]]), axis=1)
    pairs = pairs[rng.random(len(pairs)) < 0.5]
    mask = np.zeros(n + 1, dtype=bool)
    mask[rng.permutation(n)[: n // 7]] = True
    for kernel, args in (
        (partner_cells, (nbr[leech], row_of, pairs)),
        (entries_in, (nbr, mask)),
        (entries_in, (nbr, mask, np.flatnonzero(mask[nbr].any(axis=1)))),
    ):
        want = on_threads(monkeypatch, 1, kernel, *args)
        assert want[0].size > 50
        assert_same(on_threads(monkeypatch, threads, kernel, *args), want)


@pytest.mark.parametrize("threads", THREADS)
def test_threaded_remove_row_entries_matches_one_thread(monkeypatch, threads):
    rng = np.random.default_rng(23)
    n, width = 400, 8
    nbr = random_adjacency(rng, n, width)
    rows = [row[row >= 0].tolist() for row in nbr]
    gone = np.zeros(n + 1, dtype=bool)
    gone[rng.permutation(n)[: n // 3]] = True
    holders = doomed_holders(rows, range(n), gone)
    stores = []
    for count in (1, threads):
        store = store_with_rows(rows, width)
        on_threads(monkeypatch, count, store.remove_row_entries, holders, gone)
        stores.append(store)
    np.testing.assert_array_equal(stores[1].nbr, stores[0].nbr)
    np.testing.assert_array_equal(stores[1].nbr_deg, stores[0].nbr_deg)
    assert_rows(stores[1], scalar_remove(rows, set(range(n)), gone), width)


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("policy", ["rarest", "strict-rarest", "random"])
def test_threaded_select_pieces_matches_one_thread(
    monkeypatch, threads, policy
):
    """Piece choice draws one uniform per transfer before its blocks
    run, so the picks and the generator's state after the call do not
    depend on the thread count."""
    config = SimConfig(
        num_pieces=40,
        max_conns=3,
        ns_size=8,
        initial_leechers=300,
        initial_distribution="uniform",
        initial_fill=0.4,
        num_seeds=3,
        piece_selection=policy,
        random_first_cutoff=12,
        max_time=3.0,
        seed=4,
    )
    swarm = SoaSwarm(config)
    swarm.run()
    rng = np.random.default_rng(5)
    recv = rng.integers(0, swarm.store.capacity, 2_000)
    send = rng.integers(0, swarm.store.capacity, 2_000)
    picks, states = [], []
    for count in (1, threads):
        swarm.rng = np.random.default_rng(6)
        picks.append(on_threads(
            monkeypatch, count, swarm._select_pieces, recv, send
        ))
        states.append(swarm.rng.bit_generator.state)
    assert (picks[0] >= 0).sum() > 1_000
    np.testing.assert_array_equal(picks[1], picks[0])
    assert states[1] == states[0]


def test_pre_drawn_weighted_pick_columns_equals_per_block_draws():
    """One draw of a uniform per transfer, taken before the blocks,
    yields the picks that one draw per block used to."""
    rng = np.random.default_rng(24)
    weights = rng.random((7, 1_000)) * (rng.random((7, 1_000)) < 0.6)
    one = np.random.default_rng(9)
    whole = weighted_pick_columns(weights.copy(), one.random(weights.shape[1]))
    per_block = np.random.default_rng(9)
    blocks = np.concatenate([
        weighted_pick_columns(
            weights[:, lo:lo + 64].copy(),
            per_block.random(weights[:, lo:lo + 64].shape[1]),
        )
        for lo in range(0, weights.shape[1], 64)
    ])
    np.testing.assert_array_equal(whole, blocks)
    assert one.bit_generator.state == per_block.bit_generator.state


def test_an_error_in_a_threaded_block_propagates(monkeypatch):
    """A block that raises on a helper thread fails the kernel call, and
    the call still joins every thread it started."""
    monkeypatch.setattr(soa_module, "_THREADS", 3)
    before = threading.active_count()
    seen = []

    def kernel(lo, hi):
        seen.append(lo)
        if lo == 40:
            raise ValueError("block 40")
        return lo

    with pytest.raises(ValueError, match="block 40"):
        soa_module._blocks(100, soa_module._CHUNK_CELLS // 10, kernel)
    assert sorted(seen) == list(range(0, 100, 10))
    assert threading.active_count() == before
    assert soa_module._blocks(
        100, soa_module._CHUNK_CELLS // 10, lambda lo, hi: (lo, hi)
    ) == [(lo, lo + 10) for lo in range(0, 100, 10)]


@pytest.mark.parametrize("threads", THREADS)
def test_threaded_remove_row_entries_still_refuses_one_sided_relations(
    monkeypatch, threads
):
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", 3)  # one row a block
    monkeypatch.setattr(soa_module, "_THREADS", threads)
    store = store_with_rows([[1, 2], [0], [0], [1], [2, 0]], width=3)
    # Row 0 is named for slot 0, but does not hold it.
    with pytest.raises(SimulationError, match=r"lost 3 .*expected 4"):
        store.remove_row_entries(
            np.array([0, 1, 2, 4], dtype=np.int64), gone_mask(store, [0])
        )
