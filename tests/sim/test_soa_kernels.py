"""Unit tests for the soa backend's array kernels.

Each kernel is checked against a straightforward scalar reference
(the ``Bitfield`` class, a per-group Python loop, or a brute-force
lexsort), including the fast paths that bypass the general code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.soa as soa_module
from repro.errors import SimulationError
from repro.sim.bitfield import Bitfield
from repro.sim.config import SimConfig
from repro.sim.soa import (
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
    weighted_pick_rows,
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
])
def test_occurrence_ranks_edge_cases(keys):
    keys = np.array(keys, dtype=np.int64)
    ranks = occurrence_ranks(keys)
    assert ranks.dtype == np.int64
    np.testing.assert_array_equal(ranks, occurrence_reference(keys))
    np.testing.assert_array_equal(
        ranks, group_ranks(keys, np.arange(keys.size))
    )


@pytest.mark.parametrize("bad", [[3, 2**32], [-1, 4]])
def test_occurrence_ranks_refuse_keys_outside_two_digits(bad):
    """Two 16-bit digits rank keys below 2**32 only: a key outside that
    range must fail loudly, not be ranked by its low digits."""
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        occurrence_ranks(np.array(bad, dtype=np.int64))


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


def test_weighted_pick_rows_zero_rows_and_point_masses():
    rng = np.random.default_rng(10)
    weights = np.zeros((4, 6))
    weights[1, 3] = 2.5           # point mass -> always column 3
    weights[3, 0] = 1.0
    picks = weighted_pick_rows(weights, rng)
    assert picks[0] == -1 and picks[2] == -1
    assert picks[1] == 3 and picks[3] == 0
    assert weighted_pick_rows(np.zeros((0, 5)), rng).size == 0


def test_weighted_pick_rows_frequencies_track_weights():
    """The inverse-transform draw reproduces the weight distribution."""
    rng = np.random.default_rng(12)
    weights = np.tile(np.array([1.0, 2.0, 5.0]), (30_000, 1))
    picks = weighted_pick_rows(weights, rng)
    freq = np.bincount(picks, minlength=3) / picks.size
    np.testing.assert_allclose(freq, np.array([1, 2, 5]) / 8.0, atol=0.02)


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
            assert give[row, col] == theirs.interested_in(mine)
            assert take[row, col] == mine.interested_in(theirs)


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


def scalar_remove(rows, holders, values):
    """Per-row reference: ``list.remove`` each value from its row."""
    rows = [list(row) for row in rows]
    for holder, value in zip(holders, values):
        rows[holder].remove(value)
    return rows


def store_with_rows(rows, width):
    store = PeerStore(len(rows), num_pieces=4, nbr_width=width)
    for slot, row in enumerate(rows):
        store.nbr[slot, : len(row)] = row
        store.nbr_deg[slot] = len(row)
    return store


@settings(**KERNEL_SETTINGS)
@given(data=st.data(), nbr=neighbor_rows(max_slots=10, max_width=8))
def test_remove_row_entries_matches_scalar_reference(data, nbr):
    """Many deletions per row, in any order, over any rows."""
    width = nbr.shape[1]
    rows = [row[row >= 0].tolist() for row in nbr]
    cells = [(h, v) for h, row in enumerate(rows) for v in row]
    doomed = data.draw(st.lists(
        st.sampled_from(cells), unique=True, max_size=len(cells)
    )) if cells else []
    holders = np.array([h for h, _ in doomed], dtype=np.int64)
    values = np.array([v for _, v in doomed], dtype=np.int64)
    store = store_with_rows(rows, width)
    store.remove_row_entries(holders, values)
    expected = scalar_remove(rows, holders.tolist(), values.tolist())
    for slot, row in enumerate(expected):
        assert store.nbr_deg[slot] == len(row)
        assert store.nbr[slot].tolist() == row + [-1] * (width - len(row))


def test_remove_row_entries_many_holders_per_row():
    rng = np.random.default_rng(8)
    width = 12
    rows = [
        rng.permutation(60)[: rng.integers(0, width + 1)].tolist()
        for _ in range(40)
    ]
    cells = [(h, v) for h, row in enumerate(rows) for v in row]
    pick = rng.permutation(len(cells))[: (2 * len(cells)) // 3]
    holders = np.array([cells[i][0] for i in pick], dtype=np.int64)
    values = np.array([cells[i][1] for i in pick], dtype=np.int64)
    assert np.bincount(holders).max() >= 5
    store = store_with_rows(rows, width)
    store.remove_row_entries(holders, values)
    expected = scalar_remove(rows, holders.tolist(), values.tolist())
    for slot, row in enumerate(expected):
        assert store.nbr[slot, : store.nbr_deg[slot]].tolist() == row
        assert (store.nbr[slot, store.nbr_deg[slot]:] == -1).all()


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
def test_remove_row_entries_chunked_lookup_matches_unchunked(
    monkeypatch, chunk_rows
):
    """The row lookup runs in chunks of ``_CHUNK_CELLS`` cells; chunk
    boundaries, including ones inside one holder's run of entries, must
    not change the result."""
    rng = np.random.default_rng(9)
    width = 12
    rows = [
        rng.permutation(60)[: rng.integers(0, width + 1)].tolist()
        for _ in range(40)
    ]
    cells = [(h, v) for h, row in enumerate(rows) for v in row]
    # Sorted picks list each holder's entries together.
    pick = np.sort(rng.permutation(len(cells))[: (2 * len(cells)) // 3])
    holders = np.array([cells[i][0] for i in pick], dtype=np.int64)
    values = np.array([cells[i][1] for i in pick], dtype=np.int64)
    boundaries = np.arange(chunk_rows, holders.size, chunk_rows)
    assert (holders[boundaries - 1] == holders[boundaries]).any()
    reference = store_with_rows(rows, width)
    reference.remove_row_entries(holders, values)

    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", chunk_rows * width)
    store = store_with_rows(rows, width)
    store.remove_row_entries(holders, values)
    np.testing.assert_array_equal(store.nbr, reference.nbr)
    np.testing.assert_array_equal(store.nbr_deg, reference.nbr_deg)
    expected = scalar_remove(rows, holders.tolist(), values.tolist())
    for slot, row in enumerate(expected):
        assert store.nbr[slot, : store.nbr_deg[slot]].tolist() == row


def test_remove_row_entries_chunked_lookup_names_the_missing_entry(
    monkeypatch,
):
    """A miss in a later chunk names its own holder and changes nothing."""
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", 3)  # one row a chunk
    store = store_with_rows([[1, 2], [0], [0]], width=3)
    before = store.nbr.copy()
    with pytest.raises(SimulationError, match=r"slot 2 has no entry 1"):
        store.remove_row_entries(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 0, 1], dtype=np.int64),
        )
    np.testing.assert_array_equal(store.nbr, before)


def test_remove_row_entries_missing_entry_fails_loudly():
    """A (holder, value) absent from its row must not delete column 0."""
    store = store_with_rows([[1, 2], [0], [0]], width=3)
    before = store.nbr.copy()
    with pytest.raises(SimulationError, match=r"slot 1 has no entry 2"):
        store.remove_row_entries(
            np.array([0, 1], dtype=np.int64), np.array([2, 2], dtype=np.int64)
        )
    np.testing.assert_array_equal(store.nbr, before)
    assert store.nbr_deg.tolist()[:3] == [2, 1, 1]


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
