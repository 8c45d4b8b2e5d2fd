"""Property tests for the object engine's mask-level kernels.

The object round's per-pair loops read bitfield masks directly instead
of calling :class:`~repro.sim.bitfield.Bitfield` methods, and its piece
draw runs in scalar Python instead of numpy.  Each kernel here is
checked against its per-call reference form — the ``Bitfield``-method
loop or the numpy draw it replaced — on random swarms, including the
RNG state the draw leaves behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sim.bitfield import Bitfield
from repro.sim.choking import ConnectionStats, drop_stale_connections
from repro.sim.peer import Peer
from repro.sim.peer_selection import optimistic_candidates, potential_set
from repro.sim.piece_selection import (
    RARITY_EXPONENT,
    STREAM_WINDOW,
    pairwise_sum,
    rarity_weights,
    select_piece,
    weighted_index,
)
from repro.sim.tracker import Tracker
from repro.stability.entropy import replication_degrees

#: Every kernel must equal its reference on every input, so examples
#: are derandomized: a failure replays on every run.
KERNEL_SETTINGS = dict(max_examples=200, deadline=None, derandomize=True)

POLICIES = ("rarest", "strict-rarest", "random", "sequential", "windowed")


# ----------------------------------------------------------------------
# Reference forms: the per-call code the kernels replaced
# ----------------------------------------------------------------------
def reference_potential_set(peer, tracker, strict_tft):
    members = []
    mine = peer.bitfield
    for neighbor_id in sorted(peer.neighbors):
        neighbor = tracker.get(neighbor_id)
        if neighbor is None or neighbor.is_seed:
            continue
        theirs = neighbor.bitfield
        if strict_tft:
            if mine.mutual_interest(theirs):
                members.append(neighbor_id)
        elif mine.exchangeable_from(theirs):
            members.append(neighbor_id)
    return members


def reference_optimistic_candidates(donor, tracker, targets):
    eligible = []
    for nid in sorted(donor.neighbors):
        neighbor = tracker.get(nid)
        if neighbor is None or neighbor.is_seed:
            continue
        if targets == "empty":
            if neighbor.bitfield.is_empty:
                eligible.append(nid)
        elif neighbor.bitfield.exchangeable_from(
            donor.bitfield
        ) and not donor.bitfield.exchangeable_from(neighbor.bitfield):
            eligible.append(nid)
    return eligible


def reference_drop_stale(leechers, tracker, rng, failure_prob, strict_tft, stats):
    dropped = 0
    leecher_ids = {p.peer_id for p in leechers}
    for peer in leechers:
        for partner_id in sorted(peer.partners):
            if partner_id in leecher_ids and partner_id < peer.peer_id:
                continue
            partner = tracker.get(partner_id)
            if partner is None:
                peer.partners.discard(partner_id)
                dropped += 1
                continue
            if strict_tft:
                alive = peer.bitfield.mutual_interest(partner.bitfield)
            else:
                alive = bool(
                    peer.bitfield.exchangeable_from(partner.bitfield)
                    or partner.bitfield.exchangeable_from(peer.bitfield)
                )
            if alive and failure_prob > 0.0 and rng.random() < failure_prob:
                alive = False
            if not alive:
                peer.partners.discard(partner_id)
                partner.partners.discard(peer.peer_id)
                dropped += 1
                stats.dropped += 1
            else:
                stats.survived += 1
    return dropped


def reference_replication_degrees(bitfields, num_pieces):
    degrees = np.zeros(num_pieces, dtype=np.int64)
    for bitfield in bitfields:
        if bitfield.num_pieces != num_pieces:
            raise ParameterError("mismatch")
        for piece in bitfield.pieces():
            degrees[piece] += 1
    return degrees


def reference_select_piece(receiver, sender, policy, rng, rarity, exclude,
                           random_first_cutoff):
    """The numpy form of :func:`select_piece` before the scalar draw."""
    candidates = receiver.exchangeable_pieces_from(sender)
    if exclude:
        candidates = [p for p in candidates if p not in exclude]
    if not candidates:
        return None
    if policy == "sequential":
        return int(min(candidates))
    if policy == "windowed":
        first = receiver.first_missing()
        horizon = (first or 0) + STREAM_WINDOW
        in_window = [p for p in candidates if p < horizon]
        pool = in_window if in_window else candidates
        return int(pool[rng.integers(len(pool))])
    no_view = rarity is None or (isinstance(rarity, dict) and not rarity)
    if policy == "random" or no_view or receiver.count < random_first_cutoff:
        return int(candidates[rng.integers(len(candidates))])
    if isinstance(rarity, dict):
        counts = np.array([rarity.get(p, 0) for p in candidates], dtype=float)
    else:
        counts = np.asarray(rarity)[candidates].astype(float)
    if policy == "strict-rarest":
        best_count = counts.min()
        rarest = [p for p, c in zip(candidates, counts) if c == best_count]
        return int(rarest[rng.integers(len(rarest))])
    weights = (counts + 1.0) ** -RARITY_EXPONENT
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    idx = min(int(cdf.searchsorted(rng.random(), side="right")),
              len(candidates) - 1)
    return int(candidates[idx])


# ----------------------------------------------------------------------
# Random swarms
# ----------------------------------------------------------------------
@st.composite
def swarms(draw, max_peers=14):
    """A tracker of peers with random masks, seed flags, neighbor sets
    and partner sets.  Some neighbor and partner ids name peers that
    never registered (the ``None`` lookup branch)."""
    num_pieces = draw(st.sampled_from([1, 3, 8, 40, 70, 130]))
    count = draw(st.integers(min_value=1, max_value=max_peers))
    tracker = Tracker(4, np.random.default_rng(0))
    peers = []
    ids = st.integers(min_value=0, max_value=count + 2)
    for pid in range(count):
        is_seed = draw(st.integers(0, 5)) == 0
        peer = Peer(pid, num_pieces, is_seed=is_seed)
        if not is_seed:
            mask = draw(st.integers(0, (1 << num_pieces) - 1))
            peer.bitfield = Bitfield(num_pieces, mask)
        peer.neighbors = draw(st.sets(ids, max_size=count + 2)) - {pid}
        peer.partners = draw(st.sets(ids, max_size=4)) - {pid}
        tracker.register(peer)
        peers.append(peer)
    return tracker, peers


@settings(**KERNEL_SETTINGS)
@given(swarm=swarms(), strict_tft=st.booleans())
def test_potential_set_matches_bitfield_reference(swarm, strict_tft):
    tracker, peers = swarm
    for peer in peers:
        assert potential_set(peer, tracker, strict_tft=strict_tft) == (
            reference_potential_set(peer, tracker, strict_tft)
        )


@settings(**KERNEL_SETTINGS)
@given(swarm=swarms(), targets=st.sampled_from(["starved", "empty"]))
def test_optimistic_candidates_match_bitfield_reference(swarm, targets):
    tracker, peers = swarm
    for donor in peers:
        assert optimistic_candidates(donor, tracker, targets=targets) == (
            reference_optimistic_candidates(donor, tracker, targets)
        )


@settings(**KERNEL_SETTINGS)
@given(
    swarm=swarms(),
    strict_tft=st.booleans(),
    failure_prob=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_drop_stale_connections_matches_bitfield_reference(
    swarm, strict_tft, failure_prob, seed
):
    """Same survivors, same counts and the same generator state."""
    tracker, peers = swarm
    leechers = [p for p in peers if not p.is_seed]
    before = {p.peer_id: set(p.partners) for p in peers}
    rng = np.random.default_rng(seed)
    stats = ConnectionStats()
    dropped = drop_stale_connections(
        leechers, tracker, rng, failure_prob=failure_prob,
        strict_tft=strict_tft, stats=stats,
    )
    after = {p.peer_id: set(p.partners) for p in peers}
    for peer in peers:
        peer.partners = set(before[peer.peer_id])
    ref_rng = np.random.default_rng(seed)
    ref_stats = ConnectionStats()
    ref_dropped = reference_drop_stale(
        leechers, tracker, ref_rng, failure_prob, strict_tft, ref_stats
    )
    assert dropped == ref_dropped
    assert stats == ref_stats
    assert after == {p.peer_id: p.partners for p in peers}
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_kernels_raise_on_mismatched_universes():
    tracker = Tracker(4, np.random.default_rng(0))
    a, b = Peer(0, 8), Peer(1, 9)
    a.bitfield = Bitfield(8, 0b1)
    b.bitfield = Bitfield(9, 0b10)
    a.neighbors, a.partners = {1}, {1}
    for peer in (a, b):
        tracker.register(peer)
    with pytest.raises(ParameterError, match="different files"):
        potential_set(a, tracker)
    with pytest.raises(ParameterError, match="different files"):
        optimistic_candidates(a, tracker)
    with pytest.raises(ParameterError, match="different files"):
        drop_stale_connections([a, b], tracker, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="different files"):
        select_piece(a.bitfield, b.bitfield, "random", np.random.default_rng(0))


# ----------------------------------------------------------------------
# replication_degrees
# ----------------------------------------------------------------------
@settings(**KERNEL_SETTINGS)
@given(
    num_pieces=st.integers(1, 140),
    data=st.data(),
)
def test_replication_degrees_matches_per_piece_reference(num_pieces, data):
    full = (1 << num_pieces) - 1
    masks = data.draw(st.lists(
        st.one_of(st.integers(0, full), st.just(full), st.just(0)),
        max_size=20,
    ))
    bitfields = [Bitfield(num_pieces, mask) for mask in masks]
    degrees = replication_degrees(bitfields, num_pieces)
    assert degrees.dtype == np.int64
    np.testing.assert_array_equal(
        degrees, reference_replication_degrees(bitfields, num_pieces)
    )


def test_replication_degrees_counts_complete_bitfields():
    bitfields = [Bitfield.full(10), Bitfield.full(10), Bitfield(10, 0b101)]
    expected = np.full(10, 2)
    expected[[0, 2]] = 3
    np.testing.assert_array_equal(replication_degrees(bitfields, 10), expected)
    np.testing.assert_array_equal(
        replication_degrees(iter([]), 10), np.zeros(10, dtype=np.int64)
    )


def test_replication_degrees_rejects_mismatched_universe():
    with pytest.raises(ParameterError, match="covers 9 pieces"):
        replication_degrees([Bitfield(8), Bitfield(9)], 8)
    with pytest.raises(ParameterError):
        replication_degrees([], 0)


# ----------------------------------------------------------------------
# The scalar piece draw
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", range(1, 301))
def test_pairwise_sum_matches_numpy_sum(n):
    rng = np.random.default_rng(n)
    weights = (rng.integers(0, 400, size=n) + 1.0) ** -RARITY_EXPONENT
    assert pairwise_sum(weights.tolist()) == weights.sum()
    spread = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
    assert pairwise_sum(spread.tolist()) == spread.sum()


def test_rarity_weights_match_numpy_power():
    counts = [0, 1, 2, 7, 999, 3, 5000, 0]
    expected = ((np.asarray(counts) + 1.0) ** -RARITY_EXPONENT).tolist()
    assert rarity_weights(counts) == expected


@pytest.mark.parametrize("n", [1, 2, 7, 9, 40, 130])
def test_weighted_index_matches_searchsorted_on_every_cdf_entry(n):
    """A uniform equal to a cdf entry lands past it, as with
    ``searchsorted(side="right")``; random uniforms almost never tie."""
    rng = np.random.default_rng(n)
    weights = (rng.integers(0, 9, size=n) + 1.0) ** -RARITY_EXPONENT
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    for u in [0.0, *cdf[:-1].tolist(), *rng.random(20).tolist()]:
        expected = min(int(cdf.searchsorted(u, side="right")), n - 1)
        assert weighted_index(weights.tolist(), u) == expected


@st.composite
def draws(draw):
    num_pieces = draw(st.sampled_from([1, 5, 9, 60, 130, 200]))
    full = (1 << num_pieces) - 1
    receiver = draw(st.integers(0, full))
    sender = draw(st.one_of(st.just(full), st.integers(0, full)))
    view = draw(st.sampled_from(["none", "dict", "array", "list", "empty"]))
    counts = draw(st.lists(
        st.integers(0, 300), min_size=num_pieces, max_size=num_pieces
    ))
    if view == "dict":
        rarity = {p: c for p, c in enumerate(counts) if c}
    elif view == "array":
        rarity = np.asarray(counts, dtype=np.int64)
    elif view == "list":
        rarity = counts
    elif view == "empty":
        rarity = {}
    else:
        rarity = None
    exclude = draw(st.one_of(
        st.none(), st.sets(st.integers(0, num_pieces - 1), max_size=6)
    ))
    return dict(
        receiver=Bitfield(num_pieces, receiver),
        sender=Bitfield(num_pieces, sender),
        policy=draw(st.sampled_from(POLICIES)),
        rarity=rarity,
        exclude=exclude,
        random_first_cutoff=draw(st.sampled_from([0, 4])),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=draws(), seed=st.integers(0, 2**32 - 1))
def test_select_piece_matches_numpy_form(case, seed):
    """Same piece, and the generator left in the same state."""
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    for _ in range(3):
        piece = select_piece(
            case["receiver"], case["sender"], case["policy"], rng,
            rarity=case["rarity"], exclude=case["exclude"],
            random_first_cutoff=case["random_first_cutoff"],
        )
        expected = reference_select_piece(
            case["receiver"], case["sender"], case["policy"], ref_rng,
            case["rarity"], case["exclude"], case["random_first_cutoff"],
        )
        assert piece == expected
        assert type(piece) is type(expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
