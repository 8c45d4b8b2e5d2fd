"""Peer-selection primitives: potential sets and encounter candidates.

The paper's *potential set* of a peer is "the subset of peers in its NS
that have at least one piece to trade with the peer at a given instance
of time" — under strict tit-for-tat this requires **mutual** novelty
(each side holds a piece the other lacks).  The potential-set size is
the ``i`` coordinate of the download-evolution chain, and its per-round
evolution is the quantity validated in Figures 1 and 2.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.sim.bitfield import universe_mismatch
from repro.sim.peer import Peer
from repro.sim.tracker import Tracker

__all__ = [
    "potential_set",
    "potential_set_sizes",
    "optimistic_candidates",
    "IncrementalPotentialSets",
    "is_bootstrap_trapped",
]


def potential_set(peer: Peer, tracker: Tracker, *, strict_tft: bool = True) -> List[int]:
    """Neighbor ids with which ``peer`` can trade right now.

    Seeds never appear in a potential set: the potential set models
    tit-for-tat *trading* partners, and seeds have nothing to receive.
    (Seed uploads are handled separately, by :mod:`repro.sim.seeds`.)

    Args:
        strict_tft: when True (the paper's assumption), membership
            requires mutual novelty; when False, one-directional
            interest (the neighbor has something for ``peer``) suffices.

    Raises:
        ParameterError: when a neighbor's bitfield covers another file.
    """
    members: List[int] = []
    lookup = tracker.lookup
    mine = peer.bitfield._mask
    num_pieces = peer.bitfield.num_pieces
    # Canonical (sorted) neighbor order: member order feeds the swarm's
    # RNG-indexed draws, and Python set iteration order depends on the
    # set's internal layout — which a checkpoint restore cannot
    # reproduce.  Sorting makes the run a pure function of the visible
    # state, which is what makes resume ≡ uninterrupted possible.
    for neighbor_id in sorted(peer.neighbors):
        neighbor = lookup(neighbor_id)
        if neighbor is None or neighbor.is_seed:
            continue
        theirs = neighbor.bitfield
        if theirs.num_pieces != num_pieces:
            raise universe_mismatch(num_pieces, theirs.num_pieces)
        other = theirs._mask
        # Bitfield.mutual_interest's form: ``diff & other`` is what the
        # neighbor offers us, ``diff & mine`` what we offer back.
        diff = mine ^ other
        if strict_tft:
            if diff & other and diff & mine:
                members.append(neighbor_id)
        elif diff & other:
            members.append(neighbor_id)
    return members


def optimistic_candidates(
    donor: Peer, tracker: Tracker, *, targets: str = "starved"
) -> List[int]:
    """Neighbor ids eligible for the donor's optimistic unchoke.

    ``"starved"`` targets are leechers that want a piece of the donor's
    but hold nothing the donor lacks — the peers tit-for-tat alone can
    never serve; ``"empty"`` targets are leechers holding no piece.
    Ids come in sorted order: the caller indexes the list with an RNG
    draw, so its order must survive checkpoint/restore.

    Raises:
        ParameterError: when a neighbor's bitfield covers another file.
    """
    eligible: List[int] = []
    lookup = tracker.lookup
    mine = donor.bitfield._mask
    num_pieces = donor.bitfield.num_pieces
    starved = targets != "empty"
    for neighbor_id in sorted(donor.neighbors):
        neighbor = lookup(neighbor_id)
        if neighbor is None or neighbor.is_seed:
            continue
        theirs = neighbor.bitfield
        if theirs.num_pieces != num_pieces:
            raise universe_mismatch(num_pieces, theirs.num_pieces)
        other = theirs._mask
        if starved:
            # Bitfield.mutual_interest's form: the neighbor wants from
            # the donor (``diff & mine``) and offers nothing back.
            diff = mine ^ other
            if diff & mine and not diff & other:
                eligible.append(neighbor_id)
        elif not other:
            eligible.append(neighbor_id)
    return eligible


def potential_set_sizes(
    peers: List[Peer], tracker: Tracker, *, strict_tft: bool = True
) -> Dict[int, List[int]]:
    """Potential sets for many peers at once: ``{peer_id: member_ids}``."""
    return {
        peer.peer_id: potential_set(peer, tracker, strict_tft=strict_tft)
        for peer in peers
    }


class IncrementalPotentialSets:
    """Dirty-flag cache of per-peer potential sets.

    Recomputing every leecher's potential set every round costs
    O(N * s) bigint mutual-interest checks even when almost nothing
    changed.  This cache keeps the last computed member list per peer
    and recomputes only peers invalidated since — which makes each
    round's cost proportional to the *churn* (pieces granted,
    connections announced, departures) instead of the population.

    A peer's potential set depends on exactly: its own neighbor set and
    bitfield, and each neighbor's bitfield, seed flag, and registration.
    Because neighbor relations are symmetric, every one of those inputs
    is invalidated by marking the mutated peer *and its neighbors*
    dirty.  The cache subscribes to the tracker's neighbor-mutation and
    departure notifications; bitfield and seed-flag changes are reported
    by the swarm through :meth:`mark_neighborhood_dirty`.

    Recomputation calls the same :func:`potential_set` over the same
    (unmutated) neighbor sets, so cached results are **bit-identical**
    to a from-scratch computation — including member order, which
    follows neighbor-set iteration order.
    """

    def __init__(self, tracker: Tracker, *, strict_tft: bool = True):
        self.tracker = tracker
        self.strict_tft = strict_tft
        self._cache: Dict[int, List[int]] = {}
        self._dirty: Set[int] = set()
        tracker.add_neighbor_listener(self._dirty.add)
        tracker.add_departure_listener(self._forget)

    def _forget(self, peer_id: int) -> None:
        self._cache.pop(peer_id, None)
        self._dirty.discard(peer_id)

    def mark_dirty(self, peer_id: int) -> None:
        """Invalidate one peer's cached potential set."""
        self._dirty.add(peer_id)

    def mark_neighborhood_dirty(self, peer: Peer) -> None:
        """Invalidate ``peer`` and every peer holding it as a neighbor.

        Call after a change to ``peer``'s bitfield or seed flag — both
        alter the potential sets of its whole (symmetric) neighborhood.
        """
        self._dirty.add(peer.peer_id)
        self._dirty.update(peer.neighbors)

    def compute(self, peers: List[Peer]) -> Dict[int, List[int]]:
        """Potential sets for ``peers``: ``{peer_id: member_ids}``.

        Clean peers are served from cache; dirty (or never-seen) peers
        are recomputed.  The result is value-identical to
        :func:`potential_set_sizes` over the same peers.
        """
        dirty = self._dirty
        cache = self._cache
        result: Dict[int, List[int]] = {}
        for peer in peers:
            pid = peer.peer_id
            members = cache.get(pid)
            if members is None or pid in dirty:
                members = potential_set(
                    peer, self.tracker, strict_tft=self.strict_tft
                )
                cache[pid] = members
            result[pid] = members
        dirty.clear()
        return result


def is_bootstrap_trapped(peer: Peer, potential_size: int) -> bool:
    """True when the peer is stuck in the paper's bootstrap phase.

    The bootstrap trap is the state ``(0, 1, 0)`` of the model: the peer
    holds its first piece (or none) but nobody in its neighborhood can
    trade with it.
    """
    return (not peer.is_seed) and peer.bitfield.count <= 1 and potential_size == 0
