"""Choking: connection maintenance and formation.

BitTorrent's choking algorithm decides which neighbors a peer actively
trades with.  Under the paper's assumptions (homogeneous bandwidth,
strict tit-for-tat) the upload-rate preference degenerates to: keep
connections that still have something to trade, and fill open slots
from the potential set.  Two emergent quantities of the model live
here:

* the **re-encounter probability** ``p_r`` — a kept connection is one
  that survived both interest exhaustion and the exogenous
  ``connection_failure_prob`` churn;
* the **new-connection probability** ``p_n`` — slot filling is a
  bilateral matching over potential sets, so an attempt can fail when
  the counterpart has no open slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import ParameterError
from repro.sim.bitfield import universe_mismatch
from repro.sim.peer import Peer
from repro.sim.tracker import Tracker

__all__ = ["ConnectionStats", "drop_stale_connections", "fill_open_slots"]


@dataclass
class ConnectionStats:
    """Accumulated connection-event counts over a run.

    These are the empirical counterparts of the model's two connection
    parameters, which the paper defines as system averages: ``p_r``,
    "the probability (averaged over all peers in the system) that an
    established encounter does not fail", and ``p_n``, "the probability
    that a new connection is established".

    Attributes:
        survived: connection-rounds where an established pair persisted.
        dropped: connection-rounds where an established pair ended
            (interest exhaustion or exogenous churn).
        attempts: slot-filling attempts made.
        formed: attempts that produced a connection.
    """

    survived: int = 0
    dropped: int = 0
    attempts: int = 0
    formed: int = 0

    def p_reenc(self) -> float:
        """Measured per-round survival probability (NaN if unobserved)."""
        total = self.survived + self.dropped
        return self.survived / total if total else float("nan")

    def p_new(self) -> float:
        """Measured formation success probability (NaN if unobserved)."""
        return self.formed / self.attempts if self.attempts else float("nan")

    def merge(self, other: "ConnectionStats") -> None:
        """Fold another accumulator into this one."""
        self.survived += other.survived
        self.dropped += other.dropped
        self.attempts += other.attempts
        self.formed += other.formed


def drop_stale_connections(
    leechers: List[Peer],
    tracker: Tracker,
    rng: np.random.Generator,
    *,
    failure_prob: float = 0.0,
    strict_tft: bool = True,
    stats: Optional[ConnectionStats] = None,
    injector=None,
) -> int:
    """Tear down connections that lost mutual interest (or randomly fail).

    Iterates each connected pair once (via the lower peer id) and
    removes it when the endpoints can no longer trade under the active
    tit-for-tat regime, or — with probability ``failure_prob`` — due to
    exogenous churn.  Returns the number of connections dropped; when a
    :class:`ConnectionStats` accumulator is supplied, survivals and
    drops are recorded on it (the measured ``p_r``).

    A :class:`~repro.faults.injector.FaultInjector` adds an independent
    break probability on top of the nominal churn (drawn from the
    injector's own stream), driving the measured ``p_r`` below its
    nominal value without perturbing the swarm's RNG.
    """
    dropped = 0
    leecher_ids: Set[int] = {p.peer_id for p in leechers}
    lookup = tracker.lookup
    for peer in leechers:
        mine = peer.bitfield._mask
        num_pieces = peer.bitfield.num_pieces
        for partner_id in sorted(peer.partners):
            if partner_id in leecher_ids and partner_id < peer.peer_id:
                # Pair already visited from the lower-id endpoint.
                continue
            partner = lookup(partner_id)
            if partner is None:
                peer.partners.discard(partner_id)
                dropped += 1
                continue
            theirs = partner.bitfield
            if theirs.num_pieces != num_pieces:
                raise universe_mismatch(num_pieces, theirs.num_pieces)
            # Bitfield.mutual_interest's form.  Strict: each side offers
            # something new; loose: either side does.
            other = theirs._mask
            diff = mine ^ other
            if strict_tft:
                alive = bool(diff & mine) and bool(diff & other)
            else:
                alive = bool(diff & mine) or bool(diff & other)
            if alive and failure_prob > 0.0 and rng.random() < failure_prob:
                alive = False
            if alive and injector is not None and injector.break_connection():
                alive = False
            if not alive:
                peer.partners.discard(partner_id)
                partner.partners.discard(peer.peer_id)
                dropped += 1
                if stats is not None:
                    stats.dropped += 1
            elif stats is not None:
                stats.survived += 1
    return dropped


def fill_open_slots(
    leechers: List[Peer],
    potential: Dict[int, List[int]],
    tracker: Tracker,
    max_conns: int,
    rng: np.random.Generator,
    *,
    setup_prob: float = 1.0,
    matching: str = "blind",
    stats: Optional[ConnectionStats] = None,
    injector=None,
) -> int:
    """Fill open slots from potential sets (connection formation).

    Peers are processed in random order (homogeneous bandwidth leaves no
    rate ranking to prefer).  Two matching disciplines:

    * ``"blind"`` (default) — per open slot, the peer contacts **one**
      uniformly drawn potential-set member it is not already trading
      with; the connection forms iff that candidate has an open slot
      (the model's formation condition: the partner must not be in
      class ``k``) and the handshake completes this round (probability
      ``setup_prob``, the sim-side ``p_n``).  Decentralised peers know
      nothing about a neighbor's slot occupancy before contacting it,
      so busy candidates waste the attempt — the emergent friction
      behind the paper's ``(1 - x_{i-1} + x_i - x_k)`` formation rate.
    * ``"greedy"`` — per open slot, candidates are tried in random
      order until an open one accepts: an idealised matchmaker, useful
      as an upper-bound ablation.

    A :class:`~repro.faults.injector.FaultInjector` can veto an
    otherwise-successful handshake (a timeout), lowering the measured
    ``p_n`` below the nominal ``setup_prob`` without touching the
    swarm's RNG stream.

    Returns the number of new connections formed.
    """
    if matching not in ("blind", "greedy"):
        raise ParameterError(
            f"matching must be 'blind' or 'greedy', got {matching!r}"
        )
    formed = 0
    order = [leechers[j] for j in rng.permutation(len(leechers))]
    for peer in order:
        open_slots = peer.open_slots(max_conns)
        if open_slots <= 0:
            continue
        members = potential.get(peer.peer_id)
        if not members:
            continue
        candidates = [m for m in members if m not in peer.partners]
        if not candidates:
            continue
        if matching == "blind":
            for _ in range(open_slots):
                if stats is not None:
                    stats.attempts += 1
                candidate_id = candidates[int(rng.integers(len(candidates)))]
                candidate = tracker.get(candidate_id)
                if (
                    candidate is None
                    or candidate.is_seed
                    or candidate_id in peer.partners
                    or candidate.open_slots(max_conns) <= 0
                ):
                    continue  # busy or stale candidate: attempt wasted
                if setup_prob < 1.0 and rng.random() >= setup_prob:
                    continue  # handshake did not complete within the round
                if injector is not None and injector.fail_handshake():
                    continue  # injected handshake timeout
                peer.partners.add(candidate_id)
                candidate.partners.add(peer.peer_id)
                formed += 1
                if stats is not None:
                    stats.formed += 1
        else:
            shuffled = [candidates[j] for j in rng.permutation(len(candidates))]
            for candidate_id in shuffled:
                if peer.open_slots(max_conns) <= 0:
                    break
                if stats is not None:
                    stats.attempts += 1
                candidate = tracker.get(candidate_id)
                if candidate is None or candidate.is_seed:
                    continue
                if candidate.open_slots(max_conns) <= 0:
                    continue
                if setup_prob < 1.0 and rng.random() >= setup_prob:
                    continue
                if injector is not None and injector.fail_handshake():
                    continue  # injected handshake timeout
                peer.partners.add(candidate_id)
                candidate.partners.add(peer.peer_id)
                formed += 1
                if stats is not None:
                    stats.formed += 1
    return formed
