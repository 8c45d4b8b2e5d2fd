"""Tracker: peer registry and neighbor-set handout.

The tracker is the swarm's only centralised component, exactly as in
BitTorrent: it knows who is present and hands random peer lists to
announcing clients (which creates the *symmetric* neighbor relation the
paper describes).  The population over time — the "tracker statistics"
the paper used to select stable swarms for its measurements — is
:attr:`MetricsCollector.population_series
<repro.sim.metrics.MetricsCollector.population_series>`, fed from
:meth:`Tracker.counts` every round.

The optional *bootstrap bias* implements the Section 4.3 suggestion:
"the tracker can bias new peer arrivals into the neighborhood of the
peers which are trapped in the bootstrap phase."

When a :class:`~repro.faults.injector.FaultInjector` is attached (via
:attr:`Tracker.fault_injector`), announces that fall inside a tracker
outage window degrade: ``"empty"`` windows return no peers at all,
``"stale"`` windows are served from a registry snapshot taken when the
window opened (departed peers waste the handout).
"""

from __future__ import annotations

from typing import (  # noqa: F401
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import SimulationError
from repro.sim.peer import Peer

__all__ = ["Tracker"]


class Tracker:
    """Central registry and neighbor-handout service."""

    def __init__(
        self,
        ns_size: int,
        rng: np.random.Generator,
        *,
        bias_bootstrap: bool = False,
        accept_cap: Optional[int] = None,
    ):
        self.ns_size = ns_size
        #: Leechers accept incoming neighbor relations up to this size —
        #: above their own *request* target ``ns_size``, as real clients
        #: accept inbound connections beyond the peer count they ask the
        #: tracker for.  A hard cap at ``ns_size`` would partition a
        #: burst of sequential announces into disjoint cliques (early
        #: peers fill up on each other and decline everyone after),
        #: quantising piece flow to clique-sized waves.
        self.accept_cap = accept_cap if accept_cap is not None else 2 * ns_size
        if self.accept_cap < ns_size:
            raise SimulationError(
                f"accept_cap {self.accept_cap} below ns_size {ns_size}"
            )
        self.bias_bootstrap = bias_bootstrap
        #: Optional fault injector; when set, announces consult its
        #: outage schedule (see module docstring).
        self.fault_injector = None
        self._rng = rng
        self._peers: Dict[int, Peer] = {}
        self._next_id = 0
        #: Callbacks fired with a peer id whenever that peer's neighbor
        #: set mutates (announce handouts, deregister scrubs, shakes).
        #: The incremental potential-set cache subscribes here.
        self._neighbor_listeners: List[Callable[[int], None]] = []
        #: Callbacks fired with a peer id when the peer deregisters.
        self._departure_listeners: List[Callable[[int], None]] = []
        #: Peer ids the swarm reported as stuck in the bootstrap phase.
        self._bootstrap_trapped: Set[int] = set()

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def new_peer_id(self) -> int:
        peer_id = self._next_id
        self._next_id += 1
        return peer_id

    def register(self, peer: Peer) -> None:
        if peer.peer_id in self._peers:
            raise SimulationError(f"peer {peer.peer_id} registered twice")
        self._peers[peer.peer_id] = peer

    def deregister(self, peer_id: int) -> Peer:
        """Remove a peer and scrub it from all neighbor sets/connections."""
        peer = self._peers.pop(peer_id, None)
        if peer is None:
            raise SimulationError(f"peer {peer_id} not registered")
        for neighbor_id in list(peer.neighbors):
            neighbor = self._peers.get(neighbor_id)
            if neighbor is not None:
                neighbor.neighbors.discard(peer_id)
                neighbor.partners.discard(peer_id)
                self.notify_neighbors_changed(neighbor_id)
        peer.neighbors.clear()
        peer.partners.clear()
        self._bootstrap_trapped.discard(peer_id)
        for listener in self._departure_listeners:
            listener(peer_id)
        return peer

    def get(self, peer_id: int) -> Optional[Peer]:
        return self._peers.get(peer_id)

    @property
    def lookup(self) -> Callable[[int], Optional[Peer]]:
        """The registry's own ``dict.get``: :meth:`get` without the
        Python call frame, for per-pair loops.  Bind it once per loop;
        it stays valid while the registry is not replaced."""
        return self._peers.get

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def peers(self) -> Iterator[Peer]:
        """Iterate all peers in id order (deterministic)."""
        for peer_id in sorted(self._peers):
            yield self._peers[peer_id]

    def leechers(self) -> Iterator[Peer]:
        return (p for p in self.peers() if not p.is_seed)

    def seeds(self) -> Iterator[Peer]:
        return (p for p in self.peers() if p.is_seed)

    def counts(self) -> Tuple[int, int]:
        """``(leechers, seeds)`` currently registered."""
        leech = sum(1 for p in self._peers.values() if not p.is_seed)
        return leech, len(self._peers) - leech

    # ------------------------------------------------------------------
    # Mutation observers
    # ------------------------------------------------------------------
    def add_neighbor_listener(self, listener: Callable[[int], None]) -> None:
        """Subscribe to neighbor-set mutations (called with the peer id)."""
        self._neighbor_listeners.append(listener)

    def add_departure_listener(self, listener: Callable[[int], None]) -> None:
        """Subscribe to peer departures (called with the departed id)."""
        self._departure_listeners.append(listener)

    def notify_neighbors_changed(self, peer_id: int) -> None:
        """Report that ``peer_id``'s neighbor set mutated.

        Public so out-of-tracker mutation sites (peer-set shaking, which
        tears neighbor relations down directly) can keep subscribers —
        notably the incremental potential-set cache — consistent.
        """
        for listener in self._neighbor_listeners:
            listener(peer_id)

    # ------------------------------------------------------------------
    # Neighbor handout
    # ------------------------------------------------------------------
    def announce(self, peer: Peer, *, want: Optional[int] = None) -> int:
        """Hand the announcing peer up to ``want`` new neighbors.

        Fills the peer's neighbor set toward ``ns_size`` with a random
        sample of other registered peers (biased toward bootstrap-
        trapped peers when enabled).  The relation is made symmetric
        immediately: each granted neighbor also records the announcer.
        A candidate already holding ``accept_cap`` neighbors declines.

        Returns:
            Number of neighbors actually added.
        """
        if peer.peer_id not in self._peers:
            raise SimulationError(
                f"peer {peer.peer_id} must be registered before announcing"
            )
        deficit = self.ns_size - len(peer.neighbors)
        if want is not None:
            deficit = min(deficit, want)
        if deficit <= 0:
            return 0

        pool = self._peers
        stale = False
        if self.fault_injector is not None:
            outage = self.fault_injector.announce_outage()
            if outage is not None:
                if outage.mode == "empty":
                    self.fault_injector.record_empty_announce()
                    return 0
                # Stale: answer from the snapshot taken when the window
                # opened; departed ids survive in it and waste handouts.
                pool = self.fault_injector.stale_peer_ids(
                    outage, sorted(self._peers)
                )
                stale = True

        candidates = [
            pid
            for pid in pool
            if pid != peer.peer_id and pid not in peer.neighbors
        ]
        if not candidates:
            return 0

        ordered = self._order_candidates(candidates)
        if stale:
            # A stale list is a fixed handout of `deficit` contacts;
            # departed or declining entries waste their attempt instead
            # of falling through to the next candidate.
            ordered = ordered[:deficit]
        added = 0
        for candidate_id in ordered:
            if added >= deficit:
                break
            other = self._peers.get(candidate_id)
            if other is None:
                continue  # stale-snapshot id: the peer departed meanwhile
            # Seeds accept any number of neighbors (they only upload);
            # leechers decline once at their inbound acceptance cap.
            if not other.is_seed and len(other.neighbors) >= self.accept_cap:
                continue
            peer.neighbors.add(candidate_id)
            other.neighbors.add(peer.peer_id)
            self.notify_neighbors_changed(candidate_id)
            added += 1
        if added:
            self.notify_neighbors_changed(peer.peer_id)
        return added

    def _order_candidates(self, candidates: List[int]) -> List[int]:
        """Random candidate order, trapped peers first when biased."""
        permuted = [candidates[j] for j in self._rng.permutation(len(candidates))]
        if not self.bias_bootstrap or not self._bootstrap_trapped:
            return permuted
        trapped = [pid for pid in permuted if pid in self._bootstrap_trapped]
        rest = [pid for pid in permuted if pid not in self._bootstrap_trapped]
        return trapped + rest

    # ------------------------------------------------------------------
    # Bootstrap-bias bookkeeping (Section 4.3)
    # ------------------------------------------------------------------
    def report_bootstrap_trapped(self, peer_id: int, trapped: bool) -> None:
        """Swarm feedback: mark/unmark a peer as stuck in bootstrap."""
        if trapped and peer_id in self._peers:
            self._bootstrap_trapped.add(peer_id)
        else:
            self._bootstrap_trapped.discard(peer_id)

    @property
    def bootstrap_trapped(self) -> Set[int]:
        """Read-only view of currently trapped peer ids."""
        return set(self._bootstrap_trapped)
