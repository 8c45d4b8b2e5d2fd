"""Trace collection from simulated swarms.

The paper's measurement client is a modified BitTornado "injected into
real-world BitTorrent swarms [that] actively participated in logging
download progress information" — and, because the model assumes strict
tit-for-tat, "during the measurements we did not allow the modified
client to interact with the seeds".

:func:`collect_traces` reproduces that setup on the simulator: it
instruments the first ``num_clients`` leechers of a swarm, optionally
blocks their seed interaction, and converts the per-round logs into
:class:`~repro.traces.schema.ClientTrace` objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ParameterError
from repro.sim.config import SimConfig
from repro.sim.peer import Peer
from repro.sim.swarm import Swarm
from repro.traces.schema import ClientTrace, TraceSample

__all__ = ["collect_traces", "trace_from_peer"]


def trace_from_peer(
    peer: Peer,
    *,
    swarm_id: str,
    num_pieces: int,
    piece_size_bytes: int,
) -> ClientTrace:
    """Convert an instrumented peer's logs into a :class:`ClientTrace`.

    The cumulative-bytes series is reconstructed by counting, for each
    potential-set sample time, the pieces acquired up to that time
    (piece acquisition times are logged separately from round samples).
    """
    if not peer.instrumented:
        raise ParameterError(
            f"peer {peer.peer_id} was not instrumented; no series to convert"
        )
    trace = ClientTrace(
        client_id=f"peer-{peer.peer_id}",
        swarm_id=swarm_id,
        num_pieces=num_pieces,
        piece_size_bytes=piece_size_bytes,
        started_at=peer.stats.joined_at,
        completed_at=peer.stats.completed_at,
    )
    piece_times = peer.stats.piece_times
    connection_by_time = dict(peer.stats.connection_series)
    acquired = 0
    for time, potential_size in peer.stats.potential_series:
        while acquired < len(piece_times) and piece_times[acquired] <= time:
            acquired += 1
        trace.append(
            TraceSample(
                time=time,
                cumulative_bytes=acquired * piece_size_bytes,
                potential_set_size=potential_size,
                active_connections=connection_by_time.get(time, 0),
            )
        )
    return trace


def collect_traces(
    config: SimConfig,
    num_clients: int,
    *,
    avoid_seeds: bool = True,
    swarm_id: str = "sim-swarm",
    round_profile: Optional[Dict[str, float]] = None,
) -> List[ClientTrace]:
    """Run a swarm with instrumented clients and return their traces.

    Args:
        config: swarm configuration.
        num_clients: how many (initially arriving) leechers to
            instrument.
        avoid_seeds: block seed uploads to the instrumented clients,
            matching the paper's strict-tit-for-tat measurement setup.
        swarm_id: label recorded on the traces.
        round_profile: when given, the swarm runs with its per-stage
            round profiler and adds its stage seconds into this dict.
    """
    if num_clients < 1:
        raise ParameterError(f"num_clients must be >= 1, got {num_clients}")
    swarm = Swarm(
        config,
        instrument_first=num_clients,
        instrumented_avoid_seeds=avoid_seeds,
        profile=round_profile is not None,
    )
    result = swarm.run()
    if round_profile is not None:
        for stage, seconds in result.round_profile.items():
            round_profile[stage] = round_profile.get(stage, 0.0) + seconds
    return [
        trace_from_peer(
            peer,
            swarm_id=swarm_id,
            num_pieces=config.num_pieces,
            piece_size_bytes=config.piece_size_bytes,
        )
        for peer in result.instrumented
    ]
