"""Synthetic reconstruction of the Figure-2 download archetypes.

The paper's Figure 2 shows three instances of real downloads:

* **(a, b) smooth** — the potential set "grows very fast in the
  beginning and remains greater than 15 throughout", giving a smooth
  download from start to finish;
* **(c, d) significant last phase** — the potential set "drops to 1
  towards the later stages of the download";
* **(e, f) significant bootstrap phase** — the potential set "is equal
  to 0 during the initial part of the download process and hence the
  download rate remains 0".

Each archetype is regenerated here from first principles by putting the
instrumented client into swarm conditions that provoke it:

* smooth: a large neighbor set in a diverse, well-populated swarm;
* last phase: a small neighbor set whose members run out of novel
  pieces as the client nears completion, with a slow arrival trickle
  (the model's small ``gamma``);
* bootstrap: an initial population of nearly complete, highly
  overlapping peers — the client's first donated piece is tradable with
  nobody, so it waits for fresh arrivals (the model's small ``alpha``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.chain import DownloadChain
from repro.errors import ParameterError
from repro.sim.config import SimConfig
from repro.traces.analysis import classify_trace
from repro.traces.collector import collect_traces
from repro.traces.schema import ClientTrace, TraceSample

__all__ = [
    "ArchetypeSpec",
    "ARCHETYPES",
    "archetype_config",
    "generate_archetype",
    "trace_from_chain",
]


@dataclass(frozen=True)
class ArchetypeSpec:
    """One Figure-2 archetype: config factory plus the expected label."""

    name: str
    figure_panels: str
    expected_phase: str
    description: str


ARCHETYPES: Dict[str, ArchetypeSpec] = {
    "smooth": ArchetypeSpec(
        name="smooth",
        figure_panels="2(a,b)",
        expected_phase="smooth",
        description="large neighbor set, diverse healthy swarm",
    ),
    "last": ArchetypeSpec(
        name="last",
        figure_panels="2(c,d)",
        expected_phase="last",
        description="small neighbor set starves near completion",
    ),
    "bootstrap": ArchetypeSpec(
        name="bootstrap",
        figure_panels="2(e,f)",
        expected_phase="bootstrap",
        description="overlapping near-complete neighborhood traps the first piece",
    ),
}


def archetype_config(kind: str, *, seed: int = 0) -> SimConfig:
    """Swarm configuration that provokes the requested archetype."""
    if kind == "smooth":
        return SimConfig(
            num_pieces=60,
            max_conns=7,
            ns_size=40,
            arrival_process="poisson",
            arrival_rate=2.0,
            initial_leechers=80,
            initial_distribution="uniform",
            initial_fill=0.4,
            num_seeds=2,
            seed_upload_slots=3,
            optimistic_unchoke_prob=0.5,
            piece_selection="rarest",
            max_time=120.0,
            seed=seed,
        )
    if kind == "last":
        return SimConfig(
            num_pieces=60,
            max_conns=4,
            ns_size=6,
            arrival_process="poisson",
            arrival_rate=0.15,
            initial_leechers=18,
            initial_distribution="skewed",
            initial_fill=0.55,
            skewed_pieces=3,
            skew_factor=0.1,
            num_seeds=1,
            seed_upload_slots=1,
            optimistic_unchoke_prob=0.5,
            optimistic_targets="empty",
            piece_selection="random",
            announce_interval=1000.0,  # no neighbor-set refills: starve
            max_time=400.0,
            seed=seed,
        )
    if kind == "bootstrap":
        return SimConfig(
            num_pieces=60,
            max_conns=4,
            ns_size=10,
            arrival_process="poisson",
            arrival_rate=0.08,
            initial_leechers=25,
            initial_distribution="uniform",
            initial_fill=0.93,
            num_seeds=1,
            seed_upload_slots=1,
            optimistic_unchoke_prob=0.6,
            optimistic_targets="empty",
            piece_selection="random",
            max_time=400.0,
            seed=seed,
        )
    raise ParameterError(
        f"unknown archetype {kind!r}; expected one of {sorted(ARCHETYPES)}"
    )


def trace_from_chain(
    chain: DownloadChain,
    *,
    seed: int = 0,
    piece_size_bytes: int = 256 * 1024,
    client_id: str = "model-client",
    swarm_id: str = "model",
) -> ClientTrace:
    """Render one model-chain trajectory as a :class:`ClientTrace`.

    Bridges the analytical model into the trace toolchain: ``b`` maps
    to cumulative bytes, ``i`` to the potential-set size, ``n`` to the
    active connections, one sample per round.  Used to validate the
    trace-based parameter calibration against known ground truth.
    """
    trajectory = chain.trajectory(seed=seed)
    trace = ClientTrace(
        client_id=client_id,
        swarm_id=swarm_id,
        num_pieces=chain.params.num_pieces,
        piece_size_bytes=piece_size_bytes,
        started_at=0.0,
    )
    for round_index, state in enumerate(trajectory):
        trace.append(
            TraceSample(
                time=float(round_index),
                cumulative_bytes=state.b * piece_size_bytes,
                potential_set_size=state.i,
                active_connections=state.n,
            )
        )
    if trace.is_complete:
        trace.completed_at = float(len(trajectory) - 1)
    return trace


def generate_archetype(
    kind: str,
    *,
    seed: int = 0,
    max_attempts: int = 8,
    round_profile: Optional[Dict[str, float]] = None,
) -> Tuple[ClientTrace, SimConfig]:
    """Generate one archetype trace, retrying seeds until it matches.

    Stochastic swarms do not produce the target phase signature on
    every seed (neither did the paper's live swarms — they *selected*
    the three shown instances); this retries successive seeds until the
    phase segmentation labels the trace as expected.  A
    ``round_profile`` dict collects the per-stage round seconds of every
    attempt's swarm (see :func:`~repro.traces.collector.collect_traces`).

    Returns:
        ``(trace, config)`` for the first matching run.

    Raises:
        ParameterError: for an unknown archetype kind.
        RuntimeError: if no matching trace is found in ``max_attempts``.
    """
    spec = ARCHETYPES.get(kind)
    if spec is None:
        raise ParameterError(
            f"unknown archetype {kind!r}; expected one of {sorted(ARCHETYPES)}"
        )
    last_trace: Optional[ClientTrace] = None
    for attempt in range(max_attempts):
        config = archetype_config(kind, seed=seed + attempt)
        traces = collect_traces(
            config,
            1,
            avoid_seeds=True,
            swarm_id=f"{kind}-{seed + attempt}",
            round_profile=round_profile,
        )
        trace = traces[0]
        last_trace = trace
        if not trace.samples:
            continue
        if classify_trace(trace) == spec.expected_phase:
            return trace, config
    last_label = classify_trace(last_trace) if last_trace is not None else "n/a"
    raise RuntimeError(
        f"no {kind!r} archetype found in {max_attempts} attempts "
        f"(last label: {last_label})"
    )
