"""The four workloads: soa-100k, sharded-1m, model-service, figures-quick.

Each ``run_*`` function takes a :class:`Context` and returns an
:class:`Outcome`.  Inputs come only from ``ctx.seed``.  Layers are timed
from outside, through their public functions; with ``ctx.tracer`` set
those functions are wrapped in spans and the simulators run with their
public ``profile=True`` stage profiler.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from harness import Tracer

SOA_STAGES = ("store", "interest", "selection", "exchange", "seeds",
              "bookkeeping")


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: int
    tracer: Optional[Tracer] = None

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


@dataclass
class Outcome:
    """What one workload measured.

    ``setup_s`` and ``op_s`` are sample lists; ``ops_per_s`` and
    ``wall_s`` are the workload's throughput and measured-phase wall
    time; ``table`` holds the workload's own named end-to-end metrics as
    ``name -> (value, unit, note)``; ``ledger`` maps keys to digests
    that must repeat across runs with the same seed; ``layers`` holds
    the per-layer metrics of a traced run.
    """

    setup_s: List[float]
    op_s: List[float]
    ops_per_s: float
    wall_s: float
    attempted: int
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    ledger: Dict[str, str] = field(default_factory=dict)
    table: Dict[str, tuple] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    shards: int = 0


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _sim_counts(result) -> Dict[str, float]:
    stats = result.connection_stats
    return {
        "sim.events": float(result.events_processed),
        "sim.completed": float(len(result.metrics.completed)),
        "sim.seed_uploads": float(result.seed_upload_count),
        "sim.p_new": stats.formed / stats.attempts if stats.attempts else 0.0,
    }


def _add_stages(total: Dict[str, float], profile: Optional[dict]) -> None:
    for stage, seconds in (profile or {}).items():
        if stage in SOA_STAGES:
            total[f"soa.{stage}_s"] = total.get(f"soa.{stage}_s", 0.0) + seconds


# ----------------------------------------------------------------------
# soa-100k
# ----------------------------------------------------------------------
SOA_PEERS = 100_000
#: Rounds to the horizon; the checkpoint is taken after round SOA_ROUNDS/2.
SOA_ROUNDS = 8
SOA_SETUPS = 3


def soa_config(seed: int):
    """The 100k-peer Poisson swarm of ``bench_perf_soa.swarm_config``."""
    from repro.sim.config import SimConfig

    return SimConfig(
        num_pieces=60,
        max_conns=4,
        ns_size=25,
        arrival_process="poisson",
        arrival_rate=3.0 * SOA_PEERS / 100.0,
        initial_leechers=SOA_PEERS,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=SOA_PEERS // 100,
        seed_upload_slots=2,
        piece_selection="rarest",
        max_time=float(SOA_ROUNDS),
        seed=seed,
    )


def run_soa(ctx: Context) -> Outcome:
    from repro.checkpoint import format as ckpt_format
    from repro.sim.soa import SoaSwarm
    from repro.sim.swarm import Swarm

    traced = ctx.tracer is not None
    if traced:
        ctx.tracer.wrap(SoaSwarm, "setup", "soa.setup")
        ctx.tracer.wrap(SoaSwarm, "snapshot", "checkpoint.snapshot")
        ctx.tracer.wrap(Swarm, "resume", "checkpoint.restore")
        ctx.tracer.wrap(ckpt_format, "write_checkpoint", "checkpoint.write")
        ctx.tracer.wrap(ckpt_format, "read_checkpoint", "checkpoint.read")
        ctx.tracer.wrap(SoaSwarm, "run", "soa.run")

    config = soa_config(ctx.seed)
    setups = []
    swarm = None
    for _ in range(SOA_SETUPS):
        swarm = None
        start = time.perf_counter()
        swarm = Swarm(config, backend="soa", profile=traced)
        swarm.setup()
        setups.append(time.perf_counter() - start)

    def step(round_index: int) -> float:
        with ctx.span("round"):
            start = time.perf_counter()
            swarm.engine.run_until(round_index * config.piece_time)
            return time.perf_counter() - start

    half = SOA_ROUNDS // 2
    round_s = [step(r) for r in range(1, half + 1)]

    path = ctx.work / "soa-100k.ckpt"
    start = time.perf_counter()
    document = swarm.snapshot()
    nbytes = ckpt_format.write_checkpoint(document, path)
    checkpoint_s = time.perf_counter() - start
    stages: Dict[str, float] = {}
    if traced:
        _add_stages(stages, swarm.profiler.as_dict())
    document = swarm = None

    start = time.perf_counter()
    document = ckpt_format.read_checkpoint(path)
    swarm = Swarm.resume(document, profile=traced)
    resume_s = time.perf_counter() - start
    document = None
    path.unlink()

    round_s += [step(r) for r in range(half + 1, SOA_ROUNDS + 1)]
    start = time.perf_counter()
    result = swarm.run()
    finish_s = time.perf_counter() - start

    timed = round_s[1:]
    rounds_per_s = len(timed) / sum(timed)
    outcome = Outcome(
        setup_s=setups,
        op_s=timed,
        ops_per_s=rounds_per_s,
        wall_s=sum(round_s) + checkpoint_s + resume_s + finish_s,
        attempted=SOA_ROUNDS + 1,
        checks={
            "horizon_reached": result.total_rounds == SOA_ROUNDS,
            "resumed": result.resumed_from_round == half,
        },
        ledger={f"soa-100k/seed{ctx.seed}/{_digest(config.to_dict())}":
                result.fingerprint()},
        table={
            "rounds_per_s": (rounds_per_s, "1/s", f"n={len(timed)}"),
            "checkpoint_s": (checkpoint_s, "s", f"{nbytes} bytes"),
            "resume_s": (resume_s, "s", ""),
        },
    )
    if traced:
        _add_stages(stages, result.round_profile)
        tracer = ctx.tracer
        outcome.layers = {
            **stages,
            **_sim_counts(result),
            "checkpoint.snapshot_s": tracer.total("checkpoint.snapshot"),
            "checkpoint.write_s": tracer.total("checkpoint.write"),
            "checkpoint.read_s": tracer.total("checkpoint.read"),
            "checkpoint.restore_s": tracer.total("checkpoint.restore"),
            "checkpoint.bytes": float(nbytes),
        }
    return outcome


# ----------------------------------------------------------------------
# sharded-1m
# ----------------------------------------------------------------------
MILLION = 1_000_000
MILLION_ROUNDS = 8
SHARDS = 2
SHARDED_SETUPS = 2


def million_config(seed: int):
    """The 10^6-peer flash crowd of ``bench_perf_sharded.million_config``."""
    from repro.sim.config import SimConfig

    return SimConfig(
        num_pieces=20,
        max_conns=4,
        ns_size=15,
        arrival_process="flash",
        arrival_rate=0.0,
        flash_size=MILLION,
        initial_leechers=0,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1_000,
        seed_upload_slots=2,
        completed_become_seeds=0.0,
        piece_selection="rarest",
        max_time=float(MILLION_ROUNDS),
        seed=seed,
    )


def _ledger_state(swarm) -> tuple:
    """(population, seeds, per-piece replication counts) across shards.

    Reads the coordinator's per-shard ledger, the state it broadcasts
    each round.  A shard's report still counts the rows it emigrated
    that round, so rows in flight are already included.
    """
    population = seeds = 0
    counts = np.zeros(swarm.config.num_pieces, dtype=np.int64)
    for state in swarm._shard_state:
        population += state["n_leech"] + state["n_seeds"]
        seeds += state["n_seeds"]
        counts += np.asarray(state["piece_counts"], dtype=np.int64)
    return population, seeds, counts


def _ledger_balances(snapshots: List[tuple], expected_population: int) -> bool:
    """Nobody joins or leaves after the flash, seeds hold every piece,
    no piece is held more often than there are peers, and the total
    number of held pieces never shrinks."""
    totals = []
    for population, seeds, counts in snapshots:
        if population != expected_population:
            return False
        if counts.min() < seeds or counts.max() > population:
            return False
        totals.append(int(counts.sum()))
    return all(b >= a for a, b in zip(totals, totals[1:]))


def _stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for shared memory."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def run_sharded(ctx: Context) -> Outcome:
    from repro.sim.sharded import ShardedSwarm
    from repro.sim.swarm import Swarm

    traced = ctx.tracer is not None
    if traced:
        ctx.tracer.wrap(ShardedSwarm, "step_round", "sharded.step_round")
        ctx.tracer.wrap(ShardedSwarm, "close", "sharded.close")

    config = million_config(ctx.seed)
    expected_population = config.flash_size + config.num_seeds
    setups = []
    leaked: List[str] = []
    swarm = None
    try:
        for index in range(SHARDED_SETUPS):
            start = time.perf_counter()
            swarm = Swarm(config, backend="sharded", shards=SHARDS,
                          profile=traced)
            swarm.step_round()
            setups.append(time.perf_counter() - start)
            if index < SHARDED_SETUPS - 1:
                names = swarm.fabric_segment_names()
                swarm.close()
                leaked += [n for n in names if os.path.exists(f"/dev/shm/{n}")]
                swarm = None

        snapshots = [_ledger_state(swarm)]
        round_s = []
        while True:
            start = time.perf_counter()
            more = swarm.step_round()
            elapsed = time.perf_counter() - start
            if not more:
                break
            round_s.append(elapsed)
            snapshots.append(_ledger_state(swarm))
        names = swarm.fabric_segment_names()
        start = time.perf_counter()
        result = swarm.run()
        finish_s = time.perf_counter() - start
        leaked += [n for n in names if os.path.exists(f"/dev/shm/{n}")]
    finally:
        if swarm is not None:
            swarm.close()
        _stop_resource_tracker()

    rounds_per_s = len(round_s) / sum(round_s)
    outcome = Outcome(
        setup_s=setups,
        op_s=round_s,
        ops_per_s=rounds_per_s,
        wall_s=sum(round_s) + finish_s,
        attempted=SHARDED_SETUPS + len(round_s),
        checks={
            "horizon_reached": result.total_rounds == MILLION_ROUNDS,
            "ledger_balances": _ledger_balances(snapshots, expected_population),
            "no_peer_completes": len(result.metrics.completed) == 0,
            "no_shm_left": not leaked,
        },
        table={"rounds_per_s": (rounds_per_s, "1/s", f"n={len(round_s)}")},
        shards=SHARDS,
    )
    if traced:
        profiles = result.shard_profiles or {}
        stages: Dict[str, float] = {}
        compute = []
        for name, profile in sorted(profiles.items()):
            if name.startswith("shard"):
                _add_stages(stages, profile)
                compute.append(sum(profile.values()))
        coordinator = profiles.get("coordinator", {})
        comms = result.comms or {}
        outcome.layers = {
            **stages,
            **_sim_counts(result),
            "sharded.round_p50_s": statistics.median(round_s),
            "sharded.comms_s": coordinator.get("comms", 0.0),
            "sharded.barrier_skew_s": (
                max(compute) - statistics.median(compute) if compute else 0.0
            ),
            "shm.bytes_per_round": float(comms.get("bytes_per_round", 0.0)),
            "shm.bytes_migrated": float(comms.get("bytes_migrated", 0.0)),
        }
    return outcome


# ----------------------------------------------------------------------
# model-service
# ----------------------------------------------------------------------
SERVICE_SETUPS = 3
CONNECTIONS = 2
#: Queries sent per second of ``--seconds`` (about the measured rate).
QUERIES_PER_SECOND = 400
HOT_SET = 32
ZIPF_EXPONENT = 1.1
MISS_SHARE = 0.05
#: Responses re-solved in-process to check the service's answers.
CHECK_SAMPLES = 4


def _hot_query(rng: np.random.Generator, index: int) -> dict:
    quantity = ("download_time", "timeline", "potential_ratio")[index % 3]
    method = "meanfield" if index % 8 == 7 and quantity != "potential_ratio" \
        else "exact"
    return {
        "params": {
            "num_pieces": int(rng.choice((24, 32, 40))),
            "max_conns": 3,
            "ns_size": 10,
            "alpha": round(float(rng.uniform(0.1, 0.4)), 2),
            "gamma": 0.05 * (1 + index % 4),
        },
        "quantity": quantity,
        "method": method,
    }


def _fresh_query(rng: np.random.Generator, index: int) -> dict:
    """A parameter set never seen before: ``gamma`` is unique per index."""
    kind = int(rng.integers(0, 4))
    quantity, method = (
        ("download_time", "exact"), ("timeline", "exact"),
        ("potential_ratio", "exact"), ("download_time", "meanfield"),
    )[kind]
    # Below alpha = 0.3 the meanfield solve slows several-fold, which
    # would make the miss cost depend on the seed more than on the code.
    return {
        "params": {
            "num_pieces": int(rng.integers(38, 43)),
            "max_conns": 3,
            "ns_size": 10,
            "alpha": float(rng.uniform(0.3, 0.4)),
            "gamma": 0.0501 + 0.0007 * index,
        },
        "quantity": quantity,
        "method": method,
    }


def service_plan(seed: int, total: int):
    """``(hot_set, stream)``: the hot set and ``total`` (kind, body) pairs.

    Exactly ``MISS_SHARE`` of the stream is fresh, at seed-drawn
    positions, so every seed sends the same number of misses.
    """
    rng = np.random.default_rng(seed)
    hot = [_hot_query(rng, i) for i in range(HOT_SET)]
    weights = 1.0 / np.arange(1, HOT_SET + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    fresh_at = set(rng.choice(total, size=round(total * MISS_SHARE),
                              replace=False).tolist())
    picks = rng.choice(HOT_SET, size=total, p=weights)
    stream = []
    fresh = 0
    for index in range(total):
        if index in fresh_at:
            stream.append(("fresh", _fresh_query(rng, fresh)))
            fresh += 1
        else:
            stream.append(("hot", hot[int(picks[index])]))
    return hot, stream


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # The server announces its port with a plain print to a pipe.
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _launch_server(ctx: Context, log) -> tuple:
    """Start ``repro-bt serve``; returns (process, port, seconds to /health)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--solver-threads", "2"],
        cwd=ctx.root, env=_child_env(ctx.root),
        stdout=subprocess.PIPE, stderr=log, text=True,
    )
    try:
        line = proc.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"server did not report its address: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        deadline = start + 60.0
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                status, _ = _request(conn, "GET", "/health")
                if status == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /health")
            time.sleep(0.005)
        return proc, port, time.perf_counter() - start
    except BaseException:
        _stop_server(proc)
        raise


def _stop_server(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


def _request(conn, method: str, path: str, body: Optional[dict] = None):
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, json.loads(data) if data else None


def _canonical(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k not in ("outcome",
                                                          "elapsed_ms")}
    return json.dumps(body, sort_keys=True)


def run_service(ctx: Context) -> Outcome:
    total = QUERIES_PER_SECOND * ctx.seconds
    hot, stream = service_plan(ctx.seed, total)
    log_path = ctx.work / "service.log"
    setups = []
    with open(log_path, "w") as log:
        for _ in range(SERVICE_SETUPS - 1):
            proc, _port, elapsed = _launch_server(ctx, log)
            _stop_server(proc)
            setups.append(elapsed)
        proc, port, elapsed = _launch_server(ctx, log)
        setups.append(elapsed)
        try:
            return _drive_service(ctx, port, hot, stream, setups)
        finally:
            _stop_server(proc)


def _drive_service(ctx, port, hot, stream, setups) -> Outcome:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    with ctx.span("service.prewarm"):
        for body in hot:
            status, _ = _request(conn, "POST", "/solve", body)
            if status != 200:
                raise RuntimeError(f"prewarm query failed with {status}")
    conn.close()

    latencies: List[Optional[float]] = [None] * len(stream)
    outcomes: List[Optional[str]] = [None] * len(stream)
    answers: Dict[int, dict] = {}
    next_index = [0]
    lock = threading.Lock()
    failures = [0]

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = next_index[0]
                    next_index[0] += 1
                if index >= len(stream):
                    return
                kind, body = stream[index]
                start = time.perf_counter()
                try:
                    with ctx.span("client.request"):
                        status, payload = _request(conn, "POST", "/solve",
                                                   body)
                except (OSError, http.client.HTTPException, ValueError):
                    status, payload = None, None
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=60)
                latencies[index] = time.perf_counter() - start
                if status != 200:
                    with lock:
                        failures[0] += 1
                    continue
                outcomes[index] = payload.get("outcome")
                answers[index] = payload
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    with ctx.span("service.loop"):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    status, stats = _request(conn, "GET", "/stats")
    conn.close()
    if status != 200:
        raise RuntimeError(f"/stats failed with {status}")

    # In-process re-solve of a sample of hot and fresh answers.
    from repro.api import Query, solve_query

    rng = np.random.default_rng(ctx.seed + 1)
    sample = []
    for kind in ("hot", "fresh"):
        indices = [i for i, (k, _) in enumerate(stream)
                   if k == kind and i in answers]
        if indices:
            sample += [int(i) for i in rng.choice(
                indices, size=min(CHECK_SAMPLES, len(indices)), replace=False)]
    answers_match = bool(sample) and all(
        _canonical(answers[i]) == _canonical(json.loads(json.dumps(
            solve_query(Query.from_request(stream[i][1])).to_dict())))
        for i in sample
    )

    ms = [1000.0 * x for x in latencies if x is not None]
    by_outcome = {"hit": [], "miss": []}
    for latency, outcome in zip(latencies, outcomes):
        if outcome in by_outcome:
            by_outcome[outcome].append(1000.0 * latency)
    queries_per_s = len(stream) / wall
    fresh_total = sum(1 for kind, _ in stream if kind == "fresh")
    outcome = Outcome(
        setup_s=setups,
        op_s=[x / 1000.0 for x in ms],
        ops_per_s=queries_per_s,
        wall_s=wall,
        attempted=len(stream),
        failed=failures[0],
        checks={
            "answers_match_inprocess_solve": answers_match,
            "fresh_queries_missed": len(by_outcome["miss"]) == fresh_total,
        },
        table={"queries_per_s": (queries_per_s, "1/s", f"n={len(stream)}")},
    )
    if ctx.tracer is not None:
        endpoint = stats["endpoints"].get("POST /solve", {}).get(
            "latency_ms", {})
        kernel = stats["kernel_cache"]
        solver = stats["solver"]
        solves = stats["solves"]
        outcome.layers = {
            "service.hit_p50_ms": statistics.median(by_outcome["hit"] or [0.0]),
            "service.miss_p50_ms": statistics.median(
                by_outcome["miss"] or [0.0]),
            "service.server_p50_ms": float(endpoint.get("p50", 0.0)),
            "service.server_p99_ms": float(endpoint.get("p99", 0.0)),
            "service.hit_ratio": float(stats["queries"]["hit_rate"]),
            "service.solves": float(solves),
            "solver.solve_ms": (
                1000.0 * solver["wall_time"] / solves if solves else 0.0
            ),
            "cache.sparse_misses": float(kernel["sparse_misses"]),
            "cache.evictions": float(kernel["evictions"]),
            "cache.bytes": float(kernel["bytes"]),
        }
    return outcome


# ----------------------------------------------------------------------
# figures-quick
# ----------------------------------------------------------------------
FIGURES = ("F1a", "F1b", "F2", "F3a", "F3bc", "F3d")
IMPORT_SETUPS = 3
_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import repro; "
    "print(time.perf_counter() - start)"
)


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k != "timing"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _model_entry_points():
    """(module, name) of every model entry point a figure runner calls."""
    import importlib

    from repro.runtime import tasks

    names = list(tasks.__all__) + ["efficiency_curve"]
    for figure in ("fig1a", "fig1b", "fig2", "fig3a", "fig3bc", "fig3d"):
        module = importlib.import_module(f"repro.experiments.{figure}")
        for name in names:
            if callable(getattr(module, name, None)):
                yield module, name


def run_figures(ctx: Context) -> Outcome:
    setups = []
    for _ in range(IMPORT_SETUPS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ctx.root,
            env=_child_env(ctx.root), capture_output=True, text=True,
            timeout=120, check=True,
        )
        setups.append(float(probe.stdout.strip()))

    import repro
    from repro.runtime.cache import shared_cache
    from repro.serialize import to_jsonable
    from repro.sim.swarm import Swarm

    if ctx.tracer is not None:
        ctx.tracer.wrap(Swarm, "run", "object.run")
        for module, name in _model_entry_points():
            ctx.tracer.wrap(module, name, "model.solve")

    figure_s = []
    ledger = {}
    hits = misses = sparse_misses = evictions = 0
    failed = 0
    for figure in FIGURES:
        start = time.perf_counter()
        try:
            with ctx.span(f"figure.{figure}"):
                result = repro.run_experiment(figure, quick=True, workers=1,
                                              seed=ctx.seed)
        except Exception as exc:  # noqa: BLE001 - a failed figure is counted
            print(f"{figure} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        figure_s.append(time.perf_counter() - start)
        payload = _strip_timing(to_jsonable(result.to_dict()))
        ledger[f"figures-quick/seed{ctx.seed}/{figure}"] = _digest(payload)
        if result.timing is not None:
            hits += result.timing.cache_hits
            misses += result.timing.cache_misses
            sparse_misses += result.timing.sparse_cache_misses
            evictions += result.timing.cache_evictions

    figures_s = sum(figure_s)
    outcome = Outcome(
        setup_s=setups,
        op_s=figure_s,
        ops_per_s=len(figure_s) / figures_s if figures_s else 0.0,
        wall_s=figures_s,
        attempted=len(FIGURES),
        failed=failed,
        checks={"every_figure_ran": failed == 0},
        ledger=ledger,
        table={"figures_s": (figures_s, "s", f"n={len(figure_s)}")},
    )
    if ctx.tracer is not None:
        tracer = ctx.tracer
        model_s = tracer.total("model.solve")
        model_calls = len(tracer.named("model.solve"))
        outcome.layers = {
            **{f"figures.{figure}_s": tracer.total(f"figure.{figure}")
               for figure in FIGURES},
            "object.run_s": tracer.total("object.run"),
            "model.solve_s": model_s,
            "solver.solve_ms": (
                1000.0 * model_s / model_calls if model_calls else 0.0
            ),
            "cache.sparse_misses": float(sparse_misses),
            "cache.evictions": float(evictions),
            "cache.bytes": float(shared_cache().current_bytes()),
            "runtime.cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
        }
    return outcome


WORKLOADS = {
    "soa-100k": run_soa,
    "sharded-1m": run_sharded,
    "model-service": run_service,
    "figures-quick": run_figures,
}
