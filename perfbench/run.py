"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload soa-100k --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
it wraps the program's public seams in spans, runs the simulators with
their stage profiler, and prints every per-layer metric plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results,
spans and the cross-run ledger go under ``.perfbench/`` in the root.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    Tracer,
    check_metric_name,
    environment,
    failed_frac,
    median_and_tail,
    peak_rss_mb,
)

#: name -> (unit, better); every workload reports every one.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); a layer a workload does not touch reads 0.
PER_LAYER = {
    "soa.store_s": ("s", "lower"),
    "soa.interest_s": ("s", "lower"),
    "soa.selection_s": ("s", "lower"),
    "soa.exchange_s": ("s", "lower"),
    "soa.seeds_s": ("s", "lower"),
    "soa.bookkeeping_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.completed": ("count", "higher"),
    "sim.seed_uploads": ("count", "higher"),
    "sim.p_new": ("ratio", "higher"),
    "sharded.round_p50_s": ("s", "lower"),
    "sharded.comms_s": ("s", "lower"),
    "sharded.barrier_skew_s": ("s", "lower"),
    "shm.bytes_per_round": ("B", "lower"),
    "shm.bytes_migrated": ("B", "lower"),
    "checkpoint.snapshot_s": ("s", "lower"),
    "checkpoint.write_s": ("s", "lower"),
    "checkpoint.read_s": ("s", "lower"),
    "checkpoint.restore_s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "service.hit_p50_ms": ("ms", "lower"),
    "service.miss_p50_ms": ("ms", "lower"),
    "service.server_p50_ms": ("ms", "lower"),
    "service.server_p99_ms": ("ms", "lower"),
    "service.hit_ratio": ("ratio", "higher"),
    "service.solves": ("count", "lower"),
    "solver.solve_ms": ("ms", "lower"),
    "cache.sparse_misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.bytes": ("B", "lower"),
    "figures.F1a_s": ("s", "lower"),
    "figures.F1b_s": ("s", "lower"),
    "figures.F2_s": ("s", "lower"),
    "figures.F3a_s": ("s", "lower"),
    "figures.F3bc_s": ("s", "lower"),
    "figures.F3d_s": ("s", "lower"),
    "object.run_s": ("s", "lower"),
    "model.solve_s": ("s", "lower"),
    "runtime.cache_hit_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

for _name in (*END_TO_END, *PER_LAYER):
    check_metric_name(_name)


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _write_json(path: Path, value) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value, indent=1, sort_keys=True))
    os.replace(tmp, path)


def check_ledger(path: Path, entries: dict) -> bool:
    """Record ``entries``; False if one differs from an earlier run."""
    ledger = json.loads(path.read_text()) if path.exists() else {}
    same = all(ledger.get(key, value) == value for key, value in entries.items())
    ledger.update(entries)
    _write_json(path, ledger)
    return same


def end_to_end(outcome) -> dict:
    median_op, tail = median_and_tail([1000.0 * x for x in outcome.op_s])
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "wall_s": outcome.wall_s,
        "ops_per_s": outcome.ops_per_s,
        "op_p50_ms": median_op,
        "op_tail_ms": tail.value,
    }, tail


def untraced_wall_s(args, results: Path) -> float:
    """``wall_s`` of the untraced run with the same workload and seed."""
    path = results / f"{args.workload}-seed{args.seed}-s{args.seconds}.json"
    if not path.exists():
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=170,
        )
    return json.loads(path.read_text())["metrics"]["wall_s"]


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from workloads import WORKLOADS, Context

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    results = work / "results"
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else None
    ctx = Context(ROOT, work, args.seed, args.seconds, tracer)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.restore()

    env = environment(ROOT, outcome.shards)
    metrics, tail = end_to_end(outcome)
    metrics["peak_rss_mb"] = peak_rss_mb()
    ledger_ok = check_ledger(work / "ledger.json", outcome.ledger)
    checks = {**outcome.checks, "repeats_match_ledger": ledger_ok}
    correct = all(checks.values()) and outcome.failed == 0

    print(f"env {json.dumps(env, sort_keys=True)}")
    if env["oversubscribed"]:
        print(f"warning: {env['shards']} shards on {env['usable_cores']} "
              f"usable cores")
    print(f"{args.workload} seed={args.seed}")
    for name, value in metrics.items():
        print(f"  {name:<22} {value:14.6g} {END_TO_END[name][0]}")
    print(f"  op_tail_ms is p{tail.level:g} of n={tail.n} "
          f"({tail.beyond} samples beyond)")
    for name, (value, unit, note) in outcome.table.items():
        print(f"  {name:<22} {value:14.6g} {unit} {note}")
    print(f"  failed_frac            "
          f"{failed_frac(outcome.attempted, outcome.failed):14.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")

    if tracer is None:
        reported = metrics
        _write_json(
            results / f"{args.workload}-seed{args.seed}-s{args.seconds}.json",
            {"env": env, "metrics": metrics, "correct": correct},
        )
    else:
        unknown = set(outcome.layers) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(outcome.layers)
        summary = tracer.summary()
        layers["trace.spans"] = float(len(tracer.spans))
        layers["trace.overhead_s"] = (
            outcome.wall_s - untraced_wall_s(args, results)
        )
        tracer.write(work / "spans" / f"{run_id}.jsonl")
        for name, row in sorted(summary.items()):
            print(f"  span {name:<24} n={row['count']:<6} "
                  f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s")
        for name in PER_LAYER:
            print(f"  {name:<26} {layers[name]:14.6g} {PER_LAYER[name][0]}")
        reported = layers

    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value,
                   "unit": (END_TO_END.get(name) or PER_LAYER[name])[0]}
            for name, value in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
