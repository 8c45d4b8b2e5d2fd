"""Performance: sparse exact engine vs dict-based propagation.

Two measurements, recorded in ``BENCH_perf.json`` (section
``exact_engine``):

* **Equivalence-scale speedup** — transient propagation on a
  parameter set both engines can run (``B=24, k=3, s=12``): the CSR
  mat-vec loop must beat the ``Dict[State, float]`` test oracle by at
  least :data:`MIN_SPEEDUP`.
* **Paper-scale budget** — the full ``B=200, k=7, s=50`` pipeline
  (compile the operator, fundamental-matrix solve for mean/variance,
  then transient propagation to >99.9 % absorption) must finish within
  :data:`MAX_PAPER_SECONDS` single-core.  The dict path cannot run this
  scale at all; before the sparse engine, paper-scale figures had to
  fall back to Monte-Carlo.

Numerical agreement is not checked here beyond sanity — the three-way
equivalence suite (``tests/core/test_sparse.py``) pins sparse vs dict
vs Monte-Carlo down to tolerance.
"""

import time

import numpy as np

from benchmarks.perf_report import record_perf
from repro.core.chain import DownloadChain
from repro.core.exact import _propagate_dict, _propagate_sparse
from repro.core.parameters import DEFAULT_PARAMETERS, ModelParameters

#: Largest parameter set the dict oracle propagates in sane time.
EQUIV_PARAMS = ModelParameters(
    num_pieces=24, max_conns=3, ns_size=12, alpha=0.2, gamma=0.2
)
EQUIV_HORIZON = 120

#: Acceptance floor: CSR propagation vs the dict loop on EQUIV_PARAMS.
MIN_SPEEDUP = 20.0

#: Acceptance ceiling for the full paper-scale exact pipeline.
MAX_PAPER_SECONDS = 30.0


def propagate_dict(chain: DownloadChain):
    return _propagate_dict(chain, EQUIV_HORIZON, prune=1e-12)


def propagate_sparse(chain: DownloadChain):
    return _propagate_sparse(chain, EQUIV_HORIZON)


def test_perf_exact_speedup(benchmark):
    chain = DownloadChain(EQUIV_PARAMS)
    # Warm the compiled operator (and the dict path's kernel tables)
    # outside the timings so both engines are measured on propagation.
    sparse_result = propagate_sparse(chain)

    dict_start = time.perf_counter()
    dict_result = propagate_dict(chain)
    dict_seconds = time.perf_counter() - dict_start

    benchmark.pedantic(
        propagate_sparse, args=(chain,), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    sparse_seconds = benchmark.stats.stats.mean

    # Sanity: both engines describe the same transient.
    tv_distance = float(
        np.abs(dict_result.completion_pmf - sparse_result.completion_pmf).sum()
    )
    assert tv_distance < 1e-8
    speedup = dict_seconds / sparse_seconds

    operator = chain.kernel.sparse_operator()
    states_per_second = (
        operator.num_states * EQUIV_HORIZON / sparse_seconds
    )
    print(
        f"\nsparse propagation: {sparse_seconds:.4f}s vs dict "
        f"{dict_seconds:.3f}s over horizon={EQUIV_HORIZON} on "
        f"{operator.num_states} states -> {speedup:.1f}x "
        f"({states_per_second / 1e6:.1f}M state-rounds/s)"
    )

    # Paper scale: the whole exact pipeline, timed stage by stage.
    paper_chain = DownloadChain(DEFAULT_PARAMETERS)
    compile_start = time.perf_counter()
    paper_operator = paper_chain.kernel.sparse_operator()
    compile_seconds = time.perf_counter() - compile_start

    solve_start = time.perf_counter()
    solution = paper_operator.solution()
    solve_seconds = time.perf_counter() - solve_start
    mean = solution.mean_download_time
    std = solution.std_download_time

    horizon = max(int(mean + 10.0 * std), int(2.0 * mean))
    propagate_start = time.perf_counter()
    transient = _propagate_sparse(paper_chain, horizon)
    propagate_seconds = time.perf_counter() - propagate_start
    paper_seconds = compile_seconds + solve_seconds + propagate_seconds

    assert transient.completion_cdf[-1] > 0.999
    assert abs(transient.mean_download_time() - mean) < 0.5
    paper_states_per_second = (
        paper_operator.num_states * horizon / propagate_seconds
    )
    print(
        f"paper scale (B={DEFAULT_PARAMETERS.num_pieces}): compile "
        f"{compile_seconds:.2f}s + solve {solve_seconds:.2f}s + "
        f"propagate {propagate_seconds:.2f}s over {horizon} rounds "
        f"({paper_states_per_second / 1e6:.1f}M state-rounds/s); "
        f"mean={mean:.2f} std={std:.2f}"
    )

    record_perf("exact_engine", {
        "equiv_num_pieces": EQUIV_PARAMS.num_pieces,
        "equiv_states": operator.num_states,
        "equiv_horizon": EQUIV_HORIZON,
        "dict_seconds": round(dict_seconds, 4),
        "sparse_seconds": round(sparse_seconds, 5),
        "speedup": round(speedup, 1),
        "states_per_second": round(states_per_second, 0),
        "paper_num_pieces": DEFAULT_PARAMETERS.num_pieces,
        "paper_states": paper_operator.num_states,
        "paper_compile_seconds": round(compile_seconds, 3),
        "paper_solve_seconds": round(solve_seconds, 3),
        "paper_propagate_seconds": round(propagate_seconds, 3),
        "paper_total_seconds": round(paper_seconds, 3),
        "paper_horizon": horizon,
        "paper_states_per_second": round(paper_states_per_second, 0),
        "paper_mean_download_time": round(mean, 4),
        "paper_std_download_time": round(std, 4),
    })
    assert speedup >= MIN_SPEEDUP
    assert paper_seconds < MAX_PAPER_SECONDS
