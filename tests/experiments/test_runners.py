"""Smoke-to-shape tests for the per-figure experiment runners.

Each runner is exercised at reduced scale; assertions target the shape
properties the paper's figures report, not absolute numbers.
"""

import json

import numpy as np
import pytest

from repro.analysis.validation import efficiency_shape
from repro.api import ModelParams, solve
from repro.core.parameters import alpha_from_swarm
from repro.experiments import (
    run_fig1a,
    run_fig1b,
    run_fig2,
    run_fig3a,
    run_fig3bc,
    run_fig3d,
)
from repro.experiments.fig3a import sim_efficiency
from repro.experiments.fig3d import mean_ttd_by_ordinal
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.errors import ParameterError
from repro.runtime.profiler import STAGES
from repro.runtime.seeding import derive_seed
from repro.serialize import to_jsonable
from repro.sim.config import SimConfig


def _batch_options(method, runs, seed):
    """The ``solve()`` options a runner passes: batch alone is seeded."""
    return {"runs": runs, "seed": seed} if method == "batch" else {}


class TestFig1a:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig1a(pss_values=(5, 20), num_pieces=50, runs=16, seed=0)

    def test_series_per_pss(self, result):
        assert set(result.ratios) == {5, 20}
        assert result.pieces.size == 51

    def test_ratio_bounds(self, result):
        for ratio in result.ratios.values():
            finite = ratio[np.isfinite(ratio)]
            assert (finite >= 0).all() and (finite <= 1).all()

    def test_mid_download_plateau(self, result):
        ratio = result.ratios[20]
        mid = ratio[20:30]
        assert np.nanmean(mid) > 0.7

    def test_format_prints_rows(self, result):
        text = result.format()
        assert "PSS=5" in text and "PSS=20" in text

    def test_empty_pss_rejected(self):
        with pytest.raises(ParameterError):
            run_fig1a(pss_values=())

    def test_exact_mode_matches_monte_carlo(self):
        mc = run_fig1a(
            pss_values=(6,), num_pieces=20, max_conns=3, runs=400, seed=1,
            method="batch",
        )
        exact = run_fig1a(
            pss_values=(6,), num_pieces=20, max_conns=3, method="exact"
        )
        assert mc.method == "batch" and exact.method == "exact"
        a, b = mc.ratios[6], exact.ratios[6]
        mask = np.isfinite(a) & np.isfinite(b)
        assert np.abs(a[mask] - b[mask]).max() < 0.08

    def test_paper_scale_exact_within_mc_confidence_band(self):
        # The acceptance check for the sparse engine: at the paper's
        # B=200, k=7, the exact curve must sit inside the batch
        # Monte-Carlo estimate's confidence band.
        from repro.core.batch import BatchChainSampler
        from repro.core.chain import DownloadChain

        pss = 40
        exact = run_fig1a(pss_values=(pss,), method="exact", seed=0)
        chain = DownloadChain(exact.params[pss])
        # Empirical confidence band: independent batch-MC replicates of
        # the pooled ratio give a per-b standard error directly.
        chunks = 8
        sampler = BatchChainSampler(chain)
        replicates = []
        for chunk in range(chunks):
            sums, counts = sampler.sample(
                192, seed=100 + chunk
            ).potential_accumulators()
            with np.errstate(invalid="ignore", divide="ignore"):
                replicates.append(
                    np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
                )
        replicates = np.stack(replicates)
        observed = np.isfinite(replicates).all(axis=0)
        mc_mean = np.where(observed, np.nanmean(replicates, axis=0), np.nan)
        sem = np.where(
            observed, np.nanstd(replicates, axis=0, ddof=1), np.nan
        ) / np.sqrt(chunks)
        curve = exact.ratios[pss]
        both = np.isfinite(curve) & observed
        assert both.sum() > 100
        band = 5.0 * sem[both] + 0.01
        assert np.all(np.abs(curve[both] - mc_mean[both]) <= band)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            run_fig1a(num_pieces=20, method="magic")

    @pytest.mark.parametrize("method", ["exact", "batch", "meanfield"])
    def test_ratios_are_solve_payloads(self, method):
        result = run_fig1a(
            pss_values=(5, 12), num_pieces=24, runs=6, seed=2, method=method
        )
        assert result.method == method
        for offset, pss in enumerate((5, 12)):
            options = _batch_options(method, 6, derive_seed(2, offset))
            direct = solve(
                result.params[pss], "potential_ratio", method, **options
            ).payload
            assert np.array_equal(
                result.ratios[pss], direct.ratio, equal_nan=True
            )


class TestFig1b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig1b(
            pss_values=(30,), num_pieces=40, model_runs=8,
            sim_instrument=4, max_time=200.0, seed=0,
        )

    def test_model_and_sim_aligned(self, result):
        assert result.model[30].size == 41
        assert result.sim[30].size == 41

    def test_model_monotone(self, result):
        assert (np.diff(result.model[30]) >= -1e-9).all()

    def test_sim_completed_someone(self, result):
        assert result.sim_completed[30] > 0

    def test_model_tracks_sim_at_large_pss(self, result):
        # Healthy-swarm agreement: totals within a factor of two.
        model_total = result.model[30][-1]
        sim_total = result.sim[30][-1]
        assert sim_total == pytest.approx(model_total, rel=1.0)

    def test_format(self, result):
        assert "timeline" in result.format()

    def test_empty_pss_rejected(self):
        with pytest.raises(ParameterError):
            run_fig1b(pss_values=())

    def test_default_model_method_is_batch(self, result):
        assert result.model_method == "batch"

    @pytest.mark.parametrize("method", ["exact", "batch", "meanfield"])
    def test_model_curves_are_solve_payloads(self, method):
        pss_values = (6, 14)
        result = run_fig1b(
            pss_values=pss_values, num_pieces=20, model_runs=5,
            sim_instrument=1, max_time=40.0, seed=3, method=method,
        )
        assert result.model_method == method
        for offset, pss in enumerate(pss_values):
            # The runner's model parameters: alpha from the swarm it
            # simulates (arrival rate 1.5, w = 0.5, max(60, 4 s) peers).
            alpha = alpha_from_swarm(1.5, 0.5, pss, max(60, 4 * pss))
            params = ModelParams(
                num_pieces=20, max_conns=7, ns_size=pss, alpha=alpha,
                gamma=alpha, p_reenc=0.7, p_new=0.7,
            )
            options = _batch_options(method, 5, derive_seed(3, offset))
            direct = solve(params, "timeline", method, **options).payload
            assert np.array_equal(result.model[pss], direct.mean_steps)


@pytest.mark.parametrize("name", ["serial", "monte-carlo", "montecarlo"])
@pytest.mark.parametrize("runner", [run_fig1a, run_fig1b])
def test_retired_monte_carlo_names_rejected(runner, name):
    with pytest.raises(ParameterError) as excinfo:
        runner(pss_values=(5,), num_pieces=10, method=name)
    message = str(excinfo.value)
    assert f"unknown method {name!r}" in message
    assert "'exact'" in message and "'batch'" in message
    assert "'meanfield'" in message


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2(seed=0)

    def test_all_archetypes_present(self, result):
        assert set(result.traces) == {"smooth", "last", "bootstrap"}

    def test_labels_match(self, result):
        assert result.labels == {
            "smooth": "smooth", "last": "last", "bootstrap": "bootstrap"
        }

    def test_traces_valid(self, result):
        for trace in result.traces.values():
            trace.validate()
            assert len(trace.samples) > 0

    def test_format(self, result):
        text = result.format()
        for panel in ("2(a,b)", "2(c,d)", "2(e,f)"):
            assert panel in text


class TestFig3a:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3a(
            k_values=(1, 2, 3, 4),
            num_pieces=50,
            seed=0,
            sim_kwargs={"initial_leechers": 60, "arrival_rate": 3.0,
                        "max_time": 80.0, "ns_size": 25},
        )

    def test_model_upper_bounds_sim(self, result):
        assert (result.model_eta >= result.sim_eta - 0.05).all()

    def test_sim_jump_from_one_to_two(self, result):
        assert result.sim_eta[1] > result.sim_eta[0]

    def test_model_shape(self, result):
        checks = efficiency_shape(result.k_values, result.model_eta)
        assert checks["first_gain_positive"]
        assert checks["first_gain_dominates"]

    def test_format(self, result):
        assert "efficiency" in result.format()


class TestFig3bc:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3bc(
            piece_counts=(3, 10), initial_leechers=150,
            arrival_rate=10.0, max_time=80.0, seed=0, entropy_every=4,
        )

    def test_b3_diverges(self, result):
        assert result.runs[3].diverged

    def test_b10_bounded(self, result):
        assert not result.runs[10].diverged

    def test_entropy_contrast(self, result):
        tail3 = result.entropy(3)[-10:].mean()
        tail10 = result.entropy(10)[-10:].mean()
        assert tail10 > tail3

    def test_format(self, result):
        text = result.format()
        assert "B=3" in text and "B=10" in text
        assert "DIVERGED" in text

    def test_empty_counts_rejected(self):
        with pytest.raises(ParameterError):
            run_fig3bc(piece_counts=())


class TestFig3d:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3d(
            num_pieces=80, window=8, initial_leechers=40,
            max_time=350.0, seed=0,
        )

    def test_window_covered(self, result):
        assert result.ordinals.tolist() == [73, 74, 75, 76, 77, 78, 79, 80]
        assert result.ttd["normal"].size == 8

    def test_shake_helps_on_last_block(self, result):
        assert result.ttd["shake"][-1] < result.ttd["normal"][-1]

    def test_normal_tail_grows(self, result):
        normal = result.ttd["normal"]
        assert normal[-1] > normal[0]

    def test_completions_recorded(self, result):
        assert result.completed["normal"] > 0
        assert result.completed["shake"] > 0

    def test_format(self, result):
        assert "shake" in result.format()


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {"F1a", "F1b", "F2", "F3a", "F3bc", "F3d"}

    def test_lookup_case_insensitive(self):
        assert get_experiment("f1a").exp_id == "F1a"

    def test_unknown_rejected(self):
        with pytest.raises(ParameterError):
            get_experiment("F99")

    def test_quick_kwargs_accepted_by_runners(self):
        # Signatures must stay in sync with the registry entries.
        import inspect

        for spec in EXPERIMENTS.values():
            signature = inspect.signature(spec.runner)
            for key in spec.quick_kwargs:
                assert key in signature.parameters, (spec.exp_id, key)

    def test_all_runners_accept_workers(self):
        import inspect

        for spec in EXPERIMENTS.values():
            assert "workers" in inspect.signature(spec.runner).parameters

    def test_list_experiments_in_registration_order(self):
        from repro.experiments.registry import list_experiments

        specs = list_experiments()
        assert [spec.exp_id for spec in specs] == list(EXPERIMENTS)

    def test_unknown_error_names_available_ids(self):
        with pytest.raises(ParameterError, match="available"):
            get_experiment("F99")

    def test_duplicate_registration_rejected(self):
        from repro.experiments.registry import register_experiment

        with pytest.raises(ParameterError, match="already registered"):
            @register_experiment("f1A", figure="x", description="dup")
            def runner():  # pragma: no cover - never called
                pass

    def test_empty_id_rejected(self):
        from repro.experiments.registry import register_experiment

        with pytest.raises(ParameterError):
            register_experiment("", figure="x", description="y")

    def test_results_satisfy_protocol(self):
        from repro.experiments.result import ExperimentResult

        result = run_fig2(max_attempts=40, seed=0)
        assert isinstance(result, ExperimentResult)
        payload = result.to_dict()
        assert payload["experiment"] == "F2"
        assert result.timing is not None
        assert result.timing.tasks == 3


#: Small runs of the object-engine figure runners that take ``profile``.
PROFILED_RUNS = {
    "F2": lambda **kw: run_fig2(seed=0, **kw),
    "F3a": lambda **kw: run_fig3a(
        k_values=(1, 2), num_pieces=30, seed=0,
        sim_kwargs={"initial_leechers": 30, "max_time": 30.0}, **kw,
    ),
    "F3bc": lambda **kw: run_fig3bc(
        piece_counts=(3,), initial_leechers=60, arrival_rate=5.0,
        max_time=30.0, seed=0, **kw,
    ),
    "F3d": lambda **kw: run_fig3d(
        num_pieces=30, window=4, initial_leechers=20, max_time=60.0,
        seed=0, **kw,
    ),
}


@pytest.mark.parametrize("figure", sorted(PROFILED_RUNS))
def test_profile_folds_round_stages_and_keeps_the_payload(figure):
    """``profile=True`` (``repro-bt run --timing``) folds every swarm's
    round-profile stages into the telemetry and changes no output."""
    plain = PROFILED_RUNS[figure]()
    profiled = PROFILED_RUNS[figure](profile=True)
    assert plain.timing.round_profile == {}
    assert set(profiled.timing.round_profile) == set(STAGES)
    assert sum(profiled.timing.round_profile.values()) > 0
    payloads = []
    for result in (plain, profiled):
        payload = to_jsonable(result.to_dict())
        payload.pop("timing")
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_task_functions_end_with_the_round_profile():
    """The per-task functions that callers use directly (the examples
    unpack them) end their tuples with the round profile: the stage
    seconds under ``profile=True``, None otherwise."""
    eta, events, round_profile = sim_efficiency(
        2, num_pieces=20, initial_leechers=20, max_time=20.0
    )
    assert 0.0 <= eta <= 1.0 and events > 0 and round_profile is None
    config = SimConfig(
        num_pieces=20, max_conns=3, ns_size=8, initial_leechers=20,
        initial_distribution="uniform", initial_fill=0.5, num_seeds=1,
        max_time=40.0, seed=0,
    )
    ordinals, mean, count, events, round_profile = mean_ttd_by_ordinal(
        config, window=4, profile=True
    )
    assert list(ordinals) == [17, 18, 19, 20] and mean.shape == (4,)
    assert events > 0 and set(round_profile) == set(STAGES)
