"""Exact transient analysis of the download chain.

Monte-Carlo estimators (:mod:`repro.core.timeline`) scale to the
paper's B = 200 but carry sampling noise; this module computes the same
quantities *exactly* by propagating the full state distribution round
by round:

* the exact pmf and CDF of the download time (rounds to ``b == B``);
* the exact expected trajectory ``E[b](t)``, ``E[i](t)``, ``E[n](t)``;
* the exact potential-set ratio ``E[i/s | b]`` of Figure 1(a),
  occupancy-weighted over all rounds spent at each piece count.

The public front door is :func:`repro.api.solve` (quantities
``"transient"`` and ``"potential_ratio"``).  Propagation runs as CSR
matrix-vector products against the compiled
:class:`~repro.core.sparse.SparseChainOperator`, which handles the
paper-scale ``B=200, k=7, s=50`` space (81 600 states) in seconds.

The original ``Dict[State, float]`` loops survive as private test
oracles (:func:`_propagate_dict`, :func:`_potential_ratio_dict`): the
equivalence suite pins the sparse engine against them.  States with
probability below ``prune`` are dropped (tracked in ``pruned_mass``) so
they stay tractable.

For horizon-free means and variances, prefer the fundamental-matrix
solve (``solve(params, "download_time", method="exact")`` or
:func:`repro.core.sparse.mean_hitting_time`) over propagation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.chain import DownloadChain, State
from repro.errors import ParameterError

__all__ = ["TransientResult", "PotentialRatioExact"]

#: Default threshold above which discarded probability mass triggers a
#: :class:`RuntimeWarning` (the sparse engine reports its compile drop;
#: the dict oracles can accumulate real mass when ``prune`` is set
#: aggressively).
PRUNED_MASS_WARN = 1e-6


@dataclass(frozen=True)
class TransientResult:
    """Exact transient quantities up to a horizon.

    Attributes:
        rounds: array ``0..horizon``.
        completion_pmf: ``completion_pmf[t]`` = exact probability the
            download finishes at round ``t``.
        completion_cdf: running sum of the pmf.
        expected_pieces / expected_potential / expected_connections:
            unconditional expectations of ``b``, ``i``, ``n`` per round
            (absorbed trajectories contribute ``b = B``, ``i = n = 0``).
        pruned_mass: probability discarded along the way — dict-path
            pruning below ``prune``, or (sparse path) the largest
            per-row mass the operator compile dropped before
            renormalising.
        method: which engine produced the result.
    """

    rounds: np.ndarray
    completion_pmf: np.ndarray
    completion_cdf: np.ndarray
    expected_pieces: np.ndarray
    expected_potential: np.ndarray
    expected_connections: np.ndarray
    pruned_mass: float
    method: str

    @property
    def tail_mass(self) -> float:
        """Probability mass still unabsorbed at the horizon."""
        return float(max(1.0 - self.completion_cdf[-1], 0.0))

    def mean_download_time(self) -> float:
        """Mean rounds to completion, over the absorbed mass.

        Raises:
            ParameterError: if less than 99.9 % of the mass has absorbed
                within the horizon (the estimate would be biased).  The
                horizon-free alternative is the fundamental-matrix
                solve: ``solve(params, "download_time", method="exact")``
                or :func:`repro.core.sparse.mean_hitting_time`.
        """
        absorbed = float(self.completion_cdf[-1])
        if absorbed < 0.999:
            raise ParameterError(
                f"only {absorbed:.4f} of the probability mass absorbed "
                f"within the horizon (tail_mass={self.tail_mass:.3e}); "
                "extend the horizon, or use the horizon-free exact mean: "
                "solve(params, 'download_time', method='exact') or "
                "repro.core.sparse.mean_hitting_time"
            )
        return float(self.rounds @ self.completion_pmf / absorbed)


@dataclass(frozen=True, eq=False)
class PotentialRatioExact:
    """Exact occupancy-weighted ``E[i/s | b]`` (Figure 1(a)).

    Attributes:
        ratio: per piece count ``b = 0..B``, the expectation of ``i/s``
            over all (round, trajectory) pairs holding ``b`` pieces
            (NaN where ``b`` is never occupied; 0 at ``b == B``).
        occupancy: the weights behind each entry — expected rounds spent
            at each piece count (within the horizon for the dict path,
            over the whole download for the sparse path).
        pruned_mass: probability mass discarded while computing the
            curve: the sparse compile's drop, or the dict oracle's
            pruning.
        method: which engine produced the result.
    """

    ratio: np.ndarray
    occupancy: np.ndarray
    pruned_mass: float
    method: str


def _warn_pruned(pruned_mass: float, warn_above: float, method: str) -> None:
    if pruned_mass > warn_above:
        warnings.warn(
            f"exact analysis ({method}) discarded {pruned_mass:.3e} of "
            f"probability mass (> {warn_above:.1e}); tighten prune / "
            "drop_tol if the curves must be exact to that resolution",
            RuntimeWarning,
            stacklevel=3,
        )


def _propagate_sparse(chain: DownloadChain, horizon: int) -> TransientResult:
    """Propagate the exact state distribution for ``horizon`` rounds.

    Vectorized on the compiled CSR operator; the engine behind
    ``solve(params, "transient", horizon=...)``.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    operator = chain.kernel.sparse_operator()
    num_pieces = chain.params.num_pieces
    transition = operator.transition
    absorb = operator.absorb
    b_coord = operator.b_of.astype(float)
    i_coord = operator.i_of.astype(float)
    n_coord = operator.n_of.astype(float)

    state = np.zeros(operator.num_states)
    state[operator.start] = 1.0
    completion_pmf = np.zeros(horizon + 1)
    expected_pieces = np.zeros(horizon + 1)
    expected_potential = np.zeros(horizon + 1)
    expected_connections = np.zeros(horizon + 1)
    absorbed_mass = 0.0

    for round_index in range(horizon + 1):
        expected_pieces[round_index] = (
            absorbed_mass * num_pieces + state @ b_coord
        )
        expected_potential[round_index] = state @ i_coord
        expected_connections[round_index] = state @ n_coord
        if round_index == horizon:
            break
        if not state.any():
            # Everything absorbed: the remaining rounds are constant.
            expected_pieces[round_index + 1 :] = absorbed_mass * num_pieces
            break
        newly_absorbed = float(state @ absorb)
        state = state @ transition
        absorbed_mass += newly_absorbed
        completion_pmf[round_index + 1] = newly_absorbed

    return TransientResult(
        rounds=np.arange(horizon + 1),
        completion_pmf=completion_pmf,
        completion_cdf=np.cumsum(completion_pmf),
        expected_pieces=expected_pieces,
        expected_potential=expected_potential,
        expected_connections=expected_connections,
        pruned_mass=float(operator.dropped_mass),
        method="sparse",
    )


def _propagate_dict(
    chain: DownloadChain, horizon: int, prune: float
) -> TransientResult:
    """The per-state reference loop: the test oracle for propagation.

    Per-state mass below ``prune`` is dropped (tracked in
    ``pruned_mass``).
    """
    num_pieces = chain.params.num_pieces
    distribution: Dict[State, float] = {chain.initial_state: 1.0}
    transition_cache: Dict[State, Dict[State, float]] = {}

    completion_pmf = np.zeros(horizon + 1)
    expected_pieces = np.zeros(horizon + 1)
    expected_potential = np.zeros(horizon + 1)
    expected_connections = np.zeros(horizon + 1)
    absorbed_mass = 0.0
    pruned_mass = 0.0

    for round_index in range(horizon + 1):
        # Record expectations for this round.
        e_b = absorbed_mass * num_pieces
        e_i = 0.0
        e_n = 0.0
        for state, prob in distribution.items():
            e_b += prob * state.b
            e_i += prob * state.i
            e_n += prob * state.n
        expected_pieces[round_index] = e_b
        expected_potential[round_index] = e_i
        expected_connections[round_index] = e_n

        if round_index == horizon:
            break

        # One exact transition step.
        successors: Dict[State, float] = {}
        newly_absorbed = 0.0
        for state, prob in distribution.items():
            dist = transition_cache.get(state)
            if dist is None:
                dist = chain.transition_distribution(state)
                transition_cache[state] = dist
            for nxt, p in dist.items():
                mass = prob * p
                if chain.is_complete(nxt):
                    newly_absorbed += mass
                else:
                    successors[nxt] = successors.get(nxt, 0.0) + mass
        if prune > 0.0:
            kept: Dict[State, float] = {}
            for state, prob in successors.items():
                if prob >= prune:
                    kept[state] = prob
                else:
                    pruned_mass += prob
            successors = kept
        distribution = successors
        absorbed_mass += newly_absorbed
        completion_pmf[round_index + 1] = newly_absorbed

    return TransientResult(
        rounds=np.arange(horizon + 1),
        completion_pmf=completion_pmf,
        completion_cdf=np.cumsum(completion_pmf),
        expected_pieces=expected_pieces,
        expected_potential=expected_potential,
        expected_connections=expected_connections,
        pruned_mass=pruned_mass,
        method="dict",
    )


def _potential_ratio_dict(
    chain: DownloadChain,
    *,
    horizon: int | None = None,
    prune: float = 1e-12,
    warn_above: float = PRUNED_MASS_WARN,
) -> PotentialRatioExact:
    """Occupancy-weighted ``E[i/s | b]`` by dict propagation (test oracle).

    Weights every round's state distribution by occupancy: the value at
    ``b`` is the expectation of ``i/s`` over all (round, trajectory)
    pairs whose piece count is ``b``.  Entries never visited are NaN.
    Per-transition pruning discards mass that is tracked in
    ``pruned_mass``; a :class:`RuntimeWarning` fires when the total
    exceeds ``warn_above``.

    Args:
        horizon: propagation length; defaults to an ample multiple of
            the parallelism bound.
        prune: per-transition mass threshold.
        warn_above: pruned-mass level above which to warn.
    """
    params = chain.params
    if horizon is None:
        horizon = max(20 * params.num_pieces, 200)
    num_pieces = params.num_pieces
    sums = np.zeros(num_pieces + 1)
    weights = np.zeros(num_pieces + 1)
    pruned_mass = 0.0

    distribution: Dict[State, float] = {chain.initial_state: 1.0}
    transition_cache: Dict[State, Dict[State, float]] = {}
    for _round in range(horizon):
        if not distribution:
            break
        for state, prob in distribution.items():
            sums[state.b] += prob * state.i / params.ns_size
            weights[state.b] += prob
        successors: Dict[State, float] = {}
        for state, prob in distribution.items():
            dist = transition_cache.get(state)
            if dist is None:
                dist = chain.transition_distribution(state)
                transition_cache[state] = dist
            for nxt, p in dist.items():
                if chain.is_complete(nxt):
                    continue
                mass = prob * p
                if mass >= prune:
                    successors[nxt] = successors.get(nxt, 0.0) + mass
                else:
                    pruned_mass += mass
        distribution = successors

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(weights > 0, sums / np.maximum(weights, 1e-300), np.nan)
    ratio[num_pieces] = 0.0  # completion: the potential set is empty
    _warn_pruned(pruned_mass, warn_above, "dict")
    return PotentialRatioExact(
        ratio=ratio,
        occupancy=weights,
        pruned_mass=pruned_mass,
        method="dict",
    )

