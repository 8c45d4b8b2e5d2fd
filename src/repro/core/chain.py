"""The three-dimensional download-evolution Markov chain (Section 3).

:class:`DownloadChain` ties the kernels of
:mod:`repro.core.transitions` into a steppable, sampleable process:

* start at ``(0, 0, 0)`` — a fresh peer with no pieces;
* each step updates ``b`` (via ``f``), then ``i`` (via ``g``), then
  ``n`` (via ``h``, which sees the new ``i'``);
* the download is complete once ``b == B``; the paper's absorbing state
  ``(0, B, 0)`` is reached within two further bookkeeping steps, but
  every estimator in this package measures completion at ``b == B``.

One chain step corresponds to one piece-exchange round, so trajectory
lengths are directly comparable with the simulator's round counter
(Figure 1(b)'s "evolution timeline").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.parameters import ModelParameters
from repro.core.phases import Phase, classify_state
from repro.core.transitions import TransitionKernel, piece_successor
from repro.errors import ParameterError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchChainSampler

__all__ = ["State", "DownloadChain"]


class State(NamedTuple):
    """Chain state ``(n, b, i)``.

    Attributes:
        n: active connections, ``0 <= n <= k``.
        b: downloaded pieces, ``0 <= b <= B``.
        i: potential-set size, ``0 <= i <= s``.
    """

    n: int
    b: int
    i: int


class DownloadChain:
    """Sampleable download-evolution chain for one parameter set.

    Example:
        >>> from repro import DownloadChain, ModelParameters
        >>> chain = DownloadChain(ModelParameters(num_pieces=50, max_conns=4,
        ...                                       ns_size=20))
        >>> traj = chain.trajectory(seed=7)
        >>> traj[0], traj[-1].b
        (State(n=0, b=0, i=0), 50)
    """

    #: Hard cap on trajectory length, as a multiple of the
    #: zero-progress-free bound ``B`` steps.  A trajectory exceeding it
    #: indicates parameters under which the peer starves (e.g.
    #: ``alpha == gamma == 0``); :meth:`trajectory` raises then.
    MAX_STEPS_FACTOR = 10_000

    def __init__(self, params: ModelParameters):
        self.params = params
        self.kernel = TransitionKernel(params)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def initial_state(self) -> State:
        """A fresh peer: no connections, no pieces, empty potential set."""
        return State(0, 0, 0)

    def is_complete(self, state: State) -> bool:
        """True once the peer holds all ``B`` pieces."""
        return state.b >= self.params.num_pieces

    def phase(self, state: State) -> Phase:
        """Phase of ``state`` (see :mod:`repro.core.phases`)."""
        return classify_state(state, self.params.num_pieces)

    def validate_state(self, state: State) -> None:
        """Raise :class:`ParameterError` if ``state`` is outside the space."""
        if not 0 <= state.n <= self.params.max_conns:
            raise ParameterError(f"n={state.n} outside 0..{self.params.max_conns}")
        if not 0 <= state.b <= self.params.num_pieces:
            raise ParameterError(f"b={state.b} outside 0..{self.params.num_pieces}")
        if not 0 <= state.i <= self.params.ns_size:
            raise ParameterError(f"i={state.i} outside 0..{self.params.ns_size}")

    # ------------------------------------------------------------------
    # Stepping / sampling
    # ------------------------------------------------------------------
    def step(self, state: State, rng: np.random.Generator) -> State:
        """Sample one transition: update ``b``, then ``i``, then ``n``."""
        n, b, _i = state
        b_next = piece_successor(n, b, self.params.num_pieces)
        i_next = self.kernel.sample_i_next(n, b, state.i, rng)
        n_next = self.kernel.sample_n_next(n, b, i_next, rng)
        return State(n_next, b_next, i_next)

    def trajectory(
        self,
        *,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        max_steps: Optional[int] = None,
    ) -> List[State]:
        """Sample a full trajectory from ``(0,0,0)`` until ``b == B``.

        The returned list includes both the initial state and the first
        state with ``b == B``; its length minus one is the download time
        in piece-exchange rounds.

        Raises:
            SimulationError: if the trajectory exceeds ``max_steps``
                (default ``MAX_STEPS_FACTOR * B``), which indicates the
                parameters give the peer no escape from starvation.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        limit = max_steps or self.MAX_STEPS_FACTOR * self.params.num_pieces
        state = self.initial_state
        traj = [state]
        while not self.is_complete(state):
            if len(traj) > limit:
                raise SimulationError(
                    f"trajectory exceeded {limit} steps without completing; "
                    f"parameters: {self.params.describe()}"
                )
            state = self.step(state, rng)
            traj.append(state)
        return traj

    def batch_sampler(self) -> "BatchChainSampler":
        """A vectorized sampler sharing this chain's cached kernel.

        See :class:`repro.core.batch.BatchChainSampler` — it advances
        all runs simultaneously and is the Monte Carlo engine behind the
        Figure-1 estimators in :mod:`repro.core.timeline`.
        """
        from repro.core.batch import BatchChainSampler

        return BatchChainSampler(self)

    # ------------------------------------------------------------------
    # Exact kernel access
    # ------------------------------------------------------------------
    def transition_distribution(self, state: State) -> Dict[State, float]:
        """Exact successor distribution ``{State: prob}`` (sums to 1)."""
        self.validate_state(state)
        raw = self.kernel.transition_distribution(state.n, state.b, state.i)
        return {State(*key): prob for key, prob in raw.items()}

    def download_time_steps(self, trajectory: List[State]) -> int:
        """Steps until completion for a trajectory from :meth:`trajectory`."""
        return len(trajectory) - 1
