"""Sparse exact engine: the download chain compiled to one CSR operator.

The dict-based loops (the test oracles in :mod:`repro.core.exact`)
propagate a ``Dict[State, float]`` with per-state Python loops, which
caps them at toy scale.  This module exploits the same structure the
batch sampler's dense tables use — the factored kernel ``f * g * h`` (paper Eqs. 2-3)
collapses to tiny keys — to compile the *entire* one-step transition
kernel over the transient state space into a single
``scipy.sparse.csr_matrix``:

* the transient space is the rectangle ``b = 0..B-1``, ``n = 0..k``,
  ``i = 0..s`` in b-major order (``T = B * (k+1) * (s+1)`` states, 81 600
  at the paper's ``B=200, k=7, s=50``);
* ``Q`` is assembled as a product of two sparse factor matrices built
  vectorially from the collapsed ``g``/``h`` tables — ``G`` applies the
  deterministic piece update and the potential-set kernel, ``H`` applies
  the connection kernel — so no Python-level per-state loop ever runs;
* because ``b`` never decreases, b-major ordering makes ``I - Q``
  block upper triangular: ``splu(..., permc_spec="NATURAL")`` factors it
  with almost no fill-in, and one LU serves both the hitting-time solve
  ``(I - Q) tau = 1`` and the expected-visits solve
  ``(I - Q)^T nu = e_start``.

On top of the operator, :meth:`SparseChainOperator.solution` evaluates
the fundamental matrix ``N = (I - Q)^{-1}`` without ever forming it:

* exact mean *and variance* of the download time (no horizon to pick);
* exact expected visits per state, hence the exact occupancy per piece
  count, the exact Figure-1(a) ratio ``E[i/s | b]``, the exact
  Figure-1(b) timeline (cumulative occupancy below ``b``, valid because
  ``b`` is non-decreasing), and exact per-phase expected rounds.

Entries below ``drop_tol`` are dropped from the factor matrices and the
surviving rows renormalised; with the default ``1e-14`` the operator at
paper scale shrinks from ~31M to ~12M non-zeros while every derived
quantity is stable to ~1e-10.  A ``max_states`` cap fails fast (with a
:class:`~repro.errors.ParameterError`) before a pathological ``B*k*s``
can OOM a pool worker.

Callers that want memoization should go through
:meth:`repro.core.transitions.TransitionKernel.sparse_operator` (one
compile per kernel) or
:meth:`repro.runtime.cache.KernelCache.sparse_operator` (one compile per
process, with hit/miss telemetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from repro.core.parameters import ModelParameters
from repro.core.phases import Phase
from repro.core.trading_power import exchange_probability_curve
from repro.core.transitions import connection_pmf, potential_set_pmf
from repro.errors import ParameterError

__all__ = [
    "DEFAULT_DROP_TOL",
    "DEFAULT_MAX_STATES",
    "SparseChainOperator",
    "FundamentalSolution",
    "compile_sparse_operator",
    "mean_hitting_time",
]

#: Factor-matrix entries below this are dropped (rows renormalised).
#: At paper scale this roughly third-sizes the operator; derived
#: quantities move by less than ~1e-10.
DEFAULT_DROP_TOL = 1e-14

#: Refuse to enumerate more transient states than this (the same order
#: as the pre-sparse BFS solver's limit).  At ``k=7, s=50`` the operator
#: costs roughly 170 bytes per state-row times the mean row density, so
#: the default keeps a compile comfortably under a gigabyte.
DEFAULT_MAX_STATES = 200_000


@dataclass(frozen=True, eq=False)
class FundamentalSolution:
    """Exact absorbing-chain quantities from one fundamental-matrix solve.

    Everything here is horizon-free: it comes from LU solves against
    ``I - Q`` restricted to the reachable transient states, not from
    truncated propagation.

    Attributes:
        mean_download_time: exact expected rounds to ``b == B`` from the
            start state ``(0, 0, 0)``.
        variance_download_time: exact variance of that hitting time.
        expected_visits: per transient state (operator index order), the
            expected number of rounds spent there; zero for states
            unreachable from the start.
        occupancy_by_pieces: ``occupancy_by_pieces[b]`` = expected rounds
            spent holding exactly ``b`` pieces (sums to the mean).
        timeline: ``timeline[b]`` = exact expected first round holding at
            least ``b`` pieces — the Figure-1(b) model curve.  Equals the
            cumulative occupancy below ``b`` because ``b`` never
            decreases.
        potential_ratio: ``potential_ratio[b]`` = exact occupancy-
            weighted ``E[i/s | b]`` — the Figure-1(a) curve (NaN where
            ``b`` is never occupied, 0 at ``b == B``).
        phase_rounds: exact expected rounds per download phase
            (bootstrap / efficient / last), classified exactly as
            :func:`repro.core.phases.classify_state`.
        reachable_states: transient states reachable from the start.
    """

    mean_download_time: float
    variance_download_time: float
    expected_visits: np.ndarray
    occupancy_by_pieces: np.ndarray
    timeline: np.ndarray
    potential_ratio: np.ndarray
    phase_rounds: Dict[Phase, float]
    reachable_states: int

    @property
    def std_download_time(self) -> float:
        """Exact standard deviation of the download time."""
        return float(np.sqrt(self.variance_download_time))


class SparseChainOperator:
    """The one-step kernel of one parameter set as a CSR matrix.

    States are indexed b-major: ``index = (b * (k+1) + n) * (s+1) + i``
    with ``b`` restricted to the transient range ``0..B-1`` (completed
    states are the implicit absorbing class).  Because ``b`` never
    decreases, every transition points at an equal-or-higher block — the
    property the natural-order LU factorisation relies on.

    Attributes:
        params: the parameter set the operator was compiled from.
        transition: ``(T, T)`` CSR matrix; row ``r`` is the distribution
            over transient successors of state ``r`` (rows of absorbing
            states — ``b >= 1`` and ``b + n >= B`` — are empty).
        absorb: per-row probability of absorbing this step.  Absorption
            is deterministic in this chain (the piece update ``f`` has a
            single successor), so entries are exactly 0 or 1 and
            ``transition.sum(axis=1) + absorb == 1`` row-wise.
        b_of / n_of / i_of: coordinate arrays decoding each index.
        start: index of the initial state ``(n=0, b=0, i=0)``.
        drop_tol: the compile's drop tolerance.
        dropped_mass: largest per-row probability mass dropped by
            ``drop_tol`` *before* renormalisation (a fidelity bound).
    """

    def __init__(
        self,
        params: ModelParameters,
        transition: scipy.sparse.csr_matrix,
        absorb: np.ndarray,
        b_of: np.ndarray,
        n_of: np.ndarray,
        i_of: np.ndarray,
        *,
        drop_tol: float,
        dropped_mass: float,
    ):
        self.params = params
        self.transition = transition
        self.absorb = absorb
        self.b_of = b_of
        self.n_of = n_of
        self.i_of = i_of
        self.drop_tol = drop_tol
        self.dropped_mass = dropped_mass
        self.start = self.index_of(0, 0, 0)
        self._reachable: Optional[np.ndarray] = None
        self._solution: Optional[FundamentalSolution] = None

    @property
    def num_states(self) -> int:
        """Transient state count ``T = B * (k+1) * (s+1)``."""
        return self.transition.shape[0]

    def index_of(self, n: int, b: int, i: int) -> int:
        """b-major index of transient state ``(n, b, i)``."""
        params = self.params
        if not 0 <= b < params.num_pieces:
            raise ParameterError(
                f"b={b} outside the transient range 0..{params.num_pieces - 1}"
            )
        if not 0 <= n <= params.max_conns:
            raise ParameterError(f"n={n} outside 0..{params.max_conns}")
        if not 0 <= i <= params.ns_size:
            raise ParameterError(f"i={i} outside 0..{params.ns_size}")
        return (b * (params.max_conns + 1) + n) * (params.ns_size + 1) + i

    def state_of(self, index: int) -> "tuple":
        """Decode an operator index back to ``(n, b, i)``."""
        if not 0 <= index < self.num_states:
            raise ParameterError(f"index {index} outside 0..{self.num_states - 1}")
        return (
            int(self.n_of[index]),
            int(self.b_of[index]),
            int(self.i_of[index]),
        )

    def reachable(self) -> np.ndarray:
        """Sorted indices of transient states reachable from the start.

        Sorting preserves the b-major order, so a slice of ``I - Q`` by
        this array stays block upper triangular.
        """
        if self._reachable is None:
            nodes = scipy.sparse.csgraph.breadth_first_order(
                self.transition, self.start, directed=True,
                return_predecessors=False,
            )
            reachable = np.sort(np.asarray(nodes, dtype=np.intp))
            reachable.setflags(write=False)
            self._reachable = reachable
        return self._reachable

    def solution(self) -> FundamentalSolution:
        """The (memoised) fundamental-matrix solve for this operator."""
        if self._solution is None:
            self._solution = _solve_fundamental(self)
        return self._solution


def compile_sparse_operator(
    source: Union[ModelParameters, "object"],
    *,
    drop_tol: float = DEFAULT_DROP_TOL,
    max_states: int = DEFAULT_MAX_STATES,
) -> SparseChainOperator:
    """Compile the transient one-step kernel into a CSR operator.

    The transition probability factors as ``f * g * h`` (Eqs. 2-3) with
    ``f`` deterministic, so ``Q`` is assembled as a product of two
    sparse factor matrices whose entries come straight from the
    authoritative pmf builders (:func:`potential_set_pmf` /
    :func:`connection_pmf`) evaluated at one representative state per
    collapsed key — exactly the construction
    :meth:`~repro.core.transitions.TransitionKernel.dense_tables` uses
    for batch sampling, so the three engines agree by construction:

    * ``G`` maps ``(n, b, i) -> (b', n, i')`` with weight
      ``g(i' | n, b, i)`` and the deterministic ``b' = f(n, b)``;
    * ``H`` maps ``(b', n, i') -> (b', n', i')`` with weight
      ``h(n' | n, b, i')``  (``h`` depends only on ``(n, i')`` whenever
      the originating trading power ``c >= 1``);
    * rows with ``c == 0`` (the just-joined column ``b = n = 0``), whose
      connection update is deterministically ``n' = 0``, bypass ``H``
      and are added directly.

    ``scipy`` performs the ``G @ H`` product in C, so compilation is
    vectorized end to end.

    Args:
        source: a :class:`ModelParameters`, or anything carrying one as
            ``.params`` (a chain or kernel).  This function always
            compiles afresh; go through the kernel or the runtime
            :class:`~repro.runtime.cache.KernelCache` for memoization.
        drop_tol: drop factor entries at or below this probability and
            renormalise the surviving rows (0 disables).
        max_states: refuse (with an actionable
            :class:`~repro.errors.ParameterError`) to enumerate a larger
            transient space.

    Raises:
        ParameterError: invalid tolerances, or a state space above
            ``max_states``.
    """
    params = source if isinstance(source, ModelParameters) else source.params
    if not 0.0 <= drop_tol < 1e-3:
        raise ParameterError(f"drop_tol must be in [0, 1e-3), got {drop_tol}")
    if max_states < 1:
        raise ParameterError(f"max_states must be >= 1, got {max_states}")
    num_pieces = params.num_pieces
    k = params.max_conns
    s = params.ns_size
    num_transient = num_pieces * (k + 1) * (s + 1)
    if num_transient > max_states:
        raise ParameterError(
            f"sparse operator would enumerate {num_transient:,} transient "
            f"states (B={num_pieces} x (k+1)={k + 1} x (s+1)={s + 1}), over "
            f"the cap max_states={max_states:,}; raise max_states if the "
            f"memory budget allows (roughly (s+1)+(k+1) non-zeros per "
            f"state) or use the batched Monte-Carlo estimators instead"
        )

    # Collapsed-key pmf tables from the authoritative builders, mirroring
    # TransitionKernel.dense_tables (same representative states).
    p_curve = exchange_probability_curve(num_pieces, params.phi)
    g_table = np.empty((num_pieces + 1, 2, s + 1))
    for c in range(num_pieces + 1):
        if c < num_pieces:
            n_rep, b_rep = 0, c
        else:
            n_rep, b_rep = 1, num_pieces - 1
        for flag, i_rep in ((0, 1), (1, 0)):
            g_table[c, flag] = potential_set_pmf(
                n_rep, b_rep, min(i_rep, s), params, p_curve=p_curve
            )
    h_table = np.zeros((k + 1, k + 1, k + 1))
    h_table[:, :, 0] = 1.0  # padding: point mass at n' = 0
    b_rep = 1 if num_pieces >= 2 else 0
    for n in range(k + 1):
        max_free = max(min(k, s) - n, 0)
        for free in range(max_free + 1):
            i_rep = min(n + free, s) if free == 0 else n + free
            if b_rep == 0 and n == 0:
                continue  # c == 0: handled by the direct rows below
            h_table[n, free] = connection_pmf(n, b_rep, i_rep, params)

    # State grids (b-major index order).
    grid_b, grid_n, grid_i = np.meshgrid(
        np.arange(num_pieces, dtype=np.intp),
        np.arange(k + 1, dtype=np.intp),
        np.arange(s + 1, dtype=np.intp),
        indexing="ij",
    )
    b_of = np.ascontiguousarray(grid_b.ravel())
    n_of = np.ascontiguousarray(grid_n.ravel())
    i_of = np.ascontiguousarray(grid_i.ravel())
    trading_power = np.minimum(b_of + n_of, num_pieces)
    b_next = np.where(b_of == 0, 1, trading_power)
    flag = (i_of == 0).astype(np.intp)
    live = b_next < num_pieces  # non-absorbing rows
    joined = trading_power == 0  # c == 0: deterministic n' = 0

    i_cols = np.arange(s + 1)
    shape = (num_transient, num_transient)

    # G: (n, b, i) -> (b', n, i'), weight g(i' | n, b, i); rows with
    # c == 0 bypass the H factor (their h is deterministic), absorbing
    # rows stay empty.
    g_rows = np.flatnonzero(live & ~joined)
    g_vals = g_table[trading_power[g_rows][:, None], flag[g_rows][:, None], i_cols]
    g_cols = (
        (b_next[g_rows][:, None] * (k + 1) + n_of[g_rows][:, None]) * (s + 1)
        + i_cols[None, :]
    )
    keep = g_vals > drop_tol
    factor_g = scipy.sparse.csr_matrix(
        (g_vals[keep], (np.repeat(g_rows, keep.sum(axis=1)), g_cols[keep])),
        shape=shape,
    )

    # H: (b', n, i') -> (b', n', i'), weight h(n' | n, i') — valid for
    # every intermediate G lands on, since those all originate from
    # states with c >= 1.
    free = np.clip(np.minimum(i_of, k) - n_of, 0, None)
    n_cols = np.arange(k + 1)
    h_vals = h_table[n_of[:, None], free[:, None], n_cols]
    h_cols = (
        (b_of[:, None] * (k + 1) + n_cols[None, :]) * (s + 1) + i_of[:, None]
    )
    keep = h_vals > drop_tol
    factor_h = scipy.sparse.csr_matrix(
        (h_vals[keep], (np.repeat(np.arange(num_transient), keep.sum(axis=1)),
                        h_cols[keep])),
        shape=shape,
    )

    transition = (factor_g @ factor_h).tocsr()

    # Direct rows for c == 0 (b = n = 0): b' = 1, i' ~ Bin(s, p_init),
    # n' = 0 deterministically.
    joined_rows = np.flatnonzero(live & joined)
    if joined_rows.size:
        d_vals = g_table[0, flag[joined_rows][:, None], i_cols]
        d_cols = np.broadcast_to(
            (1 * (k + 1) + 0) * (s + 1) + i_cols, d_vals.shape
        )
        keep = d_vals > drop_tol
        direct = scipy.sparse.csr_matrix(
            (d_vals[keep],
             (np.repeat(joined_rows, keep.sum(axis=1)), d_cols[keep])),
            shape=shape,
        )
        transition = (transition + direct).tocsr()

    # Renormalise live rows so dropped tails do not leak probability.
    row_sums = np.asarray(transition.sum(axis=1)).ravel()
    lost = np.where(live, 1.0 - row_sums, 0.0)
    dropped_mass = float(max(lost.max(initial=0.0), 0.0))
    scale = np.where(
        live & (row_sums > 0.0), 1.0 / np.where(row_sums > 0.0, row_sums, 1.0), 0.0
    )
    transition = scipy.sparse.diags(scale).dot(transition).tocsr()
    transition.sum_duplicates()
    absorb = (b_next == num_pieces).astype(float)

    for array in (absorb, b_of, n_of, i_of):
        array.setflags(write=False)
    return SparseChainOperator(
        params,
        transition,
        absorb,
        b_of,
        n_of,
        i_of,
        drop_tol=drop_tol,
        dropped_mass=dropped_mass,
    )


def _resolve_operator(
    source: "object",
    *,
    drop_tol: Optional[float],
    max_states: Optional[int],
) -> SparseChainOperator:
    """Find or compile the operator for chains/kernels/params/operators."""
    if isinstance(source, SparseChainOperator):
        return source
    kernel = getattr(source, "kernel", source)  # DownloadChain -> kernel
    if hasattr(kernel, "sparse_operator"):  # TransitionKernel: memoised
        return kernel.sparse_operator(drop_tol=drop_tol, max_states=max_states)
    return compile_sparse_operator(
        source,
        drop_tol=DEFAULT_DROP_TOL if drop_tol is None else drop_tol,
        max_states=DEFAULT_MAX_STATES if max_states is None else max_states,
    )


def _solve_fundamental(operator: SparseChainOperator) -> FundamentalSolution:
    """One LU of ``I - Q`` (reachable block), three triangular solves."""
    params = operator.params
    num_pieces = params.num_pieces
    reachable = operator.reachable()
    size = int(reachable.size)
    q_reach = operator.transition[reachable, :][:, reachable].tocsc()
    system = (scipy.sparse.identity(size, format="csc") - q_reach).tocsc()
    try:
        # Natural order keeps the block-upper-triangular structure the
        # b-major indexing provides, so the factorisation is near
        # fill-free; one LU serves tau, tau2, and the transposed visits
        # solve.
        lu = scipy.sparse.linalg.splu(system, permc_spec="NATURAL")
        hitting = lu.solve(np.ones(size))
    except RuntimeError as exc:
        raise ParameterError(
            "fundamental-matrix solve failed: I - Q is singular on the "
            "reachable transient states, so the expected download time "
            "is infinite (e.g. alpha or gamma of 0 strands the chain in "
            f"a stuck state): {exc}"
        ) from exc
    start_pos = int(np.searchsorted(reachable, operator.start))
    mean = float(hitting[start_pos])
    if not np.isfinite(mean):
        raise ParameterError(
            "fundamental-matrix solve produced a non-finite hitting time; "
            "the chain cannot reach completion from the start state"
        )
    # Second moment via N * tau: E[T^2] = (2N - I) tau.
    second = 2.0 * lu.solve(hitting) - hitting
    variance = float(max(second[start_pos] - mean * mean, 0.0))
    unit = np.zeros(size)
    unit[start_pos] = 1.0
    visits_reach = lu.solve(unit, trans="T")
    visits = np.zeros(operator.num_states)
    visits[reachable] = np.maximum(visits_reach, 0.0)

    occupancy = np.bincount(
        operator.b_of, weights=visits, minlength=num_pieces + 1
    )
    ratio_num = (
        np.bincount(
            operator.b_of, weights=visits * operator.i_of,
            minlength=num_pieces + 1,
        )
        / params.ns_size
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(
            occupancy > 0.0, ratio_num / np.maximum(occupancy, 1e-300), np.nan
        )
    ratio[num_pieces] = 0.0  # completion: the potential set is empty
    # First passage to >= b happens after every round spent below b.
    timeline = np.concatenate(([0.0], np.cumsum(occupancy[:num_pieces])))

    parallelism = operator.b_of + operator.n_of
    bootstrap = parallelism <= 1
    last = (operator.i_of == 0) & ~bootstrap
    efficient = ~(bootstrap | last)
    phase_rounds = {
        Phase.BOOTSTRAP: float(visits[bootstrap].sum()),
        Phase.EFFICIENT: float(visits[efficient].sum()),
        Phase.LAST: float(visits[last].sum()),
    }

    for array in (visits, occupancy, timeline, ratio):
        array.setflags(write=False)
    return FundamentalSolution(
        mean_download_time=mean,
        variance_download_time=variance,
        expected_visits=visits,
        occupancy_by_pieces=occupancy,
        timeline=timeline,
        potential_ratio=ratio,
        phase_rounds=phase_rounds,
        reachable_states=size,
    )


def mean_hitting_time(
    source: "object",
    *,
    drop_tol: Optional[float] = None,
    max_states: Optional[int] = None,
) -> float:
    """Exact expected rounds to ``b == B`` from the start state.

    Accepts a :class:`~repro.core.chain.DownloadChain`,
    :class:`~repro.core.transitions.TransitionKernel`,
    :class:`ModelParameters`, or a pre-compiled
    :class:`SparseChainOperator`; chain/kernel sources reuse the
    kernel-memoised operator and its cached solution.  The horizon-free alternative to
    :meth:`repro.core.exact.TransientResult.mean_download_time` — no
    propagation horizon to pick and no truncated tail to bias the mean.
    """
    return _resolve_operator(
        source, drop_tol=drop_tol, max_states=max_states
    ).solution().mean_download_time
