"""Core multiphased download-evolution model (Section 3 of the paper).

The central object is :class:`repro.core.chain.DownloadChain`, the
three-dimensional Markov chain over states ``(n, b, i)``:

``n``
    number of active connections, ``0 <= n <= k``;
``b``
    number of downloaded pieces, ``0 <= b <= B``;
``i``
    size of the potential set, ``0 <= i <= s``.

The transition kernel factors as ``f(b'|n,b) * g(i'|n,b,i) * h(n'|n,b,i')``
(paper Eqs. 2-3), built from the trading-power function ``p(b+n)``
(paper Eq. 1) in :mod:`repro.core.trading_power`.
"""

from repro.core.batch import BatchChainSampler, BatchTrajectories
from repro.core.binomial import binomial_pmf, convolve_pmf
from repro.core.chain import DownloadChain, State
from repro.core.exact import PotentialRatioExact, TransientResult
from repro.core.parameters import ModelParameters, alpha_from_swarm
from repro.core.phases import Phase, classify_state, phase_durations
from repro.core.piece_distribution import PieceCountDistribution
from repro.core.sparse import (
    FundamentalSolution,
    SparseChainOperator,
    compile_sparse_operator,
    mean_hitting_time,
)
from repro.core.trading_power import exchange_probability

__all__ = [
    "BatchChainSampler",
    "BatchTrajectories",
    "binomial_pmf",
    "convolve_pmf",
    "DownloadChain",
    "State",
    "ModelParameters",
    "alpha_from_swarm",
    "Phase",
    "classify_state",
    "phase_durations",
    "PieceCountDistribution",
    "exchange_probability",
    "TransientResult",
    "PotentialRatioExact",
    "SparseChainOperator",
    "FundamentalSolution",
    "compile_sparse_operator",
    "mean_hitting_time",
]
