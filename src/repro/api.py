"""The unified model-query API: canonical parameters, one ``solve()``.

Every model quantity of the paper's §3 chain — potential-set ratio,
timeline, download time, phases, transient law — is answered through
one surface built around three values:

* :class:`ModelParams` — a frozen, canonicalized subclass of
  :class:`~repro.core.parameters.ModelParameters` with normalized field
  types, a JSON round-trip (:meth:`ModelParams.to_dict` /
  :meth:`ModelParams.from_dict`), and a process-independent
  :meth:`ModelParams.cache_key`;
* :class:`Query` — ``(params, quantity, method, options)`` as one
  hashable value with its own stable cache key (what the service
  coalesces identical in-flight requests on);
* :func:`solve` — one dispatch table mapping
  ``(Quantity, Method)`` to the engine that answers it, returning a
  :class:`SolveResult` that serializes uniformly.

Example::

    from repro.api import ModelParams, solve

    params = ModelParams(num_pieces=200, max_conns=7, ns_size=50)
    ratio = solve(params, "potential_ratio").payload.ratio
    mean = solve(params, "download_time", method="exact").payload.mean
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.batch import BatchChainSampler
from repro.core.exact import (
    PRUNED_MASS_WARN,
    PotentialRatioExact,
    _propagate_sparse,
    _warn_pruned,
)
from repro.core.methods import Method
from repro.core.parameters import ModelParameters
from repro.core.piece_distribution import PieceCountDistribution
from repro.core.timeline import (
    PhaseStatistics,
    PotentialRatioResult,
    TimelineResult,
    _mean_timeline,
    phase_duration_statistics,
    potential_ratio_by_pieces,
)
from repro.errors import ParameterError
from repro.runtime.cache import KernelCache, shared_cache
from repro.serialize import to_jsonable

__all__ = [
    "ModelParams",
    "Quantity",
    "Query",
    "SolveResult",
    "DownloadTimeResult",
    "MEANFIELD_STATE_FACTOR",
    "solve",
    "solve_query",
]

_INT_FIELDS = ("num_pieces", "max_conns", "ns_size")
_FLOAT_FIELDS = ("p_init", "alpha", "gamma", "p_reenc", "p_new")


def _as_int(value: Any, name: str) -> int:
    """Coerce numpy/JSON integers to ``int``; reject fractional values."""
    try:
        coerced = int(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from exc
    try:
        fractional = float(value) != float(coerced)
    except (TypeError, ValueError, OverflowError):
        fractional = False  # non-numeric inputs already settled by int()
    if fractional:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return coerced


def _as_float(value: Any, name: str) -> float:
    """Coerce to ``float``; ``+ 0.0`` folds ``-0.0`` into ``0.0``."""
    try:
        return float(value) + 0.0
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a number, got {value!r}") from exc


class ModelParams(ModelParameters):
    """Canonicalized, cache-keyed model parameters.

    A frozen subclass of
    :class:`~repro.core.parameters.ModelParameters` that normalizes its
    fields before validation — integers become built-in ``int``, floats
    become built-in ``float`` (with ``-0.0`` folded to ``0.0``), so two
    parameter sets that denote the same model compare, hash, and
    cache-key identically regardless of whether they were built from
    Python literals, numpy scalars, or a JSON request body.

    :meth:`cache_key` digests the exact field bytes (including the
    ``phi`` pmf), so it is stable across processes, platforms, and
    ``PYTHONHASHSEED`` — the property the service's shared cache and
    request coalescing rely on.
    """

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
        super().__post_init__()

    @classmethod
    def of(
        cls, params: Union["ModelParams", ModelParameters], **changes: Any
    ) -> "ModelParams":
        """Canonicalize any :class:`ModelParameters` (plus overrides)."""
        if isinstance(params, cls) and not changes:
            return params
        if not isinstance(params, ModelParameters):
            raise ParameterError(
                f"expected ModelParameters, got {type(params).__name__}"
            )
        values = {f.name: getattr(params, f.name) for f in fields(params)}
        values.update(changes)
        return cls(**values)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModelParams":
        """Build from a JSON-shaped mapping (the service request body).

        Accepts the field names of :class:`ModelParameters`; ``phi`` may
        be omitted/``None`` (uniform) or a pmf list over ``1..B``.
        Unknown keys raise an actionable :class:`ParameterError`.
        """
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"params must be a mapping, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ParameterError(
                f"unknown parameter field(s) {unknown}; "
                f"valid fields: {sorted(known)}"
            )
        missing = [name for name in _INT_FIELDS if name not in payload]
        if missing:
            raise ParameterError(f"missing required parameter field(s) {missing}")
        values = dict(payload)
        phi = values.get("phi")
        if phi is not None and not isinstance(phi, PieceCountDistribution):
            num_pieces = _as_int(values["num_pieces"], "num_pieces")
            values["phi"] = PieceCountDistribution(
                num_pieces, np.asarray(phi, dtype=float)
            )
        return cls(**values)

    def to_dict(self) -> dict:
        """JSON-ready mapping; ``phi`` is ``None`` when uniform."""
        uniform = PieceCountDistribution.uniform(self.num_pieces)
        return {
            "num_pieces": self.num_pieces,
            "max_conns": self.max_conns,
            "ns_size": self.ns_size,
            "p_init": self.p_init,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "p_reenc": self.p_reenc,
            "p_new": self.p_new,
            "phi": None if self.phi == uniform else self.phi.as_array().tolist(),
        }

    # ------------------------------------------------------------------
    # Cache key
    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Hex digest uniquely identifying this parameter set.

        SHA-256 over the packed field values and the raw ``phi`` pmf
        bytes; independent of process, platform word order is pinned
        little-endian.
        """
        digest = hashlib.sha256()
        digest.update(
            struct.pack("<3q", self.num_pieces, self.max_conns, self.ns_size)
        )
        digest.update(
            struct.pack(
                "<5d", self.p_init, self.alpha, self.gamma,
                self.p_reenc, self.p_new,
            )
        )
        digest.update(self.phi.as_array().astype("<f8").tobytes())
        return digest.hexdigest()


class Quantity(str, enum.Enum):
    """The model quantities :func:`solve` can answer.

    Members compare equal to their canonical string value; the aliases
    in :data:`_QUANTITY_ALIASES` map the historical entry-point and
    figure names onto them.
    """

    POTENTIAL_RATIO = "potential_ratio"
    TIMELINE = "timeline"
    DOWNLOAD_TIME = "download_time"
    PHASES = "phases"
    TRANSIENT = "transient"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, value: Union["Quantity", str]) -> "Quantity":
        """Resolve a quantity name or alias; actionable on typos."""
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise ParameterError(
                f"quantity must be a string or Quantity, "
                f"got {type(value).__name__}"
            )
        name = value.strip().lower()
        try:
            return cls(name)
        except ValueError:
            alias = _QUANTITY_ALIASES.get(name)
            if alias is not None:
                return alias
        choices = ", ".join(repr(member.value) for member in cls)
        aliases = ", ".join(repr(a) for a in sorted(_QUANTITY_ALIASES))
        raise ParameterError(
            f"unknown quantity {value!r}; valid choices: {choices} "
            f"(aliases: {aliases})"
        )


_QUANTITY_ALIASES = {
    "ratio": Quantity.POTENTIAL_RATIO,
    "fig1a": Quantity.POTENTIAL_RATIO,
    "first_passage": Quantity.TIMELINE,
    "fig1b": Quantity.TIMELINE,
    "mean_download_time": Quantity.DOWNLOAD_TIME,
    "ttd": Quantity.DOWNLOAD_TIME,
    "phase_split": Quantity.PHASES,
    "phase_durations": Quantity.PHASES,
    "distribution": Quantity.TRANSIENT,
}

_ENGINES = (Method.EXACT, Method.BATCH, Method.MEANFIELD)

#: Methods each quantity accepts (AUTO resolves before dispatch).
_ALLOWED_METHODS = {
    Quantity.POTENTIAL_RATIO: _ENGINES,
    Quantity.TIMELINE: _ENGINES,
    Quantity.DOWNLOAD_TIME: _ENGINES,
    Quantity.PHASES: _ENGINES,
    Quantity.TRANSIENT: (Method.EXACT,),
}


@dataclass(frozen=True)
class DownloadTimeResult:
    """Mean download time (rounds to ``b == B``) from one solve.

    Attributes:
        mean / std / variance: download-time moments; exact for
            ``method="exact"`` (``runs == 0``), sample moments for the
            batch sampler.
        runs: trajectories sampled (0 = exact).
        method: the engine that produced the numbers.
    """

    mean: float
    std: float
    variance: float
    runs: int
    method: str


@dataclass(frozen=True)
class Query:
    """One canonical model query: parameters + quantity + method + options.

    Build through :meth:`Query.make` (which canonicalizes the params,
    parses quantity/method names, coerces option values by type,
    resolves ``auto``, and validates the option names) or
    :meth:`Query.from_request` (the service's JSON body).

    Attributes:
        params: canonicalized :class:`ModelParams`.
        quantity: the requested :class:`Quantity`.
        method: the resolved :class:`Method` (never ``AUTO``).
        options: canonically sorted ``(key, value)`` pairs.
    """

    params: ModelParams
    quantity: Quantity
    method: Method
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        params: ModelParameters,
        quantity: Union[Quantity, str],
        method: Union[Method, str] = Method.AUTO,
        **options: Any,
    ) -> "Query":
        params = ModelParams.of(params)
        quantity = Quantity.parse(quantity)
        options = _coerce_options(options)
        method = Method.parse(
            method, allowed=_ALLOWED_METHODS[quantity] + (Method.AUTO,)
        )
        if method is Method.AUTO:
            method = _resolve_auto(params, quantity, options)
            if method is not Method.EXACT:
                # max_states steered the auto cutoff; the non-exact
                # engines have no use for it, so it leaves the
                # canonical query.
                options = {
                    k: v for k, v in options.items() if k != "max_states"
                }
        _validate_options(quantity, method, options)
        return cls(
            params=params,
            quantity=quantity,
            method=method,
            options=tuple(sorted(options.items())),
        )

    @classmethod
    def from_request(cls, payload: Mapping[str, Any]) -> "Query":
        """Build a query from a service request body.

        Expected shape::

            {"params": {...}, "quantity": "...",
             "method": "auto", "options": {...}}
        """
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"request body must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        unknown = sorted(
            set(payload) - {"params", "quantity", "method", "options"}
        )
        if unknown:
            raise ParameterError(
                f"unknown request field(s) {unknown}; valid fields: "
                f"['params', 'quantity', 'method', 'options']"
            )
        if "params" not in payload or "quantity" not in payload:
            raise ParameterError(
                "request must carry 'params' and 'quantity' fields"
            )
        options = payload.get("options") or {}
        if not isinstance(options, Mapping):
            raise ParameterError(
                f"options must be a JSON object, got {type(options).__name__}"
            )
        return cls.make(
            ModelParams.from_dict(payload["params"]),
            payload["quantity"],
            payload.get("method") or Method.AUTO,
            **dict(options),
        )

    def cache_key(self) -> str:
        """Process-independent digest identifying this exact query."""
        digest = hashlib.sha256()
        digest.update(self.params.cache_key().encode("ascii"))
        digest.update(self.quantity.value.encode("ascii"))
        digest.update(self.method.value.encode("ascii"))
        digest.update(
            json.dumps(self.options, sort_keys=True, default=str).encode("utf-8")
        )
        return digest.hexdigest()


def _transient_state_count(params: ModelParameters) -> int:
    return params.num_pieces * (params.max_conns + 1) * (params.ns_size + 1)


#: AUTO's mean-field threshold, as a multiple of the exact-engine state
#: cap: up to ``factor * cap`` transient states the batch sampler is
#: still cheap and carries error bars; beyond it the state space is so
#: large that the deterministic large-swarm limit is both faster and
#: more accurate than affordable sampling.
MEANFIELD_STATE_FACTOR = 8


def _resolve_auto(
    params: ModelParams, quantity: Quantity, options: Mapping[str, Any]
) -> Method:
    """``auto``: exact / batch / mean-field by transient-space size.

    Three tiers against the exact-engine state cap (``max_states``
    option, defaulting to the sparse engine's
    :data:`~repro.core.sparse.DEFAULT_MAX_STATES`):

    * ``states <= cap`` — the sparse exact engine;
    * ``cap < states <= MEANFIELD_STATE_FACTOR * cap`` — batched Monte
      Carlo (error bars, still affordable);
    * above — the mean-field ODE limit, whose accuracy *improves* as
      the state space (and swarm) grows while its cost stays flat.

    ``TRANSIENT`` has no Monte-Carlo or mean-field estimator, so auto
    always means the sparse engine there.
    """
    if quantity is Quantity.TRANSIENT:
        return Method.EXACT
    from repro.core.sparse import DEFAULT_MAX_STATES

    cap = options.get("max_states") or DEFAULT_MAX_STATES
    states = _transient_state_count(params)
    if states <= cap:
        return Method.EXACT
    if states <= MEANFIELD_STATE_FACTOR * cap:
        return Method.BATCH
    return Method.MEANFIELD


#: Options each (quantity, method) cell accepts.
_EXACT_OPTIONS = frozenset({"drop_tol", "max_states", "warn_above"})
_MC_OPTIONS = frozenset({"runs", "seed"})
_TRANSIENT_OPTIONS = frozenset({"horizon"})
_MEANFIELD_OPTIONS = frozenset(
    {"rtol", "atol", "drain_tol", "max_rounds", "swarm_size"}
)


def _option_names(quantity: Quantity, method: Method) -> frozenset:
    if quantity is Quantity.TRANSIENT:
        return _TRANSIENT_OPTIONS
    if method is Method.BATCH:
        return _MC_OPTIONS
    if method is Method.MEANFIELD:
        return _MEANFIELD_OPTIONS
    return _EXACT_OPTIONS


#: Declared type of every option value; ``Query.make`` coerces each one
#: once, so handlers and cache keys only ever see canonical values.
_INT_OPTIONS = frozenset(
    {"runs", "seed", "horizon", "max_states", "max_rounds", "swarm_size"}
)
_FLOAT_OPTIONS = frozenset(
    {"drop_tol", "warn_above", "rtol", "atol", "drain_tol"}
)


def _coerce_options(options: Mapping[str, Any]) -> Dict[str, Any]:
    """Options with every typed value coerced (``seed`` may be ``None``).

    Malformed values raise :class:`ParameterError` here, before any
    engine runs; names are left for :func:`_validate_options`.
    """
    coerced = dict(options)
    for name, value in options.items():
        if name == "seed" and value is None:
            continue
        if name in _INT_OPTIONS:
            coerced[name] = _as_int(value, name)
        elif name in _FLOAT_OPTIONS:
            coerced[name] = _as_float(value, name)
    return coerced


def _validate_options(
    quantity: Quantity, method: Method, options: Mapping[str, Any]
) -> None:
    accepted = _option_names(quantity, method)
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ParameterError(
            f"unknown option(s) {unknown} for quantity "
            f"{quantity.value!r} with method {method.value!r}; "
            f"accepted: {sorted(accepted)}"
        )


@dataclass(frozen=True)
class SolveResult:
    """One answered query.

    Attributes:
        params: the canonical parameters solved.
        quantity / method: what was computed and by which engine.
        payload: the quantity's native result object
            (:class:`~repro.core.exact.PotentialRatioExact`,
            :class:`~repro.core.timeline.TimelineResult`,
            :class:`DownloadTimeResult`,
            :class:`~repro.core.timeline.PhaseStatistics`, or
            :class:`~repro.core.exact.TransientResult`).
        stats: engine-side counters (e.g. ``transient_states`` for the
            sparse engine, ``runs`` for the samplers).
    """

    params: ModelParams
    quantity: Quantity
    method: Method
    payload: Any
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view (the service's ``/solve`` response body)."""
        return {
            "params": self.params.to_dict(),
            "quantity": self.quantity.value,
            "method": self.method.value,
            "result": _payload_to_dict(self.quantity, self.payload),
            "stats": dict(self.stats),
        }


def _payload_to_dict(quantity: Quantity, payload: Any) -> dict:
    if quantity is Quantity.POTENTIAL_RATIO:
        if isinstance(payload, PotentialRatioExact):
            return {
                "ratio": to_jsonable(payload.ratio),
                "occupancy": to_jsonable(payload.occupancy),
                "pruned_mass": payload.pruned_mass,
                "engine": payload.method,
            }
        return {
            "ratio": to_jsonable(payload.ratio),
            "observations": to_jsonable(payload.observations),
        }
    if quantity is Quantity.TIMELINE:
        return {
            "pieces": to_jsonable(payload.pieces),
            "mean_steps": to_jsonable(payload.mean_steps),
            "std_steps": to_jsonable(payload.std_steps),
            "runs": payload.runs,
        }
    if quantity is Quantity.DOWNLOAD_TIME:
        return {
            "mean": payload.mean,
            "std": to_jsonable(payload.std),
            "variance": to_jsonable(payload.variance),
            "runs": payload.runs,
            "method": payload.method,
        }
    if quantity is Quantity.PHASES:
        return {
            "mean": {p.name.lower(): v for p, v in payload.mean.items()},
            "std": {
                p.name.lower(): to_jsonable(v) for p, v in payload.std.items()
            },
            "occupancy": {
                p.name.lower(): v for p, v in payload.occupancy.items()
            },
            "runs": payload.runs,
        }
    return {
        "rounds": to_jsonable(payload.rounds),
        "completion_pmf": to_jsonable(payload.completion_pmf),
        "completion_cdf": to_jsonable(payload.completion_cdf),
        "expected_pieces": to_jsonable(payload.expected_pieces),
        "expected_potential": to_jsonable(payload.expected_potential),
        "expected_connections": to_jsonable(payload.expected_connections),
        "pruned_mass": payload.pruned_mass,
        "tail_mass": payload.tail_mass,
        "engine": payload.method,
    }


# ----------------------------------------------------------------------
# Dispatch handlers: (params, cache, options) -> (payload, stats)
# ----------------------------------------------------------------------
def _operator_solution(params: ModelParams, cache: KernelCache, opts: dict):
    operator = cache.sparse_operator(
        params,
        drop_tol=opts.get("drop_tol"),
        max_states=opts.get("max_states"),
    )
    return operator, operator.solution()


def _ratio_exact(params: ModelParams, cache: KernelCache, opts: dict):
    operator, solution = _operator_solution(params, cache, opts)
    pruned = float(operator.dropped_mass)
    _warn_pruned(pruned, opts.get("warn_above", PRUNED_MASS_WARN), "sparse")
    payload = PotentialRatioExact(
        ratio=solution.potential_ratio,
        occupancy=solution.occupancy_by_pieces,
        pruned_mass=pruned,
        method="sparse",
    )
    return payload, {"transient_states": operator.num_states}


def _ratio_batch(params: ModelParams, cache: KernelCache, opts: dict):
    runs = opts.get("runs", 64)
    payload = potential_ratio_by_pieces(
        cache.chain(params), runs=runs, seed=opts.get("seed")
    )
    return payload, {"runs": runs}


def _timeline_exact(params: ModelParams, cache: KernelCache, opts: dict):
    operator, solution = _operator_solution(params, cache, opts)
    payload = TimelineResult(
        pieces=np.arange(params.num_pieces + 1),
        mean_steps=solution.timeline,
        std_steps=np.full(params.num_pieces + 1, np.nan),
        runs=0,
    )
    return payload, {"transient_states": operator.num_states}


def _timeline_batch(params: ModelParams, cache: KernelCache, opts: dict):
    runs = opts.get("runs", 64)
    payload = _mean_timeline(cache.chain(params), runs=runs, seed=opts.get("seed"))
    return payload, {"runs": runs}


def _download_time_exact(params: ModelParams, cache: KernelCache, opts: dict):
    operator, solution = _operator_solution(params, cache, opts)
    payload = DownloadTimeResult(
        mean=solution.mean_download_time,
        std=solution.std_download_time,
        variance=solution.variance_download_time,
        runs=0,
        method="exact",
    )
    return payload, {"transient_states": operator.num_states}


def _download_time_batch(params: ModelParams, cache: KernelCache, opts: dict):
    # A run's first passage to B pieces is its completion round, so the
    # download times are the sampler's ``steps``, with no first-passage
    # matrix built.
    runs = opts.get("runs", 64)
    steps = BatchChainSampler(cache.chain(params)).sample(
        runs, seed=opts.get("seed")
    ).steps.astype(np.float64)
    std = float(steps.std())
    payload = DownloadTimeResult(
        mean=float(steps.mean()),
        std=std,
        variance=std * std,
        runs=runs,
        method="batch",
    )
    return payload, {"runs": runs}


def _expected_phases(phase_rounds: Mapping[Any, float]) -> PhaseStatistics:
    """Phase statistics of a noise-free engine: exact means, NaN spread."""
    mean = {phase: float(value) for phase, value in phase_rounds.items()}
    total = sum(mean.values()) or 1.0
    return PhaseStatistics(
        mean=mean,
        std={phase: float("nan") for phase in mean},
        occupancy={phase: value / total for phase, value in mean.items()},
        runs=0,
    )


def _phases_exact(params: ModelParams, cache: KernelCache, opts: dict):
    operator, solution = _operator_solution(params, cache, opts)
    payload = _expected_phases(solution.phase_rounds)
    return payload, {"transient_states": operator.num_states}


def _phases_batch(params: ModelParams, cache: KernelCache, opts: dict):
    runs = opts.get("runs", 64)
    payload = phase_duration_statistics(
        cache.chain(params), runs=runs, seed=opts.get("seed")
    )
    return payload, {"runs": runs}


def _meanfield_solution(params: ModelParams, cache: KernelCache, opts: dict):
    """Resolve the (memoized) mean-field solve plus its shared stats.

    ``swarm_size`` is metadata: the per-peer quantities of the
    mean-field limit are independent of ``N`` (the swarm enters only
    through the escape rates, via
    :meth:`ModelParameters.alpha_from_swarm`), so it is validated,
    echoed in the stats, and otherwise inert — the reason a 10**7-peer
    query costs the same milliseconds as a 10**3-peer one.
    """
    swarm_size = opts.get("swarm_size")
    if swarm_size is not None and swarm_size < 1:
        raise ParameterError(f"swarm_size must be >= 1, got {swarm_size}")
    solution = cache.meanfield_solution(
        params,
        rtol=opts.get("rtol"),
        atol=opts.get("atol"),
        drain_tol=opts.get("drain_tol"),
        max_rounds=opts.get("max_rounds"),
    )
    stats: Dict[str, Any] = dict(solution.stats)
    if swarm_size is not None:
        stats["swarm_size"] = swarm_size
    return solution, stats


def _ratio_meanfield(params: ModelParams, cache: KernelCache, opts: dict):
    solution, stats = _meanfield_solution(params, cache, opts)
    payload = PotentialRatioResult(
        pieces=np.arange(params.num_pieces + 1),
        ratio=solution.potential_ratio,
        observations=solution.occupancy,
    )
    return payload, stats


def _timeline_meanfield(params: ModelParams, cache: KernelCache, opts: dict):
    solution, stats = _meanfield_solution(params, cache, opts)
    payload = TimelineResult(
        pieces=np.arange(params.num_pieces + 1),
        mean_steps=solution.timeline,
        std_steps=np.full(params.num_pieces + 1, np.nan),
        runs=0,
    )
    return payload, stats


def _download_time_meanfield(
    params: ModelParams, cache: KernelCache, opts: dict
):
    solution, stats = _meanfield_solution(params, cache, opts)
    payload = DownloadTimeResult(
        mean=solution.download_time,
        std=float("nan"),
        variance=float("nan"),
        runs=0,
        method="meanfield",
    )
    return payload, stats


def _phases_meanfield(params: ModelParams, cache: KernelCache, opts: dict):
    solution, stats = _meanfield_solution(params, cache, opts)
    return _expected_phases(solution.phase_rounds), stats


def _transient(params: ModelParams, cache: KernelCache, opts: dict):
    if "horizon" not in opts:
        raise ParameterError(
            "quantity 'transient' needs a 'horizon' option "
            "(rounds to propagate)"
        )
    payload = _propagate_sparse(cache.chain(params), opts["horizon"])
    return payload, {"horizon": opts["horizon"]}


#: The dispatch table: one cell per supported (quantity, method) pair.
_DISPATCH = {
    (Quantity.POTENTIAL_RATIO, Method.EXACT): _ratio_exact,
    (Quantity.POTENTIAL_RATIO, Method.BATCH): _ratio_batch,
    (Quantity.POTENTIAL_RATIO, Method.MEANFIELD): _ratio_meanfield,
    (Quantity.TIMELINE, Method.EXACT): _timeline_exact,
    (Quantity.TIMELINE, Method.BATCH): _timeline_batch,
    (Quantity.TIMELINE, Method.MEANFIELD): _timeline_meanfield,
    (Quantity.DOWNLOAD_TIME, Method.EXACT): _download_time_exact,
    (Quantity.DOWNLOAD_TIME, Method.BATCH): _download_time_batch,
    (Quantity.DOWNLOAD_TIME, Method.MEANFIELD): _download_time_meanfield,
    (Quantity.PHASES, Method.EXACT): _phases_exact,
    (Quantity.PHASES, Method.BATCH): _phases_batch,
    (Quantity.PHASES, Method.MEANFIELD): _phases_meanfield,
    (Quantity.TRANSIENT, Method.EXACT): _transient,
}


def solve_query(query: Query, *, cache: Optional[KernelCache] = None) -> SolveResult:
    """Answer one prepared :class:`Query` (the service's work unit)."""
    handler = _DISPATCH.get((query.quantity, query.method))
    if handler is None:  # Query.make already vetoed this; belt and braces
        raise ParameterError(
            f"no engine for quantity {query.quantity.value!r} with "
            f"method {query.method.value!r}; valid methods: "
            + ", ".join(
                m.value for m in _ALLOWED_METHODS[query.quantity]
            )
        )
    payload, stats = handler(
        query.params, cache if cache is not None else shared_cache(),
        dict(query.options),
    )
    return SolveResult(
        params=query.params,
        quantity=query.quantity,
        method=query.method,
        payload=payload,
        stats=stats,
    )


def solve(
    params: ModelParameters,
    quantity: Union[Quantity, str],
    method: Union[Method, str] = Method.AUTO,
    *,
    cache: Optional[KernelCache] = None,
    **options: Any,
) -> SolveResult:
    """Compute one model quantity for one parameter set.

    The single front door to the model:

    ==================  ================================================
    ``quantity``        answer
    ==================  ================================================
    ``potential_ratio`` ``E[i/s | b]`` per piece count (Figure 1(a))
    ``timeline``        expected first round holding ``b`` pieces
                        (Figure 1(b))
    ``download_time``   mean (and, where known, variance) of the rounds
                        to ``b == B``
    ``phases``          expected rounds per download phase
    ``transient``       round-by-round law up to a ``horizon``
    ==================  ================================================

    Args:
        params: any :class:`ModelParameters`; canonicalized to
            :class:`ModelParams` internally.
        quantity: a :class:`Quantity` or its name/alias.
        method: a :class:`Method` or its name/alias; ``"auto"``
            (default) picks the exact engine whenever the transient
            space fits the operator cap, batched Monte Carlo up to
            :data:`MEANFIELD_STATE_FACTOR` times the cap, and the
            mean-field ODE limit (``"meanfield"``) beyond — see
            :func:`_resolve_auto`.
        cache: the :class:`~repro.runtime.cache.KernelCache` to resolve
            chains/operators through (default: the process-shared one).
        **options: per-engine knobs — ``runs``/``seed`` for the
            batch sampler, ``drop_tol``/``max_states`` for the
            sparse engine, ``horizon`` for ``transient``,
            ``rtol``/``atol``/``drain_tol``/``max_rounds``/``swarm_size``
            for the mean-field ODE backend.  Unknown options and
            malformed values raise an actionable error.

    Returns:
        A :class:`SolveResult`; ``payload`` is the quantity's native
        result object, identical bit-for-bit to a direct call of the
        engine it dispatches to.
    """
    return solve_query(Query.make(params, quantity, method, **options), cache=cache)
