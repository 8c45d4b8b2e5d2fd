"""The unified solver-method vocabulary.

:class:`Method` is the one enum behind every entry point that picks a
model engine: ``solve()``, the figure runners, ``repro-bt run
--method`` and the query service.  Alternative spellings survive as
aliases.

================  ====================================================
``AUTO``          pick for the caller: exact when the transient space
                  fits the operator cap, batched Monte Carlo in the
                  mid band, mean-field far above it
``EXACT``         sparse fundamental-matrix / CSR propagation engine
                  (aliases: ``sparse``, ``fundamental``)
``BATCH``         vectorized Monte Carlo on the batch sampler, the one
                  Monte Carlo estimator
``MEANFIELD``     deterministic large-swarm ODE limit
                  (aliases: ``mean-field``, ``ode``)
================  ====================================================

This module is deliberately dependency-free (only ``repro.errors``) so
every layer — core engines, runners, CLI, service — can import it
without cycles.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Union

from repro.errors import ParameterError

__all__ = ["Method", "METHOD_ALIASES"]


class Method(str, enum.Enum):
    """Canonical estimator/engine selector shared by every entry point.

    Members compare equal to their canonical string value
    (``Method.EXACT == "exact"``), so code that stored plain strings
    keeps working unchanged.
    """

    AUTO = "auto"
    EXACT = "exact"
    BATCH = "batch"
    MEANFIELD = "meanfield"

    def __str__(self) -> str:  # "exact", not "Method.EXACT"
        return self.value

    @classmethod
    def parse(
        cls,
        value: Union["Method", str, None],
        *,
        allowed: Optional[Iterable["Method"]] = None,
        default: Optional["Method"] = None,
        context: str = "method",
    ) -> "Method":
        """Resolve a method name (or back-compat alias) to its enum.

        Args:
            value: a :class:`Method`, a canonical value, an alias from
                :data:`METHOD_ALIASES`, or ``None`` (returns
                ``default``).
            allowed: restrict the accepted members; anything else —
                including a valid member outside the set — raises with
                the allowed choices spelled out.
            default: returned when ``value`` is ``None`` (itself
                subject to the ``allowed`` check).
            context: name used in error messages (``"method"``,
                ``"--method"``, ...).

        Raises:
            ParameterError: unknown name, or a member outside
                ``allowed``; the message lists every valid choice and
                its aliases, so the caller's typo is actionable.
        """
        if value is None:
            if default is None:
                raise ParameterError(f"{context} must be given, got None")
            value = default
        if isinstance(value, cls):
            method = value
        else:
            if not isinstance(value, str):
                raise ParameterError(
                    f"{context} must be a string or Method, "
                    f"got {type(value).__name__}"
                )
            name = value.strip().lower()
            try:
                method = cls(name)
            except ValueError:
                method = METHOD_ALIASES.get(name)
            if method is None:
                raise ParameterError(
                    f"unknown {context} {value!r}; "
                    + cls._choices_text(allowed)
                )
        if allowed is not None and method not in tuple(allowed):
            raise ParameterError(
                f"{context} {method.value!r} is not valid here; "
                + cls._choices_text(allowed)
            )
        return method

    @classmethod
    def _choices_text(cls, allowed: Optional[Iterable["Method"]]) -> str:
        members = tuple(allowed) if allowed is not None else tuple(cls)
        parts = []
        for member in members:
            aliases = sorted(
                alias for alias, target in METHOD_ALIASES.items()
                if target is member
            )
            if aliases:
                parts.append(
                    f"{member.value!r} (alias "
                    + ", ".join(repr(a) for a in aliases)
                    + ")"
                )
            else:
                parts.append(repr(member.value))
        return "valid choices: " + ", ".join(parts)


#: Alternative spellings, accepted wherever the canonical name is.
METHOD_ALIASES = {
    "sparse": Method.EXACT,
    "fundamental": Method.EXACT,
    "mean-field": Method.MEANFIELD,
    "ode": Method.MEANFIELD,
}
