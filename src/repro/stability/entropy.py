"""Entropy metric over piece replication degrees (paper Section 6).

``E = min_i d_i / max_i d_i`` measures the skewness of the piece
distribution: 1 means perfectly balanced replication, 0 means at least
one piece is (relatively) vanishing from the system — the condition
under which peers pile up in the last download phase and the swarm
destabilises.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

import numpy as np

from repro.errors import ParameterError
from repro.sim.bitfield import Bitfield

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.tracker import Tracker

__all__ = ["replication_degrees", "entropy", "entropy_of_swarm"]


def replication_degrees(
    bitfields: Iterable[Bitfield], num_pieces: int
) -> np.ndarray:
    """Count, per piece, how many of the given bitfields hold it.

    Returns an integer array ``d`` of length ``num_pieces`` with
    ``d[p]`` = number of holders of piece ``p``.  The masks are packed
    into one little-endian byte matrix and counted with a single
    ``np.unpackbits`` and column sum.
    """
    if num_pieces < 1:
        raise ParameterError(f"num_pieces must be >= 1, got {num_pieces}")
    width = (num_pieces + 7) // 8
    rows = []
    for bitfield in bitfields:
        if bitfield.num_pieces != num_pieces:
            raise ParameterError(
                f"bitfield covers {bitfield.num_pieces} pieces, "
                f"expected {num_pieces}"
            )
        rows.append(bitfield._mask.to_bytes(width, "little"))
    if not rows:
        return np.zeros(num_pieces, dtype=np.int64)
    packed = np.frombuffer(b"".join(rows), dtype=np.uint8)
    bits = np.unpackbits(
        packed.reshape(len(rows), width), axis=1, count=num_pieces,
        bitorder="little",
    )
    return bits.sum(axis=0, dtype=np.int64)


def entropy(degrees: np.ndarray) -> float:
    """``E = min(d) / max(d)`` over replication degrees.

    Conventions for degenerate inputs: an empty system (``max(d) == 0``)
    has no skew to speak of and returns 1.0; any piece entirely missing
    while others exist gives exactly 0.0.
    """
    degrees = np.asarray(degrees)
    if degrees.size == 0:
        raise ParameterError("degrees must be non-empty")
    if (degrees < 0).any():
        raise ParameterError("replication degrees cannot be negative")
    maximum = int(degrees.max())
    if maximum == 0:
        return 1.0
    return float(degrees.min() / maximum)


def entropy_of_swarm(tracker: "Tracker", *, include_seeds: bool = True) -> float:
    """Current swarm entropy from the tracker's registry.

    Args:
        include_seeds: count seeds' (complete) bitfields in the
            replication degrees — the paper's "replication degree of
            the i-th piece in the system" counts every peer present.
    """
    peers = tracker.peers() if include_seeds else tracker.leechers()
    bitfields = [p.bitfield for p in peers]
    if not bitfields:
        return 1.0
    num_pieces = bitfields[0].num_pieces
    return entropy(replication_degrees(bitfields, num_pieces))
