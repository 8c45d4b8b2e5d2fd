"""Piece-selection strategies (paper Section 2.1).

BitTorrent uses two piece-selection strategies:

* **random piece first** — a uniformly random needed piece;
* **rarest piece first** — "the piece held by the fewest number of
  neighbors is selected for download".

Rarity is evaluated against the *downloader's neighbor set* (the peer's
limited view of the network — the very modelling point the paper makes
against global-knowledge models), with ties broken uniformly at random.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ParameterError
from repro.sim.bitfield import Bitfield, universe_mismatch
from repro.sim.peer import Peer
from repro.sim.tracker import Tracker

__all__ = ["neighborhood_rarity", "select_piece", "RarityView"]

#: A rarity view is either a sparse ``{piece: count}`` dict (the
#: neighborhood view — pieces held by nobody are absent) or a dense
#: per-piece count sequence (the swarm's global ``piece_counts``
#: snapshot, indexed by piece).  Both encode the same integer counts;
#: the dense view avoids rebuilding a dict every round.
RarityView = Union[Dict[int, int], Sequence[int]]


def neighborhood_rarity(peer: Peer, tracker: Tracker) -> Dict[int, int]:
    """Replication count of every piece within ``peer``'s neighbor set.

    Returns ``{piece_index: holders_among_neighbors}``; pieces held by
    no neighbor are absent (count 0).
    """
    counts: Dict[int, int] = {}
    for neighbor_id in peer.neighbors:
        neighbor = tracker.get(neighbor_id)
        if neighbor is None:
            continue
        for piece in neighbor.bitfield.pieces():
            counts[piece] = counts.get(piece, 0) + 1
    return counts


#: Below this many held pieces, rarest-first clients fall back to random
#: selection ("random first piece" in the BitTorrent spec): it fills the
#: first trading currency fast and — crucially for swarm health —
#: decorrelates freshly joined peers that would otherwise all chase the
#: same globally rarest piece and end up with identical bitfields.
RANDOM_FIRST_CUTOFF = 4

#: In-order window for the ``"windowed"`` streaming policy: candidates
#: within the next STREAM_WINDOW needed indices are preferred (chosen at
#: random within the window, which preserves swarm diversity); outside
#: the window the policy falls back to a random needed piece.
STREAM_WINDOW = 8

#: Sharpness of the noisy-view rarest-first sampling: selection weight
#: is ``(replication_count + 1) ** -RARITY_EXPONENT``.  Higher values
#: approach strict argmin behaviour; 3 gives a 16:1 preference for a
#: once-replicated piece over a thrice-replicated one.
RARITY_EXPONENT = 3.0


@lru_cache(maxsize=None)
def _weight_table(bits: int) -> List[float]:
    """Weights of the counts ``0 .. 2**bits - 1``, computed by numpy.

    Python's ``**`` rounds differently from numpy's vectorized power in
    the last bit, so every weight comes from numpy, once per count.
    """
    counts = np.arange(1 << bits) + 1.0
    return (counts ** -RARITY_EXPONENT).tolist()


def rarity_weights(counts: List[int]) -> List[float]:
    """Selection weights ``(count + 1.0) ** -RARITY_EXPONENT``, per count.

    Equals ``((np.asarray(counts) + 1.0) ** -RARITY_EXPONENT).tolist()``
    for non-negative integer counts, read from a count-indexed table.
    """
    table = _weight_table(max(int(max(counts)).bit_length(), 6))
    return [table[count] for count in counts]


def pairwise_sum(
    values: List[float], start: int = 0, n: Optional[int] = None
) -> float:
    """numpy's float64 ``sum`` of ``values[start:start + n]``, bit for bit.

    numpy reduces an add with pairwise summation: plain adds below 8
    elements, eight interleaved accumulators up to 128, and a split in
    halves (rounded down to a multiple of 8) above that.  Python's
    ``sum`` adds left to right and differs in the last bits.
    """
    if n is None:
        n = len(values) - start
    if n < 8:
        total = -0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        i = start + 8
        stop = start + n - n % 8
        while i < stop:
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
            i += 8
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values, start, half) + pairwise_sum(
        values, start + half, n - half
    )


def weighted_index(weights: List[float], u: float) -> int:
    """Inverse-transform draw over ``weights`` for one uniform ``u``.

    Replicates ``rng.choice(len(weights), p=weights / weights.sum())``'s
    arithmetic in scalar Python: normalise by numpy's pairwise sum,
    accumulate sequentially (``cumsum``), rescale by the last entry, and
    return the number of entries not above ``u``
    (``searchsorted(side="right")``), capped at the last index.
    """
    total = pairwise_sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    last = acc
    # Binary search over the rescaled cdf, which never decreases.
    lo, hi = 0, len(cdf)
    while lo < hi:
        mid = (lo + hi) // 2
        if u < cdf[mid] / last:
            hi = mid
        else:
            lo = mid + 1
    return min(lo, len(cdf) - 1)


#: ``_BYTE_BITS[byte]``: the bit offsets ``byte`` holds, ascending.
_BYTE_BITS = [
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
]


_POLICIES = ("rarest", "strict-rarest", "random", "sequential", "windowed")


def select_piece(
    receiver: Bitfield,
    sender: Bitfield,
    policy: str,
    rng: np.random.Generator,
    *,
    rarity: Optional[RarityView] = None,
    exclude: Optional[set] = None,
    random_first_cutoff: int = RANDOM_FIRST_CUTOFF,
) -> Optional[int]:
    """Choose which piece ``sender`` uploads to ``receiver``.

    Args:
        receiver: the downloader's bitfield.
        sender: the uploader's bitfield.
        policy: ``"rarest"``, ``"strict-rarest"``, ``"random"``,
            ``"sequential"`` (strictly in-order), or ``"windowed"``
            (random within the next STREAM_WINDOW needed indices — the
            streaming compromise).
        rng: random source (tie-breaking / random policy).
        rarity: integer replication counts for rarest-first — a sparse
            neighborhood dict or a dense global count sequence (see
            :data:`RarityView`); when omitted (or an empty dict — no
            HAVE messages seen yet), rarest-first degrades to random.
            A dense view is always treated as valid: it comes from the
            swarm's global counts, which include the sender's own
            pieces, so it is never all-zero when candidates exist.
        exclude: pieces already committed this round (in-flight dedupe).
        random_first_cutoff: rarest-first receivers holding fewer than
            this many pieces select randomly instead (the protocol's
            random-first-piece rule).

    Returns:
        The selected piece index, or None when the sender has nothing
        the receiver needs (after exclusions).
    """
    if policy not in _POLICIES:
        raise ParameterError(f"unknown piece policy {policy!r}")
    if receiver.num_pieces != sender.num_pieces:
        raise universe_mismatch(receiver.num_pieces, sender.num_pieces)
    # Candidates in increasing piece order, a byte of the mask at a time.
    width = (receiver.num_pieces + 7) >> 3
    candidates: List[int] = []
    append = candidates.append
    base = 0
    for byte in (sender._mask & ~receiver._mask).to_bytes(width, "little"):
        if byte:
            for bit in _BYTE_BITS[byte]:
                append(base + bit)
        base += 8
    if exclude:
        candidates = [p for p in candidates if p not in exclude]
    if not candidates:
        return None
    if policy == "sequential":
        # In-order (streaming) selection: the lowest-index needed piece.
        # Ignores rarity entirely; every peer chasing the same prefix
        # collapses mutual novelty and starves a strict-TFT swarm — the
        # negative result behind the related work [1]'s insistence on
        # "proper upload scheduling policies".
        return candidates[0]
    if policy == "windowed":
        # Streaming compromise: random selection *within* the next
        # STREAM_WINDOW needed indices keeps playback order roughly
        # intact while preserving the piece diversity tit-for-tat needs.
        first = receiver.first_missing()
        horizon = (first or 0) + STREAM_WINDOW
        in_window = [p for p in candidates if p < horizon]
        pool = in_window if in_window else candidates
        return pool[rng.integers(len(pool))]
    no_view = rarity is None or (isinstance(rarity, dict) and not rarity)
    if (
        policy == "random"
        or no_view
        or receiver._count < random_first_cutoff
    ):
        return candidates[rng.integers(len(candidates))]
    if isinstance(rarity, dict):
        counts = [rarity.get(p, 0) for p in candidates]
    else:
        counts = [rarity[p] for p in candidates]
    if policy == "strict-rarest":
        # Deterministic argmin (random tie-break): the idealised global
        # rarest-first.  With every peer sharing the same view this
        # synchronises download orders and collapses mutual novelty —
        # useful for studying exactly that artifact.
        best_count = min(counts)
        rarest = [p for p, c in zip(candidates, counts) if c == best_count]
        return rarest[rng.integers(len(rarest))]
    # "rarest": noisy-view rarest-first.  Real clients rank rarity from
    # HAVE messages within their own neighbor set, so their views — and
    # hence their choices — are decorrelated.  Sampling candidates with
    # weight (count + 1)^-RARITY_EXPONENT reproduces that: a strong
    # preference for rare pieces without the lock-step orders that
    # identical global views produce.  The draw replicates
    # ``rng.choice(m, p=weights)`` — same sums, same cumsum, same
    # searchsorted side, same single uniform — in scalar Python.
    weights = rarity_weights(counts)
    return candidates[weighted_index(weights, rng.random())]
