"""Compact piece bitfields.

A :class:`Bitfield` tracks which of a file's ``B`` pieces a peer holds,
backed by a single Python integer used as a bitmask.  All the swarm's
hot-path queries — mutual interest, exchangeable pieces, rarity
filtering — reduce to integer bit operations.  The object engine's
per-pair loops (potential sets, connection upkeep, donations, piece
selection) read ``_mask`` and ``num_pieces`` directly instead of
calling the methods below, whose Python call frames would cost more
than the bit operations themselves; the methods stay the reference
semantics those loops are tested against.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import ParameterError

__all__ = ["Bitfield", "universe_mismatch"]

if hasattr(int, "bit_count"):  # Python >= 3.10
    def _popcount(mask: int) -> int:
        return mask.bit_count()
else:  # pragma: no cover - exercised only on Python 3.9
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


class Bitfield:
    """Set of held pieces over a fixed universe ``0 .. num_pieces - 1``."""

    __slots__ = ("num_pieces", "_mask", "_full_mask", "_count")

    def __init__(self, num_pieces: int, mask: int = 0):
        if num_pieces < 1:
            raise ParameterError(f"num_pieces must be >= 1, got {num_pieces}")
        self.num_pieces = num_pieces
        self._full_mask = (1 << num_pieces) - 1
        if mask & ~self._full_mask:
            raise ParameterError("mask has bits outside the piece universe")
        self._mask = mask
        self._count = _popcount(mask)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, num_pieces: int) -> "Bitfield":
        """A seed's bitfield: every piece held."""
        return cls(num_pieces, (1 << num_pieces) - 1)

    @classmethod
    def from_pieces(cls, num_pieces: int, pieces) -> "Bitfield":
        """Bitfield holding exactly the given piece indices."""
        mask = 0
        for piece in pieces:
            if not 0 <= piece < num_pieces:
                raise ParameterError(
                    f"piece {piece} outside 0..{num_pieces - 1}"
                )
            mask |= 1 << piece
        return cls(num_pieces, mask)

    def copy(self) -> "Bitfield":
        return Bitfield(self.num_pieces, self._mask)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, piece: int) -> bool:
        """Mark ``piece`` as held; returns False if it was already held."""
        if not 0 <= piece < self.num_pieces:
            raise ParameterError(f"piece {piece} outside 0..{self.num_pieces - 1}")
        bit = 1 << piece
        if self._mask & bit:
            return False
        self._mask |= bit
        self._count += 1
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has(self, piece: int) -> bool:
        if not 0 <= piece < self.num_pieces:
            raise ParameterError(f"piece {piece} outside 0..{self.num_pieces - 1}")
        return bool(self._mask & (1 << piece))

    @property
    def count(self) -> int:
        """Number of pieces held."""
        return self._count

    @property
    def mask(self) -> int:
        """Raw integer bitmask (read-only view)."""
        return self._mask

    @property
    def is_complete(self) -> bool:
        return self._mask == self._full_mask

    @property
    def is_empty(self) -> bool:
        return self._mask == 0

    def missing_count(self) -> int:
        return self.num_pieces - self._count

    def first_missing(self) -> Optional[int]:
        """Lowest piece index not held (None when complete)."""
        inverted = ~self._mask & self._full_mask
        if not inverted:
            return None
        return (inverted & -inverted).bit_length() - 1

    def pieces(self) -> Iterator[int]:
        """Iterate held piece indices in increasing order."""
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def exchangeable_from(self, other: "Bitfield") -> int:
        """Bitmask of pieces ``other`` holds that we lack."""
        self._check_compatible(other)
        return other._mask & ~self._mask & self._full_mask

    def exchangeable_pieces_from(self, other: "Bitfield") -> List[int]:
        """Piece indices ``other`` could upload to us."""
        return list(_iter_bits(self.exchangeable_from(other)))

    def mutual_interest(self, other: "Bitfield") -> bool:
        """Strict tit-for-tat tradability: each side offers something new.

        True iff ``other`` holds a piece we lack **and** we hold a piece
        ``other`` lacks — the paper's potential-set membership test.
        The xor form needs three bigint ops instead of six: ``diff``
        already confines both directions to the piece universe, so
        ``diff & other`` is "theirs-not-ours" and ``diff & self`` is
        "ours-not-theirs".
        """
        self._check_compatible(other)
        diff = self._mask ^ other._mask
        return bool(diff & other._mask) and bool(diff & self._mask)

    def _check_compatible(self, other: "Bitfield") -> None:
        if self.num_pieces != other.num_pieces:
            raise universe_mismatch(self.num_pieces, other.num_pieces)

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __contains__(self, piece: int) -> bool:
        return self.has(piece)

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitfield):
            return NotImplemented
        return self.num_pieces == other.num_pieces and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.num_pieces, self._mask))

    def __repr__(self) -> str:
        return f"Bitfield({self._count}/{self.num_pieces})"


def universe_mismatch(mine: int, theirs: int) -> ParameterError:
    """The error for two bitfields over different piece universes.

    Raised by :meth:`Bitfield._check_compatible`, and by the per-pair
    loops that compare ``num_pieces`` inline instead of calling it.
    """
    return ParameterError(
        f"bitfields cover different files: {mine} vs {theirs} pieces"
    )


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
