"""Two-level pair structures.

The 2To index keeps, for every predicate ``p``, the sorted list of subjects
appearing in triples with predicate ``p`` (the paper's ``PS`` structure); the
range-query machinery and some baselines use the analogous ``PO`` structure.
Both are a degenerate two-level trie: an Elias-Fano pointer sequence over the
first component plus a compressed, range-sorted second-component sequence.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import IndexBuildError
from repro.sequences.base import NOT_FOUND
from repro.sequences.elias_fano import EliasFano
from repro.sequences.factory import make_ranged_sequence


class PairStructure:
    """Maps every first-component ID to the sorted list of its second components."""

    __slots__ = ("_num_first", "_pointers", "_values", "_num_pairs")

    def __init__(self, num_first: int, pointers: EliasFano, values, num_pairs: int):
        self._num_first = num_first
        self._pointers = pointers
        self._values = values
        self._num_pairs = num_pairs

    @classmethod
    def from_pairs(cls, firsts: np.ndarray, seconds: np.ndarray,
                   num_first: Optional[int] = None, codec: str = "pef",
                   **codec_options) -> "PairStructure":
        """Build from parallel arrays of (first, second) pairs (duplicates allowed)."""
        firsts = np.asarray(firsts, dtype=np.int64)
        seconds = np.asarray(seconds, dtype=np.int64)
        if firsts.size != seconds.size:
            raise IndexBuildError("pair columns must have equal length")
        stacked = np.stack([firsts, seconds], axis=1)
        unique = np.unique(stacked, axis=0)
        first_sorted = unique[:, 0]
        second_sorted = unique[:, 1]
        if num_first is None:
            num_first = int(first_sorted.max()) + 1 if first_sorted.size else 1
        boundaries = np.searchsorted(first_sorted, np.arange(num_first + 1))
        pointers = EliasFano.from_values(boundaries.tolist())
        values = make_ranged_sequence(second_sorted.tolist(), boundaries.tolist(),
                                      codec, **codec_options)
        return cls(num_first, pointers, values, int(unique.shape[0]))

    # ------------------------------------------------------------------ #
    # Accessors.
    # ------------------------------------------------------------------ #

    @property
    def num_first(self) -> int:
        """Number of first-component IDs covered (dense)."""
        return self._num_first

    @property
    def num_pairs(self) -> int:
        """Number of distinct (first, second) pairs stored."""
        return self._num_pairs

    def range_of(self, first: int) -> Tuple[int, int]:
        """Range ``[begin, end)`` of ``first``'s list in the value sequence."""
        if not 0 <= first < self._num_first:
            return (0, 0)
        return (self._pointers.access(first), self._pointers.access(first + 1))

    def values_of(self, first: int) -> Iterator[int]:
        """Yield the sorted second components associated with ``first``."""
        begin, end = self.range_of(first)
        return self._values.scan_range(begin, end)

    def cursor_of(self, first: int):
        """Seekable cursor over the sorted second components of ``first``."""
        from repro.core.trie import LevelCursor
        begin, end = self.range_of(first)
        return LevelCursor(self._values, begin, end)

    def count_of(self, first: int) -> int:
        """Number of second components associated with ``first``."""
        begin, end = self.range_of(first)
        return end - begin

    def contains(self, first: int, second: int) -> bool:
        """Whether the pair (first, second) is stored."""
        begin, end = self.range_of(first)
        if begin == end:
            return False
        return self._values.find_in_range(begin, end, second) != NOT_FOUND

    # ------------------------------------------------------------------ #
    # Space accounting.
    # ------------------------------------------------------------------ #

    def size_in_bits(self) -> int:
        """Total space in bits."""
        return self._pointers.size_in_bits() + self._values.size_in_bits()

    def space_breakdown(self) -> Dict[str, int]:
        """Space split between pointers and values."""
        return {
            "pointers": self._pointers.size_in_bits(),
            "values": self._values.size_in_bits(),
        }
