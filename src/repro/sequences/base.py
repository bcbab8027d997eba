"""Common interface for compressed integer sequences.

The interface follows the operations required by the pattern-matching
algorithms of the paper (Fig. 2 and Fig. 5): constant-or-logarithmic random
``access``, ``find`` within a sorted sibling range, and cheap sequential
``scan`` of a range.

Two *batch kernels* complement the scalar operations:

* :meth:`EncodedSequence.decode_block` — decode a contiguous ``[begin, end)``
  range into one ``numpy.int64`` array;
* :meth:`EncodedSequence.next_geq_batch` — the successor primitive for many
  probe values at once.

The base class provides reference implementations in terms of ``access`` (so
every codec supports them); codecs whose payload lives in contiguous machine
words (Elias-Fano, PEF, fixed-width, vbyte) override ``decode_block`` with a
vectorised decode, and ``next_geq_batch`` rides on it via ``searchsorted``.
The batch results are **bit-for-bit equal** to looping the scalar operation —
the property tests in ``tests/test_batch_kernels.py`` pin this down.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EncodingError

NOT_FOUND = -1


class SequenceIterator:
    """Forward iterator over an :class:`EncodedSequence`.

    The iterator mirrors the ``iterator_at`` primitive used by the paper's
    ``select`` algorithm: it is positioned at an absolute index and yields
    consecutive values until exhausted or until the caller stops.
    """

    __slots__ = ("_sequence", "_position", "_end")

    def __init__(self, sequence: "EncodedSequence", position: int, end: Optional[int] = None):
        self._sequence = sequence
        self._position = position
        self._end = len(sequence) if end is None else end

    @property
    def position(self) -> int:
        """Absolute index of the next element to be returned."""
        return self._position

    def has_next(self) -> bool:
        """Return ``True`` if another element is available."""
        return self._position < self._end

    def next(self) -> int:
        """Return the element at the current position and advance."""
        value = self._sequence.access(self._position)
        self._position += 1
        return value

    def __iter__(self) -> Iterator[int]:
        return self

    def __next__(self) -> int:
        if not self.has_next():
            raise StopIteration
        return self.next()


class EncodedSequence(ABC):
    """Abstract compressed representation of a sequence of non-negative ints."""

    #: Whether the codec requires its input to be monotone non-decreasing.
    requires_monotone: bool = False

    #: Registry name of the codec (filled by concrete classes).
    name: str = "abstract"

    @abstractmethod
    def __len__(self) -> int:
        """Number of encoded elements."""

    @abstractmethod
    def access(self, i: int) -> int:
        """Return the ``i``-th element (0-based)."""

    @abstractmethod
    def size_in_bits(self) -> int:
        """Space of the encoded payload, in bits.

        This is the figure used for the paper's bits/triple accounting.  The
        live Python object may keep extra acceleration state (e.g. cumulative
        numpy arrays); that state is either included here at the sampling
        rates a succinct C++ implementation would use, or it is derivable
        from the payload and therefore not counted.
        """

    # ------------------------------------------------------------------ #
    # Derived operations with sensible default implementations.
    # ------------------------------------------------------------------ #

    def __getitem__(self, i: int) -> int:
        return self.access(i)

    def __iter__(self) -> Iterator[int]:
        return self.scan(0, len(self))

    def find(self, begin: int, end: int, value: int) -> int:
        """Locate ``value`` inside the sorted range ``[begin, end)``.

        Returns the absolute position of (the first occurrence of) ``value``
        or :data:`NOT_FOUND`.  The range is assumed sorted in non-decreasing
        order, which holds for every sibling range of the tries.
        """
        if begin < 0 or end > len(self) or begin > end:
            raise IndexError(f"invalid range [{begin}, {end}) for length {len(self)}")
        lo, hi = begin, end
        while lo < hi:
            mid = (lo + hi) // 2
            if self.access(mid) < value:
                lo = mid + 1
            else:
                hi = mid
        if lo < end and self.access(lo) == value:
            return lo
        return NOT_FOUND

    def next_geq(self, value: int, begin: int = 0,
                 end: Optional[int] = None) -> Tuple[int, int]:
        """Return ``(position, element)`` of the first element >= ``value``.

        The search is restricted to the sorted range ``[begin, end)``; when no
        element qualifies, returns ``(end, -1)``.  This is the successor
        primitive behind the worst-case-optimal join cursors; codecs with a
        structural shortcut (Elias-Fano ``select0``, PEF partition bounds)
        override the default binary search.
        """
        if end is None:
            end = len(self)
        if begin < 0 or end > len(self) or begin > end:
            raise IndexError(f"invalid range [{begin}, {end}) for length {len(self)}")
        lo, hi = begin, end
        while lo < hi:
            mid = (lo + hi) // 2
            if self.access(mid) < value:
                lo = mid + 1
            else:
                hi = mid
        if lo < end:
            return lo, self.access(lo)
        return end, -1

    def decode_block(self, begin: int = 0,
                     end: Optional[int] = None) -> np.ndarray:
        """Decode the contiguous range ``[begin, end)`` into an int64 array.

        Reference implementation loops ``access``; codecs with word-aligned
        payloads override it with a vectorised decode.  The result always
        equals ``np.fromiter(self.scan(begin, end), np.int64)``.
        """
        if end is None:
            end = len(self)
        if begin < 0 or end > len(self) or begin > end:
            raise IndexError(f"invalid range [{begin}, {end}) for length {len(self)}")
        return np.fromiter((self.access(i) for i in range(begin, end)),
                           dtype=np.int64, count=end - begin)

    def next_geq_batch(self, values: Sequence[int], begin: int = 0,
                       end: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`next_geq` over many probe values.

        Returns ``(positions, elements)`` arrays where row ``i`` equals
        ``self.next_geq(values[i], begin, end)`` — in particular a probe with
        no successor in the range yields ``(end, -1)``.  The default decodes
        the block once and resolves every probe with one ``searchsorted``,
        which is the right trade when there are many probes per range.
        """
        if end is None:
            end = len(self)
        if begin < 0 or end > len(self) or begin > end:
            raise IndexError(f"invalid range [{begin}, {end}) for length {len(self)}")
        probes = np.asarray(values, dtype=np.int64)
        block = self.decode_block(begin, end)
        if block.size == 0:
            return (np.full(probes.shape, end, dtype=np.int64),
                    np.full(probes.shape, -1, dtype=np.int64))
        offsets = np.searchsorted(block, probes, side="left")
        positions = offsets + begin
        elements = np.where(offsets < block.size,
                            block[np.minimum(offsets, block.size - 1)],
                            np.int64(-1))
        return positions.astype(np.int64), elements.astype(np.int64)

    def scan(self, begin: int = 0, end: Optional[int] = None) -> Iterator[int]:
        """Yield the elements in ``[begin, end)`` in order."""
        if end is None:
            end = len(self)
        if begin < 0 or end > len(self) or begin > end:
            raise IndexError(f"invalid range [{begin}, {end}) for length {len(self)}")
        for i in range(begin, end):
            yield self.access(i)

    def iterator_at(self, i: int, end: Optional[int] = None) -> SequenceIterator:
        """Return a forward iterator positioned at absolute index ``i``."""
        return SequenceIterator(self, i, end)

    def to_list(self) -> List[int]:
        """Decode the whole sequence into a Python list."""
        return list(self.scan(0, len(self)))

    def bits_per_element(self) -> float:
        """Average number of bits spent per encoded element."""
        n = len(self)
        if n == 0:
            return 0.0
        return self.size_in_bits() / n

    # ------------------------------------------------------------------ #
    # Construction helpers.
    # ------------------------------------------------------------------ #

    @staticmethod
    def check_non_negative(values: Sequence[int]) -> None:
        """Raise :class:`EncodingError` if any value is negative."""
        for v in values:
            if v < 0:
                raise EncodingError(f"negative value {v} cannot be encoded")
            break  # full validation is done vectorised by concrete codecs

    @staticmethod
    def is_monotone(values: Iterable[int]) -> bool:
        """Return ``True`` when ``values`` is non-decreasing."""
        previous = None
        for v in values:
            if previous is not None and v < previous:
                return False
            previous = v
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.__class__.__name__}(n={len(self)}, "
            f"bits={self.size_in_bits()}, bpe={self.bits_per_element():.2f})"
        )
