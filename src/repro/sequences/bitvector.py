"""Bit vector with rank and select support.

This is the substrate below Elias-Fano and the wavelet tree.  Bits are packed
into ``numpy.uint64`` words.  Rank uses per-word cumulative popcounts; select
either binary-searches those counts and finishes with a byte-table scan inside
the word, or — once :meth:`BitVector.ones_positions` has been materialised —
indexes straight into a positions directory.

All acceleration state (cumulative popcounts, the positions directory, even
the total popcount) is derived *lazily* from the stored words: constructing a
``BitVector`` over an existing word array is O(1).  That is what makes
mmap-backed loading near-instant — the words stay on disk until a rank or
select actually touches them.

Space accounting: :meth:`BitVector.size_in_bits` charges the raw words plus a
64-bit rank sample every 512 bits (the overhead a practical succinct C++
implementation, e.g. the one used by the paper, would pay).  The per-word
cumulative array kept in memory for speed is an implementation convenience of
this Python port and is not charged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import EncodingError

_WORD_BITS = 64
_RANK_SAMPLE_BITS = 512  # one 64-bit absolute sample every 8 words

#: popcount of every byte value, used for in-word select.
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)

#: Same table as a plain list: scalar lookups in the select hot path cost a
#: fraction of a numpy fancy index.
_BYTE_POPCOUNT_LIST: List[int] = _BYTE_POPCOUNT.tolist()


def _popcount_words(words: np.ndarray) -> np.ndarray:
    """Vectorised popcount of an array of uint64 words."""
    if words.size == 0:
        return np.zeros(0, dtype=np.int64)
    as_bytes = words.view(np.uint8).reshape(-1, 8)
    return _BYTE_POPCOUNT[as_bytes].sum(axis=1).astype(np.int64)


def _select_in_word(word: int, k: int) -> int:
    """Return the position (0..63) of the ``k``-th set bit (0-based) of ``word``."""
    for byte_index in range(8):
        byte = (word >> (8 * byte_index)) & 0xFF
        count = _BYTE_POPCOUNT_LIST[byte]
        if k < count:
            bit = 8 * byte_index
            while True:
                if byte & 1:
                    if k == 0:
                        return bit
                    k -= 1
                byte >>= 1
                bit += 1
        k -= count
    raise ValueError("word does not contain enough set bits")


class BitVectorBuilder:
    """Incremental builder used when the number of set bits is known lazily."""

    def __init__(self, num_bits: int):
        if num_bits < 0:
            raise EncodingError("bit vector length must be non-negative")
        self._num_bits = num_bits
        self._words = np.zeros((num_bits + _WORD_BITS - 1) // _WORD_BITS, dtype=np.uint64)

    def set(self, position: int) -> None:
        """Set the bit at ``position`` to 1."""
        if not 0 <= position < self._num_bits:
            raise IndexError(f"bit {position} out of range [0, {self._num_bits})")
        self._words[position >> 6] |= np.uint64(1) << np.uint64(position & 63)

    def set_many(self, positions: Iterable[int]) -> None:
        """Set many bits at once (vectorised)."""
        pos = np.asarray(list(positions) if not isinstance(positions, np.ndarray) else positions,
                         dtype=np.uint64)
        if pos.size == 0:
            return
        if int(pos.max()) >= self._num_bits:
            raise IndexError("bit position out of range")
        np.bitwise_or.at(self._words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))

    def build(self) -> "BitVector":
        """Finalise into an immutable :class:`BitVector`."""
        return BitVector(self._words, self._num_bits)


class BitVector:
    """Immutable bit vector supporting ``rank1/rank0`` and ``select1/select0``."""

    __slots__ = ("_words", "_num_bits", "_num_ones", "_cum_list", "_word_list",
                 "_ones_np", "_ones_list")

    def __init__(self, words: np.ndarray, num_bits: int):
        expected_words = (num_bits + _WORD_BITS - 1) // _WORD_BITS
        if words.dtype != np.uint64 or words.size != expected_words:
            raise EncodingError("inconsistent word array for bit vector")
        self._words = words
        self._num_bits = num_bits
        # All counts and directories are derived lazily from the words so
        # that constructing over an mmap-backed array touches no pages.
        self._num_ones: Optional[int] = None
        # Plain-Python mirrors of the rank/select acceleration state, built
        # lazily on the first scalar operation: ``bisect`` on a list and list
        # indexing beat their numpy scalar counterparts by an order of
        # magnitude in the hot paths, but a Python int list costs ~5x the
        # numpy words, so vectors that are only ever scanned or persisted
        # never pay for it (derived state — not persisted, not charged by
        # ``size_in_bits``).
        self._cum_list: Optional[List[int]] = None
        self._word_list: Optional[List[int]] = None
        # Select directory: positions of all set bits, as a numpy array (for
        # batch kernels) plus a plain list (for scalar select1).  Lazy for
        # the same reason as the mirrors.
        self._ones_np: Optional[np.ndarray] = None
        self._ones_list: Optional[List[int]] = None

    def _mirrors(self) -> "List[int]":
        """Materialise (once) and return the plain-Python word mirror."""
        if self._word_list is None:
            counts = _popcount_words(self._words)
            self._cum_list = np.concatenate(
                ([0], np.cumsum(counts, dtype=np.int64))).tolist()
            self._word_list = self._words.tolist()
        return self._word_list

    def ones_positions(self) -> np.ndarray:
        """Positions of every set bit, as an ``int64`` array (cached).

        This is the select-1 directory: ``ones_positions()[k] == select1(k)``.
        Materialising it is one vectorised pass over the words
        (``np.unpackbits`` + ``flatnonzero``); afterwards scalar ``select1``
        is a list index and batch Elias-Fano decoding is pure numpy.
        """
        if self._ones_np is None:
            if self._words.size == 0:
                self._ones_np = np.zeros(0, dtype=np.int64)
            else:
                bits = np.unpackbits(self._words.view(np.uint8),
                                     bitorder="little")
                self._ones_np = np.flatnonzero(
                    bits[:self._num_bits]).astype(np.int64)
            if self._num_ones is None:
                self._num_ones = int(self._ones_np.size)
        return self._ones_np

    def _ones(self) -> "List[int]":
        """Materialise (once) and return the select directory as a list."""
        if self._ones_list is None:
            self._ones_list = self.ones_positions().tolist()
        return self._ones_list

    # ------------------------------------------------------------------ #
    # Construction helpers.
    # ------------------------------------------------------------------ #

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVector":
        """Build from an iterable of 0/1 values."""
        bits = list(bits)
        builder = BitVectorBuilder(len(bits))
        builder.set_many([i for i, b in enumerate(bits) if b])
        return builder.build()

    @classmethod
    def from_positions(cls, num_bits: int, positions: Iterable[int]) -> "BitVector":
        """Build a vector of ``num_bits`` bits with 1s at ``positions``."""
        builder = BitVectorBuilder(num_bits)
        builder.set_many(positions)
        return builder.build()

    # ------------------------------------------------------------------ #
    # Basic accessors.
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._num_bits

    @property
    def num_ones(self) -> int:
        """Total number of set bits (computed lazily, then cached)."""
        if self._num_ones is None:
            self._num_ones = int(_popcount_words(self._words).sum())
        return self._num_ones

    @property
    def num_zeros(self) -> int:
        """Total number of unset bits."""
        return self._num_bits - self.num_ones

    def get(self, position: int) -> bool:
        """Return the bit at ``position``."""
        if not 0 <= position < self._num_bits:
            raise IndexError(f"bit {position} out of range [0, {self._num_bits})")
        words = self._word_list
        if words is None:
            words = self._mirrors()
        return bool((words[position >> 6] >> (position & 63)) & 1)

    def __getitem__(self, position: int) -> bool:
        return self.get(position)

    def to_list(self) -> List[int]:
        """Decode all bits into a list of 0/1 integers."""
        return [1 if self.get(i) else 0 for i in range(self._num_bits)]

    # ------------------------------------------------------------------ #
    # Rank / select.
    # ------------------------------------------------------------------ #

    def rank1(self, position: int) -> int:
        """Number of 1 bits in ``[0, position)``."""
        if not 0 <= position <= self._num_bits:
            raise IndexError(f"rank position {position} out of range")
        words = self._word_list
        if words is None:
            words = self._mirrors()
        word_index = position >> 6
        offset = position & 63
        rank = self._cum_list[word_index]
        if offset:
            word = words[word_index] & ((1 << offset) - 1)
            rank += bin(word).count("1")
        return rank

    def rank0(self, position: int) -> int:
        """Number of 0 bits in ``[0, position)``."""
        return position - self.rank1(position)

    def select1(self, k: int) -> int:
        """Position of the ``k``-th (0-based) set bit.

        A list index into the lazily-built positions directory — O(1) after
        the first call, which is what makes Elias-Fano ``access`` cheap.
        """
        ones = self._ones_list
        if ones is None:
            ones = self._ones()
        if not 0 <= k < len(ones):
            raise IndexError(f"select1({k}) out of range, only {len(ones)} ones")
        return ones[k]

    def select1_batch(self, ks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`select1` over an array of ranks."""
        ones = self.ones_positions()
        return ones[ks]

    def select0(self, k: int) -> int:
        """Position of the ``k``-th (0-based) unset bit."""
        if not 0 <= k < self.num_zeros:
            raise IndexError(f"select0({k}) out of range, only {self.num_zeros} zeros")
        # Cumulative zero counts per word are 64*i - cum_ones[i]; binary search.
        words = self._word_list
        if words is None:
            words = self._mirrors()
        cum = self._cum_list
        lo, hi = 0, self._words.size
        while lo < hi:
            mid = (lo + hi) // 2
            zeros_before = (mid << 6) - cum[mid]
            if zeros_before <= k:
                lo = mid + 1
            else:
                hi = mid
        word_index = lo - 1
        remaining = k - ((word_index << 6) - cum[word_index])
        word = ~words[word_index] & ((1 << 64) - 1)
        # Bits beyond num_bits in the last word are zero in the stored word and
        # hence 1 in the complement; they are never reachable because k is
        # bounded by num_zeros counted on valid bits only when the tail bits
        # are zero, so clamp explicitly.
        position = (word_index << 6) + _select_in_word(word, remaining)
        if position >= self._num_bits:
            raise IndexError(f"select0({k}) refers to a padding bit")
        return position

    def successor1(self, position: int) -> Optional[int]:
        """Position of the first set bit at or after ``position`` (or ``None``)."""
        if position >= self._num_bits:
            return None
        rank = self.rank1(position)
        if rank >= self.num_ones:
            return None
        return self.select1(rank)

    def iter_ones(self) -> Iterator[int]:
        """Yield the positions of all set bits in increasing order."""
        for word_index in range(self._words.size):
            word = int(self._words[word_index])
            base = word_index << 6
            while word:
                lsb = word & -word
                yield base + lsb.bit_length() - 1
                word ^= lsb

    # ------------------------------------------------------------------ #
    # Space accounting.
    # ------------------------------------------------------------------ #

    def size_in_bits(self) -> int:
        """Raw payload bits plus rank samples every 512 bits."""
        payload = self._words.size * _WORD_BITS
        samples = ((self._num_bits // _RANK_SAMPLE_BITS) + 1) * _WORD_BITS
        return payload + samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector(num_bits={self._num_bits}, num_ones={self.num_ones})"
