"""String dictionaries mapping RDF terms to integer identifiers.

The paper explicitly scopes the string dictionary out of the triple indexing
problem, but a working system still needs one to ingest N-Triples files and to
support the range queries of Section 3.1, whose ID assignment interleaves a
lexicographic order for URI/plain-literal terms with a value order for numeric
literals kept in a separate sorted structure ``R``.

Two classes are provided:

* :class:`Dictionary` — a single-role bidirectional string <-> dense-ID map
  with lexicographic assignment;
* :class:`RdfDictionary` — the per-role (S / P / O) composition used by the
  loaders, plus the :class:`NumericIndex` (``R``) for numeric objects.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DictionaryError
from repro.rdf.triples import TripleStore
from repro.sequences.elias_fano import EliasFano


class Dictionary:
    """Bidirectional mapping between strings and dense integer IDs.

    IDs are assigned in lexicographic order of the terms, as the paper assumes
    for its (default) ID assignment.
    """

    __slots__ = ("_terms", "_ids", "_num_sorted")

    def __init__(self, terms: Sequence[str]):
        self._terms: List[str] = sorted(set(terms))
        self._ids: Dict[str, int] = {term: i for i, term in enumerate(self._terms)}
        self._num_sorted = len(self._terms)

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "Dictionary":
        """Build from any iterable of terms (duplicates allowed)."""
        return cls(list(terms))

    @classmethod
    def _restore(cls, terms: Sequence[str]) -> "Dictionary":
        """Rebuild from a term list already in ID order.

        Used by the persistence layer: skips the sort/dedup of ``__init__``
        because the stored order *is* the ID assignment.  The order is the
        build-time lexicographic run optionally followed by dynamically
        :meth:`add`-ed terms, so the sorted-prefix length is re-derived for
        :meth:`prefix_range`.
        """
        instance = cls.__new__(cls)
        instance._terms = list(terms)
        instance._ids = {term: i for i, term in enumerate(instance._terms)}
        num_sorted = len(instance._terms)
        for i in range(1, len(instance._terms)):
            if instance._terms[i - 1] > instance._terms[i]:
                num_sorted = i
                break
        instance._num_sorted = num_sorted
        return instance

    def add(self, term: str) -> int:
        """Return ``term``'s ID, appending it with a fresh ID if absent.

        This is the dynamic-update entry point: build-time IDs are assigned
        lexicographically, terms added later take the next free ID, so no
        existing ID ever moves (triples already indexed stay valid).  A
        term that happens to extend the lexicographic run keeps
        :meth:`prefix_range` covering it; once an out-of-order term is
        appended, the run freezes there until the next full rebuild.
        Tracking the run incrementally keeps the answer identical to what
        :meth:`_restore` re-derives after a save/load round trip.
        """
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        identifier = len(self._terms)
        if self._num_sorted == identifier and (
                identifier == 0 or self._terms[-1] <= term):
            self._num_sorted += 1
        self._terms.append(term)
        self._ids[term] = identifier
        return identifier

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids

    def id_of(self, term: str) -> int:
        """Return the ID of ``term``; raises :class:`DictionaryError` if absent."""
        try:
            return self._ids[term]
        except KeyError:
            raise DictionaryError(f"unknown term {term!r}") from None

    def term_of(self, identifier: int) -> str:
        """Return the term with ID ``identifier``."""
        if not 0 <= identifier < len(self._terms):
            raise DictionaryError(f"identifier {identifier} out of range")
        return self._terms[identifier]

    def get(self, term: str, default: Optional[int] = None) -> Optional[int]:
        """Return the ID of ``term`` or ``default``."""
        return self._ids.get(term, default)

    def terms(self) -> List[str]:
        """All terms in ID (lexicographic) order."""
        return list(self._terms)

    def prefix_range(self, prefix: str) -> Tuple[int, int]:
        """Return the half-open ID range of terms starting with ``prefix``.

        Lexicographic assignment makes prefix lookups a pair of binary
        searches; useful for namespace-scoped scans.  Only the build-time
        lexicographic run is covered: terms appended by :meth:`add` have
        out-of-order IDs and are excluded until a rebuild re-sorts them.
        """
        lo = bisect.bisect_left(self._terms, prefix, 0, self._num_sorted)
        hi = bisect.bisect_left(self._terms, prefix + "￿", 0, self._num_sorted)
        return lo, hi


class NumericIndex:
    """The sorted numeric structure ``R`` used for range queries.

    Numeric literals are sorted by value; their positions (IDs relative to the
    numeric sub-space) can be located with two binary searches directly over
    the compressed representation, as described in Section 3.1 of the paper.
    Values are stored scaled to integers (``scale`` decimal digits) and
    compressed with Elias-Fano.
    """

    def __init__(self, values: Sequence[float], scale: int = 0):
        self._scale = scale
        factor = 10 ** scale
        scaled = sorted(int(round(v * factor)) for v in values)
        self._offset = -scaled[0] if scaled and scaled[0] < 0 else 0
        shifted = [v + self._offset for v in scaled]
        self._sequence = EliasFano.from_values(shifted)
        self._factor = factor

    @classmethod
    def _restore(cls, scale: int, offset: int, sequence: EliasFano) -> "NumericIndex":
        """Rebuild from persisted state without re-sorting or re-encoding."""
        instance = cls.__new__(cls)
        instance._scale = scale
        instance._factor = 10 ** scale
        instance._offset = offset
        instance._sequence = sequence
        return instance

    def __len__(self) -> int:
        return len(self._sequence)

    def size_in_bits(self) -> int:
        """Space of the compressed representation (paper reports < 0.1 bits/triple)."""
        return self._sequence.size_in_bits()

    def value_at(self, position: int) -> float:
        """Return the ``position``-th smallest numeric value."""
        return (self._sequence.access(position) - self._offset) / self._factor

    def id_range(self, low: float, high: float,
                 inclusive: bool = False) -> Tuple[int, int]:
        """Return the half-open position range of values in ``(low, high)``.

        With ``inclusive=True`` the bounds themselves are admitted, i.e. the
        constraint becomes ``low <= value <= high``.
        """
        if len(self._sequence) == 0:
            return 0, 0
        low_scaled = int(round(low * self._factor)) + self._offset
        high_scaled = int(round(high * self._factor)) + self._offset
        if not inclusive:
            low_scaled += 1
            high_scaled -= 1
        lo_pos, _ = self._sequence.next_geq(max(0, low_scaled))
        hi_pos, element = self._sequence.next_geq(max(0, high_scaled + 1))
        if element == -1:
            hi_pos = len(self._sequence)
        return lo_pos, hi_pos


@dataclass
class RdfDictionary:
    """Role dictionaries plus the numeric index for range queries.

    ``subjects`` and ``objects`` normally reference the *same* shared resource
    dictionary (see :meth:`from_term_triples`); ``predicates`` is separate.
    """

    subjects: Dictionary
    predicates: Dictionary
    objects: Dictionary
    numeric_objects: Optional[NumericIndex] = None

    @classmethod
    def from_term_triples(cls, term_triples: Iterable[Tuple[str, str, str]]
                          ) -> Tuple["RdfDictionary", TripleStore]:
        """Build dictionaries and the integer :class:`TripleStore` in one pass.

        Subjects and objects share one resource dictionary (as in HDT-style
        systems) so that an entity keeps the same ID whether it appears as a
        subject or as an object — a prerequisite for joining triple patterns
        on a shared variable.  Predicates get their own, much smaller,
        dictionary.
        """
        resources: List[str] = []
        predicates: List[str] = []
        materialised = list(term_triples)
        for s, p, o in materialised:
            resources.append(s)
            predicates.append(p)
            resources.append(o)
        shared = Dictionary.from_terms(resources)
        dictionary = cls(
            subjects=shared,
            predicates=Dictionary.from_terms(predicates),
            objects=shared,
        )
        encoded = [
            (dictionary.subjects.id_of(s),
             dictionary.predicates.id_of(p),
             dictionary.objects.id_of(o))
            for s, p, o in materialised
        ]
        return dictionary, TripleStore.from_triples(encoded)

    def encode(self, s: str, p: str, o: str) -> Tuple[int, int, int]:
        """Encode a term triple into an ID triple."""
        return (self.subjects.id_of(s), self.predicates.id_of(p), self.objects.id_of(o))

    def encode_or_add(self, s: str, p: str, o: str) -> Tuple[int, int, int]:
        """Encode a term triple, minting fresh IDs for unseen terms.

        The dynamic-update counterpart of :meth:`encode`: when subjects and
        objects share one resource dictionary (the
        :meth:`from_term_triples` layout), an entity added here keeps the
        same ID in both roles, so joins across roles still work on
        freshly-inserted triples.

        Like :meth:`Dictionary.add`'s ``prefix_range`` caveat, the
        immutable ``numeric_objects`` index (``R``) is *not* extended: a
        numeric literal minted here is absent from
        :class:`NumericIndex`-backed range queries until the next full
        rebuild re-sorts the ID space.
        """
        return (self.subjects.add(s), self.predicates.add(p),
                self.objects.add(o))

    def decode(self, triple: Tuple[int, int, int]) -> Tuple[str, str, str]:
        """Decode an ID triple back into terms."""
        s, p, o = triple
        return (self.subjects.term_of(s), self.predicates.term_of(p),
                self.objects.term_of(o))

    def decode_lenient(self, triple: Tuple[int, int, int]) -> Tuple[str, str, str]:
        """Decode an ID triple, rendering term-less IDs as ``<id:N>``.

        Dynamic updates may legitimately insert IDs this dictionary has no
        term for (``repro update --ids``, ``POST /update``); display paths
        use this so one such triple cannot crash the listing of a whole
        result set.
        """
        parts = []
        for role_dictionary, value in zip(
                (self.subjects, self.predicates, self.objects), triple):
            if 0 <= value < len(role_dictionary):
                parts.append(role_dictionary.term_of(value))
            else:
                parts.append(f"<id:{value}>")
        return tuple(parts)

    def size_summary(self) -> Dict[str, int]:
        """Number of terms per role (excluded from bits/triple accounting)."""
        return {
            "subjects": len(self.subjects),
            "predicates": len(self.predicates),
            "objects": len(self.objects),
        }
