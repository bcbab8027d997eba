"""repro — a pure-Python reproduction of "Compressed Indexes for Fast Search
of Semantic Data" (Perego, Pibiri, Venturini).

The package is organised in layers:

* :mod:`repro.sequences` — compressed integer-sequence codecs (Compact,
  Elias-Fano, partitioned Elias-Fano, VByte) and the bit-vector / rank-select
  substrate they are built on.
* :mod:`repro.structures` — auxiliary succinct structures (wavelet tree).
* :mod:`repro.rdf` — RDF data model: triples, N-Triples parsing, string
  dictionaries.
* :mod:`repro.core` — the paper's contribution: the permuted trie indexes
  (3T), the cross-compressed variant (CC) and the two-trie variants
  (2Tp / 2To), together with the select / enumerate / inverted pattern
  matching algorithms.
* :mod:`repro.baselines` — the competitors evaluated in the paper
  (HDT-FoQ, TripleBit, vertical partitioning, RDF-3X-like, BitMat-like).
* :mod:`repro.datasets` — synthetic dataset generators calibrated to the
  statistics of the paper's datasets, plus WatDiv- and LUBM-like generators.
* :mod:`repro.queries` — triple-pattern workloads, a small SPARQL BGP
  front-end and the selectivity-based query planner used to decompose
  SPARQL queries into sequences of triple selection patterns.
* :mod:`repro.bench` — measurement harness (bits/triple, ns/triple) and
  paper-style table rendering used by the ``benchmarks/`` suite.
* :mod:`repro.storage` — persistence: a versioned, checksummed binary
  container read and written by ``save_index``/``load_index`` (an index)
  and ``save_object``/``load_object`` (a codec, trie or dictionary), plus
  the write-ahead log behind dynamic updates and the ``repro`` CLI.
* :mod:`repro.dynamic` — dynamic updates over the static indexes: a
  WAL-backed delta store (inserts + tombstones), the
  :class:`~repro.dynamic.DynamicIndex` merged overlay both query engines
  execute against, and online compaction back into a fresh index.

Quickstart
----------

>>> from repro import TripleStore, IndexBuilder
>>> store = TripleStore.from_triples([(0, 0, 2), (0, 1, 0), (1, 0, 4)])
>>> index = IndexBuilder(store).build("2tp")
>>> sorted(index.select((0, None, None)))
[(0, 0, 2), (0, 1, 0)]
"""

from repro.core.builder import IndexBuilder, build_index
from repro.dynamic import DeltaState, DynamicIndex
from repro.storage import load_index, save_index
from repro.core.index_2t import TwoTrieIndex
from repro.core.index_3t import PermutedTrieIndex
from repro.core.cross_compression import CrossCompressedIndex
from repro.core.patterns import TriplePattern, PatternKind
from repro.rdf.triples import Triple, TripleStore
from repro.rdf.dictionary import Dictionary, RdfDictionary

__all__ = [
    "IndexBuilder",
    "build_index",
    "PermutedTrieIndex",
    "CrossCompressedIndex",
    "TwoTrieIndex",
    "TriplePattern",
    "PatternKind",
    "Triple",
    "TripleStore",
    "Dictionary",
    "RdfDictionary",
    "DeltaState",
    "DynamicIndex",
    "save_index",
    "load_index",
]

__version__ = "1.0.0"
