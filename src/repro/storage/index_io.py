"""High-level persistence entry points: whole index files and standalone objects.

A saved index file is a container (see :mod:`repro.storage.container`) with
up to five sections:

* ``meta``    — a small state tree describing what the file holds (stored
  kind, layout name, triple count, producing library version);
* ``index``   — the serialised index object graph;
* ``dictionary`` — optional: the :class:`repro.rdf.dictionary.RdfDictionary`
  needed to run term-level (rather than ID-level) queries;
* ``stats``   — optional: the query planner's per-role cardinality
  histograms, so a loaded index plans with the same selectivity estimates as
  a freshly built one (without them the planner falls back to a
  bound-component heuristic);
* ``delta``   — optional: a dynamic-update snapshot (inserted triples plus
  delete tombstones not yet compacted into the index).  Files carrying one
  advertise :data:`repro.storage.container.DELTA_FORMAT_VERSION` so builds
  that would silently drop the delta refuse the file instead.

Standalone object files (a codec, trie or dictionary written by
:func:`save_object` and read by :func:`load_object`) use the same container
with ``meta`` + ``payload`` sections, so every file produced by this package
carries the same magic, version and checksum protection.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Type, Union

from repro.errors import StorageError
from repro.storage import format as binary_format
from repro.storage.codecs import (dumps_object, loads_object,
                                  loads_object_view, type_name_of)
from repro.storage.container import (
    ALIGNED_FORMAT_VERSION,
    DELTA_FORMAT_VERSION,
    FORMAT_VERSION,
    container_version,
    map_container,
    parse_container,
    read_container,
    write_container,
)

PathLike = Union[str, Path]

SECTION_META = "meta"
SECTION_INDEX = "index"
SECTION_DICTIONARY = "dictionary"
SECTION_STATS = "stats"
SECTION_DELTA = "delta"
SECTION_PAYLOAD = "payload"


def _library_version() -> str:
    from repro import __version__
    return __version__


def _dump_meta(meta: dict) -> bytes:
    return binary_format.dumps(meta)


def _load_meta(sections: Dict[str, bytes], source: str) -> dict:
    if SECTION_META not in sections:
        raise StorageError(f"{source}: missing {SECTION_META!r} section")
    meta = binary_format.loads(sections[SECTION_META])
    if not isinstance(meta, dict):
        raise StorageError(f"{source}: malformed {SECTION_META!r} section")
    return meta


class LoadedIndex(NamedTuple):
    """What :func:`load_index` returns.

    ``index`` is always the *base* (immutable) index; if the file carried a
    dynamic-update snapshot it is in ``delta`` and :meth:`queryable` is the
    one-call way to get an index whose answers include it.
    """

    index: Any
    dictionary: Optional[Any]
    meta: dict
    planner_stats: Optional[Dict[int, Dict[int, int]]] = None
    delta: Optional[Any] = None

    def queryable(self, wal_path: Optional[PathLike] = None,
                  compaction_ratio: Optional[float] = None,
                  writable: bool = False) -> Any:
        """The index to answer queries with, delta overlay included.

        Returns the bare base index when the file had no delta and no
        dynamic features were requested; otherwise wraps it in a
        :class:`repro.dynamic.DynamicIndex` (restoring the stored delta and
        replaying ``wal_path`` if given).
        """
        if self.delta is None and wal_path is None and not writable:
            return self.index
        from repro.dynamic import DynamicIndex
        return DynamicIndex.open(self.index, wal_path=wal_path,
                                 delta=self.delta,
                                 compaction_ratio=compaction_ratio)


def _dump_planner_stats(cardinalities: Dict[int, Dict[int, int]]) -> bytes:
    """Encode per-role histograms as sorted (values, counts) array pairs."""
    import numpy as np
    roles = []
    for role in (0, 1, 2):
        histogram = cardinalities.get(role, {})
        values = np.fromiter(sorted(histogram), dtype=np.uint64,
                             count=len(histogram))
        counts = np.fromiter((histogram[int(v)] for v in values),
                             dtype=np.uint64, count=len(histogram))
        roles.append({"values": values, "counts": counts})
    return binary_format.dumps({"roles": roles})


def _load_planner_stats(payload: bytes, source: str) -> Dict[int, Dict[int, int]]:
    state = binary_format.loads(payload)
    if not isinstance(state, dict) or len(state.get("roles", ())) != 3:
        raise StorageError(f"{source}: malformed {SECTION_STATS!r} section")
    cardinalities: Dict[int, Dict[int, int]] = {}
    for role, entry in enumerate(state["roles"]):
        try:
            values, counts = entry["values"], entry["counts"]
            cardinalities[role] = {int(v): int(c)
                                   for v, c in zip(values, counts)}
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(
                f"{source}: malformed {SECTION_STATS!r} section "
                f"(role {role}: {error})") from None
    return cardinalities


def _dump_delta(delta: Any) -> bytes:
    """Encode a :class:`repro.dynamic.DeltaState` as sorted triple columns."""
    return binary_format.dumps(delta.to_columns())


def _load_delta(payload: bytes, source: str) -> Any:
    from repro.dynamic.delta import DeltaState
    state = binary_format.loads(payload)
    try:
        return DeltaState.from_columns(state)
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(f"{source}: malformed {SECTION_DELTA!r} section "
                           f"({error})") from None


def save_index(index: Any, path: PathLike, dictionary: Optional[Any] = None,
               planner_stats: Optional[Dict[int, Dict[int, int]]] = None,
               delta: Optional[Any] = None, aligned: bool = False) -> int:
    """Persist ``index`` (and optionally its RDF dictionary) to ``path``.

    Returns the number of bytes written.  The index may be any registered
    index family (3T, CC, 2Tp, 2To).  ``planner_stats`` — the
    :class:`repro.queries.planner.QueryPlanner` per-role cardinality
    histograms — travel with the file so selectivity-driven planning
    survives the save/load round trip.  A non-empty ``delta``
    (:class:`repro.dynamic.DeltaState`) adds the dynamic-update snapshot
    section and bumps the advertised format version.  ``aligned=True``
    writes format version 3 (64-byte-aligned sections) so the file can be
    memory-mapped with ``load_index(path, mmap=True)``; unaligned files can
    still be mapped, alignment just guarantees naturally-aligned array
    views.
    """
    if delta is not None and not delta:
        delta = None  # an empty delta is the same as no delta
    meta = {
        "kind": type_name_of(index),
        "layout": getattr(index, "name", type_name_of(index)),
        "num_triples": int(index.num_triples),
        "size_in_bits": int(index.size_in_bits()),
        "has_dictionary": dictionary is not None,
        "has_planner_stats": planner_stats is not None,
        "library_version": _library_version(),
    }
    if delta is not None:
        meta["has_delta"] = True
        meta["delta_inserted"] = int(delta.num_inserted)
        meta["delta_deleted"] = int(delta.num_deleted)
    sections: Dict[str, bytes] = {
        SECTION_META: _dump_meta(meta),
        SECTION_INDEX: dumps_object(index),
    }
    if dictionary is not None:
        sections[SECTION_DICTIONARY] = dumps_object(dictionary)
    if planner_stats is not None:
        sections[SECTION_STATS] = _dump_planner_stats(planner_stats)
    if delta is not None:
        sections[SECTION_DELTA] = _dump_delta(delta)
    if aligned:
        version = ALIGNED_FORMAT_VERSION
    else:
        version = FORMAT_VERSION if delta is None else DELTA_FORMAT_VERSION
    return write_container(path, sections, version=version)


def load_index(path: PathLike, load_dictionary: bool = True,
               mmap: bool = False) -> LoadedIndex:
    """Load an index file written by :func:`save_index`.

    ``load_dictionary=False`` skips decoding the (potentially large)
    dictionary section for callers that only need the index payload.  The
    returned ``index`` is the immutable base; call
    :meth:`LoadedIndex.queryable` to fold in a stored ``delta``.

    ``mmap=True`` memory-maps the file instead of reading it: the header is
    validated but payload bytes stay on disk, index arrays become read-only
    views over the page cache, and the call returns in near-constant time
    regardless of index size.  The trade-offs, per ``docs/STORAGE_FORMAT.md``:
    payload CRCs are *not* verified, and the first query to touch a region
    pays the page faults instead of load time.  Works for any supported
    format version; version-3 (aligned) files additionally guarantee
    naturally-aligned array views.
    """
    if mmap:
        container = map_container(path)
        sections: Dict[str, Any] = container.sections
        decode = loads_object_view
    else:
        sections = read_container(path)
        decode = loads_object
    meta = _load_meta(sections, str(path))
    if SECTION_INDEX not in sections:
        raise StorageError(f"{path}: missing {SECTION_INDEX!r} section "
                           f"(not an index file?)")
    index = decode(sections[SECTION_INDEX])
    dictionary = None
    if load_dictionary and SECTION_DICTIONARY in sections:
        dictionary = decode(sections[SECTION_DICTIONARY])
    planner_stats = None
    if SECTION_STATS in sections:
        planner_stats = _load_planner_stats(sections[SECTION_STATS], str(path))
    delta = None
    if SECTION_DELTA in sections:
        delta = _load_delta(sections[SECTION_DELTA], str(path))
    return LoadedIndex(index=index, dictionary=dictionary, meta=meta,
                       planner_stats=planner_stats, delta=delta)


def save_object(obj: Any, path: PathLike) -> int:
    """Persist one registered object (codec, trie, dictionary, ...) to ``path``."""
    meta = {
        "kind": type_name_of(obj),
        "library_version": _library_version(),
    }
    sections = {
        SECTION_META: _dump_meta(meta),
        SECTION_PAYLOAD: dumps_object(obj),
    }
    return write_container(path, sections)


def load_object(path: PathLike, expected_type: Optional[Type] = None) -> Any:
    """Load an object file written by :func:`save_object`.

    ``expected_type`` rejects a file holding a different structure with a
    clear error instead of an attribute crash later on.
    """
    sections = read_container(path)
    _load_meta(sections, str(path))
    if SECTION_PAYLOAD not in sections:
        raise StorageError(f"{path}: missing {SECTION_PAYLOAD!r} section "
                           f"(is this a full index file? use load_index)")
    obj = loads_object(sections[SECTION_PAYLOAD])
    if expected_type is not None and not isinstance(obj, expected_type):
        raise StorageError(
            f"{path}: holds a {type(obj).__name__}, expected "
            f"{expected_type.__name__}")
    return obj


def file_info(path: PathLike, include_breakdown: bool = False) -> dict:
    """Describe a container file without fully decoding its payloads.

    Returns the decoded ``meta`` section plus per-section and total byte
    sizes — the data behind the CLI ``info`` subcommand.  The reported
    ``format_version`` is the version *stored in the file* (not this
    build's default), so operators can tell delta-carrying files apart.
    With ``include_breakdown=True`` the index payload is additionally
    decoded (from the same single read of the file) and its per-component
    ``space_breakdown`` attached under ``"space_breakdown"``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from None
    sections = parse_container(data, source=str(path))
    meta = _load_meta(sections, str(path))
    section_sizes = {name: len(payload) for name, payload in sections.items()}
    info = {
        "path": str(path),
        "format_version": container_version(data, source=str(path)),
        "meta": meta,
        "section_bytes": section_sizes,
        "total_bytes": len(data),
    }
    if include_breakdown:
        if SECTION_INDEX not in sections:
            raise StorageError(f"{path}: missing {SECTION_INDEX!r} section "
                               f"(not an index file?)")
        info["space_breakdown"] = loads_object(sections[SECTION_INDEX]).space_breakdown()
    return info
