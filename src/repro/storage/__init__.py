"""Persistence subsystem: a versioned binary container format plus
save/load support for every layer of the package.

Public surface:

* :func:`save_index` / :func:`load_index` — whole index files (index +
  optional RDF dictionary), the format behind the ``repro`` CLI;
* :func:`save_object` / :func:`load_object` — standalone structures (any
  sequence codec, a bit vector, one permutation trie, a dictionary);
* :func:`file_info` — cheap inspection of a saved file;
* :func:`atomic_write` — crash-safe whole-file replacement, behind every
  container and the cluster manifest;
* :class:`WriteAheadLog` (:mod:`repro.storage.wal`) — the durable update
  log behind the dynamic subsystem — and :class:`WalReader`, its
  read-only incremental follower used by the pre-fork serving pool;
* :data:`FORMAT_VERSION`, :data:`DELTA_FORMAT_VERSION`, :data:`MAGIC` —
  the container identity (delta-carrying files advertise the higher
  version so older builds refuse them instead of dropping the delta);
* :func:`dumps_object` / :func:`loads_object` — in-memory (de)serialisation,
  useful for tests and for shipping indexes over a wire.

All failure modes raise :class:`repro.errors.StorageError`.
"""

from repro.storage.codecs import dumps_object, loads_object, type_name_of
from repro.storage.container import (
    DELTA_FORMAT_VERSION,
    FORMAT_VERSION,
    MAGIC,
    SUPPORTED_VERSIONS,
    atomic_write,
    container_version,
    parse_container,
    read_container,
    verify_container,
    write_container,
)
from repro.storage.index_io import (
    LoadedIndex,
    file_info,
    load_index,
    load_object,
    save_index,
    save_object,
)
from repro.storage.wal import WalReader, WriteAheadLog

__all__ = [
    "DELTA_FORMAT_VERSION",
    "FORMAT_VERSION",
    "MAGIC",
    "SUPPORTED_VERSIONS",
    "WalReader",
    "WriteAheadLog",
    "atomic_write",
    "container_version",
    "LoadedIndex",
    "dumps_object",
    "loads_object",
    "type_name_of",
    "parse_container",
    "read_container",
    "verify_container",
    "write_container",
    "file_info",
    "load_index",
    "load_object",
    "save_index",
    "save_object",
]
