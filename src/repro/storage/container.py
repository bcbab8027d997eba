"""The on-disk container: magic, format version, section table, checksums.

A repro index file is a flat container of named byte sections::

    +--------------------------------------------------------------+
    | magic "REPROIDX" (8 bytes)                                   |
    | format version   (uint32 LE)                                 |
    | number of sections (uint32 LE)                               |
    | section table: per section                                   |
    |     name length (uint16 LE) + UTF-8 name                     |
    |     payload offset (uint64 LE, absolute)                     |
    |     payload length (uint64 LE)                               |
    |     payload CRC-32 (uint32 LE)                               |
    | header CRC-32    (uint32 LE, over everything above)          |
    | section payloads, back to back                               |
    +--------------------------------------------------------------+

The header checksum catches table corruption before any offset is trusted;
per-section CRC-32s catch payload corruption before any byte reaches the
decoders.  Every failure mode raises :class:`repro.errors.StorageError` with a
message naming what was violated, so callers (CLI included) can report the
problem without a traceback.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import StorageError

MAGIC = b"REPROIDX"

#: Default version of the container format written by this build.  Readers
#: reject files with any unsupported version, which is what makes future
#: layout changes safe: bump the version and old builds fail loudly instead
#: of misreading.
FORMAT_VERSION = 1

#: Version written when the file carries a dynamic-update ``delta`` section
#: (inserted triples + tombstones awaiting compaction).  Builds that predate
#: the dynamic subsystem would silently *drop* such a delta, so those files
#: advertise a version old readers refuse.
DELTA_FORMAT_VERSION = 2

#: Version written by aligned (mmap-friendly) saves: every section payload
#: starts on a :data:`SECTION_ALIGNMENT`-byte boundary, with zero padding
#: between payloads.  Supersedes version 2 (it also admits a ``delta``
#: section); the alignment is what lets :func:`map_container` hand the
#: decoders page-backed views that numpy can address without copying.
ALIGNED_FORMAT_VERSION = 3

#: Every version this build can read.
SUPPORTED_VERSIONS = (FORMAT_VERSION, DELTA_FORMAT_VERSION,
                      ALIGNED_FORMAT_VERSION)

#: Alignment (bytes) of section payloads in version-3 containers: a cache
#: line, and a multiple of every array itemsize the format allows.
SECTION_ALIGNMENT = 64

_FIXED_HEADER = struct.Struct("<8sII")
_TABLE_ENTRY_TAIL = struct.Struct("<QQI")
_CRC = struct.Struct("<I")

PathLike = Union[str, Path]


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory entry to stable storage (best-effort off-Linux).

    Needed after creating or renaming a file whose durability matters: the
    file's own fsync persists its *contents*, but until the directory is
    synced the *name* can vanish on power loss.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # platform without directory fds (e.g. Windows)
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: PathLike) -> Iterator[BinaryIO]:
    """Yield a binary handle whose bytes replace ``path`` all at once.

    The bytes go to a sibling ``.tmp`` file, which is removed if anything
    fails.  Contents must be durable *before* the rename makes them the
    live file — otherwise a power loss can leave the destination pointing
    at unwritten pages.  The directory sync after the rename makes the new
    name itself durable; callers that truncate a WAL on the strength of
    this write depend on both.
    """
    destination = Path(path)
    temporary = destination.with_name(destination.name + ".tmp")
    try:
        with open(temporary, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, destination)
        fsync_directory(destination.parent)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def write_container(path: PathLike, sections: Mapping[str, bytes],
                    version: Optional[int] = None) -> int:
    """Write ``sections`` to ``path``; returns the total number of bytes written.

    The write is atomic: bytes go to a temporary file in the destination
    directory which is renamed over ``path`` only once fully written, so an
    interrupted save (disk full, crash, Ctrl-C) never destroys a previously
    valid index file.  Section order is preserved, so a round trip through
    :func:`read_container` keeps files byte-identical.  ``version`` is the
    advertised format version (:data:`DELTA_FORMAT_VERSION` for files
    carrying a delta section).
    """
    if not sections:
        raise StorageError("a container needs at least one section")
    if version is None:
        version = FORMAT_VERSION
    aligned = version >= ALIGNED_FORMAT_VERSION
    encoded_names: List[Tuple[bytes, bytes]] = []
    for name, payload in sections.items():
        encoded = name.encode("utf-8")
        if not encoded or len(encoded) > 0xFFFF:
            raise StorageError(f"invalid section name {name!r}")
        encoded_names.append((encoded, payload))

    table_size = sum(2 + len(encoded) + _TABLE_ENTRY_TAIL.size
                     for encoded, _ in encoded_names)
    payload_start = _FIXED_HEADER.size + table_size + _CRC.size

    def _align(position: int) -> int:
        if not aligned:
            return position
        remainder = position % SECTION_ALIGNMENT
        return position if remainder == 0 else position + SECTION_ALIGNMENT - remainder

    header = bytearray()
    header += _FIXED_HEADER.pack(MAGIC, version, len(encoded_names))
    offset = _align(payload_start)
    offsets: List[int] = []
    for encoded, payload in encoded_names:
        header += struct.pack("<H", len(encoded))
        header += encoded
        header += _TABLE_ENTRY_TAIL.pack(offset, len(payload), _crc32(payload))
        offsets.append(offset)
        offset = _align(offset + len(payload))

    with atomic_write(path) as handle:
        handle.write(header)
        handle.write(_CRC.pack(_crc32(bytes(header))))
        position = payload_start
        for (_, payload), aligned_offset in zip(encoded_names, offsets):
            if aligned_offset > position:
                handle.write(b"\x00" * (aligned_offset - position))
            handle.write(payload)
            position = aligned_offset + len(payload)
    return position


def read_container(path: PathLike) -> Dict[str, bytes]:
    """Read and fully validate a container; returns sections by name."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from None
    return parse_container(data, source=str(path))


def container_version(data: bytes, source: str = "<bytes>") -> int:
    """The format version stamped in a container image's fixed header.

    This is the *stored* version (what the writing build advertised), which
    is what operators need to see — :data:`FORMAT_VERSION` is merely what
    this build writes by default.
    """
    if len(data) < _FIXED_HEADER.size:
        raise StorageError(f"{source}: too short to be a repro container")
    magic, version, _ = _FIXED_HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StorageError(f"{source}: not a repro container (bad magic)")
    return int(version)


def _parse_header(data, source: str) -> Tuple[int, List[Tuple[str, int, int, int]]]:
    """Validate magic, version, section table and header CRC.

    Returns ``(version, table)`` with ``table`` entries of
    ``(name, offset, length, payload_crc)``.  Accepts any buffer supporting
    the buffer protocol (bytes or an mmap), and never touches payload bytes —
    which is what keeps :func:`map_container` O(header size).
    """
    if len(data) < _FIXED_HEADER.size + _CRC.size:
        raise StorageError(f"{source}: too short to be a repro container")
    magic, version, num_sections = _FIXED_HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StorageError(f"{source}: not a repro container (bad magic)")
    if version not in SUPPORTED_VERSIONS:
        raise StorageError(
            f"{source}: unsupported container format version {version} "
            f"(this build reads versions {SUPPORTED_VERSIONS})")

    cursor = _FIXED_HEADER.size
    table: List[Tuple[str, int, int, int]] = []
    for _ in range(num_sections):
        if cursor + 2 > len(data):
            raise StorageError(f"{source}: truncated section table")
        (name_length,) = struct.unpack_from("<H", data, cursor)
        cursor += 2
        if cursor + name_length + _TABLE_ENTRY_TAIL.size > len(data):
            raise StorageError(f"{source}: truncated section table")
        try:
            name = bytes(data[cursor:cursor + name_length]).decode("utf-8")
        except UnicodeDecodeError:
            raise StorageError(f"{source}: malformed section name") from None
        cursor += name_length
        offset, length, crc = _TABLE_ENTRY_TAIL.unpack_from(data, cursor)
        cursor += _TABLE_ENTRY_TAIL.size
        table.append((name, offset, length, crc))

    if cursor + _CRC.size > len(data):
        raise StorageError(f"{source}: truncated header checksum")
    (header_crc,) = _CRC.unpack_from(data, cursor)
    if header_crc != _crc32(bytes(data[:cursor])):
        raise StorageError(f"{source}: header checksum mismatch (corrupted file)")
    return int(version), table


def parse_container(data: bytes, source: str = "<bytes>") -> Dict[str, bytes]:
    """Validate an in-memory container image and return its sections."""
    _version, table = _parse_header(data, source)

    sections: Dict[str, bytes] = {}
    for name, offset, length, crc in table:
        if offset + length > len(data):
            raise StorageError(f"{source}: section {name!r} extends past end of file")
        payload = data[offset:offset + length]
        if _crc32(payload) != crc:
            raise StorageError(f"{source}: section {name!r} checksum mismatch "
                               f"(corrupted file)")
        if name in sections:
            raise StorageError(f"{source}: duplicate section {name!r}")
        sections[name] = payload
    return sections


def verify_container(path: PathLike) -> Dict[str, object]:
    """Audit a container file; returns a structured integrity report.

    Stricter than :func:`read_container` — beyond the header CRC and the
    per-section payload CRC-32s it also audits the section *table* itself:
    payloads must lie after the header, in table order, without overlap,
    and (for version-3 files) each payload must start on a
    :data:`SECTION_ALIGNMENT`-byte boundary.  Structural failures (bad
    magic, truncated table, header CRC) raise :class:`StorageError` as
    usual; payload-level problems are *reported*, one entry per section,
    so operators see every damaged section in one pass instead of the
    first one per invocation.
    """
    source = str(path)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read {source}: {exc}") from None
    version, table = _parse_header(data, source)
    aligned = version >= ALIGNED_FORMAT_VERSION

    header_end = (_FIXED_HEADER.size
                  + sum(2 + len(name.encode("utf-8")) + _TABLE_ENTRY_TAIL.size
                        for name, _, _, _ in table)
                  + _CRC.size)
    sections: List[Dict[str, object]] = []
    problems: List[str] = []
    seen: Dict[str, int] = {}
    previous_end = header_end
    for name, offset, length, crc in table:
        entry: Dict[str, object] = {"name": name, "offset": offset,
                                    "length": length}
        errors: List[str] = []
        if name in seen:
            errors.append("duplicate section name")
        seen[name] = offset
        if offset < header_end:
            errors.append("payload overlaps the header")
        if offset < previous_end:
            errors.append("payload overlaps the previous section")
        if aligned and offset % SECTION_ALIGNMENT:
            errors.append(f"payload not {SECTION_ALIGNMENT}-byte aligned")
        if offset + length > len(data):
            errors.append("payload extends past end of file")
            entry["crc_ok"] = False
        else:
            entry["crc_ok"] = _crc32(data[offset:offset + length]) == crc
            if not entry["crc_ok"]:
                errors.append("payload checksum mismatch")
            previous_end = max(previous_end, offset + length)
        entry["errors"] = errors
        problems.extend(f"section {name!r}: {error}" for error in errors)
        sections.append(entry)

    return {
        "path": source,
        "format_version": version,
        "aligned": aligned,
        "total_bytes": len(data),
        "num_sections": len(table),
        "sections": sections,
        "problems": problems,
        "ok": not problems,
    }


class MappedContainer:
    """A container whose section payloads are views over one shared mmap.

    Produced by :func:`map_container`.  ``sections`` maps names to read-only
    :class:`memoryview` objects backed by the page cache — no payload byte is
    read (or checksummed) until something dereferences it.  Consumers that
    build numpy arrays over the views keep the mapping alive through the
    buffer protocol, so the container object itself may be dropped freely;
    :meth:`close` is best-effort and refuses nothing.
    """

    def __init__(self, path: str, version: int,
                 sections: Dict[str, memoryview], mapping) -> None:
        self.path = path
        self.version = version
        self.sections = sections
        self._mmap = mapping

    def close(self) -> None:
        """Release the mapping if no exported view pins it."""
        for view in self.sections.values():
            view.release()
        self.sections = {}
        try:
            self._mmap.close()
        except (BufferError, ValueError):
            pass  # arrays still reference pages; the OS reclaims on exit

    def __enter__(self) -> "MappedContainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def map_container(path: PathLike) -> MappedContainer:
    """Memory-map a container and return lazily-read section views.

    Unlike :func:`read_container` this is O(header): the magic, version,
    section table and header CRC are validated — so every offset is trusted
    and in bounds — but the per-section payload CRCs are **not** verified
    (doing so would fault in every page, defeating the point of mapping).
    Callers that need end-to-end corruption detection should use
    :func:`read_container`; the mapped path trades that check for
    constant-time loading, as the format documentation spells out.
    """
    import mmap as _mmap_module

    source = str(path)
    try:
        with open(source, "rb") as handle:
            mapping = _mmap_module.mmap(handle.fileno(), 0,
                                        access=_mmap_module.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise StorageError(f"cannot map {source}: {exc}") from None
    try:
        version, table = _parse_header(mapping, source)
    except StorageError:
        mapping.close()
        raise
    whole = memoryview(mapping)
    sections: Dict[str, memoryview] = {}
    try:
        for name, offset, length, _crc in table:
            if offset + length > len(mapping):
                raise StorageError(
                    f"{source}: section {name!r} extends past end of file")
            if name in sections:
                raise StorageError(f"{source}: duplicate section {name!r}")
            sections[name] = whole[offset:offset + length]
    except StorageError:
        for view in sections.values():
            view.release()
        whole.release()
        mapping.close()
        raise
    finally:
        whole.release()
    return MappedContainer(source, version, sections, mapping)
