"""Length-prefixed JSON framing over stream sockets.

One framing for every process-to-process channel: the pre-fork pool's
worker↔writer unix socket (:mod:`repro.service.pool`) and the cluster
RPC over TCP (:mod:`repro.cluster.rpc`).  A frame is a 4-byte
little-endian payload length followed by that many bytes of UTF-8 JSON::

    <uint32 LE length> <length bytes of JSON>

This module sits below both ``service`` and ``cluster`` so neither has
to import the other for it.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

#: Frame header: payload length, uint32 little-endian.
FRAME = struct.Struct("<I")
#: A frame far larger than this is a protocol bug, not a request.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def recv_exactly(sock: socket.socket, count: int,
                 at_start: bool = False) -> Optional[bytes]:
    """``count`` bytes from ``sock``; EOF mid-read is a protocol error.

    ``at_start=True`` makes an immediate EOF a clean ``None`` (the peer
    hung up between frames) instead of an error.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_start and remaining == count:
                return None
            raise ConnectionError("rpc frame truncated")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[bytes]:
    """One length-prefixed frame, or ``None`` on a clean EOF."""
    header = recv_exactly(sock, FRAME.size, at_start=True)
    if header is None:
        return None
    (length,) = FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"rpc frame of {length} bytes")
    return recv_exactly(sock, length)


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(FRAME.pack(len(payload)) + payload)


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    send_frame(sock, json.dumps(message).encode("utf-8"))


def read_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    frame = read_frame(sock)
    if frame is None:
        return None
    return json.loads(frame.decode("utf-8"))
