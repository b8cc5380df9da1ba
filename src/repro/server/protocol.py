"""Wire protocol: length-prefixed binary frames over TCP.

The paper's client surface is plain SQL through a stock driver; this
module defines the framing that carries it across a process boundary.
Every message is one *frame*::

    +----------------+---------------------------+
    | length (4B BE) | payload (pickled message) |
    +----------------+---------------------------+

and a *message* is a ``(op, payload)`` pair: an operation name plus a
dict of operands.  Requests and responses share the framing; the
session handshake carries the protocol version so both sides can
refuse a peer they do not understand with a typed error frame instead
of undefined behaviour.

Request operations (client → server):

===============  =====================================================
``hello``        handshake: magic, protocol version, user, settings
``execute``      one statement with positional binds; ``prefetch``
                 rows of its result come back in the reply
``executemany``  one statement once per parameter set (array DML)
``fetch``        next ``n`` rows of an open server-side cursor
``close_cursor`` release a server-side cursor early
``commit``       commit the session's open transaction
``rollback``     roll it back
``stats``        server statistics snapshot (monitoring)
``close``        clean session shutdown
===============  =====================================================

Response operations (server → client): ``welcome`` (handshake accept),
``ok``, ``result`` (statement run: description, rowcount, the first
``prefetch`` rows, a done flag, and a cursor id unless done), ``rows``
(one fetch batch + done flag), and ``error``.

Every batch (the rows of a ``result`` and of each ``rows`` reply) is
cut with one row of lookahead: the server pulls ``n + 1`` rows, ships
``n`` and keeps the extra one for the next batch, so the batch that
ends a result says so (``done``) instead of costing one more empty
FETCH.  A ``done`` result has already been closed on the server —
``ODCIIndexClose`` has fired and there is no cursor to fetch from or
close, so a point read is one round trip.  An engine error raised
while a batch is being pulled is *parked*: the rows pulled before it
ship with ``done`` unset and the error answers the next ``fetch``, so
it surfaces at the same DB-API call as in-process.

An **error frame** is typed: it carries the :mod:`repro.errors` class
name, the message, the DB-API exception class name the driver should
raise, and — when the server-side exception pickles cleanly — the
exception object itself, so the client re-raises the *exact* class
with the remote error attached as ``__cause__``.

The payload codec is pickle (the same codec the WAL uses for log
records): this is a Python-engine-to-Python-driver protocol for
*trusted* networks — unpickling attacker-controlled bytes is arbitrary
code execution, so never expose the port beyond a trust boundary (see
docs/SERVER.md).
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro import errors as _errors

__all__ = [
    "PROTOCOL_VERSION", "MAGIC", "DEFAULT_PORT", "MAX_FRAME",
    "ProtocolError", "ConnectionClosed",
    "send_frame", "recv_frame", "encode_error", "decode_error",
]

#: bumped on any incompatible framing/message change; the handshake
#: carries it and mismatches are refused with a typed error frame.
#: v2: ``execute`` replies carry the first rows of the result.
PROTOCOL_VERSION = 2

#: handshake watermark: a peer that does not send it is not a repro client
MAGIC = "RPRO"

#: default TCP port for ``repro://host`` DSNs without an explicit port
DEFAULT_PORT = 7878

#: hard per-frame size limit, both directions.  A length prefix beyond
#: this is treated as a malformed frame (protects the server from one
#: bad client allocating unbounded memory; raise it for huge LOB rows).
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(_errors.DatabaseError):
    """The byte stream violated the framing or message contract."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF mid-conversation)."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def send_frame(sock: socket.socket, op: str,
               payload: Optional[Dict[str, Any]] = None,
               max_frame: int = MAX_FRAME) -> int:
    """Serialize ``(op, payload)`` and send it as one frame.

    Returns the number of bytes written (header included) so callers
    can account traffic.
    """
    body = pickle.dumps((op, payload or {}), protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > max_frame:
        raise ProtocolError(
            f"outgoing {op} frame of {len(body)} bytes exceeds the "
            f"{max_frame}-byte frame limit")
    sock.sendall(_HEADER.pack(len(body)) + body)
    return _HEADER.size + len(body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`."""
    chunks = io.BytesIO()
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of {n} "
                "frame bytes outstanding")
        chunks.write(chunk)
        remaining -= len(chunk)
    return chunks.getvalue()


def recv_frame(sock: socket.socket,
               max_frame: int = MAX_FRAME) -> Tuple[str, Dict[str, Any], int]:
    """Read one frame; returns ``(op, payload, bytes_read)``.

    Raises :class:`ConnectionClosed` on clean EOF *before* a header
    (the peer hung up between messages — not an error for a server),
    and :class:`ProtocolError` for every malformed shape: truncated
    header or body, oversized length prefix, bytes that do not
    unpickle, or a message that is not an ``(op, dict)`` pair.
    """
    header = sock.recv(_HEADER.size)
    if not header:
        raise ConnectionClosed("peer closed the connection")
    while len(header) < _HEADER.size:
        more = sock.recv(_HEADER.size - len(header))
        if not more:
            raise ProtocolError(
                f"truncated frame header ({len(header)} of "
                f"{_HEADER.size} bytes)")
        header += more
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            f"frame length {length} exceeds the {max_frame}-byte limit")
    try:
        body = _recv_exact(sock, length)
    except ConnectionClosed as exc:
        raise ProtocolError(f"truncated frame body: {exc}") from exc
    try:
        message = pickle.loads(body)
    except Exception as exc:  # noqa: BLE001 - anything is malformed here
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if (not isinstance(message, tuple) or len(message) != 2
            or not isinstance(message[0], str)
            or not isinstance(message[1], dict)):
        raise ProtocolError(
            f"malformed message: expected (op, payload) pair, "
            f"got {type(message).__name__}")
    return message[0], message[1], _HEADER.size + length


# ----------------------------------------------------------------------
# typed error frames
# ----------------------------------------------------------------------

def encode_error(exc: BaseException, dbapi_name: str) -> Dict[str, Any]:
    """Build the payload of a typed error frame.

    ``dbapi_name`` is the PEP 249 class the driver should raise (the
    server computes it with the same repro→DB-API map the in-process
    driver uses).  The original exception rides along pickled when it
    round-trips cleanly; otherwise the class name + message suffice for
    a faithful (if attribute-poorer) reconstruction.
    """
    payload: Dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
        "dbapi": dbapi_name,
    }
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)  # must survive the round trip, not just dump
    except Exception:  # noqa: BLE001 - fall back to name + message
        pass
    else:
        payload["pickled"] = blob
    return payload


def decode_error(payload: Dict[str, Any]) -> BaseException:
    """Rebuild the server-side exception from an error frame payload.

    Preference order: the pickled original; the named
    :mod:`repro.errors` class constructed from the message (walking up
    the MRO when the constructor needs more than a message); a bare
    :class:`~repro.errors.DatabaseError`.
    """
    blob = payload.get("pickled")
    if blob is not None:
        try:
            exc = pickle.loads(blob)
            if isinstance(exc, BaseException):
                return exc
        except Exception:  # noqa: BLE001 - degrade to name + message
            pass
    name = payload.get("error", "DatabaseError")
    message = payload.get("message", "")
    cls = getattr(_errors, name, None)
    if cls is None and name in ("ProtocolError", "ConnectionClosed"):
        cls = globals()[name]
    candidates = list(getattr(cls, "__mro__", ())) or [_errors.DatabaseError]
    for candidate in candidates:
        if not (isinstance(candidate, type)
                and issubclass(candidate, BaseException)):
            continue
        try:
            return candidate(message)
        except TypeError:
            continue
    return _errors.DatabaseError(message)
