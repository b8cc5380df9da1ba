"""DB-API 2.0 (PEP 249) interface to the repro engine.

The paper's framework makes domain indexes behave like built-in indexes
*through the standard client surface* — applications keep issuing plain
SQL through a stock driver while ODCI callbacks run underneath.  This
module is that stock driver.  ``connect()`` takes one DSN string and
returns a :class:`Connection` no matter where the engine lives::

    from repro import dbapi

    conn = dbapi.connect()                          # fresh in-memory engine
    conn = dbapi.connect("file:/var/lib/app/db")    # durable (WAL + recovery)
    conn = dbapi.connect("repro://db.host:7878")    # network server

    cur = conn.cursor()
    cur.execute("CREATE TABLE t (id INTEGER, name VARCHAR2(40))")
    cur.execute("INSERT INTO t VALUES (?, ?)", (1, "ada"))
    conn.commit()

All three connections expose the identical PEP 249 surface — same
cursor iteration, ``fetchmany``/``arraysize``, ``executemany``,
exception classes; a network connection re-raises the same exception
hierarchy with the remote :mod:`repro.errors` exception preserved as
``__cause__``.  For more concurrent sessions against the same
in-process engine, pass the engine itself: ``dbapi.connect(conn.engine)``.

Module globals follow PEP 249: ``apilevel = "2.0"``,
``threadsafety = 1`` (threads may share the module; share connections
only with your own locking — a session is used by one thread at a
time), ``paramstyle = "qmark"`` (``?`` placeholders, rewritten
quote-aware onto the engine's native positional binds).

Transactions are implicit per PEP 249: the first statement on a
connection (lazily) begins one; ``commit()``/``rollback()`` end it.
DDL still autocommits, Oracle-style.  Engine errors are re-raised as
the standard exception hierarchy (:class:`ProgrammingError`,
:class:`IntegrityError`, :class:`OperationalError`, ...) with the
original :mod:`repro.errors` exception attached as ``__cause__``.
"""

from __future__ import annotations

import datetime
import functools
import socket as _socket
import time as _time
import warnings
import weakref
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import errors as _errors
from repro.sql.engine import Engine

__all__ = [
    "apilevel", "threadsafety", "paramstyle", "connect", "parse_dsn", "DSN",
    "Connection", "NetworkConnection", "Cursor",
    "Warning", "Error", "InterfaceError", "DatabaseError", "DataError",
    "OperationalError", "IntegrityError", "InternalError",
    "ProgrammingError", "NotSupportedError",
    "Date", "Time", "Timestamp", "DateFromTicks", "TimeFromTicks",
    "TimestampFromTicks", "Binary",
    "STRING", "BINARY", "NUMBER", "DATETIME", "ROWID",
]

apilevel = "2.0"
#: threads may share the module; connections/cursors need external locking
threadsafety = 1
paramstyle = "qmark"


# ----------------------------------------------------------------------
# exception hierarchy (PEP 249 §Exceptions)
# ----------------------------------------------------------------------

class Warning(Exception):  # noqa: A001 (PEP 249 mandates the name)
    """Important warnings (PEP 249)."""


class Error(Exception):
    """Base of all DB-API errors raised by this module."""


class InterfaceError(Error):
    """Error in the interface itself (e.g. operating on a closed cursor,
    a malformed DSN, or a wire-protocol violation)."""


class DatabaseError(Error):
    """Error related to the database."""


class DataError(DatabaseError):
    """Problems with the processed data (bad value for a column type)."""


class OperationalError(DatabaseError):
    """Errors of the database's operation: locks, deadlocks, storage,
    cartridge callback failures, network timeouts and lost connections."""


class IntegrityError(DatabaseError):
    """Constraint violations (NOT NULL, unique)."""


class InternalError(DatabaseError):
    """The database hit an internal inconsistency."""


class ProgrammingError(DatabaseError):
    """SQL syntax errors, missing objects, bind mistakes, privileges."""


class NotSupportedError(DatabaseError):
    """A requested feature the engine does not provide."""


#: repro exception class → DB-API exception class, most specific first
_ERROR_MAP: Tuple[Tuple[type, type], ...] = (
    (_errors.ConstraintError, IntegrityError),
    (_errors.TypeMismatchError, DataError),
    (_errors.ParseError, ProgrammingError),
    (_errors.CatalogError, ProgrammingError),
    (_errors.PrivilegeError, ProgrammingError),
    (_errors.ExecutionError, ProgrammingError),
    (_errors.OperatorBindingError, ProgrammingError),
    (_errors.IndextypeError, ProgrammingError),
    (_errors.DeadlockError, OperationalError),
    (_errors.LockTimeoutError, OperationalError),
    (_errors.TransactionError, OperationalError),
    (_errors.StorageError, OperationalError),
    (_errors.ExtensibleIndexError, OperationalError),
    (_errors.DatabaseError, DatabaseError),
)


def _map_error(exc: BaseException) -> Error:
    """Wrap a repro engine error in its DB-API equivalent."""
    for repro_cls, dbapi_cls in _ERROR_MAP:
        if isinstance(exc, repro_cls):
            return dbapi_cls(str(exc))
    return DatabaseError(str(exc))


# ----------------------------------------------------------------------
# type objects and constructors (PEP 249 §Type Objects)
# ----------------------------------------------------------------------

Date = datetime.date
Time = datetime.time
Timestamp = datetime.datetime


def DateFromTicks(ticks: float) -> datetime.date:
    return Date(*_time.localtime(ticks)[:3])


def TimeFromTicks(ticks: float) -> datetime.time:
    return Time(*_time.localtime(ticks)[3:6])


def TimestampFromTicks(ticks: float) -> datetime.datetime:
    return Timestamp(*_time.localtime(ticks)[:6])


def Binary(data) -> bytes:
    return bytes(data)


class _TypeObject:
    """Equality-group marker for ``description`` type codes."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"<dbapi type {self.name}>"


STRING = _TypeObject("STRING")
BINARY = _TypeObject("BINARY")
NUMBER = _TypeObject("NUMBER")
DATETIME = _TypeObject("DATETIME")
ROWID = _TypeObject("ROWID")


# ----------------------------------------------------------------------
# DSNs — the one-URL entry point
# ----------------------------------------------------------------------

class DSN:
    """A parsed data-source name: where the engine lives.

    ``kind`` is ``"memory"`` (private in-process engine), ``"file"``
    (private durable engine rooted at ``path``), or ``"network"``
    (client of a :class:`repro.server.Server` at ``host:port``).
    """

    __slots__ = ("kind", "path", "host", "port")

    def __init__(self, kind: str, path: Optional[str] = None,
                 host: Optional[str] = None, port: Optional[int] = None):
        self.kind = kind
        self.path = path
        self.host = host
        self.port = port

    def __repr__(self) -> str:
        if self.kind == "file":
            return f"DSN(file:{self.path})"
        if self.kind == "network":
            return f"DSN(repro://{self.host}:{self.port})"
        return "DSN(memory)"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DSN)
                and (self.kind, self.path, self.host, self.port)
                == (other.kind, other.path, other.host, other.port))


def parse_dsn(dsn: Optional[str]) -> DSN:
    """Parse a ``connect()`` DSN string.

    Accepted forms::

        None or ""              → fresh in-memory engine
        "file:/path/to/dir"     → durable engine (WAL + recovery) at dir
        "file:///path/to/dir"   → same, RFC-style triple slash
        "repro://host:port"     → network client (port defaults to 7878)

    Raises :class:`InterfaceError` for anything else: unknown schemes,
    empty file paths, missing/invalid host or port, or URL paths on a
    ``repro://`` DSN.
    """
    if dsn is None or dsn == "":
        return DSN("memory")
    if not isinstance(dsn, str):
        raise InterfaceError(
            f"DSN must be a string (or None), got {type(dsn).__name__}")
    if dsn.startswith("file:"):
        path = dsn[len("file:"):]
        if path.startswith("//"):
            # file://host/path — only an empty or localhost authority
            rest = path[2:]
            slash = rest.find("/")
            authority, rest = (rest[:slash], rest[slash:]) \
                if slash >= 0 else (rest, "")
            if authority not in ("", "localhost"):
                raise InterfaceError(
                    f"file DSN cannot name a remote host {authority!r}")
            path = rest
        if not path:
            raise InterfaceError("file DSN has an empty path")
        return DSN("file", path=path)
    if dsn.startswith("repro://"):
        from repro.server.protocol import DEFAULT_PORT
        rest = dsn[len("repro://"):]
        for sep in ("/", "?", "#"):
            if sep in rest:
                location, extra = rest.split(sep, 1)
                if extra:
                    raise InterfaceError(
                        f"repro:// DSN does not take a path or query "
                        f"({sep}{extra!r})")
                rest = location
        if not rest:
            raise InterfaceError("repro:// DSN has an empty host")
        host, _, port_text = rest.rpartition(":")
        if not host:  # no colon: bare host, default port
            host, port_text = rest, ""
        if not port_text:
            port = DEFAULT_PORT
        else:
            try:
                port = int(port_text)
            except ValueError:
                raise InterfaceError(
                    f"invalid port {port_text!r} in repro:// DSN") from None
            if not 0 < port < 65536:
                raise InterfaceError(
                    f"port {port} out of range in repro:// DSN")
        return DSN("network", host=host, port=port)
    scheme = dsn.split(":", 1)[0]
    raise InterfaceError(
        f"unsupported DSN scheme {scheme!r} (expected nothing, "
        "file:/dir, or repro://host:port)")


# ----------------------------------------------------------------------
# qmark → native positional binds
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _qmark_to_native(sql: str) -> Tuple[str, int]:
    """Rewrite ``?`` placeholders to ``:1, :2, ...``; quote-aware.

    ``?`` inside a ``'...'`` literal or ``"..."`` identifier is left
    alone (a doubled quote is the SQL escape).  Returns the rewritten
    text and the number of placeholders replaced.  A pure function of
    the text, so it is memoized by exact text: an application re-runs
    the same few statement texts with new parameters.
    """
    out: List[str] = []
    count = 0
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            j = i + 1
            while j < n:
                if sql[j] == ch:
                    if j + 1 < n and sql[j + 1] == ch:
                        j += 2
                        continue
                    j += 1
                    break
                j += 1
            out.append(sql[i:j])
            i = j
        elif ch == "?":
            count += 1
            out.append(f":{count}")
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out), count


# ----------------------------------------------------------------------
# cursor
# ----------------------------------------------------------------------

class Cursor:
    """PEP 249 cursor; identical over in-process and network connections."""

    def __init__(self, connection: "Connection"):
        #: the owning connection (PEP 249 optional extension)
        self.connection = connection
        self.arraysize = 1
        self._result: Optional[Any] = None  # native Cursor / _RemoteResult
        self._closed = False

    # -- attributes --------------------------------------------------------

    @property
    def description(self) -> Optional[List[Tuple]]:
        """7-item sequences per result column, or None for non-queries."""
        if self._result is None or self._result.description is None:
            return None
        return [(name, STRING, None, None, None, None, None)
                for name in self._result.description]

    @property
    def rowcount(self) -> int:
        """Rows affected by the last DML (-1 for queries / no statement)."""
        if self._result is None:
            return -1
        return self._result.rowcount

    # -- statement execution ------------------------------------------------

    def execute(self, operation: str,
                parameters: Optional[Sequence[Any]] = None) -> "Cursor":
        """Run one statement; ``?`` placeholders bind ``parameters``."""
        self._check_open()
        sql, placeholders = _qmark_to_native(operation)
        if placeholders and parameters is None:
            raise ProgrammingError(
                f"statement has {placeholders} placeholder(s) "
                "but no parameters were supplied")
        self._close_result()
        self._result = self.connection._execute(
            sql, list(parameters) if parameters is not None else None, self)
        return self

    def executemany(self, operation: str,
                    seq_of_parameters: Sequence[Sequence[Any]]) -> "Cursor":
        """Run ``operation`` once per parameter set (array DML).

        The statement is parsed once; plain ``INSERT ... VALUES``
        batches stream every parameter set through a single maintained
        statement (one index-maintenance flush for the whole batch).
        ``rowcount`` is the exact total across all sets.
        """
        self._check_open()
        sql, placeholders = _qmark_to_native(operation)
        param_sets = [list(parameters) for parameters in seq_of_parameters]
        if placeholders and any(not parameters for parameters in param_sets):
            raise ProgrammingError(
                f"statement has {placeholders} placeholder(s) "
                "but a parameter set was empty")
        self._close_result()
        self._result = self.connection._executemany(sql, param_sets, self)
        return self

    # -- fetching ------------------------------------------------------------

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        """Next row of the result set, or None when exhausted."""
        result = self._require_result()
        try:
            return result.fetchone()
        except _errors.DatabaseError as exc:
            raise _map_error(exc) from exc

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        """Next ``size`` rows (default ``arraysize``)."""
        if size is None:
            size = self.arraysize
        result = self._require_result()
        try:
            return result.fetchmany(size)
        except _errors.DatabaseError as exc:
            raise _map_error(exc) from exc

    def fetchall(self) -> List[Tuple[Any, ...]]:
        """All remaining rows."""
        result = self._require_result()
        try:
            return result.fetchall()
        except _errors.DatabaseError as exc:
            raise _map_error(exc) from exc

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return self

    def __next__(self) -> Tuple[Any, ...]:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- no-ops mandated by PEP 249 -------------------------------------------

    def setinputsizes(self, sizes: Sequence[Any]) -> None:
        """Accepted and ignored (PEP 249 allows this)."""

    def setoutputsize(self, size: int, column: Optional[int] = None) -> None:
        """Accepted and ignored (PEP 249 allows this)."""

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the result set; further use raises InterfaceError."""
        self._close_result()
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- internals ---------------------------------------------------------------

    def _close_result(self) -> None:
        if self._result is not None:
            self._result.close()
            self._result = None

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def _require_result(self) -> Any:
        self._check_open()
        if self._result is None:
            raise InterfaceError("no result set: call execute() first")
        return self._result


# ----------------------------------------------------------------------
# connections
# ----------------------------------------------------------------------

class _BaseConnection:
    """Shared PEP 249 connection surface; transport comes from subclasses."""

    Warning = Warning
    Error = Error
    InterfaceError = InterfaceError
    DatabaseError = DatabaseError
    DataError = DataError
    OperationalError = OperationalError
    IntegrityError = IntegrityError
    InternalError = InternalError
    ProgrammingError = ProgrammingError
    NotSupportedError = NotSupportedError

    def __init__(self) -> None:
        #: live cursors handed out by cursor(); closing the connection
        #: closes them so abandoned domain-index scans release their
        #: server-side state (weak: collected cursors drop out)
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()

    def cursor(self) -> Cursor:
        """Open a new cursor on this connection."""
        self._check_open()
        cursor = Cursor(self)
        self._cursors.add(cursor)
        return cursor

    def execute(self, operation: str,
                parameters: Optional[Sequence[Any]] = None) -> Cursor:
        """Shortcut: ``cursor().execute(...)`` (sqlite3-style extension)."""
        return self.cursor().execute(operation, parameters)

    def _close_cursors(self) -> None:
        for cursor in list(self._cursors):
            try:
                cursor.close()
            except Error:
                pass

    def __enter__(self) -> "_BaseConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # sqlite3-style: commit on clean exit, roll back on exception;
        # the connection stays open for reuse
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    # subclasses provide: commit, rollback, close, _check_open,
    # _execute(sql, binds, cursor), _executemany(sql, param_sets, cursor)


class Connection(_BaseConnection):
    """In-process connection: one session on an (owned or shared) engine."""

    def __init__(self, session: Any):
        super().__init__()
        self._session: Optional[Any] = session
        #: the shared engine — pass to ``connect(engine)`` for more
        #: concurrent connections against the same data
        self.engine: Engine = session.engine

    @property
    def session(self) -> Any:
        """The underlying native :class:`~repro.sql.session.Session`."""
        return self._require_session()

    def commit(self) -> None:
        """Commit the open transaction (no-op when none is open)."""
        session = self._require_session()
        try:
            session.commit()
        except _errors.DatabaseError as exc:
            raise _map_error(exc) from exc

    def rollback(self) -> None:
        """Roll back the open transaction (no-op when none is open)."""
        session = self._require_session()
        try:
            session.rollback()
        except _errors.DatabaseError as exc:
            raise _map_error(exc) from exc

    def close(self) -> None:
        """Close open cursors, roll back, and detach the session.

        Cursors abandoned mid-fetch release their resources here: the
        session closes every statement cursor it still tracks, so any
        open domain-index scan fires ``ODCIIndexClose`` and returns its
        workspace handle before the rollback (§2.5 resource rule).
        """
        session = self._session
        if session is None:
            return
        try:
            self._close_cursors()
            session.close()
        finally:
            self._session = None

    # -- internals -------------------------------------------------------------

    def _require_session(self) -> Any:
        if self._session is None:
            raise InterfaceError("connection is closed")
        return self._session

    def _check_open(self) -> None:
        self._require_session()

    def _begin_if_needed(self) -> None:
        # PEP 249 implicit transactions: the first statement begins one
        session = self._require_session()
        if not session.in_transaction:
            session.begin()

    def _execute(self, sql: str, binds: Optional[List[Any]],
                 cursor: Cursor) -> Any:
        session = self._require_session()
        self._begin_if_needed()
        try:
            return session.execute(sql, binds)
        except _errors.DatabaseError as exc:
            raise _map_error(exc) from exc

    def _executemany(self, sql: str, param_sets: List[List[Any]],
                     cursor: Cursor) -> Any:
        session = self._require_session()
        self._begin_if_needed()
        try:
            return session.executemany(sql, param_sets)
        except _errors.DatabaseError as exc:
            raise _map_error(exc) from exc


class _RemoteResult:
    """Client-side face of one server-side result.

    The ``execute`` reply already carries the first ``arraysize`` rows
    (at least one) and says whether they end the result; a result that
    ends there has no server-side cursor left, so a point read costs
    one round trip.  Later rows arrive in FETCH batches sized by the
    owning DB-API cursor's ``arraysize`` (``fetchone`` never pulls more
    than one batch ahead); ``fetchall`` drains in ``arraysize``-sized
    frames when the user has raised ``arraysize`` above the DB-API
    default of 1, else in large default batches.  ``close()`` releases
    a still-open server-side cursor early so abandoned scans free their
    ODCI state without waiting for the connection to go away.
    """

    _FETCHALL_BATCH = 1024

    def __init__(self, connection: "NetworkConnection",
                 reply: Dict[str, Any], dbapi_cursor: Cursor):
        self._connection = connection
        self._cursor_id: Optional[int] = reply["cursor"]
        self.description: Optional[List[str]] = reply["description"]
        self.rowcount: int = reply["rowcount"]
        self._dbapi_cursor = dbapi_cursor
        self._buffer: "deque[Tuple[Any, ...]]" = deque(reply["rows"])
        self._done: bool = reply["done"]

    def _fetch_batch(self, n: int) -> None:
        try:
            payload = self._connection._roundtrip(
                "fetch", {"cursor": self._cursor_id, "n": n})
        except Error:
            # the server closed its cursor before reporting the error;
            # like an in-process cursor, this one is now exhausted
            self._done = True
            self._cursor_id = None
            raise
        self._buffer.extend(payload["rows"])
        if payload["done"]:
            self._done = True
            self._cursor_id = None

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        buffer = self._buffer
        if not buffer and not self._done:
            self._fetch_batch(max(1, int(self._dbapi_cursor.arraysize)))
        return buffer.popleft() if buffer else None

    def fetchmany(self, size: int) -> List[Tuple[Any, ...]]:
        if size <= 0:
            return []
        buffer = self._buffer
        while len(buffer) < size and not self._done:
            self._fetch_batch(size - len(buffer))
        popleft = buffer.popleft
        return [popleft() for __ in range(min(size, len(buffer)))]

    def fetchall(self) -> List[Tuple[Any, ...]]:
        frame = self._FETCHALL_BATCH
        arraysize = int(self._dbapi_cursor.arraysize)
        if arraysize > 1:  # negotiated frame size; 1 is the DB-API
            frame = arraysize  # default, not a drain preference
        while not self._done:
            self._fetch_batch(frame)
        out = list(self._buffer)
        self._buffer.clear()
        return out

    def close(self) -> None:
        cursor_id, self._cursor_id = self._cursor_id, None
        self._buffer.clear()
        self._done = True
        if cursor_id is not None and not self._connection._closed:
            try:
                self._connection._roundtrip("close_cursor",
                                            {"cursor": cursor_id})
            except Error:
                pass  # connection already broken; server GC handles it


class NetworkConnection(_BaseConnection):
    """Connection to a :class:`repro.server.Server` — same surface,
    different transport.

    One request/response exchange at a time (``threadsafety = 1``); a
    network failure or timeout raises :class:`OperationalError` and
    poisons the connection.
    """

    def __init__(self, host: str, port: int, user: str = "main",
                 timeout: Optional[float] = None,
                 settings: Optional[Dict[str, Any]] = None):
        super().__init__()
        from repro.server.protocol import PROTOCOL_VERSION, MAGIC
        self.host = host
        self.port = port
        self.timeout = timeout
        self._closed = False
        self._sock: Optional[_socket.socket] = None
        try:
            self._sock = _socket.create_connection(
                (host, port), timeout=timeout)
            self._sock.setsockopt(_socket.IPPROTO_TCP,
                                  _socket.TCP_NODELAY, 1)
        except OSError as exc:
            self._closed = True
            raise OperationalError(
                f"cannot connect to repro://{host}:{port}: {exc}") from exc
        welcome = self._roundtrip("hello", {
            "magic": MAGIC,
            "version": PROTOCOL_VERSION,
            "user": user,
            "settings": settings or {},
        })
        #: server-assigned session id (diagnostics)
        self.session_id = welcome.get("session_id")

    # -- transport ---------------------------------------------------------

    def _roundtrip(self, op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request frame out, one response frame back."""
        from repro.server.protocol import (
            ConnectionClosed, ProtocolError, recv_frame, send_frame)
        if self._closed or self._sock is None:
            raise InterfaceError("connection is closed")
        try:
            send_frame(self._sock, op, payload)
            reply_op, reply, _ = recv_frame(self._sock)
        except _socket.timeout as exc:
            self._poison()
            raise OperationalError(
                f"no response from repro://{self.host}:{self.port} "
                f"within {self.timeout}s") from exc
        except (ConnectionClosed, ProtocolError, OSError) as exc:
            self._poison()
            raise OperationalError(
                f"connection to repro://{self.host}:{self.port} "
                f"lost: {exc}") from exc
        if reply_op == "error":
            self._raise_remote(reply)
        return reply

    def _poison(self) -> None:
        self._closed = True
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _raise_remote(self, payload: Dict[str, Any]) -> None:
        """Re-raise a typed error frame as the exact DB-API exception.

        The frame names the PEP 249 class (computed server-side with
        the same repro→DB-API map this module uses in-process) and
        carries the original :mod:`repro.errors` exception, which is
        attached as ``__cause__`` — so ``except IntegrityError`` and
        ``exc.__cause__.__class__`` behave identically to the
        in-process driver.
        """
        from repro.server.protocol import decode_error
        cls = globals().get(payload.get("dbapi", ""), DatabaseError)
        if not (isinstance(cls, type) and issubclass(cls, Error)):
            cls = DatabaseError
        exc = cls(payload.get("message", ""))
        raise exc from decode_error(payload)

    # -- PEP 249 surface ---------------------------------------------------

    def commit(self) -> None:
        """Commit the open transaction on the server."""
        self._roundtrip("commit", {})

    def rollback(self) -> None:
        """Roll back the open transaction on the server."""
        self._roundtrip("rollback", {})

    def close(self) -> None:
        """Close cursors, tell the server goodbye, drop the socket.

        The server tears the session down either way (rollback, cursor
        close, ``ODCIIndexClose`` for abandoned scans) — the goodbye
        frame just makes it synchronous and polite.
        """
        if self._closed:
            return
        try:
            self._close_cursors()
            self._roundtrip("close", {})
        except Error:
            pass
        finally:
            self._poison()

    def server_stats(self) -> Dict[str, Any]:
        """Server statistics snapshot (extension; also available as the
        ``user_server_stats`` dictionary view)."""
        return self._roundtrip("stats", {})["stats"]

    # -- internals ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def _execute(self, sql: str, binds: Optional[List[Any]],
                 cursor: Cursor) -> _RemoteResult:
        reply = self._roundtrip("execute", {
            "sql": sql, "binds": binds,
            "prefetch": max(1, int(cursor.arraysize))})
        return _RemoteResult(self, reply, cursor)

    def _executemany(self, sql: str, param_sets: List[List[Any]],
                     cursor: Cursor) -> _RemoteResult:
        reply = self._roundtrip("executemany", {
            "sql": sql, "binds_seq": param_sets,
            "prefetch": max(1, int(cursor.arraysize))})
        return _RemoteResult(self, reply, cursor)


# ----------------------------------------------------------------------
# connect()
# ----------------------------------------------------------------------

def connect(dsn: Optional[Any] = None, user: str = "main",
            engine: Optional[Engine] = None,
            data_dir: Optional[str] = None,
            timeout: Optional[float] = None,
            settings: Optional[Dict[str, Any]] = None,
            **engine_options: Any) -> _BaseConnection:
    """Open a DB-API connection from one DSN.

    * ``connect()`` — fresh private in-memory :class:`Engine`
      (``engine_options`` such as ``lock_timeout=`` pass through);
    * ``connect("file:/path/to/dir")`` — fresh private durable engine
      (write-ahead log, restart recovery) rooted at the directory;
    * ``connect("repro://host:port")`` — network client of a
      :class:`repro.server.Server`; ``timeout`` bounds the TCP connect
      and every request/response exchange, ``settings`` carries
      session settings (e.g. ``{"lock_timeout": 2.0}``) in the
      handshake;
    * ``connect(some_engine)`` — another concurrent session against an
      in-process engine you already hold, e.g.
      ``dbapi.connect(conn.engine)``.

    .. deprecated:: the ``engine=`` and ``data_dir=`` keyword arguments
       still work but warn: pass the engine positionally / use a
       ``file:`` DSN instead.
    """
    if engine is not None:
        warnings.warn(
            "connect(engine=...) is deprecated; pass the engine as the "
            "first argument: connect(engine)", DeprecationWarning,
            stacklevel=2)
        if dsn is not None:
            raise InterfaceError("pass either a DSN or an engine, not both")
        dsn = engine
    if data_dir is not None:
        warnings.warn(
            "connect(data_dir=...) is deprecated; use a file: DSN: "
            f"connect(\"file:{data_dir}\")", DeprecationWarning,
            stacklevel=2)
        if dsn is not None:
            raise InterfaceError(
                "pass either a DSN or data_dir=, not both")
        dsn = f"file:{data_dir}"

    if isinstance(dsn, Engine):
        if engine_options:
            raise ProgrammingError(
                "engine options are only valid when creating a new engine")
        if timeout is not None or settings is not None:
            raise InterfaceError(
                "timeout/settings only apply to repro:// connections")
        return Connection(dsn.connect(user))

    parsed = parse_dsn(dsn)
    if parsed.kind == "network":
        if engine_options:
            raise InterfaceError(
                "engine options do not apply to repro:// connections; "
                "configure the server, or pass settings={...}")
        return NetworkConnection(parsed.host, parsed.port, user=user,
                                 timeout=timeout, settings=settings)
    if timeout is not None or settings is not None:
        raise InterfaceError(
            "timeout/settings only apply to repro:// connections")
    if parsed.kind == "file":
        new_engine = Engine(data_dir=parsed.path, **engine_options)
    else:
        new_engine = Engine(**engine_options)
    return Connection(new_engine.connect(user))
