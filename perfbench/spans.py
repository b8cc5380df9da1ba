"""Layer spans recorded from outside the program.

The tracer wraps public entry points of the program's layers (class
methods and module functions) for the length of a traced run, records
one span per call, and puts the original attributes back afterwards.
Nothing under ``src/`` knows it is being traced.

Two kinds of span:

* a *call span* is kept in memory with its name, start, end, parent and
  statement id, and written out at the end of the run;
* a *row span* wraps a per-row step (a rowid fetch, one step of an IOT
  scan, one ``fetchone``).  Keeping each of those would cost more memory
  than the run has, so a row span is folded into its nearest call span
  as a count and a time, and still subtracted from its parent's self
  time.

Lazily drained cursors and generators are timed on every step, so rows
produced after the call that made the cursor returned are charged to
the span that drains them, not to the one that opened them.

Self time is a span's duration minus the time its child spans cover.
Each span is charged to one layer (``LAYERS``), with two context rules:
pipeline, planner, executor and DML work run *inside* callback SQL is
charged to ``callbacks``, and everything above storage and the WAL run
inside an array-maintenance call is charged to ``maintenance``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter

#: name prefix -> layer
LAYERS = {
    "dbapi": "dbapi", "server": "server", "pipeline": "pipeline",
    "planner": "planner", "executor": "executor", "odci": "dispatch",
    "callback": "callbacks", "text": "cartridges", "spatial": "cartridges",
    "vir": "cartridges", "chem": "cartridges", "iot": "storage",
    "heap": "storage", "lob": "storage", "locks": "txn", "dml": "dml",
    "maint": "maintenance", "wal": "wal",
}
#: layers charged to the enclosing callback / maintenance context
_CALLBACK_ABSORBS = frozenset(("pipeline", "planner", "executor", "dml"))
_MAINT_ABSORBS = frozenset(("pipeline", "planner", "executor", "dml",
                            "dispatch", "cartridges", "callbacks"))

#: layer groups the acceptance shares are reported for
GROUPS = {
    "domain_path": ("dispatch", "callbacks", "cartridges", "storage"),
    "front_end": ("server", "dbapi", "pipeline", "executor"),
    "write_path": ("dml", "maintenance", "wal"),
}


def layer_of(name: str, ctx: Optional[str]) -> str:
    """The layer a span's self time is charged to."""
    prefix = name.split(".", 1)[0]
    if name.startswith("odci.ODCIStats"):
        base = "planner"
    else:
        base = LAYERS[prefix]
    if ctx == "maint" and base in _MAINT_ABSORBS:
        return "maintenance"
    if ctx == "callback" and base in _CALLBACK_ABSORBS:
        return "callbacks"
    return base


def is_wait(name: str) -> bool:
    """Waiting spans: their self time overlaps work on another thread."""
    return name.endswith("_wait")


class Span:
    __slots__ = ("name", "start", "end", "child", "parent", "stmt", "ctx",
                 "rows", "folded", "kept")


class Tracer:
    """Records spans per thread; :meth:`install` patches the layers."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: one list of kept spans per thread that recorded any
        self.threads: List[List[Span]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: statement id for threads that never set one (pool workers)
        self.default_stmt = 0

    # -- recording -----------------------------------------------------------

    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.spans
        except AttributeError:
            spans: List[Span] = []
            with self._lock:
                self.threads.append(spans)
            tls.stack = [None]
            tls.spans = spans
            tls.stmt = None
            return tls.stack, spans

    def statement(self, stmt_id: int) -> None:
        """Spans recorded from now on this thread belong to ``stmt_id``."""
        self._state()
        self._tls.stmt = stmt_id
        self.default_stmt = stmt_id

    def enter(self, name: str, kept: bool = True) -> Tuple[Span, list]:
        stack, spans = self._state()
        parent = stack[-1]
        span = Span()
        span.name = name
        span.parent = parent
        span.child = 0.0
        span.rows = 0
        span.folded = None
        span.kept = kept
        pctx = parent.ctx if parent is not None else None
        if pctx == "maint":
            span.ctx = pctx
        elif name.startswith("maint."):
            span.ctx = "maint"
        elif name.startswith("callback."):
            span.ctx = "callback"
        else:
            span.ctx = pctx
        stmt = self._tls.stmt
        span.stmt = self.default_stmt if stmt is None else stmt
        if kept:
            spans.append(span)
        stack.append(span)
        span.start = _now()
        return span, stack

    @staticmethod
    def leave(span: Span, stack: list) -> None:
        end = _now()
        span.end = end
        stack.pop()
        duration = end - span.start
        parent = stack[-1]
        if parent is not None:
            parent.child += duration
        if span.kept:
            return
        owner = parent
        while owner is not None and not owner.kept:
            owner = owner.parent
        if owner is None:
            return
        if owner.folded is None:
            owner.folded = {}
        entry = owner.folded.get(span.name)
        if entry is None:
            owner.folded[span.name] = [1, duration - span.child, duration,
                                       span.rows]
        else:
            entry[0] += 1
            entry[1] += duration - span.child
            entry[2] += duration
            entry[3] += span.rows

    # -- wrapping ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def call_span(self, owner: Any, attr: str, name: Any,
                  kept: bool = True, rows: bool = False) -> None:
        """Time every call of ``owner.attr``; ``name`` may be a function
        of the call's arguments.  ``rows`` counts rows in the result."""
        enter, leave = self.enter, self.leave
        fixed = name if isinstance(name, str) else None

        def make(fn):
            def wrapper(*args, **kwargs):
                span, stack = enter(fixed or name(args), kept)
                try:
                    result = fn(*args, **kwargs)
                    if rows:
                        span.rows = (1 if result is not None else 0) \
                            if not isinstance(result, list) else len(result)
                    return result
                finally:
                    leave(span, stack)
            return wrapper
        self.patch(owner, attr, make)

    def gen_span(self, owner: Any, attr: str, name: str) -> None:
        """Time every step of the iterator ``owner.attr`` returns."""
        enter, leave = self.enter, self.leave

        def steps(it: Iterator[Any]) -> Iterator[Any]:
            try:
                while True:
                    span, stack = enter(name, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(span, stack)
                    span.rows = len(item) if isinstance(item, list) else 1
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        def make(fn):
            def wrapper(*args, **kwargs):
                return steps(iter(fn(*args, **kwargs)))
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        """Put back every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the layer entry points ---------------------------------------------

    def install(self) -> None:
        """Wrap the entry points of every layer the benchmark reports."""
        from repro import dbapi
        from repro.cartridges.chemistry.indextype import ChemIndexMethods
        from repro.cartridges.spatial.indextype import SpatialIndexMethods
        from repro.cartridges.text.indextype import TextIndexMethods
        from repro.cartridges.vir.indextype import VirIndexMethods
        from repro.core.callbacks import CallbackSession
        from repro.core.dispatch import CallbackDispatcher
        from repro.server import protocol
        from repro.sql.cursor import Cursor
        from repro.sql.dml import DMLEngine
        from repro.sql.parallel import PrefetchPipeline
        from repro.sql.pipeline import StatementPipeline
        from repro.sql.planner import Planner
        from repro.storage.durability import DurabilityManager
        from repro.storage.heap import HeapTable
        from repro.storage.iot import IndexOrganizedTable
        from repro.storage.lob import LobManager
        from repro.storage.wal import LogDevice, LogWriter, WriteAheadLog
        from repro.txn.locks import LockManager

        span, gen = self.call_span, self.gen_span
        # dbapi: the application's calls
        for attr in ("execute", "executemany"):
            span(dbapi.Cursor, attr, "dbapi." + attr)
        for attr in ("fetchone", "fetchmany", "fetchall"):
            span(dbapi.Cursor, attr, "dbapi.fetch")
        for cls in (dbapi.Connection, dbapi.NetworkConnection):
            span(cls, "commit", "dbapi.commit")
        # server, client side: one round trip and its two frames
        span(dbapi.NetworkConnection, "_roundtrip", "server.roundtrip")
        span(protocol, "send_frame", "server.send_frame")
        span(protocol, "recv_frame", "server.recv_frame")
        # sql.pipeline / planner
        for attr in ("execute", "executemany", "parse", "plan"):
            span(StatementPipeline, attr, "pipeline." + attr)
        span(Planner, "plan_select", "planner.plan_select")
        # core.dispatch, keyed by routine
        span(CallbackDispatcher, "call", _routine_name("odci."))
        span(CallbackDispatcher, "call_batch", _routine_name("maint."))
        span(CallbackDispatcher, "call_from_worker",
             lambda args: "odci.worker." + args[2])
        # core.callbacks: SQL, its lazy drain, rowid reads, bulk DML
        tracer = self

        def make_execute(fn):
            def wrapper(session, sql, params=None):
                kind = "callback.sql" if sql.lstrip()[:6].upper() in (
                    "SELECT", "EXPLAI") else "callback.dml"
                s, stack = tracer.enter(kind)
                try:
                    cursor = fn(session, sql, params)
                    cursor._perfbench_callback = True
                    return cursor
                finally:
                    tracer.leave(s, stack)
            return wrapper
        self.patch(CallbackSession, "execute", make_execute)
        span(CallbackSession, "fetch_row", "callback.fetch_row", kept=False)
        span(CallbackSession, "fetch_value", "callback.fetch_value",
             kept=False)
        for attr in ("insert_row", "insert_rows", "direct_load"):
            span(CallbackSession, attr, "callback.dml")
        # sql.executor: statement cursors are drained lazily
        drain = _drain_name
        span(Cursor, "fetchone", drain, kept=False, rows=True)
        span(Cursor, "fetchmany", drain, rows=True)
        span(Cursor, "fetchall", drain, rows=True)
        span(Cursor, "close", "executor.close")
        gen(PrefetchPipeline, "__iter__", "executor.prefetch_wait")
        # cartridges: every ODCIIndex routine of the four case studies
        for prefix, cls in (("text", TextIndexMethods),
                            ("spatial", SpatialIndexMethods),
                            ("vir", VirIndexMethods),
                            ("chem", ChemIndexMethods)):
            for attr in sorted(cls.__dict__):
                if attr.startswith("index_"):
                    span(cls, attr, f"{prefix}.{attr}")
        # storage
        for attr in ("scan", "key_range_scan", "key_prefix_scan"):
            gen(IndexOrganizedTable, attr, "iot.scan")
        span(HeapTable, "fetch_or_none", "heap.fetch", kept=False)
        for attr in ("scan_batches", "scan_batches_columnar"):
            gen(HeapTable, attr, "heap.scan")
        span(LobManager, "read_range", "lob.read", kept=False)
        span(LobManager, "write_range", "lob.write", kept=False)
        # txn
        span(LockManager, "acquire", "locks.acquire", kept=False)
        # sql.dml
        for attr in ("execute_insert", "execute_insert_many",
                     "execute_update", "execute_delete"):
            span(DMLEngine, attr, "dml." + attr[len("execute_"):])
        # storage.wal / durability
        span(WriteAheadLog, "append", "wal.append", kept=False)
        span(WriteAheadLog, "commit_flush", "wal.commit_flush")
        span(LogWriter, "commit_wait", "wal.commit_wait")
        span(LogDevice, "fsync", "wal.fsync")
        span(DurabilityManager, "checkpoint", "wal.checkpoint")

    def install_server_side(self) -> None:
        """Extra spans for the process that serves ``repro://``."""
        from repro.server import server
        self.call_span(server._Handler, "_dispatch",
                       lambda args: "server.request." + args[1])
        self.call_span(server, "send_frame", "server.reply_frame")

    # -- results -------------------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return [s for spans in self.threads for s in spans]

    def summary(self) -> Dict[str, List[float]]:
        """Per ``name|ctx``: [count, inclusive s, self s, rows, max s].

        Row spans folded into a call span appear under their own name
        with the call span's context.
        """
        out: Dict[str, List[float]] = {}
        for s in self.spans():
            if not hasattr(s, "end"):
                continue  # still open (cut by the end of the run)
            duration = s.end - s.start
            _add(out, f"{s.name}|{s.ctx or ''}", 1, duration,
                 duration - s.child, s.rows, duration)
            for name, (count, self_s, total, rows) in (s.folded or {}).items():
                _add(out, f"{name}|{s.ctx or ''}", count, total, self_s,
                     rows, 0.0)
        return out

    def dump(self, path: str) -> int:
        """Write every kept span as one JSON line; returns the count."""
        spans = self.spans()
        ids = {id(s): i for i, s in enumerate(spans)}
        with open(path, "w") as handle:
            for i, s in enumerate(spans):
                if not hasattr(s, "end"):
                    continue
                parent = s.parent
                while parent is not None and not parent.kept:
                    parent = parent.parent
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "self": s.end - s.start - s.child,
                    "parent": ids.get(id(parent)) if parent else None,
                    "stmt": s.stmt, "ctx": s.ctx, "rows": s.rows,
                    "folded": s.folded}) + "\n")
        return len(spans)


def _add(out, key, count, incl, self_s, rows, peak) -> None:
    entry = out.get(key)
    if entry is None:
        out[key] = [count, incl, self_s, rows, peak]
    else:
        entry[0] += count
        entry[1] += incl
        entry[2] += self_s
        entry[3] += rows
        entry[4] = max(entry[4], peak)


def _routine_name(prefix: str) -> Callable[[tuple], str]:
    names: Dict[str, str] = {}

    def name(args: tuple) -> str:
        routine = args[1]
        try:
            return names[routine]
        except KeyError:
            return names.setdefault(routine, prefix + routine)
    return name


def _drain_name(args: tuple) -> str:
    return "callback.drain" if getattr(args[0], "_perfbench_callback",
                                       False) else "executor.drain"


def merge(into: Dict[str, List[float]], other: Dict[str, List[float]]) -> None:
    for key, (count, incl, self_s, rows, peak) in other.items():
        _add(into, key, count, incl, self_s, rows, peak)


def layer_times(summary: Dict[str, List[float]]) -> Dict[str, float]:
    """Busy self seconds per layer (waits excluded) plus ``wait``."""
    out: Dict[str, float] = {}
    for key, entry in summary.items():
        name, ctx = key.split("|", 1)
        layer = "wait" if is_wait(name) else layer_of(name, ctx or None)
        out[layer] = out.get(layer, 0.0) + entry[2]
    return out


def select(summary: Dict[str, List[float]], prefix: str = "",
           ctx: Optional[str] = "*", exact: Optional[str] = None
           ) -> List[float]:
    """Sum [count, incl, self, rows, max] over matching ``name|ctx`` keys.

    ``ctx="*"`` matches any context, ``None`` only spans outside any
    callback or maintenance context.
    """
    total = [0, 0.0, 0.0, 0, 0.0]
    for key, entry in summary.items():
        name, kctx = key.split("|", 1)
        if exact is not None and name != exact:
            continue
        if not name.startswith(prefix):
            continue
        if ctx != "*" and (kctx or None) != ctx:
            continue
        total[0] += entry[0]
        total[1] += entry[1]
        total[2] += entry[2]
        total[3] += entry[3]
        total[4] = max(total[4], entry[4])
    return total
