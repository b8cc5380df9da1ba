"""Morsel-driven parallel execution and async ODCI prefetch.

The extensible-indexing contract hides scan internals behind
``ODCIIndexStart/Fetch/Close`` (§2.2.3), which means the kernel — not
the cartridge — owns intra-query parallelism.  This module is that
kernel layer:

* :class:`WorkerPool` — one lazily-started pool of daemon threads per
  :class:`~repro.sql.engine.Engine`, shared by every session.
* :func:`run_morsels` — an order-preserving **exchange**: page-range
  morsels of a heap full scan run concurrently on the pool, and the
  consumer re-emits their results in morsel order with a bounded
  in-flight window (closing the consumer cancels unissued morsels).
* :func:`merge_sorted_runs` — the merge exchange feeding ORDER BY:
  per-morsel sorted runs are merged with a k-way heap instead of
  re-sorting the concatenation.
* :class:`PrefetchPipeline` — bounded-depth async ODCI prefetch: a
  single producer task issues the *next* ``ODCIIndexFetch`` through the
  ``CallbackDispatcher`` while the executor filters/projects the
  previous batch.  Fetches on one scan context stay strictly
  sequential (the protocol is stateful); only the overlap with
  downstream work is concurrent.
* :func:`compile_row_predicate` — re-lowers a scan filter to a closure
  over the *raw storage row* (``fn(row, binds)``), skipping
  ``RowContext`` construction for rows the filter rejects.  On
  GIL-constrained builds this fused kernel — not thread scaling — is
  where the parallel scan's speedup comes from; on free-threaded
  builds the morsels additionally scale across cores.

Error and cancellation contract (shared by both exchanges): a worker
exception is re-raised in the consumer *in stream order* — after every
batch that precedes it — so the dispatcher's fault taxonomy and the
pipeline's degrade-and-retry observe exactly the serial semantics.
Closing a consumer generator cancels outstanding work and never leaks
a worker.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sql import ast_nodes as ast
from repro.sql.compile import CannotCompile, ExprCompiler
from repro.types.values import NULL, _like_regex, is_null

__all__ = ["WorkerPool", "ParallelStats", "plan_morsels", "run_morsels",
           "merge_sorted_runs", "PrefetchPipeline", "compile_row_predicate",
           "compile_row_kernel"]


class WorkerPool:
    """A shared pool of daemon worker threads with a FIFO task queue.

    Threads start lazily (first submit) and are marked with a
    thread-local flag so executors can detect they are *already* on a
    pool worker and refuse to parallelize — a producer waiting on a
    nested producer from the same bounded pool is a deadlock, so
    callback SQL run by a cartridge during a parallel scan always
    executes serially.
    """

    def __init__(self, size: int = 8, name: str = "repro-parallel"):
        self.size = max(1, size)
        self._name = name
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._threads: List[threading.Thread] = []
        self._idle = 0
        self._shutdown = False
        self._tls = threading.local()

    def submit(self, task: Callable[[], None]) -> None:
        """Queue ``task`` for execution; spawns a thread if all are busy."""
        with self._cond:
            if self._shutdown:
                raise RuntimeError("worker pool is shut down")
            self._queue.append(task)
            if self._idle == 0 and len(self._threads) < self.size:
                thread = threading.Thread(
                    target=self._run,
                    name=f"{self._name}-{len(self._threads)}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
            else:
                self._cond.notify()

    def on_worker(self) -> bool:
        """True when the calling thread is one of this pool's workers."""
        return getattr(self._tls, "on_worker", False)

    def shutdown(self) -> None:
        """Stop accepting tasks, drain nothing, join the workers."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            self._queue.clear()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    @property
    def started_threads(self) -> int:
        with self._cond:
            return len(self._threads)

    def _run(self) -> None:
        self._tls.on_worker = True
        while True:
            with self._cond:
                while not self._queue and not self._shutdown:
                    self._idle += 1
                    self._cond.wait()
                    self._idle -= 1
                if self._shutdown:
                    return
                task = self._queue.popleft()
            try:
                task()
            except BaseException:  # noqa: BLE001 — tasks report their own
                pass               # errors; a worker must never die
            # drop the finished task before waiting again: a morsel task
            # closes over its scan's MVCC snapshot, and an idle worker
            # still holding it would pin the low-water mark (no version
            # chain could be pruned until the worker ran another task)
            task = None


class ParallelStats:
    """Engine-wide counters behind the ``user_parallel_stats`` view."""

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self.parallel_queries = 0
        self.morsels_dispatched = 0
        self.morsel_rows = 0
        self.worker_busy_seconds = 0.0
        self.exchange_wait_seconds = 0.0
        self.prefetch_scans = 0
        self.prefetch_batches = 0
        self.prefetch_abandoned = 0
        #: queue occupancy observed as each prefetched batch arrives
        self.prefetch_depth_histogram: Dict[int, int] = {}
        self.pool_size = 0
        self._first_activity: Optional[float] = None

    def record_query(self, dop: int) -> None:
        with self._latch:
            self.parallel_queries += 1
            if self._first_activity is None:
                self._first_activity = time.monotonic()

    def record_morsel(self, rows: int, busy_seconds: float) -> None:
        with self._latch:
            self.morsels_dispatched += 1
            self.morsel_rows += rows
            self.worker_busy_seconds += busy_seconds

    def record_exchange_wait(self, seconds: float) -> None:
        with self._latch:
            self.exchange_wait_seconds += seconds

    def record_prefetch_scan(self) -> None:
        with self._latch:
            self.prefetch_scans += 1
            if self._first_activity is None:
                self._first_activity = time.monotonic()

    def record_prefetch_batch(self, occupancy: int,
                              busy_seconds: float) -> None:
        with self._latch:
            self.prefetch_batches += 1
            self.worker_busy_seconds += busy_seconds
            bucket = self.prefetch_depth_histogram
            bucket[occupancy] = bucket.get(occupancy, 0) + 1

    def record_prefetch_abandoned(self, batches: int) -> None:
        with self._latch:
            self.prefetch_abandoned += batches

    def utilization(self) -> float:
        """Worker busy time over pool wall-clock capacity since the
        first parallel activity (0.0 when nothing ran yet)."""
        with self._latch:
            if self._first_activity is None or self.pool_size <= 0:
                return 0.0
            wall = time.monotonic() - self._first_activity
            if wall <= 0.0:
                return 0.0
            return min(1.0, self.worker_busy_seconds
                       / (wall * self.pool_size))

    def snapshot(self) -> Dict[str, Any]:
        with self._latch:
            return {
                "parallel_queries": self.parallel_queries,
                "morsels_dispatched": self.morsels_dispatched,
                "morsel_rows": self.morsel_rows,
                "worker_busy_seconds": self.worker_busy_seconds,
                "exchange_wait_seconds": self.exchange_wait_seconds,
                "prefetch_scans": self.prefetch_scans,
                "prefetch_batches": self.prefetch_batches,
                "prefetch_abandoned": self.prefetch_abandoned,
                "depth_histogram": dict(sorted(
                    self.prefetch_depth_histogram.items())),
                "pool_size": self.pool_size,
            }


# ---------------------------------------------------------------------------
# Morsel exchange (heap full scans)
# ---------------------------------------------------------------------------

def plan_morsels(page_count: int, dop: int,
                 per_worker: int = 2) -> List[Tuple[int, int]]:
    """Split ``page_count`` pages into ~``dop * per_worker`` contiguous
    page ranges.  More morsels than workers keeps the pool busy when
    morsels finish unevenly (work stealing by queue order)."""
    if page_count <= 0 or dop <= 0:
        return []
    target = min(page_count, max(1, dop * per_worker))
    per = -(-page_count // target)  # ceil
    return [(start, min(start + per, page_count))
            for start in range(0, page_count, per)]


def run_morsels(pool: WorkerPool,
                kernel: Callable[[int, int], List[Any]],
                morsels: List[Tuple[int, int]],
                dop: int,
                stats: Optional[ParallelStats] = None
                ) -> Iterator[List[Any]]:
    """Order-preserving exchange: run ``kernel(start, stop)`` for each
    morsel on the pool, yield the non-empty results in morsel order.

    At most ``dop + 1`` morsels are in flight; the next is submitted
    only as results are consumed, so an abandoned consumer (LIMIT,
    closed cursor) strands no more than the window.  A kernel exception
    is re-raised here after every earlier morsel's batch was yielded.
    """
    if not morsels:
        return
    cond = threading.Condition()
    results: Dict[int, Optional[List[Any]]] = {}
    state = {"error": None, "cancelled": False}
    issued = 0

    def submit_next() -> None:
        nonlocal issued
        seq = issued
        start, stop = morsels[seq]
        issued += 1

        def task() -> None:
            if state["cancelled"]:
                with cond:
                    results[seq] = None
                    cond.notify_all()
                return
            began = time.perf_counter()
            try:
                out = kernel(start, stop)
            except BaseException as exc:  # noqa: BLE001 — re-raised in consumer
                with cond:
                    if state["error"] is None:
                        state["error"] = exc
                    results[seq] = None
                    cond.notify_all()
                return
            if stats is not None:
                stats.record_morsel(len(out), time.perf_counter() - began)
            with cond:
                results[seq] = out
                cond.notify_all()

        pool.submit(task)

    window = max(2, dop + 1)
    try:
        while issued < len(morsels) and issued < window:
            submit_next()
        for seq in range(len(morsels)):
            waited = time.perf_counter()
            with cond:
                while seq not in results and state["error"] is None:
                    cond.wait()
                if state["error"] is not None:
                    raise state["error"]
                out = results.pop(seq)
            if stats is not None:
                stats.record_exchange_wait(time.perf_counter() - waited)
            if issued < len(morsels):
                submit_next()
            if out:
                yield out
    finally:
        with cond:
            state["cancelled"] = True
            cond.notify_all()


def merge_sorted_runs(runs: List[List[Any]],
                      key: Callable[[Any], Any]) -> Iterator[Any]:
    """K-way merge of per-morsel sorted runs (the merge exchange)."""
    return heapq.merge(*runs, key=key)


# ---------------------------------------------------------------------------
# Async ODCI prefetch
# ---------------------------------------------------------------------------

class PrefetchPipeline:
    """Bounded-depth async pipeline over a stateful ODCI fetch loop.

    One producer task runs on the worker pool and issues
    ``fetch() -> FetchResult`` calls *sequentially* (ODCIIndexFetch on
    one scan context is stateful — concurrency here would be a protocol
    violation), parking whenever ``depth`` results are already
    buffered.  The consumer iterates results in fetch order; a fetch
    exception is delivered after every result buffered before it, so
    fault ordering matches the serial loop exactly.

    :meth:`close` is mandatory (the executor calls it in a ``finally``):
    it cancels the producer, waits out any in-flight fetch, and only
    then returns — which is what lets the caller run ``ODCIIndexClose``
    exactly once with no fetch still racing it.
    """

    def __init__(self, pool: WorkerPool, depth: int,
                 fetch: Callable[[], Any],
                 stats: Optional[ParallelStats] = None):
        self.depth = max(1, depth)
        self._cond = threading.Condition()
        self._buffer: deque = deque()
        self._error: Optional[BaseException] = None
        self._producer_done = False
        self._closed = False
        self._finished = threading.Event()
        self._stats = stats
        if stats is not None:
            stats.record_prefetch_scan()
        pool.submit(lambda: self._produce(fetch))

    def _produce(self, fetch: Callable[[], Any]) -> None:
        try:
            while True:
                with self._cond:
                    while len(self._buffer) >= self.depth \
                            and not self._closed:
                        self._cond.wait()
                    if self._closed:
                        return
                began = time.perf_counter()
                try:
                    result = fetch()
                except BaseException as exc:  # noqa: BLE001 — delivered in order
                    with self._cond:
                        self._error = exc
                        self._cond.notify_all()
                    return
                busy = time.perf_counter() - began
                with self._cond:
                    self._buffer.append(result)
                    if self._stats is not None:
                        self._stats.record_prefetch_batch(
                            len(self._buffer), busy)
                    self._cond.notify_all()
                if result.done or not result.rowids:
                    return
        finally:
            with self._cond:
                self._producer_done = True
                self._cond.notify_all()
            self._finished.set()

    def __iter__(self) -> Iterator[Any]:
        while True:
            waited = time.perf_counter()
            with self._cond:
                while not self._buffer and self._error is None \
                        and not self._producer_done:
                    self._cond.wait()
                if self._buffer:
                    result = self._buffer.popleft()
                    self._cond.notify_all()
                elif self._error is not None:
                    error, self._error = self._error, None
                    raise error
                else:
                    return
            if self._stats is not None:
                self._stats.record_exchange_wait(
                    time.perf_counter() - waited)
            yield result

    def close(self) -> None:
        """Cancel the producer and wait until no fetch is in flight.

        Buffered-but-unconsumed batches are abandoned (counted in
        stats); after close() returns the scan context is quiescent and
        safe to ODCIIndexClose."""
        with self._cond:
            self._closed = True
            abandoned = len(self._buffer)
            self._buffer.clear()
            self._cond.notify_all()
        self._finished.wait(timeout=60.0)
        if self._stats is not None and abandoned:
            self._stats.record_prefetch_abandoned(abandoned)


# ---------------------------------------------------------------------------
# Fused row kernels
# ---------------------------------------------------------------------------

class _RowPredicateCompiler(ExprCompiler):
    """Re-lowers a single-table scan filter to ``fn(row, binds)``.

    Identical to :class:`ExprCompiler` except the column leaf indexes
    the raw storage row directly instead of going through a
    ``RowContext`` — so the morsel kernel can reject rows *before*
    paying context construction.  Anything a raw row cannot answer
    (the ``rowid`` pseudo-column, object attribute paths, foreign
    bindings) declines, and the scan falls back to the context-based
    closure.
    """

    def __init__(self, catalog: Any, binding: str, table: Any):
        super().__init__(catalog)
        self._binding = binding
        self._positions = {col.name.lower(): i
                           for i, col in enumerate(table.columns)}

    def _column(self, ref: ast.ColumnRef):
        if not ref.bound or ref.attr_path:
            raise CannotCompile("row kernel: context-only column form")
        if ref.alias != self._binding:
            raise CannotCompile("row kernel: foreign binding")
        index = self._positions.get(ref.column)
        if index is None:  # rowid pseudo-column (not in the raw row)
            raise CannotCompile("row kernel: pseudo-column")
        return lambda row, binds: row[index]


def compile_row_predicate(predicate: Optional[ast.Expr], catalog: Any,
                          binding: str, table: Any
                          ) -> Optional[Callable[[List[Any], Dict], Any]]:
    """Compile a scan filter into a raw-row closure, or None."""
    if predicate is None:
        return None
    compiler = _RowPredicateCompiler(catalog, binding, table)
    return compiler.compile_predicate(predicate)


# ---------------------------------------------------------------------------
# Generated row kernels (single-expression predicates)
# ---------------------------------------------------------------------------
#
# The closure tree a scan filter compiles to costs ~15 Python calls per
# row; at morsel row rates that call overhead *is* the scan.  For the
# common predicate subset (comparisons, AND/OR/NOT, BETWEEN, LIKE,
# IN-lists, arithmetic over columns/binds/literals) we instead generate
# the whole predicate as ONE Python expression over the raw storage row
# and eval-compile it, so the per-row cost is inline bytecode.
#
# Correctness contract: the kernel answers boolean *truth position*
# only ("does this row pass?"), so SQL's three-valued logic lowers to
# two dual emitters — T(e) is True iff e is TRUE, F(e) is True iff e is
# FALSE — with NULL falling out of both (NOT flips T and F, so Kleene
# NOT needs no third value).  Bind values are inspected once per
# execution by the generated *factory*: a NULL or bool bind (whose
# comparison semantics diverge from Python's) declines, falling back to
# the closure tree.  Any exception the generated kernel raises makes
# the executor re-run that morsel on the closure tree, which reproduces
# the exact serial error (TypeMismatchError, division by zero, ...) —
# so the fast path never has to replicate error taxonomy, only the
# accept/reject decision on well-typed rows.

_PY_RELOP = {"=": "==", "!=": "!=", "<": "<", "<=": "<=",
             ">": ">", ">=": ">="}
_INV_RELOP = {"=": "!=", "!=": "==", "<": ">=", "<=": ">",
              ">": "<=", ">=": "<"}


class _Val:
    """An emitted value expression: code + what we statically know."""

    __slots__ = ("code", "notnull", "maybe_nullv")

    def __init__(self, code: str, notnull: bool, maybe_nullv: bool):
        self.code = code
        self.notnull = notnull        # guaranteed non-NULL at runtime
        self.maybe_nullv = maybe_nullv  # may be the NULL singleton (vs None)


class _RowKernelCodegen:
    """Emits the kernel factory source for one scan predicate."""

    def __init__(self, binding: str, table: Any):
        self._binding = binding
        self._positions = {col.name.lower(): i
                           for i, col in enumerate(table.columns)}
        self._temps = 0
        self.env: Dict[str, Any] = {}
        #: bind locals: key -> (local name, needs_pattern_regex)
        self._binds: Dict[str, List[Any]] = {}

    # -- helpers ---------------------------------------------------------

    def _temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def _const(self, value: Any) -> str:
        if isinstance(value, (int, float, str)) \
                and not isinstance(value, bool):
            return repr(value)
        name = f"c{len(self.env)}"
        self.env[name] = value
        return name

    def _guarded(self, val: _Val) -> Tuple[str, List[str]]:
        """Usable expression + null-guard conditions (walrus-bound)."""
        if val.notnull:
            return val.code, []
        t = self._temp()
        conds = [f"({t} := {val.code}) is not None"]
        if val.maybe_nullv:
            conds.append(f"{t} is not _NULLV")
        return t, conds

    # -- value position --------------------------------------------------

    def value(self, expr: ast.Expr) -> _Val:
        if isinstance(expr, ast.Literal):
            if expr.value is None or expr.value.__class__.__name__ == "Null":
                return _Val("None", notnull=False, maybe_nullv=False)
            return _Val(self._const(expr.value), notnull=True,
                        maybe_nullv=False)
        if isinstance(expr, ast.BindParam):
            return _Val(self._bind_local(expr, pattern=False),
                        notnull=True, maybe_nullv=False)
        if isinstance(expr, ast.ColumnRef):
            if not expr.bound or expr.attr_path:
                raise CannotCompile("row kernel: context-only column form")
            if expr.alias != self._binding:
                raise CannotCompile("row kernel: foreign binding")
            index = self._positions.get(expr.column)
            if index is None:
                return self._pseudo_column(expr)
            return self._column_expr(index)
        if isinstance(expr, ast.UnaryMinus):
            operand = self.value(expr.operand)
            if operand.notnull:
                return _Val(f"(-{operand.code})", True, False)
            oe, conds = self._guarded(operand)
            return _Val(f"((-{oe}) if {' and '.join(conds)} else None)",
                        False, False)
        if isinstance(expr, ast.BinaryOp) and expr.op in "+-*/":
            left = self.value(expr.left)
            right = self.value(expr.right)
            if left.notnull and right.notnull:
                return _Val(f"({left.code} {expr.op} {right.code})",
                            True, False)
            le, lconds = self._guarded(left)
            re_, rconds = self._guarded(right)
            conds = " and ".join(lconds + rconds)
            return _Val(f"(({le} {expr.op} {re_}) if {conds} else None)",
                        False, False)
        raise CannotCompile(f"row kernel value: {type(expr).__name__}")

    # Column-leaf hooks: the vector-kernel codegen (sql/compile.py)
    # subclasses these to index column vectors instead of row tuples.

    def _column_expr(self, index: int) -> _Val:
        return _Val(f"r[{index}]", notnull=False, maybe_nullv=True)

    def _pseudo_column(self, expr: ast.ColumnRef) -> _Val:
        raise CannotCompile("row kernel: pseudo-column")

    def _bind_local(self, expr: ast.BindParam, pattern: bool) -> str:
        key = expr.name.lower()
        entry = self._binds.get(key)
        if entry is None:
            entry = [f"b{len(self._binds)}", False]
            self._binds[key] = entry
        if pattern:
            entry[1] = True
            return f"rx_{entry[0]}"
        return entry[0]

    # -- boolean position: T(e) / F(e) dual emitters ---------------------

    def truth(self, expr: ast.Expr) -> str:
        return self._bool_emit(expr, want_true=True)

    def falsity(self, expr: ast.Expr) -> str:
        return self._bool_emit(expr, want_true=False)

    def _bool_emit(self, expr: ast.Expr, want_true: bool) -> str:
        if isinstance(expr, ast.BoolOp):
            left = self._bool_emit(expr.left, want_true)
            right = self._bool_emit(expr.right, want_true)
            # T(AND)=T∧T, F(AND)=F∨F (false dominates); OR is the dual
            joiner = " and " if (expr.op == "AND") == want_true else " or "
            return f"({left}{joiner}{right})"
        if isinstance(expr, ast.NotOp):
            return self._bool_emit(expr.operand, not want_true)
        if isinstance(expr, ast.BinaryOp):
            op = _PY_RELOP.get(expr.op)
            if op is None:
                raise CannotCompile(f"row kernel bool: {expr.op!r}")
            if not want_true:
                op = _INV_RELOP[expr.op]
            le, lconds = self._guarded(self.value(expr.left))
            re_, rconds = self._guarded(self.value(expr.right))
            conds = lconds + rconds + [f"{le} {op} {re_}"]
            return f"({' and '.join(conds)})"
        if isinstance(expr, ast.IsNullOp):
            val = self.value(expr.operand)
            # IS [NOT] NULL is two-valued, so F(e) is just T(not e)
            is_null_wanted = (not expr.negated) == want_true
            if val.notnull:
                return "(True)" if not is_null_wanted else "(False)"
            t = self._temp()
            if is_null_wanted:
                return (f"(({t} := {val.code}) is None"
                        f" or {t} is _NULLV)")
            return (f"(({t} := {val.code}) is not None"
                    f" and {t} is not _NULLV)")
        if isinstance(expr, ast.LikeOp):
            return self._like(expr, want_true)
        if isinstance(expr, ast.BetweenOp):
            matched = (not expr.negated) == want_true
            return self._between(expr, matched)
        if isinstance(expr, ast.InListOp):
            matched = (not expr.negated) == want_true
            return self._in_list(expr, matched)
        if isinstance(expr, ast.Literal):
            value = expr.value
            if value is None or is_null(value):
                return "(False)"  # NULL is neither TRUE nor FALSE
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                truth = value != 0
            else:
                truth = bool(value)
            return f"({truth == want_true})"
        raise CannotCompile(f"row kernel bool: {type(expr).__name__}")

    def _like(self, expr: ast.LikeOp, want_true: bool) -> str:
        if isinstance(expr.pattern, ast.Literal) \
                and isinstance(expr.pattern.value, str):
            rx = f"rx{len(self.env)}"
            self.env[rx] = _like_regex(expr.pattern.value)
        elif isinstance(expr.pattern, ast.BindParam):
            rx = self._bind_local(expr.pattern, pattern=True)
        else:
            raise CannotCompile("row kernel: computed LIKE pattern")
        ve, conds = self._guarded(self.value(expr.operand))
        # matched iff fullmatch; NOT LIKE / falsity flip the test while
        # NULL operands still fail the guards (neither TRUE nor FALSE)
        test = "is not None" if (not expr.negated) == want_true else "is None"
        conds = conds + [f"{rx}.fullmatch({ve}) {test}"]
        return f"({' and '.join(conds)})"

    def _between(self, expr: ast.BetweenOp, matched: bool) -> str:
        if matched:  # v >= low AND v <= high, both TRUE
            ve, vconds = self._guarded(self.value(expr.operand))
            le, lconds = self._guarded(self.value(expr.low))
            he, hconds = self._guarded(self.value(expr.high))
            conds = (vconds + lconds + [f"{ve} >= {le}"]
                     + hconds + [f"{ve} <= {he}"])
            return f"({' and '.join(conds)})"
        # FALSE iff either comparison is definitely false (Kleene AND);
        # each disjunct re-guards its operands with fresh temps
        ve, vconds = self._guarded(self.value(expr.operand))
        le, lconds = self._guarded(self.value(expr.low))
        below = " and ".join(vconds + lconds + [f"{ve} < {le}"])
        ve2, vconds2 = self._guarded(self.value(expr.operand))
        he, hconds = self._guarded(self.value(expr.high))
        above = " and ".join(vconds2 + hconds + [f"{ve2} > {he}"])
        return f"(({below}) or ({above}))"

    def _in_list(self, expr: ast.InListOp, matched: bool) -> str:
        ve, vconds = self._guarded(self.value(expr.operand))
        if matched:  # TRUE iff some item compares equal
            arms = []
            for item in expr.items:
                ie, iconds = self._guarded(self.value(item))
                arms.append(" and ".join(iconds + [f"{ve} == {ie}"]))
            some = " or ".join(f"({arm})" for arm in arms)
            return f"({' and '.join(vconds + [f'({some})'])})"
        # FALSE iff every item compares not-equal (no NULL anywhere)
        conds = list(vconds)
        for item in expr.items:
            ie, iconds = self._guarded(self.value(item))
            conds.extend(iconds + [f"{ve} != {ie}"])
        return f"({' and '.join(conds)})"


def _emit_bind_guards(gen: _RowKernelCodegen) -> List[str]:
    """Factory-body lines that load binds and decline unsupported values.

    A NULL or missing bind, a bool (whose Python comparison semantics
    diverge from ``sql_compare``), or a non-string LIKE pattern makes
    the factory return None — the execution falls back to the closure
    tree.  Shared with the vector-kernel factories in sql/compile.py.
    """
    lines = []
    for key, (local, needs_rx) in gen._binds.items():
        lines.append(f"    {local} = binds.get({key!r}, _NULLV)")
        lines.append(f"    if {local} is None or {local} is _NULLV"
                     f" or {local}.__class__ is bool:")
        lines.append("        return None")
        if needs_rx:
            lines.append(f"    if not isinstance({local}, str):")
            lines.append("        return None")
            lines.append(f"    rx_{local} = _like_rx({local})")
    return lines


def _kernel_namespace(gen: _RowKernelCodegen) -> Dict[str, Any]:
    """Exec namespace for a generated kernel factory: hoisted constants,
    the NULL singleton, and the LIKE-regex compiler."""
    namespace = dict(gen.env)
    namespace["_NULLV"] = NULL
    namespace["_like_rx"] = _like_regex
    return namespace


def compile_row_kernel(predicate: Optional[ast.Expr], binding: str,
                       table: Any) -> Optional[Callable[[Dict], Any]]:
    """Generate an eval-compiled row-kernel factory for a scan filter.

    Returns ``factory(binds) -> (row -> bool) | None`` or None when the
    predicate uses forms outside the generated subset.  The factory
    inspects actual bind values once per execution and declines (returns
    None) when a bind is NULL, missing, or a bool — cases where Python
    operator semantics diverge from :func:`~repro.types.values
    .sql_compare` — leaving those executions to the closure tree.
    """
    if predicate is None:
        return None
    gen = _RowKernelCodegen(binding, table)
    try:
        body = gen.truth(predicate)
    except CannotCompile:
        return None
    lines = ["def _factory(binds):"]
    lines.extend(_emit_bind_guards(gen))
    lines.append("    def _kernel(r):")
    lines.append(f"        return {body}")
    lines.append("    return _kernel")
    namespace = _kernel_namespace(gen)
    exec(compile("\n".join(lines), "<row-kernel>", "exec"),  # noqa: S102
         namespace)
    return namespace["_factory"]
