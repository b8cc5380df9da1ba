"""The batch-pipelined executor.

Runs :class:`~repro.sql.planner.QueryPlan` trees over
:class:`~repro.sql.expressions.RowContext` values.  Everything still
streams: a LIMIT or a consumer that stops early never pulls the rest of
the pipeline — which is precisely the §3.2.1 "pipelined fashion ... all
rows that satisfy the text predicate do not have to be identified before
the first result row can be returned" behaviour the E1 benchmark
measures via time-to-first-row.  The unit of streaming, however, is a
*batch* of rows where the producer is naturally batched: full scans move
page-at-a-time (:meth:`~repro.storage.heap.HeapTable.scan_batches`), and
domain scans materialize each ODCIIndexFetch result — which the protocol
already returns in batches — into one row batch.

Row expressions come pre-compiled on the plan: the planner runs
:func:`repro.sql.compile.compile_plan` once, at plan time, so the
closures ride the shared plan cache across sessions.  The executor
resolves each slot through :meth:`Executor._truth_fn` /
:meth:`Executor._value_fns`, falling back to the tree-walking
:class:`~repro.sql.expressions.Evaluator` for any expression the
compiler declined (per-expression, so one OperatorCall in a filter does
not deoptimize its neighbours).

The :meth:`Executor._batches_domain_scan` method is the server side of
the ODCI scan protocol: it builds the ODCIPredInfo/ODCIQueryInfo
descriptors, invokes ``index_start``, re-enters ``index_fetch`` batch by
batch until the cartridge reports the null-terminator, fetches the
streamed rowids from the base table, and finally calls ``index_close``.

Parallel execution (see :mod:`repro.sql.parallel`): when the plan marks
a heap full scan ``[PARALLEL dop=N]`` and the session allows it, the
scan runs as page-range morsels on the engine's worker pool through an
order-preserving exchange (ORDER BY gets per-morsel sorted runs merged
k-way instead); when a domain scan is marked ``[PREFETCH depth=K]``,
the ODCIIndexFetch loop moves to a producer task that stays ``K``
batches ahead of materialization.  Both paths demand a statement
snapshot — current-mode reads (DML target selection) stay serial — and
both degrade to the serial loop when the executor is already running on
a pool worker (nested callback SQL must not deadlock the pool).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, \
    Tuple

from repro.core.callbacks import CallbackPhase
from repro.core.odci import ODCIPredInfo, ODCIQueryInfo
from repro.errors import ExecutionError, ODCIError
from repro.sql import ast_nodes as ast
from repro.sql import planner as pl
from repro.sql.catalog import TableDef
from repro.sql.columnar import ColumnBatch, ExecutorStats
from repro.sql.expressions import (
    AggregateCall, Evaluator, RowContext, aggregate_key)
from repro.storage.iot import COLUMNAR_BATCH
from repro.types.values import NULL, is_null, sql_compare

#: cap on the per-executor constant-expression memo (safety valve for
#: the session's long-lived bindless executor)
_CONST_CACHE_LIMIT = 1024

#: scans that can feed the columnar pipeline: heap full scans, IOT
#: key-prefix probes and B-tree range probes (the planner stamps the
#: eligible ones ``[VECTORIZED]``)
_VECTOR_SCANS = (pl.FullScan, pl.IOTPrefixScan, pl.BTreeScan)


def _chunked(rows: Iterable[RowContext], size: int
             ) -> Iterator[List[RowContext]]:
    """Regroup a row stream into batches of at most ``size`` rows."""
    size = max(1, size)
    batch: List[RowContext] = []
    for ctx in rows:
        batch.append(ctx)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def _flatten(batches: Iterable[List[RowContext]]) -> Iterator[RowContext]:
    for batch in batches:
        yield from batch


def _comparable(a: Any, b: Any) -> bool:
    """True when Python orders ``a`` and ``b`` like SQL does: both
    numbers (bool excluded) or both strings."""
    numbers = (int, float)
    return (type(a) in numbers and type(b) in numbers) \
        or (type(a) is str and type(b) is str)


class Executor:
    """Runs query plans against the database's storage and framework.

    One instance is created per statement execution: ``binds`` carries
    that execution's bind-variable values (cached plans keep BindParam
    nodes in the tree — and compiled closures take the bind set as an
    argument — so the shared plan is never specialized to one
    execution's values), and ``tracker`` (a
    :class:`~repro.core.scan_context.ScanTracker`) collects closers for
    any domain-index scans opened, so an abandoned cursor can release
    them deterministically.
    """

    def __init__(self, db: Any, binds: Optional[Dict[str, Any]] = None,
                 tracker: Optional[Any] = None,
                 snapshot: Optional[Any] = None):
        self.db = db
        self.catalog = db.catalog
        self.binds = binds or {}
        self.evaluator = Evaluator(db.catalog, binds)
        self.tracker = tracker
        #: MVCC snapshot all reads resolve against (None → current mode:
        #: DML target selection and the snapshot_reads=False seed path)
        self.snapshot = snapshot
        self.use_compiled = getattr(db, "compile_expressions", True)
        #: columnar pipeline gate: vector kernels are generated against
        #: the same plan artifacts as closures, so compile_expressions
        #: off implies vectorized off
        self.use_vectorized = self.use_compiled and getattr(
            db, "vectorized_execution", True)
        engine = getattr(db, "engine", None)
        self.xstats: ExecutorStats = (
            engine.executor_stats
            if engine is not None
            and getattr(engine, "executor_stats", None) is not None
            else ExecutorStats())
        self.batch_size = getattr(db, "fetch_batch_size", 32)
        #: LIMIT-derived row budget for the statement's single scan
        #: (None = unbounded); lets batched producers stop issuing
        #: work — ODCIIndexFetch calls, morsels — once met
        self._scan_budget: Optional[int] = None
        #: id(expr) -> (expr, value); the expr reference keeps the id
        #: from being recycled while the entry lives
        self._const_cache: Dict[int, Tuple[ast.Expr, Any]] = {}

    # -- public entry points -----------------------------------------------

    def run(self, plan: pl.QueryPlan) -> Iterator[Tuple[Any, ...]]:
        """Yield output tuples for the plan (streaming)."""
        root = plan.root
        if isinstance(root, pl.LimitNode):
            self._scan_budget = self._limit_budget(root)
            yield from self._apply_limit(root)
            return
        self._scan_budget = None
        yield from self._project_rows(root)

    def _limit_budget(self, node: pl.LimitNode) -> Optional[int]:
        """Row budget a LIMIT imposes on the scan feeding it, or None.

        Only valid when every scanned row that passes the scan's own
        filter becomes exactly one output row — a plain projection over
        a single scan.  Sorts, grouping, DISTINCT, joins, and detached
        FILTER nodes all consume more input rows than they emit, so any
        of those between the LIMIT and the scan voids the budget.
        """
        if node.limit is None:
            return None
        child = node.child
        if isinstance(child, pl.ProjectNode) \
                and isinstance(child.child, (pl.FullScan, pl.DomainScan)):
            return node.limit + (node.offset or 0)
        return None

    def _apply_limit(self, node: pl.LimitNode) -> Iterator[Tuple[Any, ...]]:
        # Yield-then-check: testing the limit only *after* emitting row N
        # means the producer is never pulled for row N+1 — for a batched
        # domain scan whose batch boundary lands exactly on the LIMIT,
        # the old check-then-yield order issued one extra ODCIIndexFetch
        # just to discover it wasn't needed.
        limit = node.limit
        if limit is not None and limit <= 0:
            return
        produced = 0
        skipped = 0
        for row in self._project_rows(node.child):
            if node.offset and skipped < node.offset:
                skipped += 1
                continue
            yield row
            produced += 1
            if limit is not None and produced >= limit:
                return

    def _project_rows(self, node: pl.PlanNode) -> Iterator[Tuple[Any, ...]]:
        if isinstance(node, pl.DistinctNode):
            seen = set()
            for row in self._project_rows(node.child):
                key = tuple(repr(v) for v in row)
                if key in seen:
                    continue
                seen.add(key)
                yield row
            return
        if not isinstance(node, pl.ProjectNode):
            raise ExecutionError(f"expected projection at plan top, got "
                                 f"{node.label()}")
        if isinstance(node.child, _VECTOR_SCANS):
            fused = self._vector_project_scan(node, node.child)
            if fused is not None:
                yield from fused
                return
        fns = self._value_fns(node, "items", [e for e, _ in node.items])
        for batch in self.iter_batches(node.child):
            for ctx in batch:
                yield tuple(fn(ctx) for fn in fns)

    # -- compiled-slot resolution ------------------------------------------

    def _truth_fn(self, node: pl.PlanNode, slot: str,
                  predicate: Optional[ast.Expr]
                  ) -> Optional[Callable[[RowContext], bool]]:
        """Per-row predicate callable (strict True test), or None."""
        if predicate is None:
            return None
        fn = node.compiled.get(slot) if self.use_compiled else None
        if fn is not None:
            binds = self.binds
            return lambda ctx: fn(ctx, binds) is True
        evaluator = self.evaluator
        return lambda ctx: evaluator.truth(predicate, ctx) is True

    def _value_fn(self, node: pl.PlanNode, slot: str, expr: ast.Expr
                  ) -> Callable[[RowContext], Any]:
        """Per-row value callable for a single expression slot."""
        fn = node.compiled.get(slot) if self.use_compiled else None
        if fn is not None:
            binds = self.binds
            return lambda ctx: fn(ctx, binds)
        evaluator = self.evaluator
        return lambda ctx: evaluator.evaluate(expr, ctx)

    def _value_fns(self, node: pl.PlanNode, slot: str,
                   exprs: List[ast.Expr]
                   ) -> List[Callable[[RowContext], Any]]:
        """Per-row value callables for a list slot, with per-index
        interpreter fallback where compilation declined."""
        compiled = node.compiled.get(slot) if self.use_compiled else None
        evaluator = self.evaluator
        binds = self.binds
        fns: List[Callable[[RowContext], Any]] = []
        for i, expr in enumerate(exprs):
            fn = compiled[i] if compiled is not None and i < len(compiled) \
                else None
            if fn is not None:
                fns.append(lambda ctx, f=fn: f(ctx, binds))
            else:
                fns.append(lambda ctx, e=expr: evaluator.evaluate(e, ctx))
        return fns

    # -- node dispatch ----------------------------------------------------------

    def iter_node(self, node: pl.PlanNode) -> Iterator[RowContext]:
        """Yield row contexts for any relational plan node."""
        if isinstance(node, (pl.FullScan, pl.DomainScan, pl.FilterNode)):
            return _flatten(self.iter_batches(node))
        if isinstance(node, pl.BTreeScan):
            return self._vector_rows(node) or self._iter_btree_scan(node)
        if isinstance(node, pl.HashScan):
            return self._iter_hash_scan(node)
        if isinstance(node, pl.BitmapScan):
            return self._iter_bitmap_scan(node)
        if isinstance(node, pl.IOTPrefixScan):
            return self._vector_rows(node) \
                or self._iter_iot_prefix_scan(node)
        if isinstance(node, pl.NestedLoopJoin):
            return self._iter_nl_join(node)
        if isinstance(node, pl.IndexedNLJoin):
            return self._iter_indexed_nl_join(node)
        if isinstance(node, pl.DomainNLJoin):
            return self._iter_domain_nl_join(node)
        if isinstance(node, pl.HashJoin):
            return self._iter_hash_join(node)
        if isinstance(node, pl.SortNode):
            return self._iter_sort(node)
        if isinstance(node, pl.GroupByNode):
            return self._iter_group_by(node)
        raise ExecutionError(f"cannot execute plan node {node.label()}")

    def iter_batches(self, node: pl.PlanNode
                     ) -> Iterator[List[RowContext]]:
        """Yield row contexts in batches.

        Scans whose producers are naturally batched (heap pages, ODCI
        fetch results) keep their batch shape through the pipeline;
        other nodes are regrouped into ``fetch_batch_size`` chunks so
        batch consumers (filter, project) always run their tight loop.
        """
        if isinstance(node, pl.FullScan):
            return self._batches_full_scan(node)
        if isinstance(node, pl.DomainScan):
            return self._batches_domain_scan(node)
        if isinstance(node, pl.FilterNode):
            return self._batches_filter(node)
        return _chunked(self.iter_node(node), self.batch_size)

    # -- scans ---------------------------------------------------------------

    def _make_ctx(self, table: TableDef, binding: str, rowid: Any,
                  row: List[Any]) -> RowContext:
        return self._ctx_factory(table, binding)(rowid, row)

    def _ctx_factory(self, table: TableDef, binding: str
                     ) -> Callable[[Any, List[Any]], RowContext]:
        """A (rowid, row) -> RowContext constructor with the column keys
        precomputed once per scan instead of once per row."""
        cols = [(binding, col.name.lower()) for col in table.columns]
        rowid_key = (binding, "rowid")

        def make(rowid: Any, row: List[Any]) -> RowContext:
            values = dict(zip(cols, row))
            values[rowid_key] = rowid
            ctx = RowContext(values=values)
            ctx.rowids[binding] = rowid
            return ctx
        return make

    def _passes(self, predicate: Optional[ast.Expr], ctx: RowContext) -> bool:
        if predicate is None:
            return True
        return self.evaluator.truth(predicate, ctx) is True

    def _batches_full_scan(self, node: pl.FullScan
                           ) -> Iterator[List[RowContext]]:
        # Row consumer over a vector-eligible filtered scan (joins, DML
        # subselects): run the vector filter over columns, then cross
        # the materialization boundary for survivors only — the kernel
        # win pays for the transpose when the filter is selective.
        if node.filter is not None:
            cbatches = self._vector_scan(node, require_kernel=True)
            if cbatches is not None:
                yield from self._materialize(node, cbatches)
                return
        dop = self._effective_dop(node)
        if dop >= 2:
            yield from self._batches_parallel_scan(node, dop)
            return
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        storage = node.table.storage
        # storage capabilities were probed once at plan time
        # (node.has_scan_batches / node.versioned), not per statement
        snapshot = self.snapshot if node.versioned else None
        if node.has_scan_batches:
            pages = storage.scan_batches(snapshot) if snapshot is not None \
                else storage.scan_batches()
        elif snapshot is not None:
            pages = _chunked(storage.scan(snapshot), self.batch_size)
        else:
            pages = _chunked(storage.scan(), self.batch_size)
        if passes is None:
            for page in pages:
                yield [make(rowid, row) for rowid, row in page]
            return
        for page in pages:
            batch = []
            for rowid, row in page:
                ctx = make(rowid, row)
                if passes(ctx):
                    batch.append(ctx)
            if batch:
                yield batch

    # -- vectorized columnar scan ----------------------------------------------

    def _materialize(self, node: pl.PlanNode,
                     cbatches: Iterator[ColumnBatch]
                     ) -> Iterator[List[RowContext]]:
        """Cross the columnar → row boundary for selected rows only."""
        make = self._ctx_factory(node.table, node.binding_name)
        self.xstats.record_materialize_boundary()
        for cbatch in cbatches:
            batch = [make(rowid, row) for rowid, row in cbatch.iter_rows()]
            if batch:
                yield batch

    def _vector_rows(self, node: pl.PlanNode
                     ) -> Optional[Iterator[RowContext]]:
        """Row contexts for a filtered index probe whose filter runs as
        a vector kernel, or None for the closure row path."""
        if node.filter is None:
            return None
        cbatches = self._vector_scan(node, require_kernel=True)
        if cbatches is None:
            return None
        return _flatten(self._materialize(node, cbatches))

    def _vector_scan(self, node: pl.PlanNode, require_kernel: bool = False
                     ) -> Optional[Iterator[ColumnBatch]]:
        """Columnar batches for a scan, or None for the row path.

        Heap full scans transpose pages; IOT prefix probes and B-tree
        range probes (the access paths of cartridge callback SQL) build
        batches from the probe.  Eligibility is plan-time
        (``vector_mode == "VECTORIZED"``, which implies the filter — if
        any — compiled to a vector kernel) plus the session gate and the
        kernel factory's per-execution bind inspection: a declined
        factory sends the whole statement back to the row pipeline,
        mirroring the row-kernel contract.  With
        ``require_kernel`` a filterless scan declines too — transposing
        batches for a row consumer with no filter to vectorize is pure
        overhead.
        """
        if not self.use_vectorized or node.vector_mode != "VECTORIZED":
            return None
        if isinstance(node, pl.FullScan) and not node.has_scan_columns:
            return None
        kernel = None
        if node.filter is not None:
            factory = node.compiled.get("vector_kernel")
            if factory is None:
                return None
            kernel = factory(self.binds)
            if kernel is None:
                # bind values outside the kernel contract (NULL, bool,
                # non-string LIKE pattern)
                self.xstats.record_factory_decline()
                return None
        elif require_kernel:
            return None
        if isinstance(node, pl.IOTPrefixScan):
            return self._filter_cbatches(node, kernel,
                                         self._iot_prefix_columns(node))
        if isinstance(node, pl.BTreeScan):
            return self._filter_cbatches(node, kernel,
                                         self._btree_columns(node))
        dop = self._effective_dop(node)
        if dop >= 2:
            return self._cbatches_parallel(node, kernel, dop)
        snapshot = self.snapshot if node.versioned else None
        return self._filter_cbatches(
            node, kernel, node.table.storage.scan_batches_columnar(
                len(node.table.columns), snapshot))

    def _iot_prefix_columns(self, node: pl.IOTPrefixScan
                            ) -> Iterator[Tuple[List[Any], List[List[Any]]]]:
        """``(rowids, columns)`` batches of an IOT key-prefix probe."""
        key = self._const(node.key)
        if is_null(key):
            return
        storage = node.table.storage
        snapshot = self.snapshot \
            if getattr(storage, "versions", None) is not None else None
        yield from storage.key_prefix_scan([key], snapshot, columnar=True)

    def _btree_columns(self, node: pl.BTreeScan
                       ) -> Iterator[Tuple[List[Any], List[List[Any]]]]:
        """``(rowids, columns)`` batches of a B-tree range probe: the
        probed rowids are fetched (against the snapshot) straight into
        column batches, skipping dead rowids like the row path."""
        bounds = self._btree_bounds(node)
        if bounds is None:
            return
        low, high = bounds
        structure = node.index.structure
        fetch = self._fetch_fn(node.table.storage)
        rowids: List[Any] = []
        rows: List[List[Any]] = []
        for __, rowid in self._probe(
                structure,
                lambda: structure.range_scan(low, high,
                                             node.low_inclusive,
                                             node.high_inclusive)):
            row = fetch(rowid)
            if row is None:
                continue
            rowids.append(rowid)
            rows.append(row)
            if len(rows) >= COLUMNAR_BATCH:
                yield rowids, [list(col) for col in zip(*rows)]
                rowids, rows = [], []
        if rows:
            yield rowids, [list(col) for col in zip(*rows)]

    def _filter_cbatches(self, node: pl.PlanNode,
                         kernel: Optional[Callable],
                         batches: Iterable[Tuple[List[Any], List[List[Any]]]]
                         ) -> Iterator[ColumnBatch]:
        """Wrap ``(rowids, columns)`` batches and run the filter kernel
        over each; empty survivors are dropped."""
        xstats = self.xstats
        for rowids, columns in batches:
            cbatch = ColumnBatch(rowids, columns)
            if kernel is not None:
                try:
                    cbatch.sel = kernel(columns, rowids, cbatch.n)
                    xstats.record_vector_batch(cbatch.n)
                except Exception:  # noqa: BLE001 — degrade to exact semantics
                    # mid-batch kernel failure: re-run THIS batch on the
                    # closure path so accept/reject outcomes, evaluation
                    # order, and error classes are byte-identical
                    xstats.record_fallback_batch()
                    cbatch.sel = self._closure_sel(node, cbatch)
            else:
                xstats.record_vector_batch(cbatch.n)
            if cbatch.selected_count():
                yield cbatch

    def _closure_sel(self, node: pl.PlanNode,
                     cbatch: ColumnBatch) -> List[int]:
        """Selection vector for one batch via the closure/interpreter
        path — the serial-exact fallback tier."""
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        rowids = cbatch.rowids
        return [i for i in range(cbatch.n)
                if passes(make(rowids[i], cbatch.row(i)))]

    def _cbatches_parallel(self, node: pl.FullScan,
                           kernel: Optional[Callable], dop: int
                           ) -> Iterator[ColumnBatch]:
        """Morsel-parallel columnar scan: the exchange carries
        ``ColumnBatch`` values unchanged; each worker filters its pages
        with the vector kernel, falling back per batch to the pure
        ``(ctx, binds)`` closure (safe off-thread, like the row tiers).
        """
        from repro.sql.parallel import plan_morsels, run_morsels
        engine = self.db.engine
        storage = node.table.storage
        morsels = plan_morsels(storage.page_count, dop)
        if not morsels:
            return
        stats = engine.parallel_stats
        stats.record_query(dop)
        width = len(node.table.columns)
        snapshot = self.snapshot
        xstats = self.xstats
        binds = self.binds
        # guaranteed compiled when a filter exists (_effective_dop gate)
        ctx_filter = node.compiled.get("filter")
        cols = [(node.binding_name, col.name.lower())
                for col in node.table.columns]
        rowid_key = (node.binding_name, "rowid")
        binding = node.binding_name

        def closure_sel(cbatch: ColumnBatch) -> List[int]:
            scratch = RowContext()
            values = scratch.values
            sel = []
            for i in range(cbatch.n):
                rowid = cbatch.rowids[i]
                values.clear()
                values.update(zip(cols, cbatch.row(i)))
                values[rowid_key] = rowid
                scratch.rowids[binding] = rowid
                if ctx_filter(scratch, binds) is True:
                    sel.append(i)
            return sel

        def morsel_kernel(start: int, stop: int) -> List[ColumnBatch]:
            out: List[ColumnBatch] = []
            for rowids, columns in storage.scan_page_range_columnar(
                    start, stop, width, snapshot):
                cbatch = ColumnBatch(rowids, columns)
                if kernel is not None:
                    try:
                        cbatch.sel = kernel(columns, rowids, cbatch.n)
                        xstats.record_vector_batch(cbatch.n)
                    except Exception:  # noqa: BLE001 — exact semantics
                        xstats.record_fallback_batch()
                        cbatch.sel = closure_sel(cbatch)
                else:
                    xstats.record_vector_batch(cbatch.n)
                if cbatch.selected_count():
                    out.append(cbatch)
            return out

        budget = self._scan_budget
        emitted = 0
        exchange = run_morsels(engine.worker_pool(), morsel_kernel,
                               morsels, dop, stats)
        for cbatches in exchange:
            for cbatch in cbatches:
                yield cbatch
                emitted += cbatch.selected_count()
            if budget is not None and emitted >= budget:
                exchange.close()
                return

    def _vector_project_scan(self, node: pl.ProjectNode, scan: pl.PlanNode
                             ) -> Optional[Iterator[Tuple[Any, ...]]]:
        """Fused filter→project over columnar batches, or None.

        Output tuples are gathered straight from the column vectors
        through the selection vector — selected rows are never
        materialized as row tuples between the two operators.
        """
        if not self.use_vectorized or node.vector_mode != "VECTORIZED":
            return None
        factory = node.compiled.get("vector_items")
        if factory is None:
            return None
        project = factory(self.binds)
        if project is None:
            self.xstats.record_factory_decline()
            return None
        cbatches = self._vector_scan(scan)
        if cbatches is None:
            return None
        return self._project_cbatches(node, scan, project, cbatches)

    def _project_cbatches(self, node: pl.ProjectNode, scan: pl.PlanNode,
                          project: Callable,
                          cbatches: Iterator[ColumnBatch]
                          ) -> Iterator[Tuple[Any, ...]]:
        xstats = self.xstats
        fallback = None
        for cbatch in cbatches:
            try:
                rows = project(cbatch.columns, cbatch.rowids,
                               cbatch.selected())
            except Exception:  # noqa: BLE001 — degrade to exact semantics
                # a projection item hit a value outside the generated
                # code's contract: materialize this batch and re-project
                # through the closure path, which yields the same prefix
                # then raises the proper taxonomy error if one is real
                if fallback is None:
                    fallback = (
                        self._value_fns(node, "items",
                                        [e for e, _ in node.items]),
                        self._ctx_factory(scan.table, scan.binding_name))
                xstats.record_fallback_batch()
                xstats.record_materialize_boundary()
                fns, make = fallback
                for rowid, row in cbatch.iter_rows():
                    ctx = make(rowid, row)
                    yield tuple(fn(ctx) for fn in fns)
                continue
            yield from rows

    # -- parallel morsel scan --------------------------------------------------

    def _effective_dop(self, node: pl.PlanNode) -> int:
        """The degree of parallelism this execution may actually use.

        0/1 means serial.  Requires the plan-time eligibility marker, a
        session with the feature on, a statement snapshot (current-mode
        reads — DML target selection — must observe in-flight changes,
        which morsel workers do not), a shareable (compiled or absent)
        filter, and *not* already running on a pool worker: a worker
        waiting on nested workers from the same bounded pool deadlocks.
        """
        dop = getattr(node, "parallel_dop", 0)
        if dop < 2 or self.snapshot is None:
            return 0
        db = self.db
        if not getattr(db, "parallel_execution", False):
            return 0
        if node.filter is not None and (
                not self.use_compiled
                or node.compiled.get("filter") is None):
            return 0
        engine = getattr(db, "engine", None)
        if engine is None:
            return 0
        if engine.worker_pool().on_worker():
            return 0
        return min(dop, max(1, getattr(db, "max_dop", 1)))

    def _morsel_kernel(self, node: pl.FullScan
                       ) -> Callable[[int, int], List[RowContext]]:
        """Build the ``kernel(start, stop) -> [RowContext]`` a morsel runs.

        Four tiers, fastest first: a *generated* kernel (the whole
        predicate eval-compiled to one Python expression over the raw
        row), the fused raw-row closure tree, a scratch-context filter
        (one reusable context probes the compiled closure; survivors
        get a real context), or no filter at all.  The generated tier
        answers only accept/reject on well-typed rows — if it raises
        anything, the morsel transparently re-runs on the closure tier,
        which reproduces the exact serial result or error.  All tiers
        share the plan's compiled closures, which are pure
        ``(ctx, binds)`` functions — nothing session-bound crosses into
        the workers except the snapshot, which is immutable by
        construction.
        """
        storage = node.table.storage
        snapshot = self.snapshot
        make = self._ctx_factory(node.table, node.binding_name)
        binds = self.binds
        if node.filter is None:
            def kernel(start: int, stop: int) -> List[RowContext]:
                out: List[RowContext] = []
                for page in storage.scan_page_range(start, stop, snapshot):
                    out.extend(make(rowid, row) for rowid, row in page)
                return out
            return kernel
        safe = self._safe_filter_kernel(node, storage, snapshot, make, binds)
        factory = node.compiled.get("row_kernel") \
            if self.use_compiled else None
        fast_filter = factory(binds) if factory is not None else None
        if fast_filter is None:
            return safe

        def fast(start: int, stop: int) -> List[RowContext]:
            out: List[RowContext] = []
            append = out.append
            for page in storage.scan_page_range(start, stop, snapshot):
                for rowid, row in page:
                    if fast_filter(row):
                        append(make(rowid, row))
            return out

        def kernel(start: int, stop: int) -> List[RowContext]:
            try:
                return fast(start, stop)
            except Exception:  # noqa: BLE001 — degrade to exact semantics
                # the generated kernel met a value it has no contract
                # for (type mismatch, division by zero); the snapshot
                # makes the re-read deterministic and the closure tier
                # raises the proper taxonomy error if one is real
                return safe(start, stop)
        return kernel

    def _safe_filter_kernel(self, node: pl.FullScan, storage: Any,
                            snapshot: Any, make: Callable, binds: Dict
                            ) -> Callable[[int, int], List[RowContext]]:
        """The exact-semantics morsel kernel (closure-tree tiers)."""
        row_filter = node.compiled.get("row_filter") \
            if self.use_compiled else None
        if row_filter is not None:
            def kernel(start: int, stop: int) -> List[RowContext]:
                out: List[RowContext] = []
                append = out.append
                for page in storage.scan_page_range(start, stop, snapshot):
                    for rowid, row in page:
                        if row_filter(row, binds) is True:
                            append(make(rowid, row))
                return out
            return kernel
        ctx_filter = node.compiled["filter"]  # guaranteed by _effective_dop
        cols = [(node.binding_name, col.name.lower())
                for col in node.table.columns]
        rowid_key = (node.binding_name, "rowid")
        binding = node.binding_name

        def kernel(start: int, stop: int) -> List[RowContext]:
            out: List[RowContext] = []
            scratch = RowContext()
            values = scratch.values
            for page in storage.scan_page_range(start, stop, snapshot):
                for rowid, row in page:
                    values.clear()
                    values.update(zip(cols, row))
                    values[rowid_key] = rowid
                    scratch.rowids[binding] = rowid
                    if ctx_filter(scratch, binds) is True:
                        out.append(make(rowid, row))
            return out
        return kernel

    def _batches_parallel_scan(self, node: pl.FullScan, dop: int
                               ) -> Iterator[List[RowContext]]:
        from repro.sql.parallel import plan_morsels, run_morsels
        engine = self.db.engine
        storage = node.table.storage
        morsels = plan_morsels(storage.page_count, dop)
        if not morsels:
            return
        stats = engine.parallel_stats
        stats.record_query(dop)
        kernel = self._morsel_kernel(node)
        budget = self._scan_budget
        emitted = 0
        exchange = run_morsels(engine.worker_pool(), kernel, morsels,
                               dop, stats)
        # closing this generator (LIMIT satisfied, abandoned cursor)
        # closes the exchange, which cancels unissued morsels
        for batch in exchange:
            yield batch
            emitted += len(batch)
            if budget is not None and emitted >= budget:
                exchange.close()
                return

    def _const(self, expr: Optional[ast.Expr]) -> Any:
        """Evaluate a constant expression, once per statement.

        The same expression object often appears at several call sites
        of one plan (an equality sarg feeds both the low and high bound
        of a B-tree scan); memoize by object identity, holding the expr
        so its id cannot be recycled while the entry lives.
        """
        if expr is None:
            return None
        hit = self._const_cache.get(id(expr))
        if hit is not None and hit[0] is expr:
            return hit[1]
        value = self.evaluator.evaluate(expr, RowContext())
        if len(self._const_cache) >= _CONST_CACHE_LIMIT:
            self._const_cache.clear()
        self._const_cache[id(expr)] = (expr, value)
        return value

    def _fetch_fn(self, storage: Any) -> Callable[[Any], Optional[List[Any]]]:
        """Row fetch callable for a table's storage, resolved against the
        executor's snapshot when the storage is versioned.

        Unversioned storages (dictionary views, test doubles) keep the
        plain current-mode fetch regardless of snapshot."""
        snapshot = self.snapshot
        if snapshot is None or getattr(storage, "versions", None) is None:
            return storage.fetch_or_none
        return lambda rowid: storage.fetch_or_none(rowid, snapshot)

    def _probe(self, structure: Any,
               produce: Callable[[], Iterable[Any]]) -> Iterable[Any]:
        """Run a native-index probe.

        Under a snapshot, readers hold no table locks, so a concurrent
        writer may restructure the index mid-iteration; materialize the
        probe under the structure's latch instead of streaming it."""
        if self.snapshot is None:
            return produce()
        latch = getattr(structure, "latch", None)
        if latch is None:
            return produce()
        with latch:
            return list(produce())

    def _fetch_ctx(self, node, rowid: Any) -> Optional[RowContext]:
        row = self._fetch_fn(node.table.storage)(rowid)
        if row is None:
            return None
        return self._make_ctx(node.table, node.binding_name, rowid, row)

    def _iter_iot_prefix_scan(self, node: pl.IOTPrefixScan
                              ) -> Iterator[RowContext]:
        key = self._const(node.key)
        if is_null(key):
            return
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        storage = node.table.storage
        if self.snapshot is not None \
                and getattr(storage, "versions", None) is not None:
            pairs = storage.key_prefix_scan([key], snapshot=self.snapshot)
        else:
            pairs = storage.key_prefix_scan([key])
        for rowid, row in pairs:
            ctx = make(rowid, row)
            if passes is None or passes(ctx):
                yield ctx

    def _btree_bounds(self, node: pl.BTreeScan
                      ) -> Optional[Tuple[Any, Any]]:
        """The probe's (low, high) bound values, or None when a bound is
        NULL — a comparison with NULL is never true, so no row can
        qualify.  A bound borrowed from the residual filter is dropped
        when it is not comparable with the other one (the filter still
        applies it, with SQL comparison semantics)."""
        low = self._const(node.low)
        high = self._const(node.high)
        if (node.low is not None and is_null(low)) \
                or (node.high is not None and is_null(high)):
            return None
        if node.borrowed is not None and not _comparable(low, high):
            if node.borrowed == "high":
                high = None
            else:
                low = None
        return low, high

    def _iter_btree_scan(self, node: pl.BTreeScan) -> Iterator[RowContext]:
        bounds = self._btree_bounds(node)
        if bounds is None:
            return
        low, high = bounds
        structure = node.index.structure
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        fetch = self._fetch_fn(node.table.storage)
        for __, rowid in self._probe(
                structure,
                lambda: structure.range_scan(low, high,
                                             node.low_inclusive,
                                             node.high_inclusive)):
            row = fetch(rowid)
            if row is None:
                continue
            ctx = make(rowid, row)
            if passes is None or passes(ctx):
                yield ctx

    def _iter_hash_scan(self, node: pl.HashScan) -> Iterator[RowContext]:
        key = self._const(node.key)
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        fetch = self._fetch_fn(node.table.storage)
        structure = node.index.structure
        for rowid in self._probe(structure, lambda: structure.search(key)):
            row = fetch(rowid)
            if row is None:
                continue
            ctx = make(rowid, row)
            if passes is None or passes(ctx):
                yield ctx

    def _iter_bitmap_scan(self, node: pl.BitmapScan) -> Iterator[RowContext]:
        keys = [self._const(k) for k in node.keys]
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        fetch = self._fetch_fn(node.table.storage)
        structure = node.index.structure
        for rowid in self._probe(structure,
                                 lambda: structure.search_any_of(keys)):
            row = fetch(rowid)
            if row is None:
                continue
            ctx = make(rowid, row)
            if passes is None or passes(ctx):
                yield ctx

    # -- the domain index scan (ODCI orchestration) ----------------------------

    def _batches_domain_scan(self, node: pl.DomainScan
                             ) -> Iterator[List[RowContext]]:
        domain = node.index.domain
        if domain is None or domain.methods is None:
            raise ODCIError("DomainScan", f"index {node.index.name} has no "
                            "methods instance")
        call = node.operator_call
        # evaluate the operator's constant value arguments (everything
        # after the indexed column, minus a trailing ancillary label)
        value_args = call.args[1:]
        if call.label is not None:
            value_args = value_args[:-1]
        const_ctx = RowContext()
        evaluated_args = tuple(self.evaluator.evaluate(a, const_ctx)
                               for a in value_args)
        # the plan (and its pred_info) may be shared via the plan cache:
        # never mutate it — take a per-execution copy with these args
        pred_info = node.pred_info.with_args(evaluated_args)
        query_info = ODCIQueryInfo(first_rows=node.first_rows,
                                   ancillary_label=call.label)
        # pin any callback-SQL the cartridge runs during this scan to the
        # statement's snapshot: ODCIIndexStart/Fetch observe one frozen
        # database state no matter how long the fetch loop streams
        env = self.db.make_env(CallbackPhase.SCAN, domain,
                               snapshot=self.snapshot)
        ia = domain.index_info()
        methods = domain.methods
        if env.trace_enabled:
            env.trace(f"exec:ODCIIndexStart({domain.indextype_name}:"
                      f"{node.index.name})")
        dispatcher = self.db.dispatcher
        context = dispatcher.call(
            "ODCIIndexStart", methods.index_start,
            ia, pred_info, query_info, env,
            index_name=node.index.name, phase="scan")
        closer = self._make_closer(methods, context, env,
                                   index_name=node.index.name)
        batch_size = self.batch_size
        make = self._ctx_factory(node.table, node.binding_name)
        passes = self._truth_fn(node, "filter", node.filter)
        # index-returned rowids are hints: the snapshot-aware base-table
        # fetch re-validates each one, dropping rows whose versions are
        # not visible to this statement
        fetch = self._fetch_fn(node.table.storage)
        label = call.label

        def materialize(result) -> List[RowContext]:
            aux = result.aux or []
            batch = []
            for i, rowid in enumerate(result.rowids):
                row = fetch(rowid)
                if row is None:
                    continue
                ctx = make(rowid, row)
                if label is not None and i < len(aux):
                    ctx.aux[label] = aux[i]
                if passes is None or passes(ctx):
                    batch.append(ctx)
            return batch

        budget = self._scan_budget
        emitted = 0
        depth = self._prefetch_depth(node)
        try:
            if depth > 0:
                yield from self._domain_fetch_prefetched(
                    node, dispatcher, methods, context, env, batch_size,
                    materialize, depth, budget)
                return
            while True:
                if env.trace_enabled:
                    env.trace(f"exec:ODCIIndexFetch(n={batch_size})")
                result = dispatcher.call(
                    "ODCIIndexFetch", methods.index_fetch,
                    context, batch_size, env,
                    index_name=node.index.name, phase="scan")
                # materialize the whole fetch batch into a row batch
                batch = materialize(result)
                if batch:
                    yield batch
                if result.done or not result.rowids:
                    break
                emitted += len(batch)
                if budget is not None and emitted >= budget:
                    # the LIMIT above is satisfied: stop re-entering the
                    # cartridge instead of fetching rows nobody will see
                    break
        finally:
            if env.trace_enabled:
                env.trace("exec:ODCIIndexClose()")
            closer()

    def _prefetch_depth(self, node: pl.DomainScan) -> int:
        """Async-prefetch queue depth for this execution (0 = serial).

        Same session/nesting gates as :meth:`_effective_dop`; the
        plan-time marker carries the depth.  No snapshot requirement:
        the producer re-dispatches through the owning session
        (``call_from_worker``), so even current-mode scans keep their
        exact serial semantics — but nested scans on a pool worker stay
        serial to keep the pool deadlock-free.
        """
        depth = getattr(node, "prefetch_depth", 0)
        if depth <= 0:
            return 0
        db = self.db
        if not getattr(db, "parallel_execution", False):
            return 0
        engine = getattr(db, "engine", None)
        if engine is None:
            return 0
        if engine.worker_pool().on_worker():
            return 0
        return depth

    def _domain_fetch_prefetched(self, node: pl.DomainScan, dispatcher,
                                 methods, context, env, batch_size: int,
                                 materialize, depth: int,
                                 budget: Optional[int]
                                 ) -> Iterator[List[RowContext]]:
        """The async fetch loop: a single producer task on the engine
        pool issues ``ODCIIndexFetch`` calls (strictly sequentially —
        the scan context is stateful) up to ``depth`` batches ahead of
        materialization.  The caller's ``finally`` still runs the
        idempotent closer; closing the pipeline first guarantees no
        fetch is in flight when ``ODCIIndexClose`` fires.
        """
        from repro.sql.parallel import PrefetchPipeline
        engine = self.db.engine
        session = self.db
        index_name = node.index.name

        def fetch_next():
            if env.trace_enabled:
                env.trace(f"exec:ODCIIndexFetch(n={batch_size})")
            return dispatcher.call_from_worker(
                session, "ODCIIndexFetch", methods.index_fetch,
                context, batch_size, env,
                index_name=index_name, phase="scan")

        pipeline = PrefetchPipeline(engine.worker_pool(), depth,
                                    fetch_next, engine.parallel_stats)
        emitted = 0
        try:
            for result in pipeline:
                batch = materialize(result)
                if batch:
                    yield batch
                emitted += len(batch)
                if budget is not None and emitted >= budget:
                    # row budget met: abandon queued batches and stop
                    # the producer before it issues another fetch
                    break
        finally:
            pipeline.close()

    def _make_closer(self, methods, context, env, index_name: str = ""):
        """An idempotent ODCIIndexClose callable, registered with the
        statement's scan tracker (if any) so cursor close can run it."""
        closed = [False]

        def closer() -> None:
            if closed[0]:
                return
            closed[0] = True
            if self.tracker is not None:
                self.tracker.unregister(closer)
            self.db.dispatcher.call(
                "ODCIIndexClose", methods.index_close, context, env,
                index_name=index_name, phase="scan")

        if self.tracker is not None:
            self.tracker.register(closer)
        return closer

    # -- composite nodes ------------------------------------------------------

    def _batches_filter(self, node: pl.FilterNode
                        ) -> Iterator[List[RowContext]]:
        passes = self._truth_fn(node, "predicate", node.predicate)
        if passes is None:
            yield from self.iter_batches(node.child)
            return
        for batch in self.iter_batches(node.child):
            out = [ctx for ctx in batch if passes(ctx)]
            if out:
                yield out

    def _iter_nl_join(self, node: pl.NestedLoopJoin) -> Iterator[RowContext]:
        inner_rows = list(self.iter_node(node.inner))
        accepts = self._truth_fn(node, "condition", node.condition)
        for outer_ctx in self.iter_node(node.outer):
            for inner_ctx in inner_rows:
                merged = outer_ctx.merged_with(inner_ctx)
                if accepts is None or accepts(merged):
                    yield merged

    def _iter_indexed_nl_join(self, node: pl.IndexedNLJoin
                              ) -> Iterator[RowContext]:
        structure = node.index.structure
        outer_key = self._value_fn(node, "outer_key", node.outer_key)
        inner_passes = self._truth_fn(node, "inner_filter", node.inner_filter)
        accepts = self._truth_fn(node, "condition", node.condition)
        make = self._ctx_factory(node.inner_table, node.inner_binding)
        fetch = self._fetch_fn(node.inner_table.storage)
        for outer_ctx in self.iter_node(node.outer):
            key = outer_key(outer_ctx)
            if is_null(key):
                continue
            for rowid in self._probe(structure,
                                     lambda: structure.search(key)):
                row = fetch(rowid)
                if row is None:
                    continue
                inner_ctx = make(rowid, row)
                if inner_passes is not None and not inner_passes(inner_ctx):
                    continue
                merged = outer_ctx.merged_with(inner_ctx)
                if accepts is None or accepts(merged):
                    yield merged

    def _iter_domain_nl_join(self, node: pl.DomainNLJoin
                             ) -> Iterator[RowContext]:
        """Per outer row, re-run the domain index scan with bound args.

        "Multiple sets of invocations of operators can be interleaved.
        At any given time, a number of operators can be evaluated using
        the same indextype routines." (§2.2.3)
        """
        domain = node.index.domain
        if domain is None or domain.methods is None:
            raise ODCIError("DomainNLJoin",
                            f"index {node.index.name} has no methods instance")
        call = node.operator_call
        value_args = call.args[1:]
        if call.label is not None:
            value_args = value_args[:-1]
        arg_fns = self._value_fns(node, "value_args", value_args)
        inner_passes = self._truth_fn(node, "inner_filter", node.inner_filter)
        accepts = self._truth_fn(node, "condition", node.condition)
        make = self._ctx_factory(node.inner_table, node.inner_binding)
        fetch = self._fetch_fn(node.inner_table.storage)
        env = self.db.make_env(CallbackPhase.SCAN, domain,
                               snapshot=self.snapshot)
        ia = domain.index_info()
        methods = domain.methods
        batch_size = self.batch_size
        for outer_ctx in self.iter_node(node.outer):
            evaluated = tuple(fn(outer_ctx) for fn in arg_fns)
            pred_info = ODCIPredInfo(
                operator_name=call.operator.name,
                operator_args=evaluated,
                lower_bound=node.lower, upper_bound=node.upper,
                include_lower=node.include_lower,
                include_upper=node.include_upper)
            query_info = ODCIQueryInfo(ancillary_label=call.label)
            if env.trace_enabled:
                env.trace(f"exec:ODCIIndexStart({domain.indextype_name}:"
                          f"{node.index.name}) [join probe]")
            dispatcher = self.db.dispatcher
            context = dispatcher.call(
                "ODCIIndexStart", methods.index_start,
                ia, pred_info, query_info, env,
                index_name=node.index.name, phase="scan")
            closer = self._make_closer(methods, context, env,
                                       index_name=node.index.name)
            try:
                while True:
                    result = dispatcher.call(
                        "ODCIIndexFetch", methods.index_fetch,
                        context, batch_size, env,
                        index_name=node.index.name, phase="scan")
                    aux = result.aux or []
                    for i, rowid in enumerate(result.rowids):
                        row = fetch(rowid)
                        if row is None:
                            continue
                        inner_ctx = make(rowid, row)
                        if call.label is not None and i < len(aux):
                            inner_ctx.aux[call.label] = aux[i]
                        if inner_passes is not None \
                                and not inner_passes(inner_ctx):
                            continue
                        merged = outer_ctx.merged_with(inner_ctx)
                        if accepts is None or accepts(merged):
                            yield merged
                    if result.done or not result.rowids:
                        break
            finally:
                closer()

    def _iter_hash_join(self, node: pl.HashJoin) -> Iterator[RowContext]:
        left_keys = self._value_fns(node, "left_keys", node.left_keys)
        right_keys = self._value_fns(node, "right_keys", node.right_keys)
        accepts = self._truth_fn(node, "condition", node.condition)
        build: Dict[Tuple[Any, ...], List[RowContext]] = {}
        for right_ctx in self.iter_node(node.right):
            key = tuple(fn(right_ctx) for fn in right_keys)
            if any(is_null(v) for v in key):
                continue
            build.setdefault(key, []).append(right_ctx)
        for left_ctx in self.iter_node(node.left):
            key = tuple(fn(left_ctx) for fn in left_keys)
            if any(is_null(v) for v in key):
                continue
            for right_ctx in build.get(key, ()):
                merged = left_ctx.merged_with(right_ctx)
                if accepts is None or accepts(merged):
                    yield merged

    @staticmethod
    def _order_compare(descending: List[bool]) -> Callable[..., int]:
        """The ORDER BY comparator over (key-tuple, ctx) pairs
        (NULLS LAST, per-key direction)."""
        def compare(a: Tuple[Tuple[Any, ...], RowContext],
                    b: Tuple[Tuple[Any, ...], RowContext]) -> int:
            for va, vb, desc in zip(a[0], b[0], descending):
                if is_null(va) and is_null(vb):
                    continue
                if is_null(va):
                    return 1  # NULLS LAST
                if is_null(vb):
                    return -1
                cmp = sql_compare(va, vb)
                if is_null(cmp) or cmp == 0:
                    continue
                return -cmp if desc else cmp
            return 0
        return compare

    def _iter_sort(self, node: pl.SortNode) -> Iterator[RowContext]:
        """Decorate–sort–undecorate: ORDER BY expressions are evaluated
        once per row, not once per comparison."""
        descending = [item.descending for item in node.order_items]
        sort_key = functools.cmp_to_key(self._order_compare(descending))
        merged = self._sort_merge_exchange(node, sort_key)
        if merged is not None:
            return merged
        vectored = self._vector_sort(node, sort_key)
        if vectored is not None:
            return vectored
        key_fns = self._value_fns(node, "keys",
                                  [item.expr for item in node.order_items])
        decorated = [(tuple(fn(ctx) for fn in key_fns), ctx)
                     for ctx in self.iter_node(node.child)]
        decorated.sort(key=sort_key)
        return iter([ctx for __, ctx in decorated])

    def _vector_sort(self, node: pl.SortNode,
                     sort_key) -> Optional[Iterator[RowContext]]:
        """ORDER BY over a vector-eligible scan: the filter and the sort
        keys both evaluate on column vectors (decorate on columns); each
        surviving row materializes exactly once, into the decorated
        pair.  Tie order matches the row path — both decorate in scan
        order and the sort is stable.  Returns None for the row path.
        """
        if not self.use_vectorized or node.vector_mode != "VECTORIZED":
            return None
        child = node.child
        if not isinstance(child, _VECTOR_SCANS):
            return None
        factory = node.compiled.get("vector_keys")
        if factory is None:
            return None
        keys_of = factory(self.binds)
        if keys_of is None:
            self.xstats.record_factory_decline()
            return None
        cbatches = self._vector_scan(child)
        if cbatches is None:
            return None
        make = self._ctx_factory(child.table, child.binding_name)
        xstats = self.xstats
        key_fns = None
        decorated = []
        for cbatch in cbatches:
            try:
                keys = keys_of(cbatch.columns, cbatch.rowids,
                               cbatch.selected())
            except Exception:  # noqa: BLE001 — degrade to exact semantics
                if key_fns is None:
                    key_fns = self._value_fns(
                        node, "keys",
                        [item.expr for item in node.order_items])
                xstats.record_fallback_batch()
                keys = None
            xstats.record_materialize_boundary()
            if keys is None:
                for rowid, row in cbatch.iter_rows():
                    ctx = make(rowid, row)
                    decorated.append(
                        (tuple(fn(ctx) for fn in key_fns), ctx))
            else:
                for key, (rowid, row) in zip(keys, cbatch.iter_rows()):
                    decorated.append((key, make(rowid, row)))
        decorated.sort(key=sort_key)
        return iter([ctx for __, ctx in decorated])

    def _sort_merge_exchange(self, node: pl.SortNode, sort_key
                             ) -> Optional[Iterator[RowContext]]:
        """ORDER BY over a parallel-eligible scan: each morsel returns a
        *sorted* run (decorate + sort inside the worker), and the
        consumer k-way merges the runs instead of re-sorting everything.
        Returns None when the sort must run serially (ineligible child,
        uncompiled sort keys)."""
        child = node.child
        if not isinstance(child, pl.FullScan):
            return None
        dop = self._effective_dop(child)
        if dop < 2:
            return None
        compiled_keys = node.compiled.get("keys") if self.use_compiled \
            else None
        if not compiled_keys or any(fn is None for fn in compiled_keys):
            return None  # interpreter keys are session-bound
        from repro.sql.parallel import (
            merge_sorted_runs, plan_morsels, run_morsels)
        engine = self.db.engine
        morsels = plan_morsels(child.table.storage.page_count, dop)
        if not morsels:
            return iter(())
        stats = engine.parallel_stats
        stats.record_query(dop)
        scan_kernel = self._morsel_kernel(child)
        binds = self.binds

        def sort_kernel(start: int, stop: int):
            ctxs = scan_kernel(start, stop)
            run = [(tuple(fn(ctx, binds) for fn in compiled_keys), ctx)
                   for ctx in ctxs]
            run.sort(key=sort_key)
            return run

        runs = [run for run in run_morsels(engine.worker_pool(),
                                           sort_kernel, morsels, dop, stats)]
        return (ctx for __, ctx in merge_sorted_runs(runs, key=sort_key))

    def _iter_group_by(self, node: pl.GroupByNode) -> Iterator[RowContext]:
        vectored = self._vector_group_by(node)
        if vectored is not None:
            return vectored
        return self._iter_group_by_rows(node)

    def _vector_group_by(self, node: pl.GroupByNode
                         ) -> Optional[Iterator[RowContext]]:
        """Grouped column folds over columnar batches, or None.

        Plan time restricted the group keys and aggregate arguments to
        bare columns, so accumulation reads column vectors directly; the
        accumulator semantics (NULL skip, DISTINCT markers, result
        typing) live in :class:`_Accumulator` for both pipelines.
        """
        if not self.use_vectorized or node.vector_mode != "VECTORIZED":
            return None
        child = node.child
        if not isinstance(child, _VECTOR_SCANS):
            return None
        slots = node.compiled.get("vector_group")
        if slots is None:
            return None
        cbatches = self._vector_scan(child)
        if cbatches is None:
            return None
        return self._group_cbatches(node, child, slots, cbatches)

    def _group_cbatches(self, node: pl.GroupByNode, scan: pl.PlanNode,
                        slots: Tuple, cbatches: Iterator[ColumnBatch]
                        ) -> Iterator[RowContext]:
        group_indices, agg_indices = slots
        aggregates = node.aggregates
        having = self._truth_fn(node, "having", node.having)
        make = self._ctx_factory(scan.table, scan.binding_name)
        self.xstats.record_materialize_boundary()
        groups: Dict[Tuple[Any, ...], Tuple[RowContext, List]] = {}
        order: List[Tuple[Any, ...]] = []
        for cbatch in cbatches:
            columns = cbatch.columns
            group_cols = [columns[i] for i in group_indices]
            agg_cols = [None if i is None else columns[i]
                        for i in agg_indices]
            for i in cbatch.selected():
                key = tuple(
                    ("\x00NULL" if is_null(col[i]) else col[i])
                    for col in group_cols)
                try:
                    hash(key)
                except TypeError:
                    key = tuple(repr(k) for k in key)
                state = groups.get(key)
                if state is None:
                    # one materialized row per group (first seen), for
                    # HAVING and the projection above
                    state = (make(cbatch.rowids[i], cbatch.row(i)),
                             [_Accumulator(a) for a in aggregates])
                    groups[key] = state
                    order.append(key)
                for acc, col in zip(state[1], agg_cols):
                    if col is None:
                        acc.count += 1  # COUNT(*)
                    else:
                        acc.add_value(col[i])
        if not groups and not node.group_exprs:
            # global aggregate over an empty input still yields one row
            empty = RowContext()
            for agg in aggregates:
                empty.agg[aggregate_key(agg)] = _Accumulator(agg).result()
            if having is None or having(empty):
                yield empty
            return
        for key in order:
            out, accs = groups[key]
            for agg, acc in zip(aggregates, accs):
                out.agg[aggregate_key(agg)] = acc.result()
            if having is None or having(out):
                yield out

    def _iter_group_by_rows(self, node: pl.GroupByNode
                            ) -> Iterator[RowContext]:
        groups: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        order: List[Tuple[Any, ...]] = []
        aggregates = node.aggregates
        group_fns = self._value_fns(node, "group_exprs", node.group_exprs)
        having = self._truth_fn(node, "having", node.having)
        agg_compiled = node.compiled.get("agg_args") \
            if self.use_compiled else None
        evaluator = self.evaluator
        binds = self.binds
        arg_fns: List[Optional[Callable[[RowContext], Any]]] = []
        for agg in aggregates:
            if agg.arg is None:
                arg_fns.append(None)
                continue
            fn = (agg_compiled or {}).get(aggregate_key(agg))
            if fn is not None:
                arg_fns.append(lambda ctx, f=fn: f(ctx, binds))
            else:
                arg_fns.append(
                    lambda ctx, e=agg.arg: evaluator.evaluate(e, ctx))

        for ctx in self.iter_node(node.child):
            key = tuple(
                ("\x00NULL" if is_null(v) else v)
                for v in (fn(ctx) for fn in group_fns))
            try:
                hash(key)
            except TypeError:
                key = tuple(repr(k) for k in key)
            state = groups.get(key)
            if state is None:
                state = {"ctx": ctx,
                         "accs": [_Accumulator(a, fn)
                                  for a, fn in zip(aggregates, arg_fns)]}
                groups[key] = state
                order.append(key)
            for acc in state["accs"]:
                acc.add(ctx)

        if not groups and not node.group_exprs:
            # global aggregate over an empty input still yields one row
            empty = RowContext()
            for agg in aggregates:
                empty.agg[aggregate_key(agg)] = _Accumulator(agg).result()
            if having is None or having(empty):
                yield empty
            return

        for key in order:
            state = groups[key]
            out: RowContext = state["ctx"]
            for agg, acc in zip(aggregates, state["accs"]):
                out.agg[aggregate_key(agg)] = acc.result()
            if having is None or having(out):
                yield out


class _Accumulator:
    """Streaming state for one aggregate call.

    ``arg_fn`` is the (possibly compiled) per-row argument callable;
    None for COUNT(*)."""

    def __init__(self, call: AggregateCall,
                 arg_fn: Optional[Callable[[RowContext], Any]] = None):
        self.call = call
        self.arg_fn = arg_fn
        self.count = 0
        self.total: Any = 0
        self.min_value: Any = None
        self.max_value: Any = None
        self.distinct_seen = set() if call.distinct else None

    def add(self, ctx: RowContext) -> None:
        if self.call.arg is None:  # COUNT(*)
            self.count += 1
            return
        self.add_value(self.arg_fn(ctx))

    def add_value(self, value: Any) -> None:
        """Fold one argument value in — shared by the row pipeline
        (via :meth:`add`) and the vectorized column folds."""
        call = self.call
        if is_null(value):
            return
        if self.distinct_seen is not None:
            marker = value if isinstance(value, (int, float, str, bool)) \
                else repr(value)
            if marker in self.distinct_seen:
                return
            self.distinct_seen.add(marker)
        self.count += 1
        if call.func in ("sum", "avg"):
            self.total += value
        if call.func == "min":
            if self.min_value is None or value < self.min_value:
                self.min_value = value
        if call.func == "max":
            if self.max_value is None or value > self.max_value:
                self.max_value = value

    def result(self) -> Any:
        func = self.call.func
        if func == "count":
            return self.count
        if self.count == 0:
            return NULL
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count
        if func == "min":
            return self.min_value
        return self.max_value
