"""The cost-based planner.

Responsible for the paper's central optimizer behaviour (§2.4.2): an
operator predicate in the WHERE clause is evaluated either by invoking
its functional implementation as a per-row filter, or — when the operated
column has a domain index whose indextype supports the operator — by a
domain-index scan.  The choice is made on estimated cost, using
cartridge-supplied ODCIStats selectivity/cost routines when associated,
and documented defaults otherwise.

Cost unit: one simulated page I/O.  Per-row CPU for simple predicates and
per-call cost of registered functions are expressed in the same unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.odci import ODCIPredInfo
from repro.errors import CatalogError, DatabaseError, ExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.catalog import Catalog, IndexDef, TableDef
from repro.sql.expressions import (
    AggregateCall, Binder, OperatorCall, Scope, contains_aggregate,
    static_type)

#: CPU cost (in page-I/O units) of evaluating one simple predicate on one row.
CPU_PER_PREDICATE = 0.001
#: Base per-row processing cost during a full scan.
ROW_CPU = 0.01
#: Cost of fetching one row by rowid out of an index scan (random access).
FETCH_COST = 0.1
#: Default per-call cost of a registered function with no explicit cost.
DEFAULT_FUNCTION_COST = 0.01
#: Default selectivity of an equality predicate without statistics.
DEFAULT_EQ_SELECTIVITY = 0.01
#: Default selectivity of a range predicate without statistics.
DEFAULT_RANGE_SELECTIVITY = 0.05
#: Default selectivity of a user-defined operator predicate (Oracle's
#: documented default for operators without associated statistics).
DEFAULT_OPERATOR_SELECTIVITY = 0.01
#: Fixed startup cost charged to every domain index scan (ODCI call
#: overhead), in page-I/O units.
DOMAIN_SCAN_STARTUP = 2.0
#: Per-returned-row cost of a domain index scan with default statistics.
DOMAIN_SCAN_PER_ROW = 0.05
#: B-tree traversal cost (root-to-leaf) in page-I/O units.
BTREE_DESCENT = 2.0


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------

@dataclass
class PlanNode:
    """Base class for plan nodes; cost/cardinality filled by the planner."""

    est_rows: float = field(default=0.0, init=False)
    est_cost: float = field(default=0.0, init=False)
    #: optimizer remarks shown under the node in EXPLAIN — e.g. the
    #: functional-evaluation fallback notice when a matching domain
    #: index was skipped because it is not VALID
    annotations: List[str] = field(default_factory=list, init=False)
    #: compiled expression closures keyed by slot name, filled by
    #: :func:`repro.sql.compile.compile_plan` (None = interpreter fallback)
    compiled: Dict[str, Any] = field(default_factory=dict, init=False)
    #: "COMPILED" when every row expression on this node compiled,
    #: "INTERPRETED" when any fell back, None when the node has none
    exec_mode: Optional[str] = field(default=None, init=False)
    #: "VECTORIZED" when this node operates on columnar batches, "ROW"
    #: when vectorized execution is on but this node fell back to the
    #: row pipeline, None for nodes outside the vectorizable chain
    vector_mode: Optional[str] = field(default=None, init=False)

    def label(self) -> str:
        """One-line description used by EXPLAIN."""
        return type(self).__name__

    def children(self) -> List["PlanNode"]:
        return []

    def _markers(self) -> str:
        """Extra EXPLAIN badges appended after the exec-mode marker
        (``[PARALLEL dop=N]`` / ``[PREFETCH depth=K]``)."""
        return ""

    def explain(self, depth: int = 0) -> List[str]:
        """Indented EXPLAIN lines for this subtree."""
        mode = f" [{self.exec_mode}]" if self.exec_mode else ""
        vector = f" [{self.vector_mode}]" if self.vector_mode else ""
        line = (f"{'  ' * depth}{self.label()} "
                f"(rows={self.est_rows:.0f} cost={self.est_cost:.2f})"
                f"{mode}{vector}{self._markers()}")
        lines = [line]
        for note in self.annotations:
            lines.append(f"{'  ' * (depth + 1)}{note}")
        for child in self.children():
            lines.extend(child.explain(depth + 1))
        return lines


@dataclass
class FullScan(PlanNode):
    table: TableDef
    binding_name: str
    filter: Optional[ast.Expr] = None
    #: storage capability probes, hoisted here from the executor's
    #: per-statement hot path (the executor branches on these flags
    #: instead of getattr-probing the storage on every scan)
    has_scan_batches: bool = field(default=False, init=False)
    has_page_range: bool = field(default=False, init=False)
    has_scan_columns: bool = field(default=False, init=False)
    versioned: bool = field(default=False, init=False)
    #: ≥2 when the planner judged this scan morsel-parallel eligible;
    #: the executing session clamps it to its own max_dop (0 = serial)
    parallel_dop: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        storage = self.table.storage
        self.has_scan_batches = hasattr(storage, "scan_batches")
        self.has_page_range = hasattr(storage, "scan_page_range")
        self.has_scan_columns = hasattr(storage, "scan_batches_columnar")
        self.versioned = getattr(storage, "versions", None) is not None

    def _markers(self) -> str:
        if self.parallel_dop >= 2:
            return f" [PARALLEL dop={self.parallel_dop}]"
        return ""

    def label(self) -> str:
        suffix = " FILTER" if self.filter is not None else ""
        return f"TABLE SCAN {self.table.name} [{self.binding_name}]{suffix}"


@dataclass
class BTreeScan(PlanNode):
    table: TableDef
    binding_name: str
    index: IndexDef
    low: Optional[ast.Expr] = None
    high: Optional[ast.Expr] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    filter: Optional[ast.Expr] = None
    #: "low"/"high" when that bound was borrowed from a range conjunct
    #: on the same column that stays in ``filter`` (it only narrows the
    #: probe; the executor drops it when it cannot compare with the
    #: other bound)
    borrowed: Optional[str] = None

    def label(self) -> str:
        return (f"INDEX RANGE SCAN {self.index.name} -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class HashScan(PlanNode):
    table: TableDef
    binding_name: str
    index: IndexDef
    key: ast.Expr = None  # type: ignore[assignment]
    filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"HASH INDEX SCAN {self.index.name} -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class BitmapScan(PlanNode):
    table: TableDef
    binding_name: str
    index: IndexDef
    keys: List[ast.Expr] = field(default_factory=list)
    filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"BITMAP INDEX SCAN {self.index.name} -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class IOTPrefixScan(PlanNode):
    """Key-prefix scan of an index-organized table (its native path)."""

    table: TableDef
    binding_name: str
    key: ast.Expr = None  # type: ignore[assignment]
    filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return f"IOT PREFIX SCAN {self.table.name} [{self.binding_name}]"


@dataclass
class DomainScan(PlanNode):
    """Evaluate an operator predicate via ODCIIndexStart/Fetch/Close."""

    table: TableDef
    binding_name: str
    index: IndexDef
    operator_call: OperatorCall = None  # type: ignore[assignment]
    pred_info: ODCIPredInfo = None  # type: ignore[assignment]
    filter: Optional[ast.Expr] = None
    first_rows: bool = False
    #: >0 when the planner judged this scan worth async ODCI prefetch
    #: (bounded queue depth); 0 = the serial fetch loop
    prefetch_depth: int = field(default=0, init=False)

    def _markers(self) -> str:
        if self.prefetch_depth > 0:
            return f" [PREFETCH depth={self.prefetch_depth}]"
        return ""

    def label(self) -> str:
        op = self.operator_call.operator.name
        return (f"DOMAIN INDEX SCAN {self.index.name} ({op}) -> "
                f"{self.table.name} [{self.binding_name}]")


@dataclass
class FilterNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    predicate: ast.Expr = None  # type: ignore[assignment]

    def label(self) -> str:
        return "FILTER"

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class NestedLoopJoin(PlanNode):
    outer: PlanNode = None  # type: ignore[assignment]
    inner: PlanNode = None  # type: ignore[assignment]
    condition: Optional[ast.Expr] = None

    def label(self) -> str:
        return "NESTED LOOP JOIN"

    def children(self) -> List[PlanNode]:
        return [self.outer, self.inner]


@dataclass
class IndexedNLJoin(PlanNode):
    """NL join probing the inner table through an index per outer row."""

    outer: PlanNode = None  # type: ignore[assignment]
    inner_table: TableDef = None  # type: ignore[assignment]
    inner_binding: str = ""
    index: IndexDef = None  # type: ignore[assignment]
    outer_key: ast.Expr = None  # type: ignore[assignment]
    condition: Optional[ast.Expr] = None
    inner_filter: Optional[ast.Expr] = None

    def label(self) -> str:
        return (f"INDEXED NL JOIN probe {self.index.name} -> "
                f"{self.inner_table.name} [{self.inner_binding}]")

    def children(self) -> List[PlanNode]:
        return [self.outer]


@dataclass
class DomainNLJoin(PlanNode):
    """NL join probing a *domain* index on the inner table per outer row.

    Covers operator join predicates like
    ``Sdo_Relate(p.geometry, r.geometry, 'mask=OVERLAPS')`` where the
    first argument is the inner table's indexed column and the remaining
    arguments are evaluated against each outer row — the index-based
    spatial join of §3.2.2.
    """

    outer: PlanNode = None  # type: ignore[assignment]
    inner_table: TableDef = None  # type: ignore[assignment]
    inner_binding: str = ""
    index: IndexDef = None  # type: ignore[assignment]
    operator_call: OperatorCall = None  # type: ignore[assignment]
    lower: Optional[Any] = None
    upper: Optional[Any] = None
    include_lower: bool = True
    include_upper: bool = True
    condition: Optional[ast.Expr] = None
    inner_filter: Optional[ast.Expr] = None

    def label(self) -> str:
        op = self.operator_call.operator.name
        return (f"DOMAIN NL JOIN probe {self.index.name} ({op}) -> "
                f"{self.inner_table.name} [{self.inner_binding}]")

    def children(self) -> List[PlanNode]:
        return [self.outer]


@dataclass
class HashJoin(PlanNode):
    left: PlanNode = None  # type: ignore[assignment]
    right: PlanNode = None  # type: ignore[assignment]
    left_keys: List[ast.Expr] = field(default_factory=list)
    right_keys: List[ast.Expr] = field(default_factory=list)
    condition: Optional[ast.Expr] = None

    def label(self) -> str:
        return "HASH JOIN"

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]


@dataclass
class SortNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    order_items: List[ast.OrderItem] = field(default_factory=list)

    def label(self) -> str:
        return "SORT"

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class GroupByNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    group_exprs: List[ast.Expr] = field(default_factory=list)
    aggregates: List[AggregateCall] = field(default_factory=list)
    having: Optional[ast.Expr] = None

    def label(self) -> str:
        return f"GROUP BY ({len(self.group_exprs)} keys)"

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    items: List[Tuple[ast.Expr, str]] = field(default_factory=list)

    def label(self) -> str:
        return "DISTINCT"

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class LimitNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    limit: Optional[int] = None
    offset: Optional[int] = None

    def label(self) -> str:
        return f"LIMIT {self.limit} OFFSET {self.offset or 0}"

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class ProjectNode(PlanNode):
    child: PlanNode = None  # type: ignore[assignment]
    items: List[Tuple[ast.Expr, str]] = field(default_factory=list)

    def label(self) -> str:
        return f"PROJECT [{', '.join(name for _, name in self.items)}]"

    def children(self) -> List[PlanNode]:
        return [self.child]


@dataclass
class QueryPlan:
    """Top-level plan: the root node plus output column names."""

    root: PlanNode
    column_names: List[str]
    scope: Scope
    #: number of plan nodes whose row expressions all compiled to
    #: closures (see :mod:`repro.sql.compile`)
    compiled_nodes: int = 0
    #: the Select AST this plan was built from, kept so a mid-scan
    #: degrade (index marked UNUSABLE) can replan the same statement
    source: Optional[ast.Select] = None

    def explain(self) -> List[str]:
        return self.root.explain()

    def referenced_tables(self) -> List[TableDef]:
        """The tables this plan reads (one entry per FROM binding)."""
        return [table for _, table in self.scope.entries]


# ---------------------------------------------------------------------------
# Helpers over predicates
# ---------------------------------------------------------------------------

def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Flatten top-level ANDs into a conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, ast.BoolOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_together(conjuncts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    """Rebuild an AND tree from a conjunct list (None when empty)."""
    result: Optional[ast.Expr] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BoolOp("AND", result, conjunct)
    return result


def referenced_aliases(expr: ast.Expr) -> set:
    """Set of table binding names an expression reads."""
    found: set = set()

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.ColumnRef) and node.bound:
            found.add(node.alias)
        elif isinstance(node, (ast.BinaryOp, ast.BoolOp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
            walk(node.operand)
        elif isinstance(node, ast.LikeOp):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.BetweenOp):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.InListOp):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, OperatorCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, AggregateCall) and node.arg is not None:
            walk(node.arg)

    walk(expr)
    return found


def _is_constant(expr: ast.Expr) -> bool:
    return not referenced_aliases(expr) and not contains_aggregate(expr)


_RELOP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


@dataclass
class Sarg:
    """A sargable simple predicate: column relop constant."""

    column_ref: ast.ColumnRef
    op: str
    value_expr: ast.Expr
    source: ast.Expr


def extract_sarg(conjunct: ast.Expr) -> Optional[Sarg]:
    """Recognize ``col relop const`` / ``const relop col`` / BETWEEN."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _RELOP_FLIP:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(left, ast.ColumnRef) and left.bound \
                and not left.attr_path and _is_constant(right):
            return Sarg(left, op, right, conjunct)
        if isinstance(right, ast.ColumnRef) and right.bound \
                and not right.attr_path and _is_constant(left):
            return Sarg(right, _RELOP_FLIP[op], left, conjunct)
    return None


@dataclass
class OperatorPred:
    """An index-evaluable operator predicate with return-value bounds.

    §2.4.2: "predicates of the form op(...) relop <value expression>
    ... are possible candidates for index scan based evaluation"; a bare
    truthy use of an operator is normalized to bounds (1, None] per the
    paper's footnote (Contains(...) = 1).
    """

    call: OperatorCall
    lower: Optional[Any] = None
    upper: Optional[Any] = None
    include_lower: bool = True
    include_upper: bool = True
    source: ast.Expr = None  # type: ignore[assignment]


def extract_operator_pred(conjunct: ast.Expr) -> Optional[OperatorPred]:
    """Recognize an operator predicate conjunct, bare or bounded."""
    if isinstance(conjunct, OperatorCall):
        if conjunct.operator.is_ancillary:
            return None
        return OperatorPred(call=conjunct, lower=1, upper=None,
                            source=conjunct)
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _RELOP_FLIP:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(right, OperatorCall) and isinstance(left, ast.Literal):
            left, right, op = right, left, _RELOP_FLIP[op]
        if isinstance(left, OperatorCall) and isinstance(right, ast.Literal) \
                and not left.operator.is_ancillary:
            value = right.value
            if op == "=":
                return OperatorPred(left, lower=value, upper=value,
                                    source=conjunct)
            if op == ">":
                return OperatorPred(left, lower=value, include_lower=False,
                                    source=conjunct)
            if op == ">=":
                return OperatorPred(left, lower=value, source=conjunct)
            if op == "<":
                return OperatorPred(left, upper=value, include_upper=False,
                                    source=conjunct)
            if op == "<=":
                return OperatorPred(left, upper=value, source=conjunct)
    return None


def extract_equijoin(conjunct: ast.Expr) -> Optional[Tuple[ast.ColumnRef,
                                                           ast.ColumnRef]]:
    """Recognize ``a.x = b.y`` between two different tables."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if (isinstance(left, ast.ColumnRef) and left.bound
                and isinstance(right, ast.ColumnRef) and right.bound
                and left.alias != right.alias):
            return left, right
    return None


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

class Planner:
    """Builds a :class:`QueryPlan` for a bound SELECT statement.

    ``db`` is the owning Database; the planner needs it to instantiate
    stats types and to record optimizer trace events.
    """

    def __init__(self, catalog: Catalog, db: Any = None):
        self.catalog = catalog
        self.db = db
        #: bind values peeked for the current planning (Oracle-style
        #: "bind peeking": the first execution's values inform
        #: selectivity/cost estimates; the compiled plan is then shared
        #: by later executions with different values)
        self._peeked_binds: dict = {}

    # -- entry point ----------------------------------------------------------

    # -- uncorrelated subqueries --------------------------------------------

    def materialize_subqueries(self, expr: Optional[ast.Expr]
                               ) -> Optional[ast.Expr]:
        """Replace IN (SELECT ...) / EXISTS (SELECT ...) with their values.

        Subqueries in this dialect are uncorrelated, so they can be
        evaluated once up front: IN-subqueries become literal IN-lists,
        EXISTS becomes TRUE/FALSE.
        """
        if expr is None or self.db is None:
            return expr
        if isinstance(expr, ast.InSubquery):
            rows = self._run_subquery(expr.query, single_column=True)
            items: List[ast.Expr] = [ast.Literal(row[0]) for row in rows]
            if not items:
                # x IN (empty set) is FALSE; NOT IN (empty set) is TRUE
                return ast.Literal(not expr.negated
                                   if expr.negated else False)
            return ast.InListOp(operand=expr.operand, items=items,
                                negated=expr.negated)
        if isinstance(expr, ast.ExistsSubquery):
            rows = self._run_subquery(expr.query, single_column=False,
                                      limit_one=True)
            exists = bool(rows)
            return ast.Literal(exists if not expr.negated else not exists)
        if isinstance(expr, (ast.BoolOp, ast.BinaryOp)):
            expr.left = self.materialize_subqueries(expr.left)
            expr.right = self.materialize_subqueries(expr.right)
        elif isinstance(expr, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
            expr.operand = self.materialize_subqueries(expr.operand)
        elif isinstance(expr, ast.InListOp):
            expr.operand = self.materialize_subqueries(expr.operand)
        return expr

    def _run_subquery(self, select: ast.Select, single_column: bool,
                      limit_one: bool = False) -> List[Tuple[Any, ...]]:
        plan = self.plan_select(select)
        if single_column and len(plan.column_names) != 1:
            raise ExecutionError(
                "an IN subquery must select exactly one column, got "
                f"{plan.column_names}")
        rows_iter = self.db.executor.run(plan)
        if limit_one:
            first = next(rows_iter, None)
            return [] if first is None else [first]
        return list(rows_iter)

    def plan_select(self, select: ast.Select,
                    peek_binds: Optional[dict] = None) -> QueryPlan:
        """Bind and plan a SELECT.

        ``peek_binds`` (name → value) lets cost estimation see the bind
        values of the execution that triggered compilation, even though
        the plan tree itself keeps the BindParam placeholders.
        """
        if peek_binds is not None:
            self._peeked_binds = peek_binds
        if select.where is not None:
            select.where = self.materialize_subqueries(select.where)
        if select.having is not None:
            select.having = self.materialize_subqueries(select.having)
        scope_entries = []
        seen = set()
        for tref in select.tables:
            table = self.catalog.get_table(tref.name)
            binding = tref.binding_name
            if binding in seen:
                raise CatalogError(f"duplicate table binding {binding!r}")
            seen.add(binding)
            scope_entries.append((binding, table))
        scope = Scope(scope_entries)
        binder = Binder(self.catalog, scope)

        where = binder.bind(select.where) if select.where is not None else None
        group_by = [binder.bind(e) for e in select.group_by]
        having = binder.bind(select.having) if select.having is not None else None

        items = self._expand_items(select.items, scope, binder)
        order_by = [ast.OrderItem(self._bind_order_expr(o.expr, items,
                                                        binder),
                                  o.descending)
                    for o in select.order_by]

        conjuncts = split_conjuncts(where)
        root = self._plan_from_where(scope, conjuncts, select)

        aggregates = self._collect_aggregates(items, having)
        if group_by or aggregates:
            node = GroupByNode(child=root, group_exprs=group_by,
                               aggregates=aggregates, having=having)
            node.est_rows = max(1.0, root.est_rows / 10.0)
            node.est_cost = root.est_cost + root.est_rows * CPU_PER_PREDICATE
            root = node

        if order_by:
            node = SortNode(child=root, order_items=order_by)
            node.est_rows = root.est_rows
            node.est_cost = root.est_cost + root.est_rows * CPU_PER_PREDICATE * 4
            root = node

        project = ProjectNode(child=root, items=[(e, n) for e, n in items])
        project.est_rows = root.est_rows
        project.est_cost = root.est_cost
        root = project

        if select.distinct:
            node = DistinctNode(child=root, items=project.items)
            node.est_rows = root.est_rows
            node.est_cost = root.est_cost + root.est_rows * CPU_PER_PREDICATE
            root = node

        if select.limit is not None or select.offset is not None:
            node = LimitNode(child=root, limit=select.limit,
                             offset=select.offset)
            node.est_rows = min(root.est_rows, select.limit or root.est_rows)
            node.est_cost = root.est_cost
            root = node

        plan = QueryPlan(root=root, column_names=[n for _, n in items],
                         scope=scope, source=select)
        # lower row expressions to closures once, at plan time, so the
        # artifacts ride the shared plan cache across sessions
        if getattr(self.db, "compile_expressions", True):
            from repro.sql.compile import compile_plan
            plan.compiled_nodes = compile_plan(plan, self.catalog)
        self._annotate_parallel(plan.root)
        self._annotate_vectorized(plan.root)
        self._peeked_binds = {}
        return plan

    def _annotate_parallel(self, root: PlanNode) -> None:
        """Mark scans eligible for morsel parallelism / ODCI prefetch.

        Annotations only: est_cost is deliberately untouched, so access
        path choice (and the shared plan-cache entry) is identical for
        serial and parallel sessions — a serial execution simply
        ignores the markers.  DOP is costed from table size (one DOP
        unit per ``parallel_min_pages`` heap pages, capped at 8 here
        and by the executing session's ``max_dop`` at run time);
        prefetch depth is granted when the ODCIStats-estimated result
        cardinality spans multiple fetch batches.
        """
        db = self.db
        if db is None:
            return
        min_pages = max(1, getattr(db, "parallel_min_pages", 8))
        depth = getattr(db, "prefetch_depth", 0)
        min_rows = max(1, getattr(db, "prefetch_min_rows", 64))

        def visit(node: PlanNode) -> None:
            if isinstance(node, FullScan):
                self._annotate_full_scan(node, min_pages)
            elif isinstance(node, DomainScan):
                if depth > 0 and node.est_rows >= min_rows:
                    node.prefetch_depth = depth
            for child in node.children():
                visit(child)

        visit(root)

    def _annotate_full_scan(self, node: FullScan, min_pages: int) -> None:
        # Morsels need page-addressed, versioned storage: workers scan
        # disjoint page ranges and resolve each slot against the
        # statement snapshot, exactly like the serial batched scan.
        if not (node.has_scan_batches and node.has_page_range
                and node.versioned):
            return
        pages = node.table.storage.page_count
        if pages < min_pages:
            return
        # A filter must have compiled — interpreter fallback closes
        # over per-session evaluator state and stays on the owning
        # thread.  Filterless scans are trivially shareable.
        if node.filter is not None and node.compiled.get("filter") is None:
            return
        node.parallel_dop = max(2, min(8, pages // min_pages))
        if node.filter is not None:
            from repro.sql.parallel import (compile_row_kernel,
                                            compile_row_predicate)
            # fused morsel kernel: reject rows straight off the raw
            # storage row, before RowContext construction (None is
            # fine — workers then fall back to the context closure)
            node.compiled["row_filter"] = compile_row_predicate(
                node.filter, self.catalog, node.binding_name, node.table)
            # generated kernel: the whole predicate as one eval-compiled
            # expression; its factory re-checks bind values per execution
            node.compiled["row_kernel"] = compile_row_kernel(
                node.filter, node.binding_name, node.table)

    # -- vectorized execution annotations --------------------------------

    def _annotate_vectorized(self, root: PlanNode) -> None:
        """Attach vector kernels and stamp ``vector_mode`` markers.

        Like :meth:`_annotate_parallel`, annotations only — costs and
        access-path choice are untouched, so the shared plan-cache entry
        is identical whether the executing session runs columnar or
        row-at-a-time.  A node in the vectorizable chain is stamped
        ``VECTORIZED`` when its vector artifacts compiled and ``ROW``
        when it falls back to the row pipeline (mirroring the
        ``COMPILED``/``INTERPRETED`` pair for closures).
        """
        db = self.db
        if db is None:
            return
        if not getattr(db, "compile_expressions", True) \
                or not getattr(db, "vectorized_execution", True):
            return
        from repro.sql.compile import (compile_vector_kernel,
                                       compile_vector_projection)

        def columnar(node: PlanNode) -> bool:
            """True for scans that can produce columnar batches: heap
            full scans, IOT prefix probes and B-tree range probes."""
            if isinstance(node, FullScan):
                return node.has_scan_columns and node.versioned
            return isinstance(node, (IOTPrefixScan, BTreeScan))

        def scan_of(node: PlanNode) -> Optional[PlanNode]:
            """The node's child when it is a columnar-capable scan."""
            child = getattr(node, "child", None)
            return child if columnar(child) else None

        def annotate_scan(scan: PlanNode) -> bool:
            """Compile the scan's filter into a vector kernel (once)."""
            if scan.vector_mode is not None:
                return scan.vector_mode == "VECTORIZED"
            if scan.filter is not None:
                # same gate as parallel: an interpreter-fallback filter
                # closes over session state and stays on the row path
                if scan.compiled.get("filter") is None:
                    scan.vector_mode = "ROW"
                    return False
                kernel = compile_vector_kernel(
                    scan.filter, scan.binding_name, scan.table)
                if kernel is None:
                    scan.vector_mode = "ROW"
                    return False
                scan.compiled["vector_kernel"] = kernel
            scan.vector_mode = "VECTORIZED"
            return True

        def visit(node: PlanNode) -> None:
            if isinstance(node, ProjectNode):
                scan = scan_of(node)
                if scan is not None:
                    factory = compile_vector_projection(
                        [e for e, __ in node.items],
                        scan.binding_name, scan.table)
                    if factory is not None and annotate_scan(scan):
                        node.compiled["vector_items"] = factory
                        node.vector_mode = "VECTORIZED"
                    else:
                        node.vector_mode = "ROW"
            elif isinstance(node, SortNode):
                scan = scan_of(node)
                if scan is not None:
                    factory = compile_vector_projection(
                        [item.expr for item in node.order_items],
                        scan.binding_name, scan.table)
                    if factory is not None and annotate_scan(scan):
                        node.compiled["vector_keys"] = factory
                        node.vector_mode = "VECTORIZED"
                    else:
                        node.vector_mode = "ROW"
            elif isinstance(node, GroupByNode):
                scan = scan_of(node)
                if scan is not None:
                    slots = self._vector_group_slots(node, scan)
                    if slots is not None and annotate_scan(scan):
                        node.compiled["vector_group"] = slots
                        node.vector_mode = "VECTORIZED"
                    else:
                        node.vector_mode = "ROW"
            elif isinstance(node, (FullScan, IOTPrefixScan, BTreeScan)) \
                    and node.vector_mode is None:
                if node.filter is not None and columnar(node):
                    # consumed as rows: the vector filter still pays for
                    # itself (survivors-only materialization boundary)
                    annotate_scan(node)
                else:
                    # filterless scan with a row consumer: transposing
                    # would be pure overhead
                    node.vector_mode = "ROW"
            for child in node.children():
                visit(child)

        visit(root)

    @staticmethod
    def _vector_group_slots(node: GroupByNode,
                            scan: PlanNode) -> Optional[Tuple]:
        """Column indices for a grouped column fold, or None to decline.

        Vectorized GROUP BY requires every group key and aggregate
        argument to be a bare column of the scanned table — anything
        computed falls back to the row pipeline (the accumulator
        semantics stay in one place either way).
        """
        positions = {col.name.lower(): i
                     for i, col in enumerate(scan.table.columns)}

        def index_of(expr: ast.Expr) -> Optional[int]:
            if isinstance(expr, ast.ColumnRef) and expr.bound \
                    and not expr.attr_path \
                    and expr.alias == scan.binding_name:
                return positions.get(expr.column)
            return None

        group_indices = []
        for expr in node.group_exprs:
            index = index_of(expr)
            if index is None:
                return None
            group_indices.append(index)
        agg_indices = []
        for agg in node.aggregates:
            if agg.arg is None:
                agg_indices.append(None)  # COUNT(*)
                continue
            index = index_of(agg.arg)
            if index is None:
                return None
            agg_indices.append(index)
        return tuple(group_indices), tuple(agg_indices)

    def _peek_value(self, expr: ast.Expr) -> Any:
        """Plan-time value of an argument expression, for stats routines."""
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.BindParam):
            return self._peeked_binds.get(expr.name.lower())
        return None

    # -- select list -----------------------------------------------------------

    def _expand_items(self, raw_items, scope: Scope,
                      binder: Binder) -> List[Tuple[ast.Expr, str]]:
        items: List[Tuple[ast.Expr, str]] = []
        for item in raw_items:
            if isinstance(item.expr, ast.Star):
                star: ast.Star = item.expr
                for binding, table in scope.entries:
                    if star.alias is not None \
                            and star.alias.lower() != binding:
                        continue
                    for col in table.columns:
                        ref = ast.ColumnRef(path=[binding, col.name.lower()])
                        items.append((binder.bind(ref), col.name.lower()))
                continue
            expr = binder.bind(item.expr)
            name = item.alias
            if name is None:
                if isinstance(expr, ast.ColumnRef):
                    name = expr.column or expr.display()
                elif isinstance(expr, AggregateCall):
                    name = expr.func
                elif isinstance(expr, OperatorCall):
                    name = expr.operator.name.lower().split(".")[-1]
                elif isinstance(expr, ast.FuncCall):
                    name = expr.name.lower().split(".")[-1]
                else:
                    name = f"col{len(items) + 1}"
            items.append((expr, name.lower()))
        if not items:
            raise ExecutionError("empty select list")
        return items

    def _bind_order_expr(self, expr: ast.Expr,
                         items: List[Tuple[ast.Expr, str]],
                         binder: Binder) -> ast.Expr:
        """Resolve an ORDER BY expression: positions and select aliases.

        ``ORDER BY 2`` sorts by the second select item; ``ORDER BY len``
        resolves against a select alias before falling back to columns.
        """
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
                and not isinstance(expr.value, bool):
            position = expr.value
            if not 1 <= position <= len(items):
                raise ExecutionError(
                    f"ORDER BY position {position} is out of range "
                    f"(1..{len(items)})")
            return items[position - 1][0]
        if isinstance(expr, ast.ColumnRef) and len(expr.path) == 1:
            alias = expr.path[0].lower()
            try:
                return binder.bind(expr)
            except CatalogError:
                for item_expr, name in items:
                    if name == alias:
                        return item_expr
                raise
        return binder.bind(expr)

    def _collect_aggregates(self, items, having) -> List[AggregateCall]:
        aggregates: List[AggregateCall] = []

        def walk(node: ast.Expr) -> None:
            if isinstance(node, AggregateCall):
                aggregates.append(node)
                return
            if isinstance(node, (ast.BinaryOp, ast.BoolOp)):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
                walk(node.operand)
            elif isinstance(node, ast.FuncCall):
                for arg in node.args:
                    walk(arg)
            elif isinstance(node, OperatorCall):
                for arg in node.args:
                    walk(arg)

        for expr, _ in items:
            walk(expr)
        if having is not None:
            walk(having)
        return aggregates

    # -- FROM/WHERE planning -----------------------------------------------------

    def _plan_from_where(self, scope: Scope, conjuncts: List[ast.Expr],
                         select: ast.Select) -> PlanNode:
        per_table: dict = {binding: [] for binding, _ in scope.entries}
        multi: List[ast.Expr] = []
        for conjunct in conjuncts:
            aliases = referenced_aliases(conjunct)
            if len(aliases) == 1:
                per_table[next(iter(aliases))].append(conjunct)
            elif len(aliases) == 0:
                multi.append(conjunct)  # constant predicate: filter anywhere
            else:
                multi.append(conjunct)

        first_rows = select.limit is not None

        base_plans: dict = {}
        for binding, table in scope.entries:
            base_plans[binding] = self._access_path(
                table, binding, per_table[binding], first_rows)

        if len(scope.entries) == 1:
            plan = base_plans[scope.entries[0][0]]
            if multi:
                plan = self._wrap_filter(plan, and_together(multi))
            return plan
        return self._plan_joins(scope, base_plans, multi)

    def _wrap_filter(self, plan: PlanNode, predicate: Optional[ast.Expr]
                     ) -> PlanNode:
        if predicate is None:
            return plan
        node = FilterNode(child=plan, predicate=predicate)
        node.est_rows = max(1.0, plan.est_rows * 0.5)
        node.est_cost = plan.est_cost + plan.est_rows * self._filter_cost(
            predicate)
        return node

    # -- single-table access paths --------------------------------------------

    def _table_stats(self, table: TableDef) -> Tuple[float, float]:
        if table.stats.analyzed:
            rows = float(table.stats.row_count)
            pages = float(max(1, table.stats.page_count))
        else:
            rows = float(table.storage.row_count)
            pages = float(max(1, table.storage.page_count))
        return rows, pages

    def _filter_cost(self, predicate: Optional[ast.Expr]) -> float:
        """Per-row CPU cost of evaluating ``predicate``."""
        if predicate is None:
            return 0.0
        cost = CPU_PER_PREDICATE

        def walk(node: ast.Expr) -> None:
            nonlocal cost
            if isinstance(node, OperatorCall):
                cost += self._operator_function_cost(node)
                for arg in node.args:
                    walk(arg)
            elif isinstance(node, ast.FuncCall):
                cost += self._function_call_cost(node)
                for arg in node.args:
                    walk(arg)
            elif isinstance(node, (ast.BinaryOp, ast.BoolOp)):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, (ast.NotOp, ast.UnaryMinus, ast.IsNullOp)):
                walk(node.operand)
            elif isinstance(node, ast.BetweenOp):
                walk(node.operand)

        walk(predicate)
        return cost

    def _function_call_cost(self, call: ast.FuncCall) -> float:
        """Per-call cost of a plain function, honouring ASSOCIATE
        STATISTICS WITH FUNCTIONS when present."""
        key = call.name.lower()
        stats_name = self.catalog.function_stats.get(key) \
            or self.catalog.function_stats.get(key.split(".")[-1])
        if stats_name is not None:
            stats = self.catalog.get_stats_type(stats_name)()
            cost = self._dispatch_stats("ODCIStatsFunctionCost",
                                        stats.function_cost,
                                        call.name, call.args,
                                        self._stats_env())
            if cost is not None:
                return cost
        fn = self.catalog.functions.get(key)
        return fn.cost if fn else DEFAULT_FUNCTION_COST

    def _operator_function_cost(self, call: OperatorCall) -> float:
        """Per-row cost of the operator's functional implementation."""
        operator = call.operator
        stats = self._stats_for_operator(operator)
        if stats is not None:
            env = self._stats_env()
            cost = self._dispatch_stats("ODCIStatsFunctionCost",
                                        stats.function_cost,
                                        operator.name, call.args, env)
            if cost is not None:
                return cost
        if operator.bindings:
            fn = self.catalog.functions.get(
                operator.bindings[0].function_name.lower())
            if fn is not None:
                return fn.cost
        return DEFAULT_FUNCTION_COST

    def _access_path(self, table: TableDef, binding: str,
                     conjuncts: List[ast.Expr],
                     first_rows: bool) -> PlanNode:
        rows, pages = self._table_stats(table)
        candidates: List[PlanNode] = []

        # baseline: full scan with all conjuncts as filter
        residual = and_together(conjuncts)
        full = FullScan(table=table, binding_name=binding, filter=residual)
        sel_all = self._conjunct_selectivity(table, conjuncts)
        full.est_rows = max(1.0, rows * sel_all) if conjuncts else max(rows, 1.0)
        full.est_cost = pages + rows * (ROW_CPU + self._filter_cost(residual))
        candidates.append(full)
        fallback_notes: List[str] = []

        indexes = self.catalog.indexes_on(table.name)

        for i, conjunct in enumerate(conjuncts):
            rest = conjuncts[:i] + conjuncts[i + 1:]
            sarg = extract_sarg(conjunct)
            if sarg is not None and sarg.column_ref.alias == binding:
                candidates.extend(self._native_paths(
                    table, binding, sarg, rest, rows))
                if (table.is_iot and sarg.op == "=" and table.primary_key
                        and sarg.column_ref.column
                        == table.primary_key[0].lower()):
                    sel = self._sarg_selectivity(table, sarg)
                    node = IOTPrefixScan(
                        table=table, binding_name=binding,
                        key=sarg.value_expr, filter=and_together(rest))
                    node.est_rows = max(1.0, rows * sel)
                    node.est_cost = (BTREE_DESCENT + rows * sel
                                     * (ROW_CPU + self._filter_cost(
                                         node.filter)))
                    candidates.append(node)
            op_pred = extract_operator_pred(conjunct)
            if op_pred is not None:
                domain = self._domain_path(table, binding, op_pred, rest,
                                           rows, first_rows,
                                           notes=fallback_notes)
                if domain is not None:
                    candidates.append(domain)

        best = min(candidates, key=lambda c: c.est_cost)
        if fallback_notes and not isinstance(best, DomainScan):
            # make the degradation visible: the operator predicate will
            # run through its functional implementation because every
            # matching domain index is sidelined
            for note in fallback_notes:
                if note not in best.annotations:
                    best.annotations.append(note)
        if self.db is not None and getattr(self.db, "trace_log", None) is not None:
            for cand in candidates:
                marker = "*" if cand is best else " "
                self.db.trace_log.append(
                    f"optimizer:candidate{marker} {cand.label()} "
                    f"cost={cand.est_cost:.2f}")
        return best

    def _conjunct_selectivity(self, table: TableDef,
                              conjuncts: List[ast.Expr]) -> float:
        sel = 1.0
        for conjunct in conjuncts:
            sarg = extract_sarg(conjunct)
            if sarg is not None:
                sel *= self._sarg_selectivity(table, sarg)
                continue
            op_pred = extract_operator_pred(conjunct)
            if op_pred is not None:
                sel *= self._operator_selectivity(op_pred)
                continue
            sel *= 0.5
        return sel

    def _sarg_selectivity(self, table: TableDef, sarg: Sarg) -> float:
        col = sarg.column_ref.column or ""
        col_stats = table.stats.columns.get(col) if table.stats.analyzed else None
        if sarg.op == "=":
            if col_stats and col_stats.ndv > 0:
                return 1.0 / col_stats.ndv
            return DEFAULT_EQ_SELECTIVITY
        if sarg.op == "!=":
            return 1.0 - (1.0 / col_stats.ndv if col_stats and col_stats.ndv
                          else DEFAULT_EQ_SELECTIVITY)
        # range predicates: interpolate within [min, max] when ANALYZE
        # collected numeric bounds and the comparison value is a literal
        if (col_stats is not None
                and isinstance(sarg.value_expr, ast.Literal)
                and isinstance(sarg.value_expr.value, (int, float))
                and isinstance(col_stats.min_value, (int, float))
                and isinstance(col_stats.max_value, (int, float))
                and col_stats.max_value > col_stats.min_value):
            value = float(sarg.value_expr.value)
            low, high = float(col_stats.min_value), float(col_stats.max_value)
            span = high - low
            if sarg.op in ("<", "<="):
                fraction = (value - low) / span
            else:  # > or >=
                fraction = (high - value) / span
            return min(1.0, max(0.0005, fraction))
        return DEFAULT_RANGE_SELECTIVITY

    def _native_paths(self, table: TableDef, binding: str, sarg: Sarg,
                      rest: List[ast.Expr], rows: float) -> List[PlanNode]:
        paths: List[PlanNode] = []
        residual = and_together(rest)
        sel = self._sarg_selectivity(table, sarg)
        for index in self.catalog.indexes_on(table.name):
            if index.is_domain or not index.column_names:
                continue
            if index.column_names[0].lower() != (sarg.column_ref.column or ""):
                continue
            if index.kind == "btree":
                node = BTreeScan(table=table, binding_name=binding,
                                 index=index, filter=residual)
                if sarg.op == "=":
                    node.low = node.high = sarg.value_expr
                elif sarg.op in (">", ">="):
                    node.low = sarg.value_expr
                    node.low_inclusive = sarg.op == ">="
                    self._borrow_bound(node, sarg, rest, ("<", "<="))
                elif sarg.op in ("<", "<="):
                    node.high = sarg.value_expr
                    node.high_inclusive = sarg.op == "<="
                    self._borrow_bound(node, sarg, rest, (">", ">="))
                else:
                    continue  # != is not an index range
                node.est_rows = max(1.0, rows * sel)
                node.est_cost = (BTREE_DESCENT + rows * sel
                                 * (FETCH_COST + self._filter_cost(residual)))
                paths.append(node)
            elif index.kind == "hash" and sarg.op == "=":
                node = HashScan(table=table, binding_name=binding,
                                index=index, key=sarg.value_expr,
                                filter=residual)
                node.est_rows = max(1.0, rows * sel)
                node.est_cost = (1.0 + rows * sel
                                 * (FETCH_COST + self._filter_cost(residual)))
                paths.append(node)
            elif index.kind == "bitmap" and sarg.op == "=":
                node = BitmapScan(table=table, binding_name=binding,
                                  index=index, keys=[sarg.value_expr],
                                  filter=residual)
                node.est_rows = max(1.0, rows * sel)
                node.est_cost = (1.0 + rows * sel
                                 * (FETCH_COST + self._filter_cost(residual)))
                paths.append(node)
        return paths

    @staticmethod
    def _borrow_bound(node: BTreeScan, sarg: Sarg, rest: List[ast.Expr],
                      ops: Tuple[str, str]) -> None:
        """Close a half-open range probe with an opposite-direction
        range conjunct on the same column (``c >= :lo AND c <= :hi``).
        The conjunct stays in the residual filter, so the bound only
        narrows which index entries the probe visits."""
        column = sarg.column_ref
        for conjunct in rest:
            other = extract_sarg(conjunct)
            if other is None or other.op not in ops \
                    or other.column_ref.alias != column.alias \
                    or other.column_ref.column != column.column:
                continue
            if other.op in ("<", "<="):
                node.high = other.value_expr
                node.high_inclusive = other.op == "<="
                node.borrowed = "high"
            else:
                node.low = other.value_expr
                node.low_inclusive = other.op == ">="
                node.borrowed = "low"
            return

    # -- domain index path ---------------------------------------------------

    def _domain_path(self, table: TableDef, binding: str,
                     op_pred: OperatorPred, rest: List[ast.Expr],
                     rows: float, first_rows: bool,
                     notes: Optional[List[str]] = None) -> Optional[PlanNode]:
        call = op_pred.call
        if not call.args:
            return None
        first_arg = call.args[0]
        if not (isinstance(first_arg, ast.ColumnRef) and first_arg.bound
                and first_arg.alias == binding):
            return None
        # remaining (non-label) args must be constants to be index-evaluable
        value_args = call.args[1:]
        if call.label is not None:
            value_args = value_args[:-1]
        if not all(_is_constant(arg) for arg in value_args):
            return None
        # find a domain index on the referenced base column
        target_column = first_arg.column or ""
        for index in self.catalog.indexes_on(table.name):
            if not index.is_domain or index.domain is None:
                continue
            if target_column not in [c.lower() for c in index.column_names]:
                continue
            indextype = self.catalog.get_indextype(
                index.domain.indextype_name)
            arg_types = [static_type(a, Scope([(binding, table)]),
                                     self.catalog) for a in call.args]
            if not indextype.supports(call.operator.name.split(".")[-1],
                                      arg_types) \
                    and not indextype.supports(call.operator.name, arg_types):
                continue
            if not index.domain.valid:
                # index would have served this predicate but is sidelined:
                # the operator degrades to functional evaluation (§2.6)
                if notes is not None:
                    notes.append(f"FUNCTIONAL (index {index.name} "
                                 f"{index.domain.state.value})")
                continue
            return self._build_domain_scan(table, binding, index, op_pred,
                                           rest, rows, first_rows)
        return None

    def _build_domain_scan(self, table: TableDef, binding: str,
                           index: IndexDef, op_pred: OperatorPred,
                           rest: List[ast.Expr], rows: float,
                           first_rows: bool) -> DomainScan:
        call = op_pred.call
        residual = and_together(rest)
        pred_info = ODCIPredInfo(
            operator_name=call.operator.name,
            lower_bound=op_pred.lower,
            upper_bound=op_pred.upper,
            include_lower=op_pred.include_lower,
            include_upper=op_pred.include_upper,
        )
        node = DomainScan(table=table, binding_name=binding, index=index,
                          operator_call=call, pred_info=pred_info,
                          filter=residual, first_rows=first_rows)
        sel = self._operator_selectivity(op_pred)
        cost = self._domain_scan_cost(index, pred_info, sel, rows, call)
        node.est_rows = max(1.0, rows * sel)
        node.est_cost = cost + node.est_rows * self._filter_cost(residual)
        return node

    def _stats_for_operator(self, operator):
        """StatsMethods instance for an operator via its indextypes."""
        for indextype in self.catalog.indextypes.values():
            if indextype.stats_name and indextype.supports(
                    operator.name.split(".")[-1]):
                return self.catalog.get_stats_type(indextype.stats_name)()
        return None

    def _stats_for_indextype(self, indextype_name: str):
        indextype = self.catalog.get_indextype(indextype_name)
        if indextype.stats_name:
            return self.catalog.get_stats_type(indextype.stats_name)()
        return None

    def _stats_env(self):
        if self.db is not None:
            return self.db.make_stats_env()
        return None

    def _dispatch_stats(self, routine: str, fn, *args, index_name: str = ""):
        """Invoke an ODCIStats routine, degrading failures to None.

        None makes the caller fall back to its documented default
        selectivity/cost heuristic — a broken statistics type must
        never abort planning (§2.4.2).  Routed through the dispatcher
        when a database is attached (metrics + fault injection); a
        bare catalog-only planner calls directly but still degrades.
        """
        if self.db is not None:
            return self.db.dispatcher.call_degraded(
                routine, fn, *args, index_name=index_name, phase="plan")
        try:
            return fn(*args)
        except DatabaseError:
            return None

    def _operator_selectivity(self, op_pred: OperatorPred) -> float:
        stats = self._stats_for_operator(op_pred.call.operator)
        if stats is not None:
            env = self._stats_env()
            pred_info = ODCIPredInfo(
                operator_name=op_pred.call.operator.name,
                lower_bound=op_pred.lower, upper_bound=op_pred.upper,
                include_lower=op_pred.include_lower,
                include_upper=op_pred.include_upper)
            args = [self._peek_value(a) for a in op_pred.call.args]
            if env is not None:
                env.trace(f"optimizer:ODCIStatsSelectivity("
                          f"{op_pred.call.operator.name})")
            sel = self._dispatch_stats("ODCIStatsSelectivity",
                                       stats.selectivity,
                                       pred_info, args, env)
            if sel is not None:
                return min(1.0, max(0.0, sel))
        return DEFAULT_OPERATOR_SELECTIVITY

    def _domain_scan_cost(self, index: IndexDef, pred_info: ODCIPredInfo,
                          sel: float, rows: float,
                          call: OperatorCall) -> float:
        stats = self._stats_for_indextype(index.domain.indextype_name)
        if stats is not None:
            env = (self.db.make_stats_env(index.domain)
                   if self.db is not None else None)
            args = [self._peek_value(a) for a in call.args]
            if env is not None:
                env.trace(f"optimizer:ODCIStatsIndexCost({index.name})")
            cost = self._dispatch_stats("ODCIStatsIndexCost",
                                        stats.index_cost,
                                        index.domain.index_info(), pred_info,
                                        sel, args, env,
                                        index_name=index.name)
            if cost is not None:
                return cost.total
        return DOMAIN_SCAN_STARTUP + rows * sel * (FETCH_COST
                                                   + DOMAIN_SCAN_PER_ROW)

    # -- joins -------------------------------------------------------------------

    def _plan_joins(self, scope: Scope, base_plans: dict,
                    multi: List[ast.Expr]) -> PlanNode:
        remaining_bindings = [binding for binding, _ in scope.entries]
        remaining_bindings.sort(key=lambda b: base_plans[b].est_rows)
        pending = list(multi)

        current_binding = remaining_bindings.pop(0)
        plan = base_plans[current_binding]
        joined = {current_binding}

        while remaining_bindings:
            next_binding, join_conjuncts = self._pick_next(
                remaining_bindings, joined, pending)
            remaining_bindings.remove(next_binding)
            for conjunct in join_conjuncts:
                pending.remove(conjunct)
            plan = self._join_step(scope, plan, joined, next_binding,
                                   base_plans[next_binding], join_conjuncts)
            joined.add(next_binding)
            # attach any now-answerable pending predicates
            ready = [c for c in pending
                     if referenced_aliases(c) <= joined]
            for conjunct in ready:
                pending.remove(conjunct)
            plan = self._wrap_filter(plan, and_together(ready))
        if pending:
            plan = self._wrap_filter(plan, and_together(pending))
        return plan

    def _pick_next(self, remaining: List[str], joined: set,
                   pending: List[ast.Expr]) -> Tuple[str, List[ast.Expr]]:
        # prefer a table connected by a join predicate to the joined set
        for binding in remaining:
            conjuncts = [c for c in pending
                         if referenced_aliases(c) <= joined | {binding}
                         and binding in referenced_aliases(c)]
            if conjuncts:
                return binding, conjuncts
        return remaining[0], []

    def _join_step(self, scope: Scope, outer: PlanNode, joined: set,
                   inner_binding: str, inner_plan: PlanNode,
                   conjuncts: List[ast.Expr]) -> PlanNode:
        inner_table = scope.table_for_alias(inner_binding)
        equi_pairs = []
        residual: List[ast.Expr] = []
        for conjunct in conjuncts:
            pair = extract_equijoin(conjunct)
            if pair is not None:
                left, right = pair
                if left.alias == inner_binding:
                    left, right = right, left
                if left.alias in joined and right.alias == inner_binding:
                    equi_pairs.append((left, right))
                    continue
            residual.append(conjunct)

        condition = and_together(residual)

        if equi_pairs:
            # try an indexed NL when the inner side has a usable index
            outer_key, inner_key = equi_pairs[0]
            index = self._find_equality_index(inner_table,
                                              inner_key.column or "")
            small_outer = outer.est_rows <= max(
                4.0, 0.2 * max(inner_plan.est_rows, 1.0))
            if index is not None and small_outer \
                    and isinstance(inner_plan, FullScan):
                extra = list(equi_pairs[1:])
                cond = condition
                for left, right in extra:
                    eq = ast.BinaryOp("=", left, right)
                    cond = eq if cond is None else ast.BoolOp("AND", cond, eq)
                node = IndexedNLJoin(outer=outer, inner_table=inner_table,
                                     inner_binding=inner_binding,
                                     index=index, outer_key=outer_key,
                                     condition=cond,
                                     inner_filter=inner_plan.filter)
                node.est_rows = max(1.0, outer.est_rows)
                node.est_cost = (outer.est_cost
                                 + outer.est_rows * (BTREE_DESCENT + 1.0))
                return node
            node = HashJoin(left=outer, right=inner_plan,
                            left_keys=[lk for lk, _ in equi_pairs],
                            right_keys=[rk for _, rk in equi_pairs],
                            condition=condition)
            node.est_rows = max(1.0, max(outer.est_rows, inner_plan.est_rows))
            node.est_cost = (outer.est_cost + inner_plan.est_cost
                             + outer.est_rows * CPU_PER_PREDICATE
                             + inner_plan.est_rows * CPU_PER_PREDICATE)
            return node

        domain_join = self._try_domain_join(outer, inner_binding,
                                            inner_table, inner_plan,
                                            residual, joined)
        if domain_join is not None:
            return domain_join
        # the indexed column may be on the other side: swap roles when
        # the current outer is a single base-table scan
        if isinstance(outer, (FullScan, BTreeScan, HashScan, BitmapScan)) \
                and len(joined) == 1:
            swapped = self._try_domain_join(
                inner_plan, outer.binding_name, outer.table, outer,
                residual, {inner_binding})
            if swapped is not None:
                return swapped

        node = NestedLoopJoin(outer=outer, inner=inner_plan,
                              condition=condition)
        node.est_rows = max(1.0, outer.est_rows * inner_plan.est_rows
                            * (0.1 if condition is not None else 1.0))
        node.est_cost = (outer.est_cost
                         + outer.est_rows * max(inner_plan.est_cost, 0.1))
        return node

    def _try_domain_join(self, outer: PlanNode, inner_binding: str,
                         inner_table: Optional[TableDef],
                         inner_plan: PlanNode,
                         residual: List[ast.Expr],
                         joined: set) -> Optional[DomainNLJoin]:
        """Recognize an operator join predicate servable by a domain index.

        Requirements: the conjunct is an operator predicate whose first
        argument is a column of the inner table with a valid domain
        index supporting the operator, and whose remaining arguments
        read only already-joined tables.
        """
        if inner_table is None:
            return None
        for i, conjunct in enumerate(residual):
            op_pred = extract_operator_pred(conjunct)
            if op_pred is None:
                continue
            call = op_pred.call
            if not call.args:
                continue
            first = call.args[0]
            if not (isinstance(first, ast.ColumnRef) and first.bound
                    and first.alias == inner_binding):
                continue
            rest_args = call.args[1:]
            if call.label is not None:
                rest_args = rest_args[:-1]
            if any(not referenced_aliases(arg) <= joined
                   for arg in rest_args):
                continue
            index = self._domain_index_for(inner_table, first,
                                           call)
            if index is None:
                continue
            remaining = residual[:i] + residual[i + 1:]
            node = DomainNLJoin(
                outer=outer, inner_table=inner_table,
                inner_binding=inner_binding, index=index,
                operator_call=call,
                lower=op_pred.lower, upper=op_pred.upper,
                include_lower=op_pred.include_lower,
                include_upper=op_pred.include_upper,
                condition=and_together(remaining),
                inner_filter=inner_plan.filter
                if isinstance(inner_plan, FullScan) else None)
            sel = self._operator_selectivity(op_pred)
            inner_rows = max(inner_plan.est_rows, 1.0)
            node.est_rows = max(1.0, outer.est_rows * inner_rows * sel)
            node.est_cost = (outer.est_cost + outer.est_rows
                             * (DOMAIN_SCAN_STARTUP + inner_rows * sel))
            return node
        return None

    def _domain_index_for(self, table: TableDef, column_ref: ast.ColumnRef,
                          call: OperatorCall) -> Optional[IndexDef]:
        """A valid domain index on the referenced column supporting the op."""
        target = column_ref.column or ""
        for index in self.catalog.indexes_on(table.name):
            if not index.is_domain or index.domain is None \
                    or not index.domain.valid:
                continue
            if target not in [c.lower() for c in index.column_names]:
                continue
            indextype = self.catalog.get_indextype(
                index.domain.indextype_name)
            if indextype.supports(call.operator.name.split(".")[-1]) \
                    or indextype.supports(call.operator.name):
                return index
        return None

    def _find_equality_index(self, table: Optional[TableDef],
                             column: str) -> Optional[IndexDef]:
        if table is None:
            return None
        for index in self.catalog.indexes_on(table.name):
            if index.is_domain or not index.column_names:
                continue
            if index.column_names[0].lower() == column.lower() \
                    and index.kind in ("btree", "hash"):
                return index
        return None
