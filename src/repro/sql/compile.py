"""Expression compilation: lowering bound ASTs into Python closures.

The interpreter (:meth:`~repro.sql.expressions.Evaluator.evaluate`)
re-dispatches on node types for every row; on a filter-heavy full scan
that dispatch dominates the warm path now that the plan cache has
removed parse/plan cost.  This module lowers a bound expression tree
*once, at plan time* into a plain closure ``fn(ctx, binds) -> value``
that the executor applies across row batches in a tight loop.

Design rules:

* **Bind-slot hoisting** — compiled closures take the execution's bind
  values as an argument instead of freezing them in, so one compiled
  form attached to a shared cached plan serves every execution and
  session regardless of bind values.
* **Three-valued logic preserved** — NULL handling routes through the
  same :func:`sql_and`/:func:`sql_or`/:func:`sql_not`/:func:`sql_truth`
  helpers the interpreter uses, including AND/OR short-circuits.
* **Constant folding** — a subtree whose leaves are all literals is
  evaluated once at compile time and replaced by a constant closure.
  A fold that raises is abandoned (the per-row closure is kept) so
  errors like division by zero still surface at execution time, and
  never against an empty input.
* **Interpreter fallback** — node types the compiler does not handle
  raise :class:`CannotCompile` internally and the public entry points
  return ``None``; the executor then evaluates that whole expression
  through the interpreter.  :class:`~repro.sql.expressions.OperatorCall`
  is deliberately unsupported: functional evaluation of a user-defined
  operator resolves bindings against the live catalog, feeds ancillary
  aux values, and must keep routing through the interpreter (and, for
  index scans, the :class:`~repro.core.dispatch.CallbackDispatcher`).

Thread safety: compiled closures are pure functions of ``(ctx, binds)``.
They capture only immutable compile-time state — folded constants,
pre-resolved SQL functions, pre-built LIKE regexes — and never mutate
the row context, so the artifacts attached to one cached plan may be
used by any number of sessions concurrently.  Plan-cache invalidation
(any catalog version bump, including function re-registration) retires
plans whose pre-resolved functions could have gone stale.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import ExecutionError, TypeMismatchError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    AggregateCall, Binder, RowContext, Scope, aggregate_key)
from repro.types.objects import ObjectValue
from repro.types.values import (
    NULL, _like_regex, is_null, sql_and, sql_compare, sql_eq, sql_like,
    sql_not, sql_or, sql_truth)

__all__ = ["CannotCompile", "ExprCompiler", "compile_plan",
           "compile_vector_kernel", "compile_vector_projection"]

#: a compiled expression: (row context, bind values) -> SQL value
CompiledFn = Callable[[RowContext, Dict[str, Any]], Any]


class CannotCompile(Exception):
    """Internal signal: the expression contains an unsupported node."""


_EMPTY_CTX = RowContext()

_RELOPS = {
    "=": lambda cmp: cmp == 0,
    "!=": lambda cmp: cmp != 0,
    "<": lambda cmp: cmp < 0,
    "<=": lambda cmp: cmp <= 0,
    ">": lambda cmp: cmp > 0,
    ">=": lambda cmp: cmp >= 0,
}

#: nodes whose evaluated value is already TRUE/FALSE/NULL, so the
#: truth() wrapper would be an identity call
_BOOLEAN_NODES = (ast.BoolOp, ast.NotOp, ast.IsNullOp, ast.LikeOp,
                  ast.BetweenOp, ast.InListOp)


class ExprCompiler:
    """Compiles bound expressions against a catalog snapshot.

    The two public entry points return ``None`` (instead of raising)
    when the tree contains a node the compiler does not support, which
    is the executor's cue to fall back to the interpreter for that
    expression.
    """

    def __init__(self, catalog: Any):
        self.catalog = catalog
        self._finder = Binder(catalog, Scope([]))

    # -- public ----------------------------------------------------------

    def compile_value(self, expr: ast.Expr) -> Optional[CompiledFn]:
        """Compile ``expr`` for value position (select item, sort key)."""
        try:
            fn, __ = self._value(expr)
        except CannotCompile:
            return None
        return fn

    def compile_predicate(self, expr: ast.Expr) -> Optional[CompiledFn]:
        """Compile ``expr`` for boolean position (returns TRUE/FALSE/NULL)."""
        try:
            fn, __ = self._truth(expr)
        except CannotCompile:
            return None
        return fn

    # -- folding ---------------------------------------------------------

    def _fold(self, fn: CompiledFn, const: bool):
        """Evaluate a constant subtree once; keep the closure on error."""
        if not const:
            return fn, False
        try:
            value = fn(_EMPTY_CTX, {})
        except Exception:
            # e.g. SELECT 1/0: the interpreter raises per execution, at
            # execute time; keep that behaviour instead of failing the
            # plan (or raising for a query over an empty table)
            return fn, False
        return (lambda ctx, binds: value), True

    # -- truth position --------------------------------------------------

    def _truth(self, expr: ast.Expr):
        fn, const = self._value(expr)
        if isinstance(expr, _BOOLEAN_NODES):
            return fn, const
        if isinstance(expr, ast.BinaryOp) and expr.op in _RELOPS:
            return fn, const
        return self._fold(lambda ctx, binds: sql_truth(fn(ctx, binds)),
                          const)

    # -- value position --------------------------------------------------

    def _value(self, expr: ast.Expr):
        """Return ``(closure, is_constant)`` or raise CannotCompile."""
        if isinstance(expr, ast.Literal):
            value = expr.value
            return (lambda ctx, binds: value), True
        if isinstance(expr, ast.BindParam):
            return self._bind_param(expr), False
        if isinstance(expr, ast.ColumnRef):
            return self._column(expr), False
        if isinstance(expr, ast.FuncCall):
            return self._func_call(expr), False
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.BoolOp):
            return self._bool(expr)
        if isinstance(expr, ast.NotOp):
            tf, const = self._truth(expr.operand)
            return self._fold(
                lambda ctx, binds: sql_not(tf(ctx, binds)), const)
        if isinstance(expr, ast.UnaryMinus):
            vf, const = self._value(expr.operand)

            def neg(ctx, binds):
                value = vf(ctx, binds)
                if is_null(value):
                    return NULL
                return -value
            return self._fold(neg, const)
        if isinstance(expr, ast.IsNullOp):
            vf, const = self._value(expr.operand)
            if expr.negated:
                return self._fold(
                    lambda ctx, binds: not is_null(vf(ctx, binds)), const)
            return self._fold(
                lambda ctx, binds: is_null(vf(ctx, binds)), const)
        if isinstance(expr, ast.LikeOp):
            return self._like(expr)
        if isinstance(expr, ast.BetweenOp):
            return self._between(expr)
        if isinstance(expr, ast.InListOp):
            return self._in_list(expr)
        if isinstance(expr, AggregateCall):
            return self._aggregate(expr), False
        # OperatorCall (functional evaluation via the catalog + aux
        # side channel), Star, subqueries: interpreter territory
        raise CannotCompile(type(expr).__name__)

    # -- leaves ----------------------------------------------------------

    @staticmethod
    def _bind_param(expr: ast.BindParam) -> CompiledFn:
        key = expr.name.lower()
        name = expr.name

        def fn(ctx, binds):
            try:
                return binds[key]
            except KeyError:
                raise ExecutionError(
                    f"no value supplied for bind :{name}") from None
        return fn

    @staticmethod
    def _column(ref: ast.ColumnRef) -> CompiledFn:
        if not ref.bound:
            raise CannotCompile("unbound column reference")
        key = (ref.alias, ref.column)
        if not ref.attr_path:
            def fn(ctx, binds):
                try:
                    return ctx.values[key]
                except KeyError:
                    raise ExecutionError(
                        f"no value for {ref.alias}.{ref.column} "
                        "in row context") from None
            return fn
        attr_path = tuple(ref.attr_path)

        def fn_attrs(ctx, binds):
            try:
                value = ctx.values[key]
            except KeyError:
                raise ExecutionError(
                    f"no value for {ref.alias}.{ref.column} "
                    "in row context") from None
            for attr in attr_path:
                if is_null(value):
                    return NULL
                if isinstance(value, ObjectValue):
                    value = value.get(attr)
                else:
                    raise TypeMismatchError(
                        f"{ref.alias}.{ref.column}: cannot take attribute "
                        f"{attr!r} of non-object value {value!r}")
            return value
        return fn_attrs

    def _func_call(self, call: ast.FuncCall) -> CompiledFn:
        function = self._finder.find_function(call.name)
        if function is None:
            raise CannotCompile(call.name)  # interpreter raises CatalogError
        fn = function.fn
        arg_fns = [self._value(a)[0] for a in call.args]
        # registered functions may be non-deterministic: never folded
        if len(arg_fns) == 1:
            a0 = arg_fns[0]
            return lambda ctx, binds: fn(a0(ctx, binds))
        if len(arg_fns) == 2:
            a0, a1 = arg_fns
            return lambda ctx, binds: fn(a0(ctx, binds), a1(ctx, binds))
        return lambda ctx, binds: fn(*[a(ctx, binds) for a in arg_fns])

    # -- composites ------------------------------------------------------

    def _binary(self, expr: ast.BinaryOp):
        lf, lc = self._value(expr.left)
        rf, rc = self._value(expr.right)
        const = lc and rc
        op = expr.op
        rel = _RELOPS.get(op)
        if rel is not None:
            def relop(ctx, binds):
                cmp = sql_compare(lf(ctx, binds), rf(ctx, binds))
                if cmp is NULL:
                    return NULL
                return rel(cmp)
            return self._fold(relop, const)
        if op == "||":
            def concat(ctx, binds):
                left = lf(ctx, binds)
                right = rf(ctx, binds)
                if is_null(left) or is_null(right):
                    return NULL
                return f"{left}{right}"
            return self._fold(concat, const)
        if op == "/":
            def divide(ctx, binds):
                left = lf(ctx, binds)
                right = rf(ctx, binds)
                if is_null(left) or is_null(right):
                    return NULL
                if right == 0:
                    raise ExecutionError("division by zero")
                return left / right
            return self._fold(divide, const)
        arith = {"+": lambda a, b: a + b,
                 "-": lambda a, b: a - b,
                 "*": lambda a, b: a * b}.get(op)
        if arith is None:
            raise CannotCompile(f"binary operator {op!r}")

        def fn(ctx, binds):
            left = lf(ctx, binds)
            right = rf(ctx, binds)
            if is_null(left) or is_null(right):
                return NULL
            return arith(left, right)
        return self._fold(fn, const)

    def _bool(self, expr: ast.BoolOp):
        lt, lc = self._truth(expr.left)
        rt, rc = self._truth(expr.right)
        if expr.op == "AND":
            def conj(ctx, binds):
                left = lt(ctx, binds)
                if left is False:
                    return False
                return sql_and(left, rt(ctx, binds))
            return self._fold(conj, lc and rc)

        def disj(ctx, binds):
            left = lt(ctx, binds)
            if left is True:
                return True
            return sql_or(left, rt(ctx, binds))
        return self._fold(disj, lc and rc)

    def _like(self, expr: ast.LikeOp):
        vf, vc = self._value(expr.operand)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal) \
                and isinstance(expr.pattern.value, str):
            # constant pattern: build the regex once at compile time
            regex = _like_regex(expr.pattern.value)

            def fast(ctx, binds):
                value = vf(ctx, binds)
                if is_null(value):
                    return NULL
                if not isinstance(value, str):
                    raise TypeMismatchError("LIKE requires string operands")
                result = regex.fullmatch(value) is not None
                return not result if negated else result
            return self._fold(fast, vc)
        pf, pc = self._value(expr.pattern)

        def fn(ctx, binds):
            result = sql_like(vf(ctx, binds), pf(ctx, binds))
            return sql_not(result) if negated else result
        return self._fold(fn, vc and pc)

    def _between(self, expr: ast.BetweenOp):
        vf, vc = self._value(expr.operand)
        lf, lc = self._value(expr.low)
        hf, hc = self._value(expr.high)
        negated = expr.negated

        def fn(ctx, binds):
            value = vf(ctx, binds)
            low = lf(ctx, binds)
            high = hf(ctx, binds)
            cmp_low = sql_compare(value, low)
            ge_low = NULL if cmp_low is NULL else cmp_low >= 0
            cmp_high = sql_compare(value, high)
            le_high = NULL if cmp_high is NULL else cmp_high <= 0
            result = sql_and(ge_low, le_high)
            return sql_not(result) if negated else result
        return self._fold(fn, vc and lc and hc)

    def _in_list(self, expr: ast.InListOp):
        vf, vc = self._value(expr.operand)
        compiled = [self._value(item) for item in expr.items]
        item_fns = [fn for fn, __ in compiled]
        const = vc and all(c for __, c in compiled)
        negated = expr.negated

        def fn(ctx, binds):
            value = vf(ctx, binds)
            result: Any = False
            for item in item_fns:
                result = sql_or(result, sql_eq(value, item(ctx, binds)))
            return sql_not(result) if negated else result
        return self._fold(fn, const)

    @staticmethod
    def _aggregate(call: AggregateCall) -> CompiledFn:
        key = aggregate_key(call)
        func = call.func

        def fn(ctx, binds):
            try:
                return ctx.agg[key]
            except KeyError:
                raise ExecutionError(
                    f"aggregate {func} not allowed in this context") from None
        return fn


# ---------------------------------------------------------------------------
# Vector kernels (columnar batches)
# ---------------------------------------------------------------------------
#
# PR 9's row kernels eval-compile a predicate into inline bytecode over
# one raw row; the vector kernels below push the *loop* into the
# generated code too, so a whole ColumnBatch is filtered with one Python
# call — a list comprehension over ``range(n)`` producing the selection
# vector.  The projection variant fuses filter output into gathering:
# one comprehension walks the selection vector and builds the output
# tuples directly, so selected rows are never materialized as
# intermediate row tuples.
#
# The codegen is the row-kernel codegen with the column leaf re-pointed
# at column vectors (``v3[i]`` instead of ``r[3]``); the 3VL dual
# emitters, bind-guard factory contract, and fallback rules are
# inherited unchanged.  The import of the codegen class is deferred to
# call time: sql.parallel imports this module at load, we import it only
# when a plan is annotated.

_VECTOR_CODEGEN_CLS: Optional[type] = None


def _vector_codegen_cls() -> type:
    global _VECTOR_CODEGEN_CLS
    if _VECTOR_CODEGEN_CLS is None:
        from repro.sql.parallel import _RowKernelCodegen, _Val

        class _VectorKernelCodegen(_RowKernelCodegen):
            """Row-kernel codegen over column vectors ``v<index>[i]``."""

            def __init__(self, binding: str, table: Any):
                super().__init__(binding, table)
                self.used_columns: set = set()

            def _column_expr(self, index: int):
                self.used_columns.add(index)
                return _Val(f"v{index}[i]", notnull=False, maybe_nullv=True)

        _VECTOR_CODEGEN_CLS = _VectorKernelCodegen
    return _VECTOR_CODEGEN_CLS


#: generated source -> code object; plans are re-built for every DML
#: statement (DML is never plan-cached), and the same statement shape
#: yields the same source, so byte-compiling it once is enough
_CODE_CACHE: Dict[str, Any] = {}
_CODE_CACHE_LIMIT = 512


def _exec_factory(gen: Any, lines: List[str], filename: str) -> Callable:
    """The generated factory, byte-compiled on its first call.

    Code generation — which decides eligibility, and so the EXPLAIN
    marker — runs at plan time; ``compile``/``exec`` wait until an
    execution asks for the kernel.  Plans whose vector artifacts are
    never run (DML target selection strips the projection) pay nothing
    for them.
    """
    from repro.sql.parallel import _emit_bind_guards, _kernel_namespace
    src = [lines[0]]
    src.extend(_emit_bind_guards(gen))
    src.extend(lines[1:])
    source = "\n".join(src)
    namespace = _kernel_namespace(gen)
    built: List[Callable] = []

    def factory(binds):
        if not built:
            code = _CODE_CACHE.get(source)
            if code is None:
                if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                    _CODE_CACHE.clear()
                code = _CODE_CACHE[source] = compile(source, filename,
                                                     "exec")
            exec(code, namespace)  # noqa: S102
            built.append(namespace["_factory"])
        return built[0](binds)
    return factory


def compile_vector_kernel(predicate: Optional[ast.Expr], binding: str,
                          table: Any) -> Optional[Callable]:
    """Generate a vector-kernel factory for a scan filter, or None.

    Returns ``factory(binds) -> kernel | None`` where
    ``kernel(cols, rowids, n) -> sel`` filters one columnar batch and
    returns its selection vector (ascending row indices that passed).
    Factory-level bind inspection and the per-expression decline rules
    are identical to :func:`~repro.sql.parallel.compile_row_kernel`.
    """
    if predicate is None:
        return None
    gen = _vector_codegen_cls()(binding, table)
    try:
        body = gen.truth(predicate)
    except CannotCompile:
        return None
    lines = ["def _factory(binds):"]
    lines.append("    def _kernel(cols, rowids, n):")
    for index in sorted(gen.used_columns):
        lines.append(f"        v{index} = cols[{index}]")
    lines.append(f"        return [i for i in range(n) if {body}]")
    lines.append("    return _kernel")
    return _exec_factory(gen, lines, "<vector-kernel>")


def compile_vector_projection(exprs: List[ast.Expr], binding: str,
                              table: Any) -> Optional[Callable]:
    """Generate a fused gather for projection items or sort keys.

    Returns ``factory(binds) -> project | None`` where
    ``project(cols, rowids, sel) -> List[tuple]`` materializes one
    output tuple per selected row, straight from the column vectors.
    Null parity with the closure path: bare column references pass
    stored values through untouched (a stored ``None`` stays ``None``,
    exactly as the row context returns it), while computed items map a
    null result to the ``NULL`` singleton just as the compiled closures
    do.  Any item outside the generated value subset declines.
    """
    if not exprs:
        return None
    gather = _column_gather(exprs, binding, table)
    if gather is not None:
        return gather
    gen = _vector_codegen_cls()(binding, table)
    parts: List[str] = []
    try:
        for expr in exprs:
            if isinstance(expr, ast.Literal):
                # hoist the literal itself (NULL included) so the
                # emitted value is the exact object the closure returns
                parts.append(gen._const(expr.value))
                continue
            val = gen.value(expr)
            if isinstance(expr, (ast.ColumnRef, ast.BindParam)):
                parts.append(val.code)  # raw passthrough
            elif val.notnull:
                parts.append(val.code)
            else:
                t = gen._temp()
                parts.append(
                    f"(_NULLV if ({t} := ({val.code})) is None else {t})")
    except CannotCompile:
        return None
    tuple_src = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    lines = ["def _factory(binds):"]
    lines.append("    def _project(cols, rowids, sel):")
    for index in sorted(gen.used_columns):
        lines.append(f"        v{index} = cols[{index}]")
    lines.append(f"        return [{tuple_src} for i in sel]")
    lines.append("    return _project")
    return _exec_factory(gen, lines, "<vector-project>")


def _column_gather(exprs: List[ast.Expr], binding: str,
                   table: Any) -> Optional[Callable]:
    """Projection factory for items that are all bare stored columns of
    the scanned table, or None.

    No code is generated: the output tuples are a C-level ``zip`` of the
    picked column vectors (of the selected positions only when the
    filter dropped rows).  Values pass through untouched, exactly like
    the generated projection's raw column passthrough.  This is the
    shape of cartridge callback SQL (``SELECT rid, freq FROM ...``) and
    of DML target selection (``SELECT *``), which plans every statement
    afresh.
    """
    positions = {col.name.lower(): i for i, col in enumerate(table.columns)}
    picks: List[int] = []
    for expr in exprs:
        if not isinstance(expr, ast.ColumnRef) or not expr.bound \
                or expr.attr_path or expr.alias != binding:
            return None
        index = positions.get(expr.column)
        if index is None:
            return None  # pseudo-column
        picks.append(index)

    def project(cols, rowids, sel):
        vectors = [cols[p] for p in picks]
        if len(sel) == len(rowids):  # every row selected
            return list(zip(*vectors))
        return list(zip(*[[vector[i] for i in sel] for vector in vectors]))

    return lambda binds: project


# ---------------------------------------------------------------------------
# Plan-tree compilation
# ---------------------------------------------------------------------------

def compile_plan(plan: Any, catalog: Any) -> int:
    """Attach compiled artifacts to every node of a query plan.

    Walks the plan tree and, for each row expression a node evaluates
    per row (filters, join conditions/keys, sort keys, group keys,
    HAVING, aggregate arguments, projections), stores the compiled
    closure in ``node.compiled`` — ``None`` where the compiler fell
    back.  ``node.exec_mode`` becomes ``"COMPILED"`` when every
    expression on the node compiled, ``"INTERPRETED"`` when any fell
    back, and stays ``None`` for nodes with no row expressions; EXPLAIN
    prints the mode per node.

    Runs once at plan time, so the artifacts ride the shared plan cache
    and every session soft-parsing the statement reuses them.  Returns
    the number of fully compiled nodes.
    """
    from repro.sql import planner as pl  # deferred: planner imports us
    compiler = ExprCompiler(catalog)
    fully_compiled = 0

    def predicate(counts: List[int],
                  expr: Optional[ast.Expr]) -> Optional[CompiledFn]:
        if expr is None:
            return None
        counts[0] += 1
        fn = compiler.compile_predicate(expr)
        if fn is not None:
            counts[1] += 1
        return fn

    def value(counts: List[int], expr: ast.Expr) -> Optional[CompiledFn]:
        counts[0] += 1
        fn = compiler.compile_value(expr)
        if fn is not None:
            counts[1] += 1
        return fn

    def visit(node: Any) -> None:
        nonlocal fully_compiled
        counts = [0, 0]
        slots = node.compiled
        if isinstance(node, (pl.FullScan, pl.BTreeScan, pl.HashScan,
                             pl.BitmapScan, pl.IOTPrefixScan, pl.DomainScan)):
            slots["filter"] = predicate(counts, node.filter)
        elif isinstance(node, pl.FilterNode):
            slots["predicate"] = predicate(counts, node.predicate)
        elif isinstance(node, pl.NestedLoopJoin):
            slots["condition"] = predicate(counts, node.condition)
        elif isinstance(node, pl.IndexedNLJoin):
            slots["condition"] = predicate(counts, node.condition)
            slots["inner_filter"] = predicate(counts, node.inner_filter)
            slots["outer_key"] = value(counts, node.outer_key)
        elif isinstance(node, pl.DomainNLJoin):
            slots["condition"] = predicate(counts, node.condition)
            slots["inner_filter"] = predicate(counts, node.inner_filter)
            args = node.operator_call.args[1:]
            if node.operator_call.label is not None:
                args = args[:-1]
            slots["value_args"] = [value(counts, a) for a in args]
        elif isinstance(node, pl.HashJoin):
            slots["left_keys"] = [value(counts, k) for k in node.left_keys]
            slots["right_keys"] = [value(counts, k) for k in node.right_keys]
            slots["condition"] = predicate(counts, node.condition)
        elif isinstance(node, pl.SortNode):
            slots["keys"] = [value(counts, item.expr)
                             for item in node.order_items]
        elif isinstance(node, pl.GroupByNode):
            slots["group_exprs"] = [value(counts, e)
                                    for e in node.group_exprs]
            slots["having"] = predicate(counts, node.having)
            slots["agg_args"] = {
                aggregate_key(agg): value(counts, agg.arg)
                for agg in node.aggregates if agg.arg is not None}
        elif isinstance(node, pl.ProjectNode):
            slots["items"] = [value(counts, e) for e, __ in node.items]
        if counts[0]:
            if counts[1] == counts[0]:
                node.exec_mode = "COMPILED"
                fully_compiled += 1
            else:
                node.exec_mode = "INTERPRETED"
        for child in node.children():
            visit(child)

    visit(plan.root)
    return fully_compiled
