"""Differential tests: compiled expressions must match the interpreter.

The compiler (:mod:`repro.sql.compile`) is only allowed to be *faster*
than the tree-walking :class:`~repro.sql.expressions.Evaluator` — never
different.  A randomized corpus of bound expression trees (literals,
binds, NULLs, AND/OR/NOT short-circuits, functions, column refs) is run
through both paths and every result — value or exception — must agree,
Kleene three-valued logic included.
"""

import random

import pytest

from repro.sql import ast_nodes as ast
from repro.sql.builtins import register_builtins
from repro.sql.catalog import Catalog, SQLFunction
from repro.sql.compile import ExprCompiler
from repro.sql.expressions import Evaluator, RowContext
from repro.types.values import NULL


# ---------------------------------------------------------------------------
# randomized expression corpus
# ---------------------------------------------------------------------------

def _col(name):
    return ast.ColumnRef(path=["t", name], alias="t", column=name)


class ExprGen:
    """Seeded random generator of *bound* expression trees.

    Trees are loosely type-disciplined ("num" / "str" kinds) so most of
    the corpus evaluates cleanly, but NULL-able columns, NULL literals,
    and the occasional division keep the NULL-propagation and
    error paths exercised.
    """

    NUM_COLS = ["a", "c", "d"]   # c is NULL in some rows
    STR_COLS = ["b", "e"]        # e is NULL in some rows

    def __init__(self, rng):
        self.rng = rng

    def num(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.3:
            return r.choice([
                lambda: ast.Literal(r.randint(-5, 5)),
                lambda: ast.Literal(round(r.uniform(-3, 3), 2)),
                lambda: ast.Literal(NULL),
                lambda: _col(r.choice(self.NUM_COLS)),
                lambda: ast.BindParam("1"),
            ])()
        pick = r.random()
        if pick < 0.55:
            op = r.choice(["+", "-", "*", "/"])
            return ast.BinaryOp(op, self.num(depth - 1), self.num(depth - 1))
        if pick < 0.7:
            return ast.UnaryMinus(self.num(depth - 1))
        fn = r.choice(["abs", "length", "nvl", "coalesce", "mod"])
        if fn == "abs":
            return ast.FuncCall("abs", [self.num(depth - 1)])
        if fn == "length":
            return ast.FuncCall("length", [self.s(depth - 1)])
        if fn == "mod":
            return ast.FuncCall("mod", [self.num(depth - 1),
                                        self.num(depth - 1)])
        return ast.FuncCall(fn, [self.num(depth - 1), self.num(depth - 1)])

    def s(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return r.choice([
                lambda: ast.Literal(r.choice(["", "apple", "Banana", "x_y"])),
                lambda: ast.Literal(NULL),
                lambda: _col(r.choice(self.STR_COLS)),
                lambda: ast.BindParam("2"),
            ])()
        pick = r.random()
        if pick < 0.4:
            return ast.BinaryOp("||", self.s(depth - 1), self.s(depth - 1))
        fn = r.choice(["upper", "lower", "substr"])
        if fn == "substr":
            return ast.FuncCall("substr", [self.s(depth - 1),
                                           ast.Literal(r.randint(1, 3))])
        return ast.FuncCall(fn, [self.s(depth - 1)])

    def pred(self, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.25:
            kind = self.num if r.random() < 0.6 else self.s
            op = r.choice(["=", "!=", "<", "<=", ">", ">="])
            return ast.BinaryOp(op, kind(1), kind(1))
        pick = r.random()
        if pick < 0.35:
            return ast.BoolOp(r.choice(["AND", "OR"]),
                              self.pred(depth - 1), self.pred(depth - 1))
        if pick < 0.45:
            return ast.NotOp(self.pred(depth - 1))
        if pick < 0.55:
            kind = self.num if r.random() < 0.5 else self.s
            return ast.IsNullOp(kind(depth - 1),
                                negated=r.random() < 0.5)
        if pick < 0.65:
            pattern = ast.Literal(r.choice(["%a%", "x_y", "%", "Ban%"])) \
                if r.random() < 0.7 else self.s(1)
            return ast.LikeOp(self.s(depth - 1), pattern,
                              negated=r.random() < 0.3)
        if pick < 0.8:
            return ast.BetweenOp(self.num(depth - 1), self.num(1),
                                 self.num(1), negated=r.random() < 0.3)
        return ast.InListOp(self.num(depth - 1),
                            [self.num(1) for __ in range(r.randint(1, 3))],
                            negated=r.random() < 0.3)


def _contexts():
    rows = [
        (1, "apple", 2, 1.5, "x_y"),
        (-3, "Banana", NULL, -0.5, "apple"),
        (0, "", 7, 0.0, NULL),
        (5, "x_y", NULL, 2.25, ""),
    ]
    out = []
    for a, b, c, d, e in rows:
        out.append(RowContext(values={
            ("t", "a"): a, ("t", "b"): b, ("t", "c"): c,
            ("t", "d"): d, ("t", "e"): e}))
    return out


def _outcome(fn):
    """(tag, payload) capture of a call: result repr or exception type."""
    try:
        return ("ok", repr(fn()))
    except Exception as exc:  # noqa: BLE001 - parity includes errors
        return ("err", type(exc).__name__, str(exc))


class TestRandomizedDifferential:
    @pytest.fixture(scope="class")
    def catalog(self):
        catalog = Catalog()
        register_builtins(catalog)
        return catalog

    @pytest.mark.parametrize("seed", range(40))
    def test_predicates_match_interpreter(self, catalog, seed):
        rng = random.Random(seed)
        gen = ExprGen(rng)
        compiler = ExprCompiler(catalog)
        binds = {"1": rng.randint(-4, 4), "2": rng.choice(["apple", "", "Z"])}
        evaluator = Evaluator(catalog, binds)
        for __ in range(25):
            expr = gen.pred(3)
            fn = compiler.compile_predicate(expr)
            assert fn is not None, f"corpus node failed to compile: {expr!r}"
            for ctx in _contexts():
                expected = _outcome(lambda: evaluator.truth(expr, ctx))
                got = _outcome(lambda: fn(ctx, binds))
                assert got == expected, f"predicate diverged on {expr!r}"

    @pytest.mark.parametrize("seed", range(40, 80))
    def test_values_match_interpreter(self, catalog, seed):
        rng = random.Random(seed)
        gen = ExprGen(rng)
        compiler = ExprCompiler(catalog)
        binds = {"1": rng.randint(-4, 4), "2": rng.choice(["b", "x_y"])}
        evaluator = Evaluator(catalog, binds)
        for __ in range(25):
            expr = gen.num(3) if rng.random() < 0.5 else gen.s(3)
            fn = compiler.compile_value(expr)
            assert fn is not None
            for ctx in _contexts():
                expected = _outcome(lambda: evaluator.evaluate(expr, ctx))
                got = _outcome(lambda: fn(ctx, binds))
                assert got == expected, f"value diverged on {expr!r}"

    def test_one_compiled_form_serves_all_bind_values(self, catalog):
        """Bind-slot hoisting: compile once, execute with many bind sets."""
        compiler = ExprCompiler(catalog)
        expr = ast.BoolOp(
            "AND",
            ast.BinaryOp(">", _col("a"), ast.BindParam("1")),
            ast.LikeOp(_col("b"), ast.BindParam("2")))
        fn = compiler.compile_predicate(expr)
        ctx = _contexts()[0]  # a=1, b='apple'
        assert fn(ctx, {"1": 0, "2": "%appl%"}) is True
        assert fn(ctx, {"2": "%appl%", "1": 5}) is False
        assert fn(ctx, {"1": NULL, "2": "%appl%"}) is NULL
        with pytest.raises(Exception, match="no value supplied for bind"):
            fn(ctx, {})

    def test_short_circuit_parity_with_poison_operand(self, catalog):
        """AND short-circuits before a type error, exactly like the
        interpreter; OR must still raise when the left side is FALSE."""
        compiler = ExprCompiler(catalog)
        evaluator = Evaluator(catalog, {})
        poison = ast.BinaryOp("=", ast.Literal(1), _col("b"))  # int vs str
        false_leaf = ast.BinaryOp("=", ast.Literal(1), ast.Literal(2))
        for expr in (ast.BoolOp("AND", false_leaf, poison),
                     ast.BoolOp("OR", false_leaf, poison)):
            fn = compiler.compile_predicate(expr)
            for ctx in _contexts():
                assert _outcome(lambda: fn(ctx, {})) \
                    == _outcome(lambda: evaluator.truth(expr, ctx))


class TestConstantFolding:
    def test_literal_subtree_folds_to_constant(self):
        catalog = Catalog()
        compiler = ExprCompiler(catalog)
        expr = ast.BinaryOp("+", ast.Literal(2),
                            ast.BinaryOp("*", ast.Literal(3), ast.Literal(4)))
        __, const = compiler._value(expr)
        assert const is True
        assert compiler.compile_value(expr)(RowContext(), {}) == 14

    def test_folding_never_hides_runtime_errors(self):
        """1/0 must raise at *execution* time, not at compile time."""
        catalog = Catalog()
        compiler = ExprCompiler(catalog)
        expr = ast.BinaryOp("/", ast.Literal(1), ast.Literal(0))
        fn = compiler.compile_value(expr)  # must not raise here
        with pytest.raises(Exception, match="division by zero"):
            fn(RowContext(), {})

    def test_functions_are_not_folded(self):
        """Registered functions may be non-deterministic: a literal-arg
        call still runs once per row."""
        catalog = Catalog()
        calls = []
        catalog.add_function(SQLFunction(
            name="tick", fn=lambda x: calls.append(x) or len(calls)))
        compiler = ExprCompiler(catalog)
        fn = compiler.compile_value(ast.FuncCall("tick", [ast.Literal(7)]))
        assert fn(RowContext(), {}) == 1
        assert fn(RowContext(), {}) == 2


# ---------------------------------------------------------------------------
# end-to-end SQL differential (compile toggle)
# ---------------------------------------------------------------------------

QUERIES = [
    "SELECT id, name FROM people WHERE id > 3 AND score < 80",
    "SELECT id FROM people WHERE name LIKE 'n%e' OR score IS NULL",
    "SELECT id, score * 2 FROM people WHERE NOT (id BETWEEN 2 AND 8)",
    "SELECT id FROM people WHERE id IN (1, 3, 5) ORDER BY score DESC",
    "SELECT name, count(*), max(score) FROM people"
    " GROUP BY name HAVING count(*) >= 1 ORDER BY name",
    "SELECT upper(name) || '!' FROM people WHERE length(name) > 4",
    "SELECT DISTINCT score IS NULL FROM people ORDER BY 1",
]


PROBE_QUERIES = [
    # IOT key-prefix probes: (tok, rid)-keyed, NULL-heavy payload
    ("SELECT rid, freq, note FROM postings WHERE tok = :1", ["t1"]),
    ("SELECT rid, note FROM postings WHERE tok = :1 AND freq > :2",
     ["t2", 3]),
    ("SELECT rid FROM postings WHERE tok = :1 AND note IS NULL", ["t0"]),
    ("SELECT freq * 2, note || '!' FROM postings WHERE tok = :1"
     " AND (freq < :2 OR note LIKE 'n%')", ["t3", 4]),
    ("SELECT rid, freq FROM postings WHERE tok = :1 ORDER BY freq DESC",
     ["t1"]),
    ("SELECT note, COUNT(*), SUM(freq) FROM postings WHERE tok = :1"
     " GROUP BY note", ["t2"]),
    ("SELECT rid FROM postings WHERE tok = :1", [None]),
    ("SELECT rid FROM postings WHERE tok = :1 AND freq > :2", ["t1", None]),
    # B-tree range probes: NULL keys are unindexed, residuals NULL-heavy
    ("SELECT k, v, w FROM items WHERE k = :1", [4]),
    ("SELECT k, v FROM items WHERE k >= :1 AND v < :2", [3, 50]),
    ("SELECT k, w FROM items WHERE k >= :1 AND k <= :2 AND w IS NULL",
     [2, 7]),
    ("SELECT v + k, upper(w) FROM items WHERE k > :1"
     " AND NOT (v BETWEEN 10 AND 60)", [5]),
    ("SELECT k, v FROM items WHERE k < :1 ORDER BY v", [6]),
    ("SELECT k, COUNT(*), MAX(v) FROM items WHERE k >= :1 GROUP BY k",
     [8]),
    ("SELECT k FROM items WHERE k = :1", [None]),
    ("SELECT k FROM items WHERE k >= :1 AND v < :2", [1, None]),
]


def _probe_db(kw):
    """An IOT and a B-tree-indexed heap table, NULLs in every
    non-key column, identically seeded for each execution tier."""
    from repro import Database
    db = Database(**kw)
    db.execute("CREATE TABLE postings (tok VARCHAR2(8), rid INTEGER,"
               " freq INTEGER, note VARCHAR2(8),"
               " PRIMARY KEY (tok, rid)) ORGANIZATION INDEX")
    db.execute("CREATE TABLE items (k INTEGER, v INTEGER,"
               " w VARCHAR2(8))")
    db.execute("CREATE INDEX items_k ON items(k)")
    rng = random.Random(5)
    for i in range(120):
        db.execute("INSERT INTO postings VALUES (:1, :2, :3, :4)",
                   [f"t{i % 4}", i,
                    NULL if rng.random() < 0.25 else rng.randint(0, 9),
                    NULL if rng.random() < 0.3 else f"n{i % 3}"])
        db.execute("INSERT INTO items VALUES (:1, :2, :3)",
                   [NULL if rng.random() < 0.15 else rng.randint(0, 12),
                    NULL if rng.random() < 0.25 else rng.randint(0, 99),
                    NULL if rng.random() < 0.3 else f"w{i % 5}"])
    return db


class TestEndToEndDifferential:
    @pytest.fixture()
    def people_db(self, db):
        db.execute("CREATE TABLE people (id NUMBER, name VARCHAR2(30),"
                   " score NUMBER)")
        rng = random.Random(99)
        for i in range(60):
            score = NULL if rng.random() < 0.2 else rng.randint(0, 100)
            db.execute("INSERT INTO people VALUES (:1, :2, :3)",
                       [i, f"name{i % 7}", score])
        return db

    @pytest.mark.parametrize("sql", QUERIES)
    def test_compiled_and_interpreted_rows_agree(self, people_db, sql):
        people_db.compile_expressions = True
        compiled = people_db.execute(sql).fetchall()
        people_db.compile_expressions = False
        interpreted = people_db.execute(sql).fetchall()
        assert [tuple(map(repr, r)) for r in compiled] \
            == [tuple(map(repr, r)) for r in interpreted]

    def test_bind_reexecution_against_shared_cached_plan(self, people_db):
        sql = "SELECT id FROM people WHERE id < :1 ORDER BY id"
        first = people_db.execute(sql, [3]).fetchall()
        hits_before = people_db.plan_cache.stats.hits
        second = people_db.execute(sql, [5]).fetchall()
        assert people_db.plan_cache.stats.hits == hits_before + 1
        assert first == [(0,), (1,), (2,)]
        assert second == [(0,), (1,), (2,), (3,), (4,)]

    @pytest.mark.vectorized
    @pytest.mark.parametrize("sql", QUERIES)
    def test_three_way_vectorized_closure_interpreter(self, sql):
        """Same corpus, three execution paths: vector kernels, compiled
        closures, tree-walking interpreter.  NULL-heavy scores keep the
        validity handling honest on every query."""
        from repro import Database
        results = []
        for kw in ({}, {"vectorized_execution": False},
                   {"compile_expressions": False}):
            db = Database(**kw)
            db.execute("CREATE TABLE people (id NUMBER,"
                       " name VARCHAR2(30), score NUMBER)")
            rng = random.Random(99)
            for i in range(60):
                score = NULL if rng.random() < 0.2 else rng.randint(0, 100)
                db.execute("INSERT INTO people VALUES (:1, :2, :3)",
                           [i, f"name{i % 7}", score])
            results.append(db.execute(sql).fetchall())
        as_reprs = [[tuple(map(repr, r)) for r in rows] for rows in results]
        assert as_reprs[0] == as_reprs[1] == as_reprs[2], sql

    @pytest.mark.vectorized
    @pytest.mark.parametrize("sql,binds", PROBE_QUERIES)
    def test_three_way_index_probes(self, sql, binds):
        """IOT prefix probes and B-tree range probes (the access paths
        of cartridge callback SQL) through all three tiers, with NULLs
        in the probed and the residual columns and NULL probe binds."""
        results = []
        for kw in ({}, {"vectorized_execution": False},
                   {"compile_expressions": False}):
            db = _probe_db(kw)
            try:
                results.append(
                    ("ok", [tuple(map(repr, r))
                            for r in db.execute(sql, binds).fetchall()]))
            except Exception as exc:  # noqa: BLE001 — outcome parity
                results.append(("error", type(exc).__name__))
        assert results[0] == results[1] == results[2], sql
        if binds and all(b is not None for b in binds):
            plan = "\n".join(_probe_db({}).explain(sql, binds))
            assert ("IOT PREFIX SCAN" in plan
                    or "INDEX RANGE SCAN" in plan), plan
            assert "[VECTORIZED]" in plan, plan

    def test_functional_operator_falls_back_identically(self, employees_db):
        """An OperatorCall in a filter is interpreter-only; results must
        not change with compilation on or off."""
        employees_db.execute("DROP INDEX resume_text_index")
        sql = ("SELECT id FROM employees"
               " WHERE Contains(resume, 'unix') AND id < 5 ORDER BY id")
        employees_db.compile_expressions = True
        with_compile = employees_db.execute(sql).fetchall()
        employees_db.compile_expressions = False
        without = employees_db.execute(sql).fetchall()
        assert with_compile == without
        assert with_compile == [(1,), (3,)]


# ---------------------------------------------------------------------------
# EXPLAIN markers
# ---------------------------------------------------------------------------

class TestExplainMarkers:
    def test_compiled_marker_on_filtering_scan(self, db):
        db.execute("CREATE TABLE t (id NUMBER, name VARCHAR2(10))")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        lines = db.explain("SELECT id FROM t WHERE id > 0 ORDER BY name")
        assert any("TABLE SCAN" in ln and "[COMPILED]" in ln for ln in lines)
        assert any(ln.strip().startswith("SORT") and "[COMPILED]" in ln
                   for ln in lines)
        assert any(ln.strip().startswith("PROJECT") and "[COMPILED]" in ln
                   for ln in lines)

    def test_interpreted_marker_on_operator_filter(self, employees_db):
        employees_db.execute("DROP INDEX resume_text_index")
        lines = employees_db.explain(
            "SELECT id FROM employees WHERE Contains(resume, 'unix')")
        assert any("TABLE SCAN" in ln and "[INTERPRETED]" in ln
                   for ln in lines)

    def test_no_marker_on_expressionless_node(self, db):
        db.execute("CREATE TABLE t (id NUMBER)")
        lines = db.explain("SELECT id FROM t")
        scan = next(ln for ln in lines if "TABLE SCAN" in ln)
        assert "[COMPILED]" not in scan and "[INTERPRETED]" not in scan

    def test_compile_toggle_off_suppresses_markers(self, db):
        db.compile_expressions = False
        db.execute("CREATE TABLE t (id NUMBER)")
        lines = db.explain("SELECT id FROM t WHERE id = 1")
        assert not any("[COMPILED]" in ln or "[INTERPRETED]" in ln
                       for ln in lines)


# ---------------------------------------------------------------------------
# satellite fixes: sort keys and per-statement constants
# ---------------------------------------------------------------------------

class TestSortAndConstSatellites:
    def test_order_by_nulls_last_in_both_directions(self, db):
        db.execute("CREATE TABLE t (id NUMBER, v NUMBER)")
        for i, v in [(1, 10), (2, NULL), (3, 5), (4, NULL), (5, 20)]:
            db.execute("INSERT INTO t VALUES (:1, :2)", [i, v])
        asc = db.execute("SELECT id FROM t ORDER BY v").fetchall()
        desc = db.execute("SELECT id FROM t ORDER BY v DESC").fetchall()
        assert [r[0] for r in asc][:3] == [3, 1, 5]
        assert set(r[0] for r in asc[3:]) == {2, 4}  # NULLS LAST
        assert [r[0] for r in desc][:3] == [5, 1, 3]
        assert set(r[0] for r in desc[3:]) == {2, 4}  # still last

    def test_sort_keys_evaluated_once_per_row(self, db):
        calls = []
        db.catalog.add_function(SQLFunction(
            name="spy", fn=lambda x: calls.append(x) or x))
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(16):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        db.execute("SELECT id FROM t ORDER BY spy(id)").fetchall()
        assert len(calls) == 16  # not O(n log n) comparator evaluations

    def test_const_expression_evaluated_once_per_statement(self, db):
        calls = []
        db.catalog.add_function(SQLFunction(
            name="keyfn", fn=lambda: calls.append(1) or 7))
        db.execute("CREATE TABLE t (id NUMBER, v NUMBER)")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (:1, :2)", [i, i])
        db.execute("CREATE INDEX t_id ON t(id)")
        rows = db.execute("SELECT v FROM t WHERE id = keyfn()").fetchall()
        assert rows == [(7,)]
        # an equality sarg feeds both bounds of the B-tree scan: without
        # the per-statement memo the function would run twice
        assert len(calls) == 1
        calls.clear()
        db.execute("SELECT v FROM t WHERE id = keyfn()").fetchall()
        assert len(calls) == 1  # once per execution, not zero


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

class TestBatchPipeline:
    def test_scan_batches_matches_scan_with_deletes(self, db):
        db.execute("CREATE TABLE t (id NUMBER, pad VARCHAR2(100))")
        for i in range(200):
            db.execute("INSERT INTO t VALUES (:1, :2)", [i, "x" * 50])
        db.execute("DELETE FROM t WHERE id BETWEEN 50 AND 149")
        storage = db.catalog.get_table("t").storage
        flat = list(storage.scan())
        batched = [pair for page in storage.scan_batches() for pair in page]
        assert flat == batched
        assert all(len(page) > 0 for page in storage.scan_batches())

    @pytest.mark.parametrize("batch_size", [1, 3, 32, 1000])
    def test_results_invariant_under_batch_size(self, db, batch_size):
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        db.fetch_batch_size = batch_size
        rows = db.execute(
            "SELECT id FROM t WHERE id >= 40 ORDER BY id").fetchall()
        assert rows == [(i,) for i in range(40, 50)]

    def test_limit_stops_the_batched_pipeline_early(self, db):
        calls = []
        db.catalog.add_function(SQLFunction(
            name="probe", fn=lambda x: calls.append(x) or x))
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(500):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        with db.execute("SELECT probe(id) FROM t WHERE id >= 0 LIMIT 3"):
            pass
        # projection ran for at most a page or so of rows, not all 500
        assert len(calls) < 500

    def test_fetchmany_batches(self, db):
        db.execute("CREATE TABLE t (id NUMBER)")
        for i in range(10):
            db.execute("INSERT INTO t VALUES (:1)", [i])
        cur = db.execute("SELECT id FROM t ORDER BY id")
        assert cur.fetchmany(4) == [(0,), (1,), (2,), (3,)]
        assert cur.fetchmany(0) == []
        assert cur.fetchmany(100) == [(i,) for i in range(4, 10)]
        assert cur.fetchmany(5) == []
