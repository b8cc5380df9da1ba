"""One PEP 249 surface, four transports.

Every test in this module runs unchanged against all four ``connect()``
forms (in-memory DSN, ``file:`` DSN, shared engine, ``repro://``
network) via the parameterized ``backend`` fixture — the acceptance
criterion that a network connection is wire-indistinguishable from the
in-process driver, enforced by construction.
"""

import pytest

from repro import dbapi

pytestmark = pytest.mark.server


@pytest.fixture
def conn(backend):
    connection = backend.connect()
    cur = connection.cursor()
    cur.execute("CREATE TABLE people (id INTEGER NOT NULL,"
                " name VARCHAR2(40), age INTEGER)")
    cur.executemany("INSERT INTO people VALUES (?, ?, ?)",
                    [(1, "ada", 36), (2, "bob", 41), (3, "cid", 28)])
    connection.commit()
    return connection


class TestStatements:
    def test_select_round_trip(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id, name FROM people WHERE age > ?"
                    " ORDER BY id", (30,))
        assert cur.fetchall() == [(1, "ada"), (2, "bob")]

    def test_qmark_inside_literals_is_not_a_bind(self, conn):
        cur = conn.cursor()
        cur.execute("INSERT INTO people VALUES (?, 'what?', ?)", (9, 1))
        cur.execute("SELECT name FROM people WHERE id = ?", (9,))
        assert cur.fetchone() == ("what?",)

    def test_missing_parameters_is_programming_error(self, conn):
        with pytest.raises(dbapi.ProgrammingError):
            conn.cursor().execute("SELECT * FROM people WHERE id = ?")

    def test_executemany_rowcount_totals_all_sets(self, conn):
        cur = conn.cursor()
        cur.executemany("INSERT INTO people VALUES (?, ?, ?)",
                        [(10 + i, f"p{i}", 20 + i) for i in range(5)])
        assert cur.rowcount == 5

    def test_dml_rowcount_and_no_description(self, conn):
        cur = conn.cursor()
        cur.execute("UPDATE people SET age = age + 1 WHERE age < ?", (40,))
        assert cur.rowcount == 2
        assert cur.description is None

    def test_select_description_names_columns(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id, name FROM people")
        assert [d[0] for d in cur.description] == ["id", "name"]
        assert cur.rowcount == -1


class TestFetching:
    def test_fetchone_then_none_at_end(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        assert [cur.fetchone() for __ in range(4)] == [
            (1,), (2,), (3,), None]

    def test_fetchmany_honours_arraysize(self, conn):
        cur = conn.cursor()
        cur.arraysize = 2
        cur.execute("SELECT id FROM people ORDER BY id")
        assert cur.fetchmany() == [(1,), (2,)]
        assert cur.fetchmany() == [(3,)]
        assert cur.fetchmany() == []

    def test_cursor_iteration(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id FROM people ORDER BY id")
        assert [row[0] for row in cur] == [1, 2, 3]

    def test_incremental_fetch_across_many_rows(self, conn):
        cur = conn.cursor()
        cur.executemany("INSERT INTO people VALUES (?, ?, ?)",
                        [(100 + i, f"bulk{i}", i) for i in range(200)])
        cur.arraysize = 16
        cur.execute("SELECT id FROM people WHERE id >= ? ORDER BY id",
                    (100,))
        seen = []
        while True:
            batch = cur.fetchmany()
            if not batch:
                break
            seen.extend(row[0] for row in batch)
        assert seen == list(range(100, 300))

    def test_fetch_without_execute_is_interface_error(self, conn):
        with pytest.raises(dbapi.InterfaceError):
            conn.cursor().fetchall()


class TestTransactions:
    def test_rollback_discards_uncommitted_rows(self, conn):
        cur = conn.cursor()
        cur.execute("INSERT INTO people VALUES (?, ?, ?)", (7, "tmp", 1))
        conn.rollback()
        cur.execute("SELECT COUNT(*) FROM people")
        assert cur.fetchone() == (3,)

    def test_commit_makes_rows_visible_to_sibling(self, backend, conn):
        other = backend.sibling()
        cur = conn.cursor()
        cur.execute("INSERT INTO people VALUES (?, ?, ?)", (8, "new", 2))
        conn.commit()
        assert other.execute(
            "SELECT name FROM people WHERE id = ?", (8,)).fetchone() == (
                "new",)

    def test_context_manager_commits_on_clean_exit(self, backend, conn):
        with conn:
            conn.execute("INSERT INTO people VALUES (?, ?, ?)",
                         (11, "ctx", 5))
        assert backend.sibling().execute(
            "SELECT COUNT(*) FROM people WHERE id = 11").fetchone() == (1,)

    def test_context_manager_rolls_back_on_error(self, backend, conn):
        with pytest.raises(RuntimeError):
            with conn:
                conn.execute("INSERT INTO people VALUES (?, ?, ?)",
                             (12, "doomed", 5))
                raise RuntimeError("abort")
        assert backend.sibling().execute(
            "SELECT COUNT(*) FROM people WHERE id = 12").fetchone() == (0,)


class TestErrorParity:
    """Same exception classes (and causes) on every transport."""

    def test_catalog_error_is_programming_error(self, conn):
        from repro import errors as repro_errors
        with pytest.raises(dbapi.ProgrammingError) as excinfo:
            conn.execute("SELECT * FROM no_such_table")
        assert isinstance(excinfo.value.__cause__,
                          repro_errors.CatalogError)

    def test_parse_error_is_programming_error(self, conn):
        from repro import errors as repro_errors
        with pytest.raises(dbapi.ProgrammingError) as excinfo:
            conn.execute("SELEKT 1 FORM t")
        assert isinstance(excinfo.value.__cause__, repro_errors.ParseError)

    def test_constraint_violation_is_integrity_error(self, conn):
        from repro import errors as repro_errors
        with pytest.raises(dbapi.IntegrityError) as excinfo:
            conn.execute("INSERT INTO people VALUES (?, ?, ?)",
                         (None, "anon", 1))
        assert isinstance(excinfo.value.__cause__,
                          repro_errors.ConstraintError)

    def test_connection_survives_statement_error(self, conn):
        with pytest.raises(dbapi.ProgrammingError):
            conn.execute("SELECT * FROM no_such_table")
        assert conn.execute("SELECT COUNT(*) FROM people").fetchone() == (3,)

    @pytest.mark.parametrize("arraysize", [1, 3])
    def test_fetch_time_error_raises_at_the_failing_row(self, conn,
                                                        arraysize):
        """Row 1 evaluates, row 2 divides by zero: ``execute`` succeeds
        and the error surfaces at the second ``fetchone`` — also over
        the wire, where ``execute`` already pulled both rows."""
        from repro import errors as repro_errors
        cur = conn.cursor()
        cur.execute("CREATE TABLE ratios (k INTEGER, a INTEGER, b INTEGER)")
        cur.executemany("INSERT INTO ratios VALUES (?, ?, ?)",
                        [(1, 4, 2), (2, 1, 0), (3, 3, 1)])
        cur.arraysize = arraysize
        cur.execute("SELECT a / b FROM ratios ORDER BY k")
        assert cur.fetchone() == (2.0,)
        with pytest.raises(dbapi.ProgrammingError) as excinfo:
            cur.fetchone()
        assert isinstance(excinfo.value.__cause__,
                          repro_errors.ExecutionError)
        assert cur.fetchone() is None   # the failed cursor is exhausted

    def test_fetchall_error_is_mapped(self, conn):
        from repro import errors as repro_errors
        cur = conn.cursor()
        cur.execute("CREATE TABLE ratios (a INTEGER, b INTEGER)")
        cur.executemany("INSERT INTO ratios VALUES (?, ?)",
                        [(4, 2), (1, 0)])
        cur.execute("SELECT a / b FROM ratios")
        with pytest.raises(dbapi.ProgrammingError) as excinfo:
            cur.fetchall()
        assert isinstance(excinfo.value.__cause__,
                          repro_errors.ExecutionError)

    def test_error_classes_exposed_on_connection(self, conn):
        # PEP 249 optional extension: Connection.Error etc.
        assert conn.ProgrammingError is dbapi.ProgrammingError
        with pytest.raises(conn.DatabaseError):
            conn.execute("SELECT * FROM no_such_table")


class TestLifecycle:
    def test_closed_cursor_refuses_work(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT id FROM people")
        cur.close()
        with pytest.raises(dbapi.InterfaceError):
            cur.fetchall()
        with pytest.raises(dbapi.InterfaceError):
            cur.execute("SELECT 1 FROM people")

    def test_closed_connection_refuses_work(self, backend):
        connection = backend.connect()
        connection.close()
        with pytest.raises(dbapi.InterfaceError):
            connection.cursor()
        connection.close()   # idempotent

    def test_close_rolls_back_open_transaction(self, backend, conn):
        doomed = backend.sibling()
        doomed.execute("INSERT INTO people VALUES (?, ?, ?)",
                       (13, "ghost", 1))
        doomed.close()
        assert conn.execute(
            "SELECT COUNT(*) FROM people WHERE id = 13").fetchone() == (0,)

    def test_cursor_context_manager(self, conn):
        with conn.cursor() as cur:
            cur.execute("SELECT id FROM people")
            cur.fetchone()
        with pytest.raises(dbapi.InterfaceError):
            cur.fetchone()


class TestDomainIndexes:
    """Extensible indexing through every transport: the paper's operators
    work over the wire with plain scalar binds."""

    @pytest.fixture
    def indexed(self, backend, conn):
        from repro.cartridges.spatial import install as install_spatial
        from repro.cartridges.text import install as install_text
        setup = backend.setup_session()
        install_text(setup)
        install_spatial(setup)
        cur = conn.cursor()
        cur.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200),"
                    " shape SDO_GEOMETRY)")
        cur.executemany(
            "INSERT INTO docs VALUES (?, ?, sdo_rect(?, ?, ?, ?))",
            [(1, "oracle unix expert", 0, 0, 10, 10),
             (2, "java linux kernels", 100, 100, 120, 120),
             (3, "oracle dba scripting", 5, 5, 15, 15)])
        cur.execute("CREATE INDEX docs_text ON docs(body)"
                    " INDEXTYPE IS TextIndexType")
        cur.execute("CREATE INDEX docs_shape ON docs(shape)"
                    " INDEXTYPE IS SpatialIndexType")
        conn.commit()
        return conn

    def test_text_operator_over_the_wire(self, indexed):
        cur = indexed.cursor()
        cur.execute("SELECT id FROM docs WHERE Contains(body, ?)"
                    " ORDER BY id", ("oracle",))
        assert cur.fetchall() == [(1,), (3,)]

    def test_spatial_operator_with_sql_side_geometry(self, indexed):
        cur = indexed.cursor()
        cur.execute("SELECT id FROM docs WHERE Sdo_Relate(shape,"
                    " sdo_rect(?, ?, ?, ?), 'mask=ANYINTERACT')"
                    " ORDER BY id", (0, 0, 50, 50))
        assert cur.fetchall() == [(1,), (3,)]

    def test_fetched_geometry_survives_the_transport(self, indexed):
        cur = indexed.cursor()
        cur.execute("SELECT shape FROM docs WHERE id = ?", (1,))
        (shape,) = cur.fetchone()
        # an SDO_GEOMETRY object value with its coordinates intact
        assert shape.gtype == 3
        assert list(shape.coords) == [0, 0, 10, 0, 10, 10, 0, 10]
