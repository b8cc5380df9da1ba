"""Server lifecycle: pool bounds, timeouts, drain, teardown, stats.

These tests drive a real :class:`repro.server.Server` over loopback
TCP — some through the DB-API client, some with raw protocol frames
(version mismatch, garbage bytes, oversized frames) to pin down the
contract that a misbehaving client gets a typed error frame and a
closed connection while the accept loop keeps serving everyone else.
"""

import socket
import threading
import time

import pytest

from repro import dbapi
from repro import errors as repro_errors
from repro.server import Server
from repro.server.protocol import (
    MAGIC, PROTOCOL_VERSION, recv_frame, send_frame)
from repro.sql.catalog import SQLFunction
from repro.sql.engine import Engine
from repro.testing import FaultPlan

pytestmark = pytest.mark.server


@pytest.fixture
def engine():
    eng = Engine(lock_timeout=30.0)
    yield eng
    eng.close()


@pytest.fixture
def server(engine):
    srv = Server(engine=engine).start()
    yield srv
    srv.shutdown()


def _raw_client(server, hello=None):
    """A raw socket, optionally past the handshake."""
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    if hello is not None:
        send_frame(sock, "hello", hello)
    return sock


def _good_hello():
    return {"magic": MAGIC, "version": PROTOCOL_VERSION, "user": "raw",
            "settings": {}}


class TestHandshake:
    def test_version_mismatch_gets_typed_error_frame(self, server):
        sock = _raw_client(server, {**_good_hello(), "version": 999})
        op, payload, __ = recv_frame(sock)
        assert op == "error"
        assert payload["dbapi"] == "InterfaceError"
        assert "version mismatch" in payload["message"]
        sock.close()

    def test_bad_magic_is_refused(self, server):
        sock = _raw_client(server, {**_good_hello(), "magic": "HTTP"})
        op, payload, __ = recv_frame(sock)
        assert (op, "magic" in payload["message"]) == ("error", True)
        sock.close()

    def test_unknown_session_setting_is_refused(self, server):
        sock = _raw_client(
            server, {**_good_hello(), "settings": {"turbo_mode": True}})
        op, payload, __ = recv_frame(sock)
        assert op == "error"
        assert "turbo_mode" in payload["message"]
        sock.close()

    def test_accept_loop_survives_bad_handshakes(self, server):
        for __ in range(3):
            sock = _raw_client(server, {**_good_hello(), "version": 0})
            recv_frame(sock)
            sock.close()
        conn = dbapi.connect(server.url, timeout=10.0)
        assert conn.execute("SELECT * FROM user_tables").fetchall() == []
        conn.close()
        assert server.stats.handshake_failures == 3

    def test_handshake_settings_reach_the_session(self, engine, server):
        conn = dbapi.connect(server.url, timeout=10.0,
                             settings={"lock_timeout": 2.5,
                                       "fetch_batch_size": 7})
        handler = server._handlers[0]
        assert handler.session.lock_timeout == 2.5
        assert handler.session.fetch_batch_size == 7
        conn.close()


class TestProtocolAbuse:
    def test_garbage_bytes_get_error_frame_then_close(self, server):
        sock = _raw_client(server, _good_hello())
        recv_frame(sock)   # welcome
        sock.sendall(b"\x00\x00\x00\x04junk")
        op, payload, __ = recv_frame(sock)
        assert op == "error"
        assert payload["dbapi"] == "InterfaceError"
        with pytest.raises(repro_errors.DatabaseError):
            recv_frame(sock)   # server closed the connection after that
        sock.close()

    def test_oversized_frame_is_refused(self, engine):
        with Server(engine=engine, max_frame=4096) as server:
            sock = _raw_client(server, _good_hello())
            recv_frame(sock)
            send_frame(sock, "execute", {"sql": "x" * 10_000})
            op, payload, __ = recv_frame(sock)
            assert op == "error"
            assert "exceeds" in payload["message"]
            sock.close()

    def test_server_keeps_serving_after_abuse(self, server):
        for payload in (b"\xff" * 8, b"\x00\x00\x00\x01?"):
            sock = _raw_client(server, _good_hello())
            recv_frame(sock)
            sock.sendall(payload)
            sock.close()
        conn = dbapi.connect(server.url, timeout=10.0)
        conn.execute("CREATE TABLE still_up (id INTEGER)")
        assert conn.execute(
            "SELECT COUNT(*) FROM still_up").fetchone() == (0,)
        conn.close()


class TestSessionPool:
    def test_pool_exhaustion_rejects_with_typed_error(self, engine):
        with Server(engine=engine, max_sessions=2) as server:
            first = dbapi.connect(server.url, timeout=10.0)
            second = dbapi.connect(server.url, timeout=10.0)
            with pytest.raises(dbapi.OperationalError) as excinfo:
                dbapi.connect(server.url, timeout=10.0)
            assert "pool exhausted" in str(excinfo.value)
            assert server.stats.connections_rejected == 1
            first.close()
            self._wait(lambda: server.stats.active_sessions == 1)
            third = dbapi.connect(server.url, timeout=10.0)  # slot freed
            third.close()
            second.close()

    @staticmethod
    def _wait(predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.01)


class TestTimeouts:
    def test_idle_timeout_rolls_back_and_informs_client(self, engine):
        with Server(engine=engine, idle_timeout=0.2) as server:
            setup = engine.connect()
            setup.execute("CREATE TABLE t (id INTEGER)")
            conn = dbapi.connect(server.url, timeout=10.0)
            conn.execute("INSERT INTO t VALUES (?)", (1,))
            time.sleep(0.6)   # exceed the idle budget mid-transaction
            with pytest.raises(dbapi.OperationalError):
                conn.execute("INSERT INTO t VALUES (?)", (2,))
            assert server.stats.idle_timeouts >= 1
            # the idle session's open transaction was rolled back
            assert setup.execute("SELECT COUNT(*) FROM t").fetchone() == (0,)

    def test_client_timeout_raises_operational_error(self):
        # a listener that accepts and never responds: the client's
        # deadline, not the server's, must break the wait
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            with pytest.raises(dbapi.OperationalError) as excinfo:
                dbapi.connect(f"repro://{host}:{port}", timeout=0.3)
            assert "no response" in str(excinfo.value)
        finally:
            listener.close()

    def test_statement_timeout_rides_dispatcher_budgets(self, engine):
        from repro.cartridges.text import install as install_text
        setup = engine.connect()
        install_text(setup)
        setup.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(100))")
        for i in range(8):
            setup.execute("INSERT INTO docs VALUES (:1, 'common words')",
                          [i])
        setup.execute("CREATE INDEX docs_text ON docs(body)"
                      " INDEXTYPE IS TextIndexType")
        with Server(engine=engine, statement_timeout=0.05) as server:
            assert engine.dispatcher.default_timeout == 0.05
            conn = dbapi.connect(
                server.url, timeout=10.0,
                settings={"skip_unusable_indexes": False})
            with FaultPlan(engine) as faults:
                faults.delay("ODCIIndexFetch", ms=200, index="docs_text")
                with pytest.raises(dbapi.OperationalError) as excinfo:
                    conn.execute("SELECT id FROM docs WHERE"
                                 " Contains(body, ?)", ("common",)
                                 ).fetchall()
            assert isinstance(excinfo.value.__cause__,
                              repro_errors.CallbackTimeoutError)
            conn.close()


class TestGracefulDrain:
    def test_inflight_statement_finishes_before_close(self, engine):
        finished = threading.Event()
        engine.catalog.add_function(SQLFunction(
            name="slowly",
            fn=lambda x: (time.sleep(0.4), finished.set(), x)[-1],
            cost=0.0001))
        setup = engine.connect()
        setup.execute("CREATE TABLE t (id INTEGER)")
        setup.execute("INSERT INTO t VALUES (1)")
        server = Server(engine=engine).start()
        conn = dbapi.connect(server.url, timeout=10.0)
        result = {}

        def client():
            # in flight when shutdown begins; must still get its answer
            result["row"] = conn.execute(
                "UPDATE t SET id = slowly(id) + 1").rowcount

        thread = threading.Thread(target=client)
        thread.start()
        time.sleep(0.1)
        server.shutdown(drain_timeout=10.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert finished.is_set()
        assert result == {"row": 1}
        # drained: new connections are refused outright
        with pytest.raises(dbapi.OperationalError):
            dbapi.connect(server.url, timeout=2.0)

    def test_drain_rolls_back_idle_open_transactions(self, engine):
        setup = engine.connect()
        setup.execute("CREATE TABLE t (id INTEGER)")
        server = Server(engine=engine).start()
        conn = dbapi.connect(server.url, timeout=10.0)
        conn.execute("INSERT INTO t VALUES (?)", (1,))   # uncommitted
        server.shutdown(drain_timeout=10.0)
        assert setup.execute("SELECT COUNT(*) FROM t").fetchone() == (0,)

    def test_owned_engine_closes_with_server(self, tmp_path):
        server = Server(data_dir=str(tmp_path / "d")).start()
        engine = server.engine
        conn = dbapi.connect(server.url, timeout=10.0)
        conn.execute("CREATE TABLE t (id INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        conn.close()
        server.shutdown()
        assert engine._closed
        # a clean close checkpointed: reopening replays nothing
        reopened = Engine(data_dir=str(tmp_path / "d"))
        assert reopened.recovery_stats.clean
        assert reopened.recovery_stats.redo_records == 0
        check = reopened.connect()
        assert check.execute("SELECT id FROM t").fetchall() == [(1,)]
        reopened.close()

    def test_borrowed_engine_stays_open(self, engine):
        server = Server(engine=engine).start()
        server.shutdown()
        assert not engine._closed


class TestStats:
    def test_user_server_stats_view(self, engine, server):
        conn = dbapi.connect(server.url, timeout=10.0)
        conn.execute("CREATE TABLE t (id INTEGER)")
        conn.execute("INSERT INTO t VALUES (?)", (7,))
        conn.execute("INSERT INTO t VALUES (?)", (8,))
        conn.commit()
        # two rows at arraysize 1: execute ships the first, the second
        # needs a FETCH (a one-row result would end inside execute)
        conn.execute("SELECT id FROM t").fetchall()
        local = engine.connect()
        rows = local.execute(
            "SELECT op, requests FROM user_server_stats"
            " WHERE enabled = :1", [True]).fetchall()
        by_op = dict(rows)
        assert by_op["execute"] >= 4
        assert by_op["commit"] == 1
        assert by_op["fetch"] >= 1
        (conns,) = local.execute(
            "SELECT MAX(connections) FROM user_server_stats").fetchone(),
        conn.close()

    def test_latency_histogram_text_is_rendered(self, engine, server):
        conn = dbapi.connect(server.url, timeout=10.0)
        conn.execute("CREATE TABLE t (id INTEGER)")
        local = engine.connect()
        (hist,) = local.execute(
            "SELECT latency_histogram FROM user_server_stats"
            " WHERE op = 'execute'").fetchone()
        assert "ms:" in hist
        conn.close()

    def test_view_reports_disabled_without_server(self):
        eng = Engine()
        local = eng.connect()
        rows = local.execute(
            "SELECT enabled, op FROM user_server_stats").fetchall()
        assert rows == [(False, None)]
        eng.close()

    def test_stats_wire_op(self, server):
        conn = dbapi.connect(server.url, timeout=10.0)
        snapshot = conn.server_stats()
        assert snapshot["active_sessions"] == 1
        assert snapshot["address"] == (server.host, server.port)
        conn.close()


class TestFetchFraming:
    """Protocol v2 batching: ``execute`` replies carry the first
    ``arraysize`` rows, every batch is cut with one row of lookahead, and
    FETCH frames match the negotiated ``arraysize``."""

    def _seeded_conn(self, server, n_rows=100):
        conn = dbapi.connect(server.url, timeout=30.0)
        cur = conn.cursor()
        cur.execute("CREATE TABLE t (id INTEGER)")
        cur.executemany("INSERT INTO t VALUES (:1)",
                        [[i] for i in range(n_rows)])
        conn.commit()
        return conn

    def _spy(self, conn):
        """Record every round trip as ``(op, payload)``."""
        recorded = []
        original = conn._roundtrip

        def spy(op, payload):
            recorded.append((op, payload))
            return original(op, payload)

        conn._roundtrip = spy
        return recorded

    @pytest.fixture
    def text_engine(self, engine):
        from repro.cartridges.text import install as install_text
        setup = engine.connect()
        install_text(setup)
        setup.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))")
        bodies = ["zebra one", "plain two", "zebra three", "plain four",
                  "zebra five", "solo okapi"]
        for i, body in enumerate(bodies):
            setup.execute("INSERT INTO docs VALUES (:1, :2)", [i, body])
        setup.execute("CREATE INDEX docs_text ON docs(body)"
                      " INDEXTYPE IS TextIndexType")
        return engine

    def test_fetchall_honors_raised_arraysize_on_the_wire(self, server):
        conn = self._seeded_conn(server)
        recorded = self._spy(conn)
        cur = conn.cursor()
        cur.arraysize = 7
        cur.execute("SELECT id FROM t ORDER BY id")
        rows = cur.fetchall()
        assert rows == [(i,) for i in range(100)]
        ops = [op for op, __ in recorded]
        assert recorded[0] == ("execute", {
            "sql": "SELECT id FROM t ORDER BY id", "binds": None,
            "prefetch": 7})
        fetches = [p["n"] for op, p in recorded if op == "fetch"]
        # execute ships 7 rows; 93 more drain in 14 frames of n=7, the
        # last carrying 2 rows and the done flag
        assert fetches == [7] * 14, fetches
        assert ops == ["execute"] + ["fetch"] * 14
        conn.close()

    def test_default_arraysize_keeps_large_drain_batches(self, server):
        """arraysize 1 is the DB-API default, not a drain preference:
        fetchall must not degrade to one row per round trip."""
        conn = self._seeded_conn(server)
        recorded = self._spy(conn)
        cur = conn.cursor()
        assert cur.arraysize == 1
        cur.execute("SELECT id FROM t")
        rows = cur.fetchall()
        assert len(rows) == 100
        fetches = [p["n"] for op, p in recorded if op == "fetch"]
        # one large drain; its lookahead ends it without an empty FETCH
        assert len(fetches) == 1 and fetches[0] > 1, fetches
        conn.close()

    def test_point_select_is_one_round_trip(self, server):
        conn = self._seeded_conn(server)
        recorded = self._spy(conn)
        cur = conn.cursor()
        for key in (3, 4):
            cur.execute("SELECT id FROM t WHERE id = ?", (key,))
            assert cur.fetchall() == [(key,)]
        cur.close()
        # no fetch for the rows, no close_cursor for the result
        assert [op for op, __ in recorded] == ["execute", "execute"]
        assert not server._handlers[0].cursors
        conn.close()

    def test_empty_result_is_one_round_trip(self, server):
        conn = self._seeded_conn(server, n_rows=3)
        recorded = self._spy(conn)
        cur = conn.cursor()
        cur.execute("SELECT id FROM t WHERE id = ?", (99,))
        assert cur.fetchone() is None
        assert cur.description[0][0] == "id"
        assert [op for op, __ in recorded] == ["execute"]
        conn.close()

    def test_contains_fetchone_then_fetchall_is_two_round_trips(
            self, text_engine):
        with Server(engine=text_engine) as server:
            conn = dbapi.connect(server.url, timeout=10.0)
            recorded = self._spy(conn)
            cur = conn.cursor()
            assert cur.arraysize == 1
            cur.execute("SELECT id FROM docs WHERE Contains(body, ?)"
                        " ORDER BY id", ("zebra",))
            assert cur.fetchone() == (0,)      # shipped with execute
            assert cur.fetchall() == [(2,), (4,)]
            cur.close()
            assert [op for op, __ in recorded] == ["execute", "fetch"]
            conn.close()

    def test_done_result_has_closed_its_scan(self, text_engine):
        with Server(engine=text_engine) as server:
            conn = dbapi.connect(server.url, timeout=10.0)
            recorded = self._spy(conn)
            with FaultPlan(text_engine) as faults:
                cur = conn.cursor()
                cur.execute("SELECT id FROM docs WHERE Contains(body, ?)",
                            ("okapi",))
                # the one-row result ended inside execute: the scan was
                # closed before the reply, not by a later close_cursor
                assert faults.calls("ODCIIndexClose", index="docs_text") == 1
                assert cur.fetchall() == [(5,)]
                cur.close()
                assert faults.calls("ODCIIndexClose", index="docs_text") == 1
            assert [op for op, __ in recorded] == ["execute"]
            conn.close()

    def test_v1_hello_gets_typed_error_frame(self, server):
        assert PROTOCOL_VERSION == 2
        sock = _raw_client(server, {**_good_hello(), "version": 1})
        op, payload, __ = recv_frame(sock)
        assert op == "error"
        assert payload["dbapi"] == "InterfaceError"
        assert "client speaks 1" in payload["message"]
        sock.close()
        assert server.stats.handshake_failures == 1

    def test_parked_error_answers_the_next_fetch(self, server):
        conn = dbapi.connect(server.url, timeout=10.0)
        cur = conn.cursor()
        cur.execute("CREATE TABLE r (k INTEGER, a INTEGER, b INTEGER)")
        cur.executemany("INSERT INTO r VALUES (?, ?, ?)",
                        [(1, 4, 2), (2, 1, 0)])
        recorded = self._spy(conn)
        cur.execute("SELECT a / b FROM r ORDER BY k")
        handler = server._handlers[0]
        (open_cursor,) = handler.cursors.values()
        assert isinstance(open_cursor.error, repro_errors.ExecutionError)
        assert cur.fetchone() == (2.0,)
        with pytest.raises(dbapi.ProgrammingError):
            cur.fetchone()
        assert not handler.cursors     # closed when the error was sent
        assert [op for op, __ in recorded] == ["execute", "fetch"]
        conn.close()


class TestAbandonedCursors:
    """Satellite fix: cursors abandoned mid-fetch fire ODCIIndexClose
    and give their workspace handles back, on both transports."""

    @pytest.fixture
    def corpus_engine(self, engine):
        from repro.bench.workloads import make_corpus
        from repro.cartridges.text import install as install_text
        setup = engine.connect()
        install_text(setup)
        corpus = make_corpus(60, words_per_doc=20, vocabulary_size=40,
                             seed=5)
        setup.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(2000))")
        for i, doc in enumerate(corpus.documents):
            setup.execute("INSERT INTO docs VALUES (:1, :2)", [i, doc])
        setup.execute("CREATE INDEX docs_text ON docs(body)"
                      " INDEXTYPE IS TextIndexType")
        engine.common_word = corpus.common_word(0)
        return engine

    def test_connection_close_releases_abandoned_cursor(self, corpus_engine):
        conn = dbapi.connect(corpus_engine)
        with FaultPlan(corpus_engine) as faults:
            cur = conn.cursor()
            cur.execute("SELECT id FROM docs WHERE Contains(body, ?)",
                        (corpus_engine.common_word,))
            assert cur.fetchone() is not None   # scan is open mid-fetch
            assert faults.calls("ODCIIndexClose", index="docs_text") == 0
            conn.close()                        # never closed the cursor
            assert faults.calls("ODCIIndexClose", index="docs_text") == 1

    def test_server_teardown_releases_abandoned_cursor(self, corpus_engine):
        with Server(engine=corpus_engine) as server:
            conn = dbapi.connect(server.url, timeout=10.0)
            with FaultPlan(corpus_engine) as faults:
                cur = conn.cursor()
                cur.execute("SELECT id FROM docs WHERE Contains(body, ?)",
                            (corpus_engine.common_word,))
                assert cur.fetchone() is not None
                # abandon rudely: drop the socket, no close frames
                conn._poison()
                deadline = time.monotonic() + 5.0
                while (faults.calls("ODCIIndexClose",
                                    index="docs_text") == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert faults.calls(
                    "ODCIIndexClose", index="docs_text") == 1

    def test_remote_close_cursor_releases_early(self, corpus_engine):
        with Server(engine=corpus_engine) as server:
            conn = dbapi.connect(server.url, timeout=10.0)
            with FaultPlan(corpus_engine) as faults:
                cur = conn.cursor()
                cur.execute("SELECT id FROM docs WHERE Contains(body, ?)",
                            (corpus_engine.common_word,))
                cur.fetchone()
                cur.close()   # explicit: close_cursor frame, synchronous
                assert faults.calls(
                    "ODCIIndexClose", index="docs_text") == 1
            conn.close()


class TestConnectKwargs:
    def test_engine_kwarg_warns_but_works(self, engine):
        with pytest.warns(DeprecationWarning, match="first argument"):
            conn = dbapi.connect(engine=engine)
        assert conn.engine is engine
        conn.close()

    def test_data_dir_kwarg_warns_but_works(self, tmp_path):
        with pytest.warns(DeprecationWarning, match="file:"):
            conn = dbapi.connect(data_dir=str(tmp_path / "d"))
        assert conn.engine.durability is not None
        conn.engine.close()

    def test_dsn_and_engine_kwarg_conflict(self, engine):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(dbapi.InterfaceError):
                dbapi.connect("file:/x", engine=engine)

    def test_engine_options_rejected_for_network(self, server):
        with pytest.raises(dbapi.InterfaceError):
            dbapi.connect(server.url, lock_timeout=1.0)

    def test_timeout_rejected_for_in_process(self):
        with pytest.raises(dbapi.InterfaceError):
            dbapi.connect(timeout=5.0)
