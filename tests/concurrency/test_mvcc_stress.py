"""MVCC stress: 8 writer threads vs concurrent readers, zero reader locks.

Writers run explicit transactions that must look atomic: a two-row
balance transfer (total is invariant), note rewrites that always contain
the word 'alpha', and shape moves that always stay inside a fixed
window.  Readers — plain sessions on the same engine — continuously run
aggregate and domain-index queries and assert the invariants on every
single result: a reader can never observe a half-committed transfer, a
note mid-rewrite, or a row count in motion.

The non-blocking claim is checked structurally: the engine's
LockManager.acquire is wrapped, and no reader thread may call it at all
(writers keep locking exactly as before).
"""

import random
import threading

import pytest

from repro.cartridges.spatial import install as install_spatial
from repro.cartridges.spatial import make_rect
from repro.cartridges.text import install as install_text

pytestmark = [pytest.mark.concurrency, pytest.mark.mvcc]

N_WRITERS = 8
N_READERS = 4
WRITER_TXNS = 40
READER_QUERIES = 60
N_ACCOUNTS = 16
TOTAL = N_ACCOUNTS * 100


def _note(rng):
    return "alpha " + " ".join(
        rng.sample(["bravo", "carbon", "delta", "ember", "falcon"], 2))


def _shape(rng, gt):
    # always strictly inside the (0,0)-(900,900) reader window
    x, y = rng.uniform(50, 700), rng.uniform(50, 700)
    return make_rect(gt, x, y, x + 50, y + 50)


@pytest.fixture
def stress_engine(engine):
    setup = engine.connect()
    install_text(setup)
    install_spatial(setup)
    setup.execute("CREATE TABLE accounts (id INTEGER, amount INTEGER,"
                  " note VARCHAR2(120), shape SDO_GEOMETRY)")
    gt = setup.catalog.get_object_type("SDO_GEOMETRY")
    rng = random.Random(42)
    for i in range(N_ACCOUNTS):
        setup.insert_row("accounts", [i, 100, _note(rng), _shape(rng, gt)])
    setup.execute("CREATE INDEX acc_tidx ON accounts(note)"
                  " INDEXTYPE IS TextIndexType")
    setup.execute("CREATE INDEX acc_sidx ON accounts(shape)"
                  " INDEXTYPE IS SpatialIndexType")
    return engine


class _Writer:
    def __init__(self, engine, tid):
        self.session = engine.connect()
        self.gt = self.session.catalog.get_object_type("SDO_GEOMETRY")
        self.rng = random.Random(5000 + tid)
        self.error = None

    def run(self):
        try:
            for __ in range(WRITER_TXNS):
                self._one_txn()
        except BaseException as exc:
            self.error = exc

    def _one_txn(self):
        rng, s = self.rng, self.session
        a, b = rng.sample(range(N_ACCOUNTS), 2)
        delta = rng.randrange(1, 50)
        s.begin()
        s.execute("UPDATE accounts SET amount = amount - :1 WHERE id = :2",
                  [delta, a])
        if rng.random() < 0.4:
            s.execute("UPDATE accounts SET note = :1 WHERE id = :2",
                      [_note(rng), a])
        if rng.random() < 0.3:
            s.execute("UPDATE accounts SET shape = :1 WHERE id = :2",
                      [_shape(rng, self.gt), b])
        s.execute("UPDATE accounts SET amount = amount + :1 WHERE id = :2",
                  [delta, b])
        s.commit()


class _Reader:
    def __init__(self, engine, tid, window):
        self.session = engine.connect()
        self.rng = random.Random(7000 + tid)
        self.window = window
        self.error = None
        self.queries = 0

    def run(self):
        try:
            for __ in range(READER_QUERIES):
                self._one_query()
                self.queries += 1
        except BaseException as exc:
            self.error = exc

    def _one_query(self):
        s, r = self.session, self.rng.random()
        if r < 0.4:
            total, count = s.execute(
                "SELECT SUM(amount), COUNT(*) FROM accounts").fetchall()[0]
            assert count == N_ACCOUNTS, f"row count in motion: {count}"
            assert total == TOTAL, f"saw half a transfer: {total}"
        elif r < 0.7:
            rows = s.execute("SELECT id FROM accounts WHERE"
                             " Contains(note, 'alpha')").fetchall()
            assert len(rows) == N_ACCOUNTS, \
                f"text scan saw a note mid-rewrite: {len(rows)}"
        else:
            rows = s.execute(
                "SELECT id FROM accounts WHERE Sdo_Relate(shape, :1,"
                " 'mask=ANYINTERACT')", [self.window]).fetchall()
            assert len(rows) == N_ACCOUNTS, \
                f"spatial scan saw a shape mid-move: {len(rows)}"


class TestMVCCStress:
    def test_readers_never_block_and_always_consistent(self, stress_engine):
        engine = stress_engine
        gt = engine.connect().catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 0, 0, 900, 900)

        # structural non-blocking proof: reader threads carry a
        # thread-local mark, and any lock-manager entry from a marked
        # thread is recorded.  (Thread idents are recycled once a thread
        # exits, so a reader can inherit a finished writer's ident —
        # keying on idents reported false "reader locked" failures.)
        marks = threading.local()
        reader_acquires = []
        writer_acquires = []
        real_acquire = engine.locks.acquire

        def spying_acquire(*args, **kwargs):
            if getattr(marks, "reader", False):
                reader_acquires.append(args)
            else:
                writer_acquires.append(args)
            return real_acquire(*args, **kwargs)

        engine.locks.acquire = spying_acquire
        try:
            writers = [_Writer(engine, i) for i in range(N_WRITERS)]
            readers = [_Reader(engine, i, window) for i in range(N_READERS)]
            threads = (
                [threading.Thread(target=w.run) for w in writers]
                + [threading.Thread(target=r.run) for r in readers])
            # readers mark their own thread first thing via a wrapper
            for r, t in zip(readers, threads[N_WRITERS:]):
                orig = r.run

                def run(orig=orig):
                    marks.reader = True
                    orig()
                t._target = run
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            engine.locks.acquire = real_acquire

        for agent in writers + readers:
            if agent.error is not None:
                raise agent.error
        assert all(r.queries == READER_QUERIES for r in readers)
        # no reader thread ever touched the lock manager
        assert not reader_acquires, \
            f"a reader thread acquired a lock: {reader_acquires[:3]}"
        # writers did lock (writer-writer behaviour unchanged)
        assert writer_acquires
        # and the final state is intact
        check = engine.connect()
        total, count = check.execute(
            "SELECT SUM(amount), COUNT(*) FROM accounts").fetchall()[0]
        assert (total, count) == (TOTAL, N_ACCOUNTS)
        assert engine.locks.stats.deadlocks == 0
