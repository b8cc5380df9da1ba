"""``paper_dml``: durable DML on text, spatial and chemistry indexes.

One client on a ``file:`` DSN (WAL group commit on, real ``os.fsync``,
engine-default checkpoint interval) runs transactions in a closed loop.
Each inserts two documents, updates one and deletes one, inserts and
deletes one parcel and one molecule, commits, and then runs one text
query that must see the write: the documents carry a marker word unique
to their transaction, so the read-back has exactly one right answer.
After the run the three indexes are compared with the functional
answer, the data directory is reopened as a crash would leave it
(``restart_s``), and every acknowledged row must be there.

The read-back is always a text query.  Its latency climbs through a run
(the postings IOT's snapshot scans walk ever longer version chains), so
mixing it with the flat spatial and chemistry latencies put the read
median on the border between the two and moved it by a quarter from
run to run.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Any, Dict, List

import common
import data
import layers
import spans as tr

START_DOCS, START_PARCELS, START_MOLECULES = 1000, 500, 300
#: percentile reported as read_tail_ms (one read per transaction)
TAIL_PCT = 90.0
#: transactions run untimed before measuring, and run traced
WARMUP_TXNS = 8
TRACED_TXNS = 24

KNOBS = {"engine": "defaults (buffer_capacity=512, wal_group_commit=on,"
                   " wal_fsync_delay=0 so commits pay a real os.fsync,"
                   " wal_checkpoint_interval=256 commits)",
         "dsn": "file: (fresh directory under .perfbench/)", "clients": 1,
         "loop": "closed", "chem_storage": "LOB", "tail_pct": TAIL_PCT,
         "restart": "data directory copied with the WAL cut at its"
                    " durable size, then reopened with recovery"}


def marker(txn: int) -> str:
    """A word that appears only in transaction ``txn``'s documents."""
    letters = ""
    value = txn
    while True:
        letters += "abcdefghijklmnopqrstuvwxyz"[value % 26]
        value //= 26
        if not value:
            return "qmark" + letters


class World:
    """The client's own record of every acknowledged row."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.vocab = data.vocabulary(500)
        self.docs: Dict[int, str] = dict(enumerate(
            data.documents(self.rng, START_DOCS, self.vocab)))
        self.parcels: Dict[int, tuple] = dict(enumerate(
            data.rectangles(self.rng, START_PARCELS)))
        self.mols: Dict[int, str] = dict(enumerate(
            data.molecules(self.rng, START_MOLECULES)))
        self.next_doc = START_DOCS
        self.next_gid = START_PARCELS
        self.next_mid = START_MOLECULES
        self.txn = 0


def build(path: str, world: World):
    from repro import dbapi
    from repro.cartridges import chemistry, spatial, text
    from repro.cartridges.spatial.geometry import make_rect

    conn = dbapi.connect("file:" + path)
    session = conn.session
    for cartridge in (text, spatial, chemistry):
        cartridge.install(session)
    cur = conn.cursor()
    cur.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    cur.execute("CREATE TABLE parcels (gid INTEGER, geometry SDO_GEOMETRY)")
    cur.execute("CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))")
    cur.executemany("INSERT INTO docs VALUES (?, ?)",
                    sorted(world.docs.items()))
    geometry = session.catalog.get_object_type("SDO_GEOMETRY")
    cur.executemany("INSERT INTO parcels VALUES (?, ?)",
                    [(g, make_rect(geometry, *r))
                     for g, r in sorted(world.parcels.items())])
    cur.executemany("INSERT INTO molecules VALUES (?, ?)",
                    sorted(world.mols.items()))
    conn.commit()
    cur.execute("CREATE INDEX docs_text ON docs(body)"
                " INDEXTYPE IS TextIndexType")
    cur.execute("CREATE INDEX parcels_sidx ON parcels(geometry)"
                " INDEXTYPE IS SpatialIndexType")
    cur.execute("CREATE INDEX mol_idx ON molecules(mol) INDEXTYPE IS"
                " ChemIndexType PARAMETERS (':Storage LOB')")
    for table in ("docs", "parcels", "molecules"):
        cur.execute(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    conn.commit()
    return conn


def payload_bytes(values) -> int:
    """User bytes in a row's bind values (8 per number or coordinate)."""
    total = 0
    for value in values:
        if isinstance(value, str):
            total += len(value.encode())
        elif isinstance(value, tuple):
            total += 8 * len(value)
        else:
            total += 8
    return total


def write_bytes() -> int:
    """Bytes this process has passed to write calls so far."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Client:
    """Runs transactions against one connection and checks each one."""

    def __init__(self, conn, world: World):
        from repro.cartridges.spatial.geometry import make_rect
        self.conn = conn
        self.cur = conn.cursor()
        self.world = world
        geometry = conn.session.catalog.get_object_type("SDO_GEOMETRY")
        self.rect = lambda r: make_rect(geometry, *r)
        self.samples = common.Samples()
        self.counts: Dict[str, float] = {}
        self.payload = 0

    def _write(self, sql: str, binds) -> None:
        start = time.perf_counter()
        self.cur.execute(sql, binds)
        self.samples.add("write", time.perf_counter() - start)
        if self.cur.rowcount != 1:
            raise common.CheckFailed(f"{sql!r} with {binds[:1]} touched "
                                     f"{self.cur.rowcount} rows")

    def txn(self, tracer=None) -> None:
        from repro import dbapi
        w = self.world
        rng = w.rng
        i = w.txn
        w.txn += 1
        if tracer:
            tracer.statement(i)
        mark = marker(i)
        new_docs = {}
        for __ in range(2):
            words = rng.choices(w.vocab, k=39) + [mark]
            rng.shuffle(words)
            new_docs[w.next_doc] = " ".join(words)
            w.next_doc += 1
        victim_update = rng.choice(sorted(w.docs))
        victim_delete = rng.choice(sorted(set(w.docs) - {victim_update}))
        updated_body = " ".join(rng.choices(w.vocab, k=40))
        new_parcel = data.rectangles(rng, 1)[0]
        parcel_gone = rng.choice(sorted(w.parcels))
        new_mol = data.molecule(rng, rng.randint(5, 16))
        mol_gone = rng.choice(sorted(w.mols))
        self.samples.attempted += 1
        began = time.perf_counter()
        try:
            for doc_id, body in new_docs.items():
                self._write("INSERT INTO docs VALUES (?, ?)", (doc_id, body))
            self._write("UPDATE docs SET body = ? WHERE id = ?",
                        (updated_body, victim_update))
            self._write("DELETE FROM docs WHERE id = ?", (victim_delete,))
            self._write("INSERT INTO parcels VALUES (?, ?)",
                        (w.next_gid, self.rect(new_parcel)))
            self._write("DELETE FROM parcels WHERE gid = ?", (parcel_gone,))
            self._write("INSERT INTO molecules VALUES (?, ?)",
                        (w.next_mid, new_mol))
            self._write("DELETE FROM molecules WHERE mid = ?", (mol_gone,))
            start = time.perf_counter()
            self.conn.commit()
            self.samples.add("write", time.perf_counter() - start)
        except dbapi.Error:
            self.samples.failed += 1
            self.conn.rollback()
            return
        # acknowledged: the client's record follows the database
        w.docs.update(new_docs)
        w.docs[victim_update] = updated_body
        del w.docs[victim_delete]
        w.parcels[w.next_gid] = new_parcel
        del w.parcels[parcel_gone]
        w.mols[w.next_mid] = new_mol
        del w.mols[mol_gone]
        self.payload += sum(payload_bytes(row) for row in (
            *((d, b) for d, b in new_docs.items()),
            (victim_update, updated_body), (w.next_gid, new_parcel),
            (w.next_mid, new_mol)))
        w.next_gid += 1
        w.next_mid += 1
        for key, n in (("stmts", 9), ("writes", 9), ("txns", 1),
                       ("commits", 1)):
            self.counts[key] = self.counts.get(key, 0) + n
        ids = self._read_back(mark)
        if sorted(ids) != sorted(new_docs):
            raise common.CheckFailed(
                f"Contains({mark!r}) returned {ids}, wrote {sorted(new_docs)}")
        self.samples.checked += 1
        self.samples.done.append((began, time.perf_counter()))

    def _read_back(self, mark: str) -> List[int]:
        """The text query that must find this transaction's documents."""
        start = time.perf_counter()
        self.cur.execute("SELECT id FROM docs WHERE Contains(body, ?)",
                         (mark,))
        first = self.cur.fetchone()
        first_at = time.perf_counter()
        rest = self.cur.fetchall()
        end = time.perf_counter()
        for kind, seconds in (("read", end - start),
                              ("text_query", end - start),
                              ("first_row", first_at - start)):
            self.samples.add(kind, seconds)
        ids = [r[0] for r in ([first] if first is not None else []) + rest]
        for key, n in (("stmts", 1), ("queries", 1), ("text_queries", 1),
                       ("rows", len(ids)), ("text_rows", len(ids))):
            self.counts[key] = self.counts.get(key, 0) + n
        return ids

    def check_indexes(self) -> None:
        """Each domain index returns the functional answer over the rows
        the client knows were acknowledged."""
        from repro.cartridges.chemistry.indextype import chem_substructure
        from repro.cartridges.spatial.indextype import sdo_relate_functional
        from repro.cartridges.text.indextype import text_contains
        w = self.world
        term = f"{w.vocab[3]} AND {w.vocab[11]}"
        window = (100.0, 100.0, 700.0, 700.0)
        shape = self.rect(window)
        checks = (
            ("SELECT id FROM docs WHERE Contains(body, ?)", (term,),
             {d for d, body in w.docs.items() if text_contains(body, term)}),
            ("SELECT gid FROM parcels WHERE Sdo_Relate(geometry, ?,"
             " 'mask=ANYINTERACT')", (shape,),
             {g for g, r in w.parcels.items() if sdo_relate_functional(
                 self.rect(r), shape, "mask=ANYINTERACT")}),
            ("SELECT mid FROM molecules WHERE Chem_Substructure(mol, ?)",
             ("CCO",), {m for m, s in w.mols.items()
                        if chem_substructure(s, "CCO")}),
        )
        for sql, binds, expected in checks:
            self.cur.execute(sql, binds)
            got = [r[0] for r in self.cur.fetchall()]
            if len(got) != len(expected) or set(got) != expected:
                raise common.CheckFailed(
                    f"{sql.split('WHERE')[1].strip()!r}: index returned "
                    f"{len(got)} rows, functional answer has {len(expected)}")
        self.conn.commit()


def crash_copy(conn, path: str, copy: str) -> None:
    """The data directory as a crash now would leave it: the files as
    the OS holds them, with the WAL cut at its last fsync."""
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(path, copy)
    wal = conn.engine.durability.wal
    os.truncate(os.path.join(copy, os.path.basename(wal.device.path)),
                wal.device.durable_size)


def restart(copy: str, world: World) -> Dict[str, float]:
    """Reopen ``copy``; check every acknowledged row; time the reopen."""
    from repro.sql.engine import Engine
    start = time.perf_counter()
    engine = Engine(data_dir=copy)
    restart_s = time.perf_counter() - start
    try:
        recovery = engine.recovery_stats.snapshot()
        session = engine.connect()
        for table, key, rows in (("docs", "id", world.docs),
                                 ("parcels", "gid", world.parcels),
                                 ("molecules", "mid", world.mols)):
            got = session.execute(f"SELECT {key} FROM {table}").fetchall()
            if sorted(r[0] for r in got) != sorted(rows):
                raise common.CheckFailed(
                    f"after restart {table} holds {len(got)} rows,"
                    f" {len(rows)} were acknowledged")
        body = session.execute("SELECT body FROM docs WHERE id = :1",
                               [max(world.docs)]).fetchall()
        if body != [(world.docs[max(world.docs)],)]:
            raise common.CheckFailed("after restart a document body differs")
        session.close()
    finally:
        engine.close()
    return {"restart_s": restart_s,
            "recovery_ms": recovery["duration_seconds"] * 1000.0,
            "redo_records": recovery["redo_records"]}


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    base = common.out_path(f"dml-{seed}-{os.getpid()}")
    path, copy = base + "-data", base + "-restart"
    repeats = 1 if traced else common.SETUP_REPEATS
    setup_times: List[float] = []
    conn = None
    try:
        for __ in range(repeats):
            if conn is not None:
                common.close(conn)
            shutil.rmtree(path, ignore_errors=True)
            world = World(seed)
            start = time.perf_counter()
            conn = build(path, world)
            setup_times.append(time.perf_counter() - start)
        client = Client(conn, world)
        for __ in range(WARMUP_TXNS):
            client.txn()
        client.samples, client.counts, client.payload = common.Samples(), {}, 0
        result: Dict[str, Any] = {"knobs": KNOBS}
        if traced:
            engine = conn.engine
            tracer = tr.Tracer()
            before = layers.counters(engine)
            tracer.install()
            try:
                start = time.perf_counter()
                for __ in range(TRACED_TXNS):
                    client.txn(tracer)
                traced_s = time.perf_counter() - start
            finally:
                tracer.uninstall()
            deltas = layers.delta(before, layers.counters(engine))
            samples, counts = client.samples, client.counts
            client.samples, client.counts = common.Samples(), {}
            start = time.perf_counter()
            deadline = start + seconds / 2.0
            while time.perf_counter() < deadline:
                client.txn()
            untraced_tps = common.throughput(client.samples.done, start,
                                             deadline)
            samples.merge(client.samples)
        else:
            wrote = write_bytes()
            start = time.perf_counter()
            deadline = start + seconds
            while time.perf_counter() < deadline:
                client.txn()
            wrote = write_bytes() - wrote
            samples = client.samples
        # before the restart check opens a second engine in this process
        rss_peak_mb = common.rss_peak_mb()
        client.check_indexes()
        crash_copy(conn, path, copy)
        reopened = restart(copy, world)
        if traced:
            counts.update(
                recovery_ms=reopened["recovery_ms"],
                redo_records=reopened["redo_records"],
                overhead_ratio=untraced_tps / (TRACED_TXNS / traced_s),
                spans=tracer.dump(common.out_path(
                    "spans-paper_dml.jsonl")),
                failed_frac=samples.failed / max(1, samples.attempted))
            metrics = layers.compute(tracer.summary(), deltas, counts)
        else:
            metrics = common.latency_metrics(samples, TAIL_PCT)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["throughput_ops_s"] = common.throughput(
                samples.done, start, deadline)
            metrics["write_amp"] = wrote / max(1, client.payload)
            metrics["restart_s"] = reopened["restart_s"]
        metrics["rss_peak_mb"] = rss_peak_mb
        result.update(metrics=metrics, samples=samples,
                      final_checks=["indexes_equal_functional_answer",
                                    "acknowledged_rows_after_restart"])
        return result
    finally:
        if conn is not None:
            common.close(conn)
        shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(copy, ignore_errors=True)
