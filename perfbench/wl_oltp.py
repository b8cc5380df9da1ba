"""``wire_oltp``: point reads and small updates over ``repro://``.

The engine runs in its own server process (:mod:`oltp_server`), so the
two client connections here and the server do not share an interpreter
lock.  Each client is one thread with one connection in a closed loop:
80% ``SELECT hits, body FROM items WHERE id = ?`` through the B-tree on
``id``, 10% a rare-term ``Contains`` (first row fetched alone, then the
rest), 10% ``UPDATE items SET hits = hits + 1 WHERE id = ?`` and a
commit.  Point reads must return the generated body, text queries the
functional answer, and at the end ``SUM(hits)`` must equal the number
of acknowledged updates.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

import common
import data
import layers
import spans as tr

N_ITEMS = 5000
CLIENTS = 2
#: percentile reported as read_tail_ms (~60k reads in a 10 s run)
TAIL_PCT = 99.9
#: operations each client runs traced (and untimed as a warm-up)
TRACED_OPS = 2000
WARMUP_OPS = 300

KNOBS = {"engine": "defaults (buffer_capacity=512, plan_cache_capacity=128,"
                   " fetch_batch_size=32, lock_timeout=10)",
         "server": "defaults (max_sessions=32, no idle/statement timeout)",
         "dsn": "repro://127.0.0.1 (server in its own process)",
         "clients": CLIENTS, "loop": "closed",
         "cpus": "client process and server process pinned to the same"
                 " CPU",
         "mix": "80% point select, 10% rare-term Contains,"
                " 10% update+commit", "tail_pct": TAIL_PCT}


class Inputs:
    """The ``items`` bodies and the rare terms queried, from the seed."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        vocab = data.vocabulary(5000)
        self.docs = data.documents(rng, N_ITEMS, vocab)
        postings: Dict[str, set] = {}
        for i, doc in enumerate(self.docs):
            for word in set(doc.split()):
                postings.setdefault(word, set()).add(i)
        rare = sorted(w for w, ids in postings.items() if 2 <= len(ids) <= 8)
        #: (term, functional answer) of every rare-term query
        self.rare = [(w, postings[w]) for w in rng.sample(rare, 40)]


def pin_cpu() -> int:
    """The one CPU the client process and the server process share.

    A closed-loop round trip over loopback is mostly a wake-up of the
    other process.  Woken on another CPU, its cost depends on whether
    that CPU sleeps and on where the scheduler puts each process, which
    changed throughput by a third from run to run.  On one CPU the
    wake-up is a plain context switch, and client, wire and server work
    all count against the same CPU.
    """
    return min(os.sched_getaffinity(0))


def start_server(seed: int, cpu: int) -> Tuple[subprocess.Popen, int]:
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(here, "oltp_server.py"), str(seed),
         str(cpu)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=30)
        raise RuntimeError("wire_oltp server exited before serving")
    return proc, json.loads(line)["port"]


def ask(proc: subprocess.Popen, command: str) -> Dict[str, Any]:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def stop_server(proc: subprocess.Popen) -> None:
    try:
        if proc.poll() is None:
            ask(proc, "quit")
        proc.wait(timeout=60)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()


class Client:
    """One closed-loop client: a thread, a connection, its own RNG."""

    def __init__(self, url: str, inputs: Inputs, seed: int, index: int):
        from repro import dbapi
        self.conn = dbapi.connect(url, timeout=60.0)
        self.cur = self.conn.cursor()
        self.inputs = inputs
        self.rng = random.Random(seed * 1009 + index)
        self.samples = common.Samples()
        self.counts: Dict[str, float] = {}
        self.acked = 0

    def op(self, tracer=None, stmt: int = 0) -> None:
        from repro import dbapi
        rng, cur, samples = self.rng, self.cur, self.samples
        roll = rng.random()
        counts = self.counts
        samples.attempted += 1
        try:
            if roll < 0.8:
                item = rng.randrange(N_ITEMS)
                if tracer:
                    tracer.statement(stmt)
                start = time.perf_counter()
                cur.execute("SELECT hits, body FROM items WHERE id = ?",
                            (item,))
                rows = cur.fetchall()
                end = time.perf_counter()
                samples.done.append((start, end))
                samples.add("read", end - start)
                counts["stmts"] = counts.get("stmts", 0) + 1
                counts["rows"] = counts.get("rows", 0) + len(rows)
                if len(rows) != 1 or rows[0][1] != self.inputs.docs[item]:
                    raise common.CheckFailed(
                        f"point read of item {item} returned {rows!r:.80}")
                samples.checked += 1
            elif roll < 0.9:
                term, expected = self.inputs.rare[
                    rng.randrange(len(self.inputs.rare))]
                if tracer:
                    tracer.statement(stmt)
                start = time.perf_counter()
                cur.execute("SELECT id FROM items WHERE Contains(body, ?)",
                            (term,))
                first = cur.fetchone()
                first_at = time.perf_counter()
                rest = cur.fetchall()
                end = time.perf_counter()
                samples.done.append((start, end))
                samples.add("read", end - start)
                samples.add("text_query", end - start)
                samples.add("first_row", first_at - start)
                rows = ([first] if first is not None else []) + rest
                for key, n in (("stmts", 1), ("queries", 1),
                               ("text_queries", 1), ("rows", len(rows)),
                               ("text_rows", len(rows))):
                    counts[key] = counts.get(key, 0) + n
                if sorted(r[0] for r in rows) != sorted(expected):
                    raise common.CheckFailed(
                        f"Contains({term!r}) returned {len(rows)} rows,"
                        f" functional answer has {len(expected)}")
                samples.checked += 1
            else:
                item = rng.randrange(N_ITEMS)
                if tracer:
                    tracer.statement(stmt)
                start = time.perf_counter()
                cur.execute("UPDATE items SET hits = hits + 1 WHERE id = ?",
                            (item,))
                updated = cur.rowcount
                mid = time.perf_counter()
                self.conn.commit()
                end = time.perf_counter()
                samples.done.extend(((start, mid), (mid, end)))
                samples.add("write", mid - start)
                samples.add("write", end - mid)
                for key, n in (("stmts", 2), ("writes", 2), ("txns", 1)):
                    counts[key] = counts.get(key, 0) + n
                if updated != 1:
                    raise common.CheckFailed(
                        f"update of item {item} touched {updated} rows")
                self.acked += 1
        except dbapi.Error:
            samples.failed += 1
            try:
                self.conn.rollback()
            except dbapi.Error:
                pass

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.op()

    def run_count(self, n: int, tracer, base: int) -> None:
        for i in range(n):
            self.op(tracer, base + i)


def drive(clients: List[Client], work) -> Tuple[float, float]:
    """Run ``work(client, index)`` on every client at once; returns the
    start and end of the run."""
    gate = threading.Barrier(len(clients) + 1)
    errors: List[BaseException] = []

    def body(client: Client, index: int) -> None:
        gate.wait()
        try:
            work(client, index)
        except BaseException as exc:  # re-raised by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(c, i))
               for i, c in enumerate(clients)]
    for t in threads:
        t.start()
    gate.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    end = time.perf_counter()
    if errors:
        raise errors[0]
    return start, end


def collect(clients: List[Client]) -> Tuple[common.Samples, Dict[str, float]]:
    """Merge and reset the clients' samples and counts."""
    samples = common.Samples()
    counts: Dict[str, float] = {}
    for c in clients:
        samples.merge(c.samples)
        for key, n in c.counts.items():
            counts[key] = counts.get(key, 0) + n
        c.samples = common.Samples()
        c.counts = {}
    return samples, counts


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    inputs = Inputs(seed)
    repeats = 1 if traced else common.SETUP_REPEATS
    procs: List[subprocess.Popen] = []
    clients: List[Client] = []
    cpu = pin_cpu()
    os.sched_setaffinity(0, {cpu})
    try:
        setup_times = []
        for __ in range(repeats):
            if procs:
                stop_server(procs.pop())
            start = time.perf_counter()
            proc, port = start_server(seed, cpu)
            procs.append(proc)
            setup_times.append(time.perf_counter() - start)
        url = f"repro://127.0.0.1:{port}"
        clients = [Client(url, inputs, seed, i) for i in range(CLIENTS)]
        for c in clients:
            for __ in range(WARMUP_OPS):
                c.op()
        collect(clients)
        result: Dict[str, Any] = {"knobs": KNOBS}
        if traced:
            tracer = tr.Tracer()
            ask(procs[0], "trace on")
            tracer.install()
            try:
                start, end = drive(clients, lambda c, i: c.run_count(
                    TRACED_OPS, tracer, i * TRACED_OPS))
            finally:
                tracer.uninstall()
                server_side = ask(procs[0], "trace off")
            samples, counts = collect(clients)
            half = seconds / 2.0
            begin, __ = drive(clients, lambda c, i: c.run_for(half))
            untraced, __ = collect(clients)
            summary = tracer.summary()
            tr.merge(summary, server_side["summary"])
            counts.update(
                overhead_ratio=common.throughput(
                    untraced.done, begin, begin + half)
                / (len(samples.done) / (end - start)),
                spans=tracer.dump(common.out_path(
                    "spans-wire_oltp-client.jsonl"))
                + server_side["spans"],
                failed_frac=samples.failed / max(1, samples.attempted))
            metrics = layers.compute(summary, server_side["deltas"], counts)
            samples.merge(untraced)
        else:
            start, __ = drive(clients, lambda c, i: c.run_for(seconds))
            samples, counts = collect(clients)
            metrics = common.latency_metrics(samples, TAIL_PCT)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["throughput_ops_s"] = common.throughput(
                samples.done, start, start + seconds)
        acked = sum(c.acked for c in clients)
        cur = clients[0].cur
        cur.execute("SELECT SUM(hits) FROM items")
        total = cur.fetchone()[0]
        clients[0].conn.commit()
        if total != acked:
            raise common.CheckFailed(
                f"SUM(hits) = {total} but {acked} updates were acknowledged")
        metrics["rss_peak_mb"] = ask(procs[0], "stats")["rss_peak_mb"]
        result.update(metrics=metrics, samples=samples,
                      final_checks=["sum_hits_equals_acked_updates"])
        return result
    finally:
        for c in clients:
            try:
                c.conn.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        for proc in procs:
            stop_server(proc)
