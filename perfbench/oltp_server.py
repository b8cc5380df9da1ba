"""Server process of the ``wire_oltp`` workload.

Started by :mod:`wl_oltp` as ``python3 perfbench/oltp_server.py SEED
CPU`` from the root of a checkout; it pins itself to CPU.  It builds
the ``items`` table from the seed, serves it on an ephemeral loopback
port, prints one JSON line ``{"port": ...}`` and then obeys one-line
commands on standard input, answering each with one JSON line:

* ``trace on`` / ``trace off`` — wrap the layers in this process; ``off``
  answers with the span summary and the engine's counter deltas;
* ``stats`` — peak resident set of this process;
* ``quit`` — drain the server, close the engine and exit.

It also exits when standard input closes, so it never outlives the
benchmark process that started it.
"""

from __future__ import annotations

import json
import os
import sys


def build(seed: int):
    """Engine with the seeded ``items`` table, text-indexed, in memory."""
    import wl_oltp
    from repro.cartridges import text
    from repro.sql.engine import Engine

    engine = Engine()
    session = engine.connect()
    text.install(session)
    session.execute("CREATE TABLE items (id INTEGER, hits INTEGER,"
                    " body VARCHAR2(4000))")
    session.executemany("INSERT INTO items VALUES (:1, 0, :2)",
                        list(enumerate(wl_oltp.Inputs(seed).docs)))
    session.execute("CREATE INDEX items_id ON items(id)")
    session.execute("CREATE INDEX items_text ON items(body)"
                    " INDEXTYPE IS TextIndexType")
    session.execute("ANALYZE TABLE items COMPUTE STATISTICS")
    session.close()
    return engine


def reply(obj) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, here)
    import common
    import layers
    import spans
    from repro.server import Server

    seed = int(sys.argv[1])
    os.sched_setaffinity(0, {int(sys.argv[2])})
    engine = build(seed)
    server = Server(engine=engine).start()
    reply({"port": server.address[1]})
    tracer = before = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer = spans.Tracer()
                before = layers.counters(engine)
                tracer.install()
                tracer.install_server_side()
                reply({"ok": True})
            elif command == "trace off":
                tracer.uninstall()
                deltas = layers.delta(before, layers.counters(engine))
                count = tracer.dump(common.out_path(
                    "spans-wire_oltp-server.jsonl"))
                reply({"summary": tracer.summary(), "deltas": deltas,
                       "spans": count})
            elif command == "stats":
                reply({"rss_peak_mb": common.rss_peak_mb()})
            elif command == "quit":
                break
    finally:
        server.shutdown()
        engine.close()
    reply({"bye": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
