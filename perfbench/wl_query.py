"""``paper_query``: the paper's four case-study queries, in process.

One client on an in-process ``dbapi.connect()`` runs a fixed rotation of
32 domain-index queries: eight each of E1 text ``Contains(body, 'w1 AND
w2')`` over common terms, E2 ``Sdo_Relate(geometry, :window,
'mask=ANYINTERACT')``, E3 weighted ``VIRSimilar`` and E4 chemistry (six
``Chem_Substructure``, two ``Chem_Similar``, index in LOBs).  Every
answer is compared with the functional (index-free) answer computed off
the clock before timing starts.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Dict, List, Tuple

import common
import data
import layers
import spans as tr

N_DOCS, N_PARCELS, N_IMAGES, N_MOLECULES = 5000, 2000, 5000, 1000
#: distinct queries per case study in the rotation
PER_KIND = 8
#: Zipf ranks of the two common terms of each E1 query
TEXT_RANKS = ((4, 9), (5, 12), (6, 15), (7, 18), (8, 21), (10, 24),
              (11, 27), (13, 30))
#: seed of the query parameters, the same for every run
QUERY_SEED = 20000
#: percentile reported as read_tail_ms.  A full garbage collection of
#: the loaded engine takes ~125 ms and runs about once a second, so the
#: top ~2% of reads are collections, not queries; p90 (~45 reads beyond
#: it in a 15 s run) stays a query latency.
TAIL_PCT = 90.0
#: queries run traced; a whole number of rotations so counts repeat
TRACED_OPS = 96
WEIGHTS = ("globalcolor=0.5,localcolor=0.2,texture=0.2,structure=0.1",
           "globalcolor=0.25,localcolor=0.25,texture=0.25,structure=0.25",
           "globalcolor=0.1,localcolor=0.6,texture=0.2,structure=0.1",
           "globalcolor=0.2,localcolor=0.2,texture=0.5,structure=0.1")
VIR_THRESHOLD = 10
CHEM_SIMILARITY = 0.5

KNOBS = {"engine": "defaults (buffer_capacity=512, plan_cache_capacity=128,"
                   " fetch_batch_size=32, prefetch_depth=2,"
                   " parallel_execution=on, vectorized_execution=on)",
         "dsn": "in-memory", "clients": 1, "loop": "closed",
         "chem_storage": "LOB", "tail_pct": TAIL_PCT}


class Inputs:
    """Everything generated before the program runs.

    The tables come from the seed.  The queries do not: each is fixed by
    term rank, window position, cluster centre or fragment, so that
    every seed asks the same amount of work of the same data
    distribution and runs differ only by their data.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        fixed = random.Random(QUERY_SEED)
        self.vocab = data.vocabulary(500)
        self.docs = data.documents(rng, N_DOCS, self.vocab)
        self.rects = data.rectangles(rng, N_PARCELS)
        self.centres = [data.signature(fixed) for __ in range(PER_KIND)]
        self.sigs = data.signatures(rng, N_IMAGES, self.centres)
        self.mols = data.molecules(rng, N_MOLECULES)
        self.text_queries = [f"{self.vocab[a]} AND {self.vocab[b]}"
                             for a, b in TEXT_RANKS]
        side = 160.0
        self.windows = [(x, y, x + side, y + side) for x, y in (
            (fixed.uniform(0.0, data.WORLD - side),
             fixed.uniform(0.0, data.WORLD - side))
            for __ in range(PER_KIND))]
        self.fragments = data.FRAGMENTS[:PER_KIND - 2]
        self.similar_to = [data.molecule(fixed, 12) for __ in range(2)]


def build(inputs: Inputs):
    """Load and index the four tables; returns the open connection."""
    from repro import dbapi
    from repro.cartridges import chemistry, spatial, text, vir
    from repro.cartridges.spatial.geometry import make_rect

    conn = dbapi.connect()
    session = conn.session
    for cartridge in (text, spatial, vir, chemistry):
        cartridge.install(session)
    cur = conn.cursor()
    cur.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")
    cur.executemany("INSERT INTO docs VALUES (?, ?)",
                    list(enumerate(inputs.docs)))
    cur.execute("CREATE INDEX docs_text ON docs(body)"
                " INDEXTYPE IS TextIndexType")
    geometry = session.catalog.get_object_type("SDO_GEOMETRY")
    cur.execute("CREATE TABLE parcels (gid INTEGER, geometry SDO_GEOMETRY)")
    cur.executemany("INSERT INTO parcels VALUES (?, ?)",
                    [(i, make_rect(geometry, *r))
                     for i, r in enumerate(inputs.rects)])
    cur.execute("CREATE INDEX parcels_sidx ON parcels(geometry)"
                " INDEXTYPE IS SpatialIndexType")
    image = session.catalog.get_object_type("IMAGE_T")
    cur.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
    cur.executemany("INSERT INTO images VALUES (?, ?)",
                    [(i, image.new(signature=s, width=64, height=64))
                     for i, s in enumerate(inputs.sigs)])
    cur.execute("CREATE INDEX images_vidx ON images(img)"
                " INDEXTYPE IS VirIndexType")
    cur.execute("CREATE TABLE molecules (mid INTEGER, mol VARCHAR2(512))")
    cur.executemany("INSERT INTO molecules VALUES (?, ?)",
                    list(enumerate(inputs.mols)))
    cur.execute("CREATE INDEX mol_idx ON molecules(mol) INDEXTYPE IS"
                " ChemIndexType PARAMETERS (':Storage LOB')")
    for table in ("docs", "parcels", "images", "molecules"):
        cur.execute(f"ANALYZE TABLE {table} COMPUTE STATISTICS")
    conn.commit()
    return conn


def rotation(inputs: Inputs, conn) -> List[Tuple[str, str, list, set]]:
    """(kind, sql, binds, functional answer) for each distinct query."""
    from repro.cartridges.chemistry.indextype import (
        chem_similar, chem_substructure)
    from repro.cartridges.spatial.geometry import make_rect
    from repro.cartridges.spatial.indextype import sdo_relate_functional
    from repro.cartridges.text.indextype import text_contains
    from repro.cartridges.vir.indextype import vir_similar_functional

    geometry = conn.session.catalog.get_object_type("SDO_GEOMETRY")
    parcels = [make_rect(geometry, *r) for r in inputs.rects]
    text_q, spatial_q, vir_q, chem_q = [], [], [], []
    for query in inputs.text_queries:
        text_q.append(("text", "SELECT id FROM docs WHERE Contains(body, ?)",
                       [query], {i for i, d in enumerate(inputs.docs)
                                 if text_contains(d, query)}))
    for window in inputs.windows:
        shape = make_rect(geometry, *window)
        spatial_q.append((
            "spatial", "SELECT gid FROM parcels WHERE"
            " Sdo_Relate(geometry, ?, 'mask=ANYINTERACT')", [shape],
            {i for i, p in enumerate(parcels)
             if sdo_relate_functional(p, shape, "mask=ANYINTERACT")}))
    for n, centre in enumerate(inputs.centres):
        weights = WEIGHTS[n % len(WEIGHTS)]
        vir_q.append((
            "vir", "SELECT iid FROM images WHERE"
            f" VIRSimilar(img.signature, ?, ?, {VIR_THRESHOLD})",
            [centre, weights],
            {i for i, s in enumerate(inputs.sigs)
             if vir_similar_functional(s, centre, weights, VIR_THRESHOLD)}))
    for fragment in inputs.fragments:
        chem_q.append((
            "chem", "SELECT mid FROM molecules WHERE"
            " Chem_Substructure(mol, ?)", [fragment],
            {i for i, m in enumerate(inputs.mols)
             if chem_substructure(m, fragment)}))
    for target in inputs.similar_to:
        chem_q.append((
            "chem", "SELECT mid FROM molecules WHERE"
            f" Chem_Similar(mol, ?, {CHEM_SIMILARITY})", [target],
            {i for i, m in enumerate(inputs.mols)
             if chem_similar(m, target, CHEM_SIMILARITY)}))
    out = []
    for group in zip(text_q, spatial_q, vir_q, chem_q):
        out.extend(group)
    return out


def run_op(cur, op, samples: common.Samples, counts: Dict[str, float]) -> None:
    """One query, timed; raises CheckFailed on a wrong answer."""
    kind, sql, binds, expected = op
    samples.attempted += 1
    start = time.perf_counter()
    cur.execute(sql, binds)
    first = cur.fetchone()
    first_at = time.perf_counter()
    rest = cur.fetchall()
    end = time.perf_counter()
    samples.done.append((start, end))
    samples.add("read", end - start)
    samples.add(kind + "_query", end - start)
    if kind == "text":
        samples.add("first_row", first_at - start)
    rows = ([first] if first is not None else []) + rest
    counts[kind + "_queries"] = counts.get(kind + "_queries", 0) + 1
    counts[kind + "_rows"] = counts.get(kind + "_rows", 0) + len(rows)
    counts["rows"] = counts.get("rows", 0) + len(rows)
    ids = [r[0] for r in rows]
    if len(ids) != len(expected) or set(ids) != expected:
        raise common.CheckFailed(
            f"{kind} query {binds[0]!r}: {len(ids)} rows, functional "
            f"answer has {len(expected)}")
    samples.checked += 1


def loop(cur, ops, seconds: float, samples: common.Samples,
         counts: Dict[str, float]) -> float:
    """Run the rotation for ``seconds``; returns the throughput."""
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        run_op(cur, ops[i % len(ops)], samples, counts)
        i += 1
    return common.throughput(samples.done, start, deadline)


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    inputs = Inputs(seed)
    setup_times = []
    conn = None
    for __ in range(1 if traced else common.SETUP_REPEATS):
        if conn is not None:
            common.close(conn)
        start = time.perf_counter()
        conn = build(inputs)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)
    ops = rotation(inputs, conn)
    cur = conn.cursor()
    warm = common.Samples()
    for op in ops:  # fill the plan cache and the buffer cache
        run_op(cur, op, warm, {})
    samples = common.Samples()
    counts: Dict[str, float] = {}
    result: Dict[str, Any] = {"knobs": KNOBS, "setup_s": setup_s}
    if not traced:
        rate = loop(cur, ops, seconds, samples, counts)
        metrics = common.latency_metrics(samples, TAIL_PCT)
        metrics["setup_s"] = setup_s
        metrics["throughput_ops_s"] = rate
        metrics["rss_peak_mb"] = common.rss_peak_mb()
        result.update(metrics=metrics, samples=samples)
        common.close(conn)
        return result
    engine = conn.engine
    tracer = tr.Tracer()
    before = layers.counters(engine)
    tracer.install()
    try:
        start = time.perf_counter()
        for i in range(TRACED_OPS):
            tracer.statement(i)
            run_op(cur, ops[i % len(ops)], samples, counts)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    deltas = layers.delta(before, layers.counters(engine))
    untraced = common.Samples()
    rate = loop(cur, ops, seconds / 2.0, untraced, {})
    counts.update(stmts=TRACED_OPS, queries=TRACED_OPS,
                  overhead_ratio=rate / (TRACED_OPS / traced_s),
                  spans=tracer.dump(common.out_path(
                      "spans-paper_query.jsonl")))
    samples.merge(untraced)
    result.update(metrics=layers.compute(tracer.summary(), deltas, counts),
                  samples=samples)
    common.close(conn)
    return result
