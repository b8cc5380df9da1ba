"""Self-tests of the benchmark: short runs of every workload.

Run from the root of a checkout (they are not part of the repository's
own test suite)::

    python3 -m pytest -q perfbench/tests

Each workload runs briefly untraced and traced.  The tests check that
every metric is printed with its unit, that the output checks ran, that
the traced run produced spans in the layers the workload crosses, that
single-client counts repeat exactly for one seed, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import common  # noqa: E402
import layers  # noqa: E402

#: layers whose spans each workload must produce when traced
LAYERS_CROSSED = {
    "paper_query": ("dbapi", "pipeline", "executor", "dispatch",
                    "callbacks", "cartridges", "storage"),
    "wire_oltp": ("dbapi", "server", "pipeline", "planner", "executor",
                  "dispatch", "callbacks", "cartridges", "storage", "txn",
                  "dml"),
    "paper_dml": ("dbapi", "pipeline", "planner", "dispatch", "callbacks",
                  "cartridges", "storage", "dml", "maintenance", "wal"),
}
WORKLOADS = tuple(LAYERS_CROSSED)
#: the layer group that should take most of each workload's time
LARGEST_GROUP = {"paper_query": "domain_path", "wire_oltp": "front_end",
                 "paper_dml": "write_path"}


def run(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def lines(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = proc.stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def test_every_layer_is_listed_for_some_workload():
    crossed = set().union(*LAYERS_CROSSED.values())
    assert crossed == {name[len("share."):] for name in layers.PER_LAYER
                       if name.startswith("share.")} - set(
        "domain_path front_end write_path".split())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    detail, result = lines(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(common.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == common.UNITS[name]
        assert metric["value"] > 0, name
    for name, metric in detail["metrics"].items():
        assert metric["unit"], name
    assert detail["checked"] >= result["attempted"] // 2
    if workload != "paper_query":
        assert detail["final_checks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_it_crosses(workload):
    detail, result = lines(run(workload, 1))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == list(layers.PER_LAYER)
    for name, metric in metrics.items():
        assert metric["unit"] == layers.unit_of(name)
    for layer in LAYERS_CROSSED[workload]:
        assert metrics["share." + layer]["value"] > 0, layer
    assert metrics["trace.spans"]["value"] > 0
    groups = {g: metrics["share." + g]["value"]
              for g in ("domain_path", "front_end", "write_path")}
    assert max(groups, key=groups.get) == LARGEST_GROUP[workload], groups


def test_single_client_counts_repeat_for_one_seed():
    first = [lines(run(w, 1, seed=3))[1]["metrics"]
             for w in ("paper_query", "paper_dml")]
    again = [lines(run(w, 1, seed=3))[1]["metrics"]
             for w in ("paper_query", "paper_dml")]
    for name in ("callback.sql_calls_per_query", "callback.rows_per_query",
                 "odci.fetch_calls_per_query"):
        assert first[0][name]["value"] == again[0][name]["value"], name
    for name in ("wal.bytes_per_txn", "wal.records_per_txn",
                 "maint.entries_per_txn", "callback.sql_calls_per_query"):
        assert first[1][name]["value"] == again[1][name]["value"], name


def test_wrong_answer_fails_the_run():
    import wl_query
    samples = common.Samples()

    class Cursor:
        def execute(self, sql, binds):
            self.rows = [(1,), (2,)]

        def fetchone(self):
            return self.rows.pop(0)

        def fetchall(self):
            return self.rows

    with pytest.raises(common.CheckFailed):
        wl_query.run_op(Cursor(), ("text", "SELECT", ["q"], {1, 3}),
                        samples, {})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("paper_query", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
