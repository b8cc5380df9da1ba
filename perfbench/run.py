#!/usr/bin/env python3
r"""Run one workload of the repository benchmark.

From the root of a checkout::

    python3 perfbench/run.py --workload paper_query --seed 1 \
        --seconds 15 --trace 0

The program under test is the ``repro`` package in ``src/`` of the
current directory; the run exits non-zero without a result when it is
missing.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of an untraced run (``--trace 0``) or the per-layer
metrics of a traced one (``--trace 1``).  The line before it carries
every metric the workload supports, its sample counts and the knobs in
effect.  A wrong answer prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

WORKLOADS = ("paper_query", "wire_oltp", "paper_dml")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: src/repro not found under the current directory;"
              " run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import common
    import layers

    module = __import__({"paper_query": "wl_query", "wire_oltp": "wl_oltp",
                         "paper_dml": "wl_dml"}[args.workload])
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    except common.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    metrics = result["metrics"]
    samples = result["samples"]
    wanted = layers.PER_LAYER if args.trace else common.END_TO_END
    units = {name: common.UNITS.get(name) or layers.unit_of(name)
             for name in set(metrics) | set(wanted)}
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "knobs": result["knobs"],
        "samples": {kind: len(v) for kind, v in samples.by_kind.items()},
        "checked": samples.checked,
        "final_checks": result.get("final_checks", []),
        "metrics": {name: _metric(value, units[name])
                    for name, value in metrics.items()},
    }
    print(json.dumps(detail))
    missing = [name for name in wanted
               if not isinstance(metrics.get(name), (int, float))
               or math.isnan(metrics[name])]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True, "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: _metric(metrics[name], units[name])
                    for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
