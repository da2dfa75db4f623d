"""The repository's benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload (``tables``, ``fuzz`` or ``serve``; see README.md in
this directory) and prints, as the last line of standard output, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``, measured with no spans recorded; with ``--trace 1``
they are its per-layer metrics, from a run that records spans around
each layer's public entry points (and repeats the untraced run, to
state the overhead).  A per-layer metric a workload never touches
reads 0.  Every time behind an end-to-end metric is corrected for the
speed of the shared host at the moment it was taken (``hostspeed.py``);
the uncorrected rate and the host's speed go to standard error, and
the host's speed is also the per-layer metric ``host.speed``.

Usage::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import ROOT, SRC

def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = importlib.import_module(args.workload)
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", file=sys.stderr)
    if "host" in outcome:
        print(f"uncorrected ops_per_s={outcome['host']['raw_ops_per_s']:.4f} "
              f"host speed={outcome['host']['speed']:.4f}", file=sys.stderr)
    if args.trace:
        # a per-layer metric the workload never touched reads 0
        values = outcome.get("layers", {})
        metrics = {
            entry["name"]: {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
            for entry in spec["per_layer"]
        }
    else:
        values = outcome.get("metrics", {})
        missing = [e["name"] for e in spec["end_to_end"] if e["name"] not in values]
        if missing:
            print(f"no value for end-to-end metrics {missing}", file=sys.stderr)
            return 1
        metrics = {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
