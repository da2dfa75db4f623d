"""The ``tables`` workload: the paper's tables, re-run the way a reader re-runs them.

Set-up fills a fresh farm cache with the ``sweep_jobs(scale="default")``
artifacts through ``python -m repro.farm run --jobs 2`` (five times,
each into its own fresh cache; ``setup_s`` is the median, from spawn to
exit, each corrected for the host's speed by the reference runs right
before and after it; a traced run, which reports no ``setup_s``, fills
once).  The measured run is then one ``risc1-experiments --format json``
suite, all 17 experiments in the CLI's order, in a fresh process against
the last warm cache.  The suite already takes longer than a run's
``--seconds``, so a run measures exactly one suite.  ``tables_s`` is the
suite process's time from its first reference run to the end of its
output, corrected for the host's speed (``hostspeed.py``) in segments of
at least half a second, which end when a simulated ``run()`` returns.
Its inputs are the suite as shipped, so ``--seed`` changes nothing
here: shuffling the experiment order moved peak RSS by 15% and the
median experiment time by 40%, because each experiment's cost depends
on which results earlier ones left in the in-process caches.

Each experiment's JSON document is checked against the sha256 recorded
in ``tables_golden.json``; an experiment whose document
differs, is missing, or whose process fails is a failed operation.

``python3 perfbench/tables.py golden`` regenerates the golden hashes
(only for a change that means to alter the tables).  The ``child``
sub-command is the process that runs the suite.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from pathlib import Path
from statistics import median

from common import HERE, child_env, run_child, scratch_dir
from hostspeed import Corrector

GOLDEN_PATH = HERE / "tables_golden.json"
FILLS = 5


def document_hash(document: dict) -> str:
    """sha256 of one experiment's document in canonical JSON form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fill(work: Path, cache_dir: Path) -> float:
    """Fill ``cache_dir`` with the default sweep; returns spawn-to-exit seconds."""
    child = run_child(
        ["-m", "repro.farm", "--cache-dir", str(cache_dir), "run", "--jobs", "2",
         "--format", "json"],
        child_env(work, cache_dir),
    )
    if child.returncode != 0:
        raise RuntimeError(f"cache-fill sweep failed:\n{child.stderr[-2000:]}")
    return child.wall_s


def _suite(work: Path, cache_dir: Path, out: Path, traced: bool = False):
    """One suite in a fresh process; its uncorrected and corrected times
    (with ``traced``, and the per-layer metrics) are written to ``out``."""
    args = [str(HERE / "tables.py"), "child", "--out", str(out)]
    return run_child(args + (["--trace"] if traced else []), child_env(work, cache_dir))


def _check(stdout: str, golden: dict) -> int:
    """Number of experiments whose document is missing or differs."""
    try:
        documents = json.loads(stdout)
    except ValueError:
        return len(golden)
    seen = {doc.get("experiment"): document_hash(doc) for doc in documents}
    return sum(1 for key, digest in golden.items() if seen.get(key) != digest)


def _checked_suite(work: Path, cache_dir: Path, golden: dict, traced: bool = False):
    """Run one suite and check it; returns (failed, its process, what it wrote)."""
    out = work / "suite.json"
    suite = _suite(work, cache_dir, out, traced)
    if suite.returncode != 0:
        print(suite.stderr[-4000:], file=sys.stderr)
        return len(golden), suite, None
    report = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return _check(suite.stdout, golden), suite, report


def run(seed: int, seconds: int, trace: bool) -> dict:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    with scratch_dir() as work:
        fills = 1 if trace else FILLS
        corrector = Corrector()
        setups = [
            _fill(work, work / f"cache{i}") * corrector.close() for i in range(fills)
        ]
        cache = work / f"cache{fills - 1}"
        failed, suite, report = _checked_suite(work, cache, golden)
        if trace:
            traced_failed, _, traced = _checked_suite(work, cache, golden, traced=True)
            failed += traced_failed
            layers = {}
            if traced is not None and report is not None:
                layers = traced["layers"]
                overhead = traced["corrected_s"] / report["corrected_s"] - 1.0
                layers["trace.overhead_frac"] = overhead
                layers["host.speed"] = report["corrected_s"] / report["raw_s"]
            return {"correct": failed == 0, "attempted": 2 * len(golden),
                    "failed": failed, "layers": layers}
    result = {"correct": failed == 0, "attempted": len(golden), "failed": failed}
    if report is None:
        return {**result, "metrics": {}}
    result["host"] = {"raw_ops_per_s": len(golden) / report["raw_s"],
                      "speed": report["corrected_s"] / report["raw_s"]}
    result["metrics"] = {
        "setup_s": median(setups),
        "ops_per_s": len(golden) / report["corrected_s"],
        "peak_rss_mb": suite.peak_rss_mb,
    }
    return result


# -- the child process ---------------------------------------------------------


def child(out: Path, trace: bool) -> int:
    """Run ``risc1-experiments --format json``, its time corrected for the
    host's speed; with ``trace``, with spans on every layer too.  The
    times, and with ``trace`` the per-layer metrics, go to ``out``."""
    import importlib

    from hostspeed import Corrector

    corrector = Corrector()
    if trace:
        from tracing import LayerTracer, install, layer_metrics

        tracer = LayerTracer()
        install(tracer)
    from repro.experiments import cli

    if trace:
        # reference runs only between experiments, outside every span
        for module_name, _ in cli.EXPERIMENTS.values():
            module = importlib.import_module(f"repro.experiments.{module_name}")
            module.run = _checkpointed(module.run, corrector.close)
    else:
        from repro.baselines.vax.cpu import VaxCPU
        from repro.core.cpu import CPU

        # a segment ends, at the earliest, when a simulated run returns
        for machine in (CPU, VaxCPU):
            machine.run = _checkpointed(machine.run, corrector.checkpoint)
    code = cli.main(["--format", "json"])
    sys.stdout.flush()
    corrector.close()
    report = {"raw_s": corrector.raw_s, "corrected_s": corrector.corrected_s}
    if trace:
        report["layers"] = layer_metrics(tracer, corrector.raw_s, list(cli.EXPERIMENTS))
    out.write_text(json.dumps(report), encoding="utf-8")
    return code


def _checkpointed(fn, checkpoint):
    @functools.wraps(fn)
    def checkpointed(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            checkpoint()

    return checkpointed


def write_golden() -> int:
    """Run the suite once against a fresh cache and record every hash."""
    from repro.experiments.cli import EXPERIMENTS

    keys = list(EXPERIMENTS)
    with scratch_dir() as work:
        cache = work / "cache"
        _fill(work, cache)
        suite = _suite(work, cache, work / "suite.json")
    if suite.returncode != 0:
        print(suite.stderr, file=sys.stderr)
        return 1
    hashes = {doc["experiment"]: document_hash(doc) for doc in json.loads(suite.stdout)}
    GOLDEN_PATH.write_text(
        json.dumps({key: hashes[key] for key in keys}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"{len(hashes)} experiment hashes -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    import argparse

    sys.path.insert(0, str(HERE.parent / "src"))
    parser = argparse.ArgumentParser(description="tables workload helpers")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("golden", help="regenerate tables_golden.json")
    child_parser = sub.add_parser("child", help="run the suite traced (used by the workload)")
    child_parser.add_argument("--out", required=True, type=Path)
    child_parser.add_argument("--trace", action="store_true")
    ns = parser.parse_args()
    if ns.command == "golden":
        raise SystemExit(write_golden())
    raise SystemExit(child(ns.out, ns.trace))
