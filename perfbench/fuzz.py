"""The ``fuzz`` workload: a serial cross-check campaign over many small programs.

Each fuzz program is generated, compiled three times (IR, RISC I, VAX)
and run on five oracles through ``run_campaign(serial=True,
ledger=False)``: no farm, no ledger.  The programs come from the
calibrated pool in ``fuzz_pool.json`` (fuzz seeds cycling the
``default``, ``small`` and ``deep-calls`` profiles).  The pool is
sorted by cost and cut into as many equal strata as fit ``--seconds``;
``--seed`` draws one program from each stratum and shuffles their
order.  Per-program cost is heavy-tailed (a median of about 0.3 s, a
few seconds at the top), so independent draws would make the rate of
one run depend on which programs it drew; one draw per stratum keeps
the cost profile of every run the same while the programs change.
``ops_per_s`` is the programs over the campaign loop's time, corrected
for the host's speed (``hostspeed.py``) in segments of at least half a
second, which end between two programs.

Set-up is the child's import and generator warm-up, measured from spawn
to its ``ready`` line, nine times, each corrected by the reference runs
right before and after it; ``setup_s`` is the median.  A program
whose campaign report is not clean is a failed operation.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from statistics import median

from common import HERE, child_env, finish_child, scratch_dir, start_child
from hostspeed import Corrector

POOL_PATH = HERE / "fuzz_pool.json"
SETUPS = 9


def draw(seed: int, seconds: float) -> list[tuple[int, str]]:
    """One program per cost stratum of the pool, as ``(fuzz seed,
    profile)``, in a seed-shuffled order."""
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))["programs"]
    mean_cost = sum(row[2] for row in pool) / len(pool)
    strata = max(3, min(len(pool), round(seconds / mean_cost)))
    rng = random.Random(seed)
    bounds = [len(pool) * i // strata for i in range(strata + 1)]
    picks = [tuple(pool[rng.randrange(lo, hi)][:2]) for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(picks)
    return picks


def _spawn(work: Path, args: list[str]):
    """Run a fuzz child; returns its result and the spawn-to-``ready`` time."""
    proc, started = start_child([str(HERE / "fuzz.py"), *args], child_env(work))
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    child = finish_child(proc, started, head=line)
    if line.strip() != b"ready":
        raise RuntimeError(f"fuzz child did not start:\n{child.stderr[-2000:]}")
    return child, setup_s


def run(seed: int, seconds: int, trace: bool) -> dict:
    programs = draw(seed, seconds)
    with scratch_dir() as work:
        plan = work / "plan.json"
        plan.write_text(json.dumps(programs), encoding="utf-8")
        out = work / "result.json"
        corrector = Corrector()
        setups = [
            _spawn(work, ["child", "--setup-only"])[1] * corrector.close()
            for _ in range(SETUPS - 1)
        ]
        args = ["child", "--plan", str(plan), "--out", str(out)]
        child, setup_s = _spawn(work, args + (["--trace"] if trace else []))
        setups.append(setup_s * corrector.close())
        if child.returncode != 0:
            print(child.stderr[-4000:], file=sys.stderr)
            return {"correct": False, "attempted": len(programs), "failed": len(programs),
                    "metrics": {}}
        report = json.loads(out.read_text(encoding="utf-8"))
    rows = report["seeds"] + report.get("traced_seeds", [])
    failed = sum(1 for row in rows if not row["ok"])
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed}
    speed = report["corrected_s"] / report["raw_s"]
    if trace:
        layers = report["layers"]
        overhead = report["traced_corrected_s"] / report["corrected_s"] - 1.0
        layers["trace.overhead_frac"] = overhead
        layers["host.speed"] = speed
        return {**result, "layers": layers}
    result["host"] = {"raw_ops_per_s": len(programs) / report["raw_s"], "speed": speed}
    result["metrics"] = {
        "setup_s": median(setups),
        "ops_per_s": len(programs) / report["corrected_s"],
        "peak_rss_mb": child.peak_rss_mb,
    }
    return result


# -- the child process ---------------------------------------------------------


def _campaign(programs, corrector: Corrector | None = None) -> list[dict]:
    """Cross-check each program in turn; one row per program."""
    from repro.fuzz.campaign import run_campaign

    rows = []
    for fuzz_seed, profile in programs:
        report = run_campaign(
            [fuzz_seed], profile, serial=True, ledger=False, minimize=False
        )
        rows.append({"seed": fuzz_seed, "profile": profile, "ok": report.ok == 1})
        if corrector is not None:
            corrector.checkpoint()
    return rows


def child(plan: Path | None, out: Path | None, trace: bool) -> int:
    import repro.fuzz.campaign  # noqa: F401 - part of the measured start-up
    from repro.fuzz.gen import PROFILES, generate_source

    for profile in PROFILES:
        generate_source(0, profile)
    print("ready", flush=True)
    if plan is None:
        return 0
    programs = [tuple(row) for row in json.loads(plan.read_text(encoding="utf-8"))]
    corrector = Corrector()
    rows = _campaign(programs, corrector)
    corrector.close()
    report = {"seeds": rows, "raw_s": corrector.raw_s, "corrected_s": corrector.corrected_s}
    if trace:
        from tracing import LayerTracer, install, layer_metrics

        tracer = LayerTracer()
        install(tracer)
        # the reference runs fall between programs, outside every span
        corrector = Corrector()
        report["traced_seeds"] = _campaign(programs, corrector)
        corrector.close()
        report["traced_corrected_s"] = corrector.corrected_s
        report["layers"] = layer_metrics(tracer, corrector.raw_s, ())
    out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    import argparse

    sys.path.insert(0, str(HERE.parent / "src"))
    parser = argparse.ArgumentParser(description="fuzz workload child")
    sub = parser.add_subparsers(dest="command", required=True)
    child_parser = sub.add_parser("child")
    child_parser.add_argument("--setup-only", action="store_true")
    child_parser.add_argument("--plan", type=Path)
    child_parser.add_argument("--out", type=Path)
    child_parser.add_argument("--trace", action="store_true")
    ns = parser.parse_args()
    raise SystemExit(child(None if ns.setup_only else ns.plan, ns.out, ns.trace))
