"""Build ``fuzz_pool.json``: the calibrated program pool the fuzz workload draws from.

Usage (from the repository root)::

    python3 perfbench/calibrate_fuzz.py

Every fuzz seed ``0 .. COUNT-1`` (profile cycling default, small,
deep-calls) is cross-checked exactly as the workload does it, in
:data:`PASSES` passes over all seeds; its cost is the fastest of its
wall times, because load from other tenants of the host only ever slows
a program down.  Seeds slower than ``CAP_S`` seconds are left out of
the pool: one of them would be a whole run on its own.  A seed
whose cross-check is not clean stops the calibration, because the pool
must hold only programs on which no operation fails.

The workload sorts the pool by cost into equal strata and draws one
program per stratum, so every run carries the same cost profile while
the programs themselves change with ``--seed``.  Re-run this script
when the toolchain changes the relative cost of programs a lot.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PROFILES = ("default", "small", "deep-calls")
POOL_PATH = HERE / "fuzz_pool.json"
COUNT = 420
CAP_S = 3.0
#: passes over every seed; a program's cost is its fastest pass
PASSES = 3


def _rows(table) -> str:
    """One program per line, so the pool diffs readably."""
    return ",\n".join(f"    {json.dumps(row)}" for row in table)


def main() -> int:
    from repro.fuzz.campaign import run_campaign

    seeds = [(seed, PROFILES[seed % len(PROFILES)]) for seed in range(COUNT)]
    costs: dict[int, float] = {}
    for _ in range(PASSES):
        for seed, profile in seeds:
            started = time.perf_counter()
            report = run_campaign([seed], profile, serial=True, ledger=False, minimize=False)
            cost = round(time.perf_counter() - started, 4)
            if report.ok != 1:
                print(f"fuzz seed {seed} ({profile}) is not clean", file=sys.stderr)
                return 1
            costs[seed] = min(cost, costs.get(seed, cost))
    programs, excluded = [], []
    for seed, profile in seeds:
        (programs if costs[seed] <= CAP_S else excluded).append([seed, profile, costs[seed]])
    programs.sort(key=lambda row: (row[2], row[0]))
    POOL_PATH.write_text(
        f'{{\n  "cap_s": {CAP_S},\n  "passes": {PASSES},\n  "programs": [\n{_rows(programs)}\n  ],\n'
        f'  "excluded": [\n{_rows(excluded)}\n  ]\n}}\n',
        encoding="utf-8",
    )
    print(f"{len(programs)} programs in the pool, {len(excluded)} over the cap")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
