"""Benchmark harness for the predecoded execution engines.

Runs the paper's hanoi (``towers``) and ``qsort`` workloads on the RISC I
simulator, and ``towers``, ``qsort`` and ``linked_list_h`` on the VAX-like
baseline, under both engines — the reference ``step()`` loop and the
predecoded fast path — with tracing off and with full tracing, and emits
``BENCH_speed.json``.  RISC I rows are keyed by workload name, VAX rows
by ``cisc:<workload>``.

The load-bearing numbers are the tracing-off speedups: the fast engines
exist to make the experiment/farm hot path cheap, and each must deliver
at least 3x instructions/second there.  With tracing on an engine drops
to its exact per-step loop (event timestamps must match the reference
bit for bit), which still must not be slower than the reference loop.

CI compares ``BENCH_speed.json`` against the committed
``benchmarks/engine_speed_baseline.json`` and flags (non-blocking) any
>20% fast-engine throughput drop on either machine.
"""

import json
import time

from repro.baselines.vax.cpu import VaxCPU
from repro.cc.driver import compile_program
from repro.core.cpu import CPU
from repro.farm.jobs import workload_source
from repro.obs import Tracer

#: (row key, machine, workload)
ROWS = (
    ("towers", CPU, "towers"),
    ("qsort", CPU, "qsort"),
    ("cisc:towers", VaxCPU, "towers"),
    ("cisc:qsort", VaxCPU, "qsort"),
    ("cisc:linked_list_h", VaxCPU, "linked_list_h"),
)
REPEATS = 5
MIN_SPEEDUP = 3.0


def _steps_per_s(machine, program, engine, traced):
    best = 0.0
    for _ in range(REPEATS):
        cpu = machine(tracer=Tracer() if traced else None)
        cpu.load(program)
        started = time.perf_counter()
        result = cpu.run(max_steps=500_000_000, engine=engine)
        elapsed = time.perf_counter() - started
        assert result.exit_code == 0
        best = max(best, result.instructions / elapsed)
    return best


def test_engine_speed(scale, capsys, bench_json):
    from repro.obs.ledger import ledger_context

    results = {"scale": scale, "repeats": REPEATS, "workloads": {}}
    for key, machine, name in ROWS:
        program = compile_program(
            workload_source(name, scale), target=machine.name
        ).program
        with ledger_context(workload=name, scale=scale):
            reference = _steps_per_s(machine, program, "reference", traced=False)
            fast = _steps_per_s(machine, program, "fast", traced=False)
            reference_traced = _steps_per_s(machine, program, "reference", traced=True)
            fast_traced = _steps_per_s(machine, program, "fast", traced=True)
        results["workloads"][key] = {
            "reference_steps_per_s": round(reference),
            "fast_steps_per_s": round(fast),
            "speedup": round(fast / reference, 2),
            "reference_traced_steps_per_s": round(reference_traced),
            "fast_traced_steps_per_s": round(fast_traced),
            "traced_speedup": round(fast_traced / reference_traced, 2),
        }

    bench_json("BENCH_speed.json", results)
    with capsys.disabled():
        print("\n" + json.dumps(results, indent=2))

    for key, numbers in results["workloads"].items():
        # the acceptance bar: >= 3x with tracing off ...
        assert numbers["speedup"] >= MIN_SPEEDUP, (key, numbers)
        # ... and no regression with tracing on (0.9 absorbs timer noise)
        assert numbers["traced_speedup"] >= 0.9, (key, numbers)
