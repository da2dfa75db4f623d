"""Golden values for the pipeline timing model itself.

``TestPipelineParity`` (``tests/test_engine_diff.py``) runs two engines
into one model, so it cannot see a change to the model's accounting.
This test pins every :class:`~repro.uarch.pipeline.PipelineStats` field
of a fixed set of runs to ``uarch_golden.json``: the standard sweep on
both machines, ``towers`` under window pressure, and a few non-default
configurations that move the memory port, the flush cost and the depth.

``python tests/test_uarch_golden.py`` rewrites the fixture; do that only
for a change that means to alter the model's numbers.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.baselines.vax.cpu import VaxCPU
from repro.cc.driver import compile_program
from repro.core.cpu import CPU
from repro.uarch import parse_uarch_config, run_with_pipeline, standard_sweep
from repro.workloads import ALL_WORKLOADS

GOLDEN_PATH = Path(__file__).with_name("uarch_golden.json")

SWEEP_WORKLOADS = ("ackermann", "towers", "sed", "puzzle_pointer", "bit_matrix_k", "quicksort_i")
EXTRA_WORKLOADS = ("towers", "quicksort_i")
#: off the standard sweep: a one-cycle memory port (loads expose their
#: latency), a free flush and a deep pipe; a three-cycle port with the
#: EX-only bypass and a small BHT; and no bypass under the static predictor
EXTRA_CONFIGS = (
    "mem=1,mispredict=0,depth=7",
    "fwd=ex,mem=3,bht=16",
    "fwd=none,pred=backward,mispredict=5",
)


@functools.lru_cache(maxsize=None)
def _program(name: str, target: str):
    return compile_program(ALL_WORKLOADS[name].source(), target=target).program


def _measure(name: str, target: str, configs, num_windows: int | None = None) -> list:
    if target == "risc1":
        cpu = CPU() if num_windows is None else CPU(num_windows=num_windows)
    else:
        cpu = VaxCPU()
    cpu.load(_program(name, target))
    _, stats = run_with_pipeline(cpu, configs, max_steps=5_000_000)
    return [s.to_dict() for s in stats]


def _cases():
    """``(case id, thunk)`` for every golden entry, in fixture order."""
    extra = [parse_uarch_config(spec) for spec in EXTRA_CONFIGS]
    cases = []
    for target in ("risc1", "cisc"):
        for name in SWEEP_WORKLOADS:
            cases.append((f"sweep/{target}/{name}",
                          functools.partial(_measure, name, target, standard_sweep())))
        for name in EXTRA_WORKLOADS:
            cases.append((f"extra/{target}/{name}",
                          functools.partial(_measure, name, target, extra)))
    cases.append(("sweep/risc1/towers/windows=2",
                  functools.partial(_measure, "towers", "risc1", standard_sweep(), 2)))
    return cases


CASES = _cases()


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case, measure", CASES, ids=[case for case, _ in CASES])
def test_pipeline_stats_match_golden(case, measure):
    measured = measure()
    assert measured == _golden()[case]
    for stats in measured:
        assert stats["cycles"] == (
            stats["instructions"]
            + stats["raw_stalls"]
            + stats["load_use_stalls"]
            + stats["control_stalls"]
            + stats["window_stalls"]
            + stats["structural_stalls"]
            + stats["fill_cycles"]
        )


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case for case, _ in CASES)


if __name__ == "__main__":
    golden = {case: measure() for case, measure in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} cases -> {GOLDEN_PATH}")
