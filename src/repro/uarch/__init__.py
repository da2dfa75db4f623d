"""repro.uarch — the 5-stage pipeline timing model.

A cycle-accounting microarchitectural layer over the architectural
simulators: RAW hazards against a configurable forwarding matrix,
load-use interlocks, delayed-branch slot accounting, register-window
drain cycles, and pluggable branch predictors with misprediction flush
costs.  It observes the retired-instruction stream — written in chunks
by the RISC I fast engine's batched loop, or through the machines'
per-instruction hooks — and never executes anything itself: semantics
stay in one place, and the engine differential harness remains the
correctness gate.

Entry points: ``cpu.run(uarch="bht2/full")`` attaches one model and
returns its :class:`PipelineStats` on ``result.pipeline``;
:func:`run_with_pipeline` measures several configurations in a single
run.  See ``docs/PIPELINE.md`` for the model semantics and a worked CPI
example.
"""

from repro.uarch.config import (
    DEFAULT_UARCH,
    FORWARDING_MODES,
    PREDICTORS,
    UarchConfig,
    parse_uarch_config,
    resolve_uarch,
)
from repro.uarch.adapters import attach_pipeline, detach_pipeline
from repro.uarch.harness import run_with_pipeline, standard_sweep
from repro.uarch.pipeline import PipelineModel, PipelineStats, STALL_KINDS
from repro.uarch.predictors import (
    AlwaysNotTaken,
    BackwardTaken,
    TwoBitBHT,
    make_predictor,
)

__all__ = [
    "AlwaysNotTaken",
    "BackwardTaken",
    "DEFAULT_UARCH",
    "FORWARDING_MODES",
    "PREDICTORS",
    "PipelineModel",
    "PipelineStats",
    "STALL_KINDS",
    "TwoBitBHT",
    "UarchConfig",
    "attach_pipeline",
    "detach_pipeline",
    "make_predictor",
    "parse_uarch_config",
    "resolve_uarch",
    "run_with_pipeline",
    "standard_sweep",
]
