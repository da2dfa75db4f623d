"""Multi-configuration measurement harness for the pipeline model.

Comparing N pipeline configurations needs only one architectural run:
the adapters hand each chunk of the retired stream to every attached
model, and the models share whatever does not depend on their
configuration (branch outcomes, each predictor's verdicts, delay slots,
drains), so a predictor × forwarding sweep costs one simulation plus
little more than one accounting pass — the shape every pipeline
experiment here uses.
"""

from __future__ import annotations

from repro.uarch.adapters import attach_pipeline, detach_pipeline
from repro.uarch.config import PREDICTORS, UarchConfig
from repro.uarch.pipeline import PipelineModel, PipelineStats

__all__ = ["run_with_pipeline", "standard_sweep"]


def run_with_pipeline(cpu, configs, **run_kwargs):
    """Run ``cpu`` once, measuring it under every configuration.

    ``cpu`` is a loaded RISC I ``CPU`` or ``VaxCPU``; ``configs`` is one
    :class:`UarchConfig` or a sequence of them.  Returns
    ``(result, stats)`` where ``stats`` is a list of
    :class:`PipelineStats` parallel to ``configs``.  The instrumentation
    hook is detached afterwards even if the run raises.
    """
    if isinstance(configs, UarchConfig):
        configs = [configs]
    models = [PipelineModel(config, machine=cpu.name) for config in configs]
    adapter = attach_pipeline(cpu, models)
    try:
        result = cpu.run(**run_kwargs)
    finally:
        detach_pipeline(cpu, adapter)
    return result, adapter.finalize()


def standard_sweep(base: UarchConfig | None = None) -> list[UarchConfig]:
    """The canonical experiment sweep: predictors, then forwarding.

    All three predictors under the base forwarding matrix, then the two
    degraded forwarding matrices under the base predictor — five
    configurations isolating each axis against the ``base`` (default:
    ``bht2/full``).
    """
    base = base or UarchConfig()
    sweep = [
        UarchConfig(
            predictor=predictor,
            forwarding=base.forwarding,
            bht_entries=base.bht_entries,
            mispredict_penalty=base.mispredict_penalty,
            mem_port_cycles=base.mem_port_cycles,
            depth=base.depth,
        )
        for predictor in PREDICTORS
    ]
    for forwarding in ("none", "ex"):
        if forwarding != base.forwarding:
            sweep.append(
                UarchConfig(
                    predictor=base.predictor,
                    forwarding=forwarding,
                    bht_entries=base.bht_entries,
                    mispredict_penalty=base.mispredict_penalty,
                    mem_port_cycles=base.mem_port_cycles,
                    depth=base.depth,
                )
            )
    return sweep
