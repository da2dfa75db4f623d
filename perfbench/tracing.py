"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public entry points of each layer — the
experiment ``run()`` functions, the compiler driver, both machines'
``run``, the pipeline harness, the IR interpreter and the fuzzer — so
that every call becomes a span.  A span's *self time* is its duration
minus the time of the spans it caused; summing self time per layer
gives a breakdown of the traced wall time in which nothing is counted
twice, and what no span covers is reported as ``trace.unattributed_s``.

Spans are aggregated in memory as they close (self time, call count and
the layer's work counts); nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

#: modules imported before patching, so that every module holding a
#: ``from ... import name`` reference to a wrapped function is rebound
_PRELOAD = (
    "repro.cc.driver",
    "repro.cc.irvm",
    "repro.core.cpu",
    "repro.baselines.vax.cpu",
    "repro.uarch",
    "repro.uarch.harness",
    "repro.uarch.adapters",
    "repro.experiments.common",
    "repro.experiments.cli",
    "repro.farm.api",
    "repro.farm.jobs",
    "repro.farm.runner",
    "repro.fuzz",
    "repro.fuzz.gen",
    "repro.fuzz.crosscheck",
    "repro.fuzz.campaign",
    "repro.fuzz.minimize",
)


class LayerTracer:
    """Aggregates spans per layer: self time, calls and work counts."""

    def __init__(self):
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.sources: set[int] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer, fn, args, kwargs, after=None):
        """Call ``fn`` inside a span of ``layer`` (a name, or a function of
        the call's arguments); ``after(outcome)`` sees the return value or
        the exception."""
        if callable(layer):
            layer = layer(args, kwargs)
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        outcome = None
        started = time.perf_counter()
        try:
            outcome = fn(*args, **kwargs)
            return outcome
        except BaseException as exc:
            outcome = exc
            raise
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.self_s[layer] += elapsed - frame[0]
            self.calls[layer] += 1
            if after is not None:
                after(layer, outcome)

    def wrap(self, fn, layer, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, fn, args, kwargs, after)

        return wrapper


def _rebind(module, name: str, wrapper) -> None:
    """Point every loaded ``repro`` module's reference to ``module.name`` at
    ``wrapper``; modules imported later pick it up from ``module``."""
    original = getattr(module, name)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            loaded.__dict__.get(name) is original
        ):
            setattr(loaded, name, wrapper)


def _steps(outcome) -> int:
    stats = getattr(outcome, "stats", None)
    return getattr(stats, "instructions", 0) or 0


def _probes(cpu, kwargs) -> int:
    from repro.uarch.adapters import RiscPipelineAdapter, VaxPipelineAdapter

    probes = int(kwargs.get("uarch") not in (None, False))
    hook = getattr(cpu, "on_execute", None)
    while hook is not None:
        if isinstance(hook, (RiscPipelineAdapter, VaxPipelineAdapter)):
            probes += len(hook.models)
        hook = getattr(hook, "prev", None)
    return probes


def install(tracer: LayerTracer) -> None:
    """Span every layer's public entry points (see the module docstring)."""
    for name in _PRELOAD:
        importlib.import_module(name)

    from repro.experiments.cli import EXPERIMENTS

    for key, (module_name, _) in EXPERIMENTS.items():
        module = importlib.import_module(f"repro.experiments.{module_name}")
        module.run = tracer.wrap(module.run, f"experiments.{key}")

    from repro.baselines.vax.cpu import VaxCPU
    from repro.cc import driver, irvm
    from repro.core.api import resolve_engine
    from repro.core.cpu import CPU
    from repro.fuzz import crosscheck, gen
    from repro.uarch import harness

    def count_source(args, kwargs):
        source = args[0] if args else kwargs.get("source")
        tracer.sources.add(hash(source))
        return "cc.front"

    _rebind(driver, "compile_to_ir", tracer.wrap(driver.compile_to_ir, count_source))
    _rebind(driver, "compile_program", tracer.wrap(driver.compile_program, "cc.backend"))

    def machine_layer(prefix):
        def classify(args, kwargs):
            cpu = args[0]
            probes = _probes(cpu, kwargs)
            if probes:
                tracer.counts["uarch.probes"] += probes
                return "uarch"
            engine = resolve_engine(kwargs.get("engine"))
            return f"{prefix}.{'fast' if engine == 'fast' else 'ref'}"

        return classify

    def count_steps(layer, outcome):
        tracer.counts[f"{layer}.steps"] += _steps(outcome)

    CPU.run = tracer.wrap(CPU.run, machine_layer("core"), count_steps)
    VaxCPU.run = tracer.wrap(VaxCPU.run, machine_layer("vax"), count_steps)
    _rebind(
        harness,
        "run_with_pipeline",
        tracer.wrap(harness.run_with_pipeline, "uarch.harness"),
    )

    def count_ir(layer, outcome):
        counts = getattr(outcome, "counts", None)
        tracer.counts["irvm.steps"] += getattr(counts, "total", 0) or 0

    _rebind(irvm, "run_ir", tracer.wrap(irvm.run_ir, "irvm", count_ir))

    _rebind(gen, "generate_source", tracer.wrap(gen.generate_source, "fuzz.gen"))

    def count_status(layer, outcome):
        status = getattr(outcome, "status", None)
        if status is not None:
            tracer.counts[f"fuzz.status.{status}"] += 1

    _rebind(
        crosscheck,
        "crosscheck_source",
        tracer.wrap(crosscheck.crosscheck_source, "fuzz.crosscheck", count_status),
    )
    _rebind(
        crosscheck,
        "crosscheck_seed",
        tracer.wrap(crosscheck.crosscheck_seed, "fuzz.crosscheck"),
    )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: LayerTracer, wall_s: float, experiment_keys) -> dict:
    """The per-layer metrics of one traced run, by name (units are in
    ``BENCHMARK.json``).

    Every span layer lands in exactly one ``*_s`` self-time metric below,
    so those metrics plus ``trace.unattributed_s`` sum to ``trace.wall_s``.
    """
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    out = {f"experiments.{key}_s": s[f"experiments.{key}"] for key in experiment_keys}

    programs = len(tracer.sources)
    out.update({
        "cc.front_calls": calls["cc.front"],
        "cc.front_s": s["cc.front"],
        "cc.backend_calls": calls["cc.backend"],
        "cc.backend_s": s["cc.backend"],
        "cc.ms_per_program": (
            1000.0 * (s["cc.front"] + s["cc.backend"]) / programs if programs else 0.0
        ),
    })
    for machine in ("core", "vax"):
        for engine in ("fast", "ref"):
            layer = f"{machine}.{engine}"
            steps = counts[f"{layer}.steps"]
            out[f"{layer}.steps"] = steps
            out[f"{layer}.busy_s"] = s[layer]
            out[f"{layer}.steps_per_s"] = _rate(steps, s[layer])

    uarch_busy = s["uarch"] + s["uarch.harness"]
    out.update({
        "uarch.runs": calls["uarch"],
        "uarch.probes": counts["uarch.probes"],
        "uarch.steps": counts["uarch.steps"],
        "uarch.busy_s": uarch_busy,
        "uarch.steps_per_s": _rate(counts["uarch.steps"], uarch_busy),
        "irvm.calls": calls["irvm"],
        "irvm.busy_s": s["irvm"],
        "irvm.steps_per_s": _rate(counts["irvm.steps"], s["irvm"]),
        "fuzz.gen_s": s["fuzz.gen"],
        "fuzz.crosscheck_self_s": s["fuzz.crosscheck"],
        "fuzz.ok": counts["fuzz.status.ok"],
        "fuzz.divergent": counts["fuzz.status.divergent"],
        "fuzz.compile_errors": counts["fuzz.status.compile-error"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(s.values()),
    })
    return out
