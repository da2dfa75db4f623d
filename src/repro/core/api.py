"""The unified machine execution API.

Both simulated processors — the RISC I :class:`~repro.core.cpu.CPU` and
the VAX-like :class:`~repro.baselines.vax.cpu.VaxCPU` — implement one
:class:`Machine` protocol and produce one :class:`RunResult`, so every
consumer (the experiment harnesses, the simulation farm, the CLIs) is
written once against this module instead of special-casing each target.

The contract:

* ``load(program)`` installs a program image and resets execution state;
* ``run(*, max_steps=..., tracer=...)`` executes until the program halts,
  returning a :class:`RunResult`; exceeding the step budget raises
  :class:`StepLimitExceeded` (a loud outcome, never a silent truncation);
* ``step()`` executes one instruction, raising :class:`MachineHalted`
  on the halting instruction — after which ``halted`` is ``True``;
* ``to_dict()``/``from_dict()`` on :class:`RunResult` is the one result
  schema, machine-tagged so the right stats class round-trips.

The legacy names (``ExecutionResult``, ``VaxExecutionResult``, the
``max_instructions`` keyword) still work as thin deprecation shims so
pre-existing callers and cached farm artifacts keep loading.
"""

from __future__ import annotations

import base64
import dataclasses
import os
import zlib
from typing import Any, Protocol, runtime_checkable

from repro.machine.traps import Trap, TrapKind

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_STEPS",
    "Machine",
    "MachineHalted",
    "RESULT_SCHEMA_VERSION",
    "RunResult",
    "SNAPSHOT_SCHEMA_VERSION",
    "StepLimitExceeded",
    "VALID_ENGINES",
    "pack_bytes",
    "register_stats_type",
    "resolve_engine",
    "resolve_max_steps",
    "stats_type",
    "unpack_bytes",
]

#: The one step budget every machine defaults to.  (Historically the two
#: simulators disagreed — 100M vs 200M — which made "the same run" mean
#: different things per target.)
DEFAULT_MAX_STEPS = 200_000_000

#: Bump on any backwards-incompatible :meth:`RunResult.to_dict` change.
RESULT_SCHEMA_VERSION = 2

#: Execution engines a machine's ``run()`` accepts.  ``"fast"`` is the
#: predecoded path (:mod:`repro.core.engine` for RISC I,
#: :mod:`repro.baselines.vax.engine` for the VAX); ``"reference"`` is the plain ``step()``
#: loop the fast path is differentially tested against.  Both produce
#: bit-identical results, stats and event streams by contract.
VALID_ENGINES = ("fast", "reference")

#: Engine used when neither the call site nor ``$REPRO_ENGINE`` says.
DEFAULT_ENGINE = "fast"

#: Bump on any backwards-incompatible :meth:`Machine.snapshot` change.
SNAPSHOT_SCHEMA_VERSION = 1


def pack_bytes(data: bytes | bytearray) -> str:
    """Encode a byte image as compressed base64 (JSON-safe).

    Snapshots carry the whole simulated memory; images are overwhelmingly
    zero bytes, so a fast zlib pass makes a 1 MiB memory a few-KB string.
    """
    return base64.b64encode(zlib.compress(bytes(data), 1)).decode("ascii")


def unpack_bytes(text: str) -> bytearray:
    """Invert :func:`pack_bytes`."""
    return bytearray(zlib.decompress(base64.b64decode(text.encode("ascii"))))


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an execution-engine selection.

    Precedence: explicit argument, then the ``REPRO_ENGINE`` environment
    variable (which reaches farm worker processes too), then
    :data:`DEFAULT_ENGINE`.
    """
    resolved = engine or os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
    if resolved not in VALID_ENGINES:
        raise ValueError(
            f"unknown engine {resolved!r}; expected one of {', '.join(VALID_ENGINES)}"
        )
    return resolved


class MachineHalted(Exception):
    """The program executed its halt; ``code`` is the exit status.

    Raised by ``step()`` on the halting instruction.  ``run()`` catches it
    and returns the :class:`RunResult` instead.
    """

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"halted with exit code {code}")


class StepLimitExceeded(Trap):
    """The step budget ran out before the program halted.

    A :class:`~repro.machine.traps.Trap` subclass, so existing handlers
    that catch ``Trap`` keep working, but the cause is now a distinct,
    catchable type carrying the exhausted ``limit`` and — for post-mortem
    analysis — the machine's (synced) partial ``stats``.
    """

    def __init__(self, limit: int, pc: int | None = None, stats: Any = None):
        super().__init__(TrapKind.HALT, f"instruction limit of {limit} reached", pc=pc)
        self.limit = limit
        self.stats = stats


def resolve_max_steps(max_instructions: int | None, max_steps: int | None) -> int:
    """Merge the legacy and current step-budget keywords into one value."""
    if max_steps is not None:
        if max_instructions is not None and max_instructions != max_steps:
            raise TypeError("pass max_steps or max_instructions, not conflicting both")
        return max_steps
    if max_instructions is not None:
        return max_instructions
    return DEFAULT_MAX_STEPS


# -- the stats-type registry -------------------------------------------------

_STATS_TYPES: dict[str, type] = {}


def register_stats_type(machine: str, cls: type) -> None:
    """Register a machine name -> per-run stats class for deserialization."""
    _STATS_TYPES[machine] = cls


def stats_type(machine: str) -> type:
    """The stats class for a machine name (imports lazily as needed)."""
    if machine not in _STATS_TYPES:
        # machine modules register themselves on import; pull in the ones
        # that are not already loaded
        if machine == "cisc":
            import repro.baselines.vax.cpu  # noqa: F401
        elif machine == "risc1":
            import repro.core.stats  # noqa: F401
    try:
        return _STATS_TYPES[machine]
    except KeyError:
        raise KeyError(f"no stats type registered for machine {machine!r}") from None


# -- the unified result ------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    """Outcome of one simulated run, identical in shape for every machine.

    ``stats`` is the machine's own stats object (``ExecutionStats`` for
    RISC I, ``VaxStats`` for the VAX-like baseline); the common fields
    every consumer needs — ``cycles``, ``instructions``, memory traffic —
    are uniform properties here.
    """

    machine: str
    exit_code: int
    output: str
    stats: Any
    #: optional :class:`~repro.uarch.pipeline.PipelineStats` — attached
    #: when the run was measured under the pipeline timing model
    #: (``run(uarch=...)``); purely additive, so the schema is unchanged
    pipeline: Any = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def data_references(self) -> int:
        return self.stats.data_references

    def to_dict(self) -> dict:
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "machine": self.machine,
            "exit_code": self.exit_code,
            "output": self.output,
            "stats": self.stats.to_dict(),
        }
        if self.pipeline is not None:
            payload["pipeline"] = self.pipeline.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict, default_machine: str | None = None) -> "RunResult":
        """Rebuild from :meth:`to_dict` output.

        Legacy (schema-1) payloads carry no ``machine`` tag; pass
        ``default_machine`` to load them.
        """
        machine = payload.get("machine", default_machine)
        if machine is None:
            raise KeyError("result payload has no 'machine' tag and no default was given")
        stats = stats_type(machine).from_dict(payload["stats"])
        pipeline = None
        if payload.get("pipeline") is not None:
            from repro.uarch.pipeline import PipelineStats

            pipeline = PipelineStats.from_dict(payload["pipeline"])
        return RunResult(
            machine=machine,
            exit_code=payload["exit_code"],
            output=payload["output"],
            stats=stats,
            pipeline=pipeline,
        )


# -- the machine protocol ----------------------------------------------------


@runtime_checkable
class Machine(Protocol):
    """What every simulated processor looks like from the outside."""

    #: stable machine tag ("risc1", "cisc") used in result payloads
    name: str

    @property
    def halted(self) -> bool:
        """True once the loaded program has executed its halt."""
        ...

    def load(self, program) -> None:
        """Install a program image and reset execution state."""
        ...

    def run(
        self,
        max_instructions: int | None = None,
        *,
        max_steps: int | None = None,
        tracer=None,
        engine: str | None = None,
        record=None,
        uarch=None,
    ) -> RunResult:
        """Run to halt (or raise :class:`StepLimitExceeded`).

        ``engine`` picks the execution path (see :data:`VALID_ENGINES`);
        ``None`` defers to ``$REPRO_ENGINE`` / :data:`DEFAULT_ENGINE`.
        ``record`` opts the finished run into the persistent run ledger
        (see :mod:`repro.obs.ledger`); ``None`` defers to
        ``$REPRO_LEDGER``.  ``uarch`` (a config spec, ``True`` for the
        default, or a :class:`~repro.uarch.config.UarchConfig`) measures
        the run under the pipeline timing model and attaches
        ``result.pipeline``.
        """
        ...

    def step(self) -> None:
        """Execute one instruction; raises :class:`MachineHalted` at halt."""
        ...

    def snapshot(self) -> dict:
        """The complete architectural state as a JSON-safe dict.

        The contract is *bit-exact resumability*: ``restore(snapshot())``
        on any machine of the same shape (same memory size, same window
        count) must leave it indistinguishable from the original — the
        same future execution, stats, traffic counters and output,
        whichever engine runs it.  Byte images are packed with
        :func:`pack_bytes`; the dict round-trips through ``json``.
        """
        ...

    def restore(self, state: dict) -> None:
        """Install a :meth:`snapshot`; raises ``ValueError`` on mismatch."""
        ...
