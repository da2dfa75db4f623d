"""The 5-stage pipeline cycle-accounting model.

This is a *timing* model layered over the architectural simulator's
retired-instruction stream — it never executes anything, so the
bit-identical differential harness (``tests/test_engine_diff.py``)
remains the correctness gate while this module answers the paper's
microarchitectural question: does one instruction really leave the
pipeline every cycle?

The model is the classic in-order single-issue IF/ID/EX/MEM/WB pipe
(the modern RV32 blueprint of RVCoreP / basic_RV32s, which is also the
paper's own three-stage machine grown to the textbook five stages):

* instruction ``i`` enters EX at cycle ``e_i = max(next_free, ready)``
  where ``next_free`` covers the previous instruction's EX/MEM occupancy
  (a load or store holds the single memory port for
  ``mem_port_cycles``), plus any control-flush or window-drain cycles;
* ``ready`` is the RAW-hazard constraint: a consumer may enter EX no
  earlier than ``producer_ex + latency``, with latency set by the
  forwarding matrix (see :class:`~repro.uarch.config.UarchConfig`):

  ============  =========  ==========
  forwarding    ALU lat    load lat
  ============  =========  ==========
  ``none``      3 (WB)     3 (WB)
  ``ex``        1 (EX→EX)  3 (WB)
  ``full``      1 (EX→EX)  2 (MEM→EX)
  ============  =========  ==========

  so under ``full`` the only data stall is the one-bubble load-use
  interlock, and the no-bypass pipe pays up to two bubbles per
  dependent pair;
* delayed control transfers always execute their slot (RISC I
  semantics); the model scores each dynamic slot as *filled* (useful
  work) or a *nop* (the bubble the optimizer failed to hide);
* conditional branches are predicted at fetch and resolved two retires
  later (branch, slot, then the first instruction on the resolved
  path); a misprediction squashes ``mispredict_penalty`` wrong-path
  fetch cycles.  Unconditional transfers need no prediction: their
  targets are computed by the address adder during decode and the delay
  slot hides the fetch bubble — exactly the paper's delayed-jump
  argument;
* register-window overflow/underflow handlers drain the pipe for the
  handler cycles the architectural model already charges
  (``stats.overflow_cycles``), reported in the ``window`` stall bucket.

Condition codes are assumed always forwarded (the PSW bits ride the
ALU's bypass paths for free in all three matrices); only register
operands create hazards.

**How the accounting is computed.**  The model consumes the retired
stream in chunks of :data:`CHUNK` instructions (:class:`RetireChunk`),
each entry a flat :func:`retired` tuple the adapter classified once per
distinct instruction.  Most of the books depend on the stream alone, so
:class:`RetireStream` keeps them once per run and every probe of that
run shares them: delay-slot scoring, branch outcomes, memory-op counts,
window drains, and each predictor's verdicts (computed once per
predictor, so ``control = penalty × mispredicts``).  Structural stalls
follow from the occupancies, and ``cycles = instructions + stalls +
depth - 1``.  Only the RAW timeline is per configuration, and it is
walked only where it can bind: with ALU latency 1 every consumer issues
at or after its producer's result (the producer's own occupancy already
separates them), and a load whose latency does not exceed the memory
port's occupancy is covered the same way — so raw and load-use stalls
are provably 0 and ``bht2/full`` on RISC I walks nothing.  A walk goes
block by block, and since only the last two issues can stall anyone, a
block's stalls depend on the block and a small entry context: each
(context, block) pair is issued once per run and replayed.  A tracer
that wants ``PIPE_STALL`` events also walks, issuing every block, since
the events' timestamps need the issue frontier.
"""

from __future__ import annotations

import collections
import dataclasses
import operator
import re

from repro.obs.events import EventKind
from repro.uarch.config import UarchConfig
from repro.uarch.predictors import make_predictor

__all__ = [
    "CHUNK",
    "PipelineModel",
    "PipelineStats",
    "RetireChunk",
    "RetireStream",
    "STALL_KINDS",
    "retired",
]

#: retired instructions per chunk handed to the models; bounds the
#: adapters' stream buffers
CHUNK = 4096

#: :func:`retired` flag bits
DELAYED = 1
CONDITIONAL = 2
NOP = 4

#: flag byte -> the letter a chunk scan matches: ``C`` a conditional
#: delayed transfer, ``D`` another delayed one, ``c`` a conditional
#: without a slot, ``N`` the slot-filling nop, ``.`` anything else
_SCAN_LETTERS = bytes(
    ord(
        "C" if flags & DELAYED and flags & CONDITIONAL
        else "D" if flags & DELAYED
        else "c" if flags & CONDITIONAL
        else "N" if flags & NOP
        else "."
    )
    for flags in range(256)
)
_CONDITIONALS = re.compile(rb"[Cc]")
#: the letters after which a new block starts: past a delay slot, or
#: right after a conditional branch without one
_BLOCK_ENDS = re.compile(rb"[CDc]")
_FLAGS = operator.itemgetter(5)

#: RAW latencies (ALU, load) per forwarding mode, in EX-to-EX cycles.
#: None exceeds 3, and every instruction holds EX for at least a cycle,
#: so only the last two issues can ever stall a consumer — the walk's
#: block context (see :meth:`PipelineModel._issue`) relies on it.
_LATENCIES = {
    "none": (3, 3),
    "ex": (1, 3),
    "full": (1, 2),
}

#: The stall buckets, in reporting order.
STALL_KINDS = ("raw", "load_use", "control", "window", "structural")


@dataclasses.dataclass
class PipelineStats:
    """Cycle accounting for one run through the pipeline model."""

    machine: str = "risc1"
    config: dict = dataclasses.field(default_factory=dict)
    instructions: int = 0
    #: total pipeline cycles (fill + issue + every stall below)
    cycles: int = 0
    #: pipeline fill (depth - 1 cycles to first retire)
    fill_cycles: int = 0
    #: RAW-hazard bubbles whose binding producer was an ALU result
    raw_stalls: int = 0
    #: RAW-hazard bubbles whose binding producer was a load
    load_use_stalls: int = 0
    #: wrong-path fetch cycles squashed on branch mispredictions
    control_stalls: int = 0
    #: pipeline-drain cycles for window overflow/underflow handlers
    window_stalls: int = 0
    #: extra EX/MEM occupancy of multi-cycle instructions (the memory
    #: port for RISC I loads/stores; microcode iteration for the VAX)
    structural_stalls: int = 0
    #: conditional branches resolved / predicted correctly / taken
    branches: int = 0
    branch_hits: int = 0
    branches_taken: int = 0
    #: conditional branches still unresolved when the run halted
    branches_unresolved: int = 0
    #: dynamic delayed-branch slots: total, carrying useful work, nops
    delay_slots: int = 0
    delay_slots_filled: int = 0
    delay_slot_nops: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def mispredicts(self) -> int:
        return self.branches - self.branch_hits

    @property
    def predictor_accuracy(self) -> float:
        return self.branch_hits / self.branches if self.branches else 1.0

    @property
    def stall_cycles(self) -> int:
        return (
            self.raw_stalls
            + self.load_use_stalls
            + self.control_stalls
            + self.window_stalls
            + self.structural_stalls
        )

    @property
    def slot_fill_rate(self) -> float:
        return self.delay_slots_filled / self.delay_slots if self.delay_slots else 0.0

    def stall_breakdown(self) -> dict[str, int]:
        """Stall cycles per bucket, in :data:`STALL_KINDS` order."""
        return {
            "raw": self.raw_stalls,
            "load_use": self.load_use_stalls,
            "control": self.control_stalls,
            "window": self.window_stalls,
            "structural": self.structural_stalls,
        }

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        # derived values are serialized too so ledger records and
        # BENCH_*.json files are self-describing without this class
        payload["cpi"] = round(self.cpi, 4)
        payload["mispredicts"] = self.mispredicts
        payload["predictor_accuracy"] = round(self.predictor_accuracy, 4)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineStats":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def summary(self) -> str:
        """A human-readable block, in the style of ``ExecutionStats.summary``."""
        config = UarchConfig.from_dict(self.config) if self.config else UarchConfig()
        lines = [
            f"pipeline model        : {config.depth}-stage, {config.label}",
            f"pipeline cycles       : {self.cycles}",
            f"pipeline CPI          : {self.cpi:.3f}",
            "stalls                : "
            f"raw {self.raw_stalls}, load-use {self.load_use_stalls}, "
            f"control {self.control_stalls}, window {self.window_stalls}, "
            f"structural {self.structural_stalls}",
            f"cond branches         : {self.branches} "
            f"({self.branches_taken} taken, {self.mispredicts} mispredicted, "
            f"{100.0 * self.predictor_accuracy:.1f}% accuracy)",
            f"delay slots           : {self.delay_slots} "
            f"({self.delay_slots_filled} filled, {self.delay_slot_nops} nops)",
        ]
        return "\n".join(lines)


def retired(
    pc: int,
    reads: tuple = (),
    writes: tuple = (),
    *,
    is_load: bool = False,
    is_mem: bool = False,
    delayed: bool = False,
    conditional: bool = False,
    static_target: int | None = None,
    fallthrough: int | None = None,
    is_nop: bool = False,
) -> tuple:
    """One retired instruction as the model reads it, as a flat tuple.

    ``reads``/``writes`` are abstract register ids (physical indices for
    RISC I so window overlap aliases correctly, architectural numbers
    for the VAX); ``is_mem`` marks a load or store, which holds the
    memory port for ``mem_port_cycles``; ``delayed`` marks a control
    transfer with a delay slot; ``conditional`` opts the transfer into
    branch prediction, its outcome read from the retired PC stream (taken
    iff the resolving retire is not at ``fallthrough``); ``is_nop`` marks
    the canonical slot filler.  Adapters build one per distinct
    instruction and reuse it for every retire.
    """
    flags = (
        (DELAYED if delayed else 0)
        | (CONDITIONAL if conditional else 0)
        | (NOP if is_nop else 0)
    )
    return (reads, writes, is_load, is_mem, pc, flags, static_target, fallthrough)


class _PredictorTrack:
    """One predictor's verdicts on a run's resolved branches, in order."""

    def __init__(self, config: UarchConfig):
        self.predictor = make_predictor(config)
        #: predicted but not yet updated: (resolve position, pc, taken)
        self._queue: collections.deque = collections.deque()

    def verdicts(self, resolved: list, base: int) -> tuple[int, list]:
        """``(hits, misses)`` for ``resolved`` branches, in stream order.

        A branch is predicted at its own position and trains the
        predictor at its resolution, so each prediction sees exactly the
        updates of branches resolved at or before it.  ``misses`` holds
        ``(chunk position of the resolution, branch pc)``.
        """
        predict = self.predictor.predict
        update = self.predictor.update
        queue = self._queue
        hits = 0
        misses = []
        for position, resolve_at, pc, target, taken in resolved:
            while queue and queue[0][0] <= position:
                _, earlier_pc, earlier_taken = queue.popleft()
                update(earlier_pc, earlier_taken)
            if predict(pc, target) == taken:
                hits += 1
            else:
                misses.append((resolve_at - base, pc))
            queue.append((resolve_at, pc, taken))
        return hits, misses


class RetireStream:
    """One run's retired stream, cut into :class:`RetireChunk` objects.

    Holds what carries across chunk boundaries — the open delay slot,
    branches still waiting for their resolving retire, each predictor's
    state — so no number depends on where the cuts fall.
    ``resolve_after`` is the distance in retires from a conditional
    branch to the retire that reveals its outcome (2 behind a delay
    slot: the slot, then the resolved path; 1 without); ``has_loads``
    says whether any entry can be a load.
    """

    def __init__(self, resolve_after: int, has_loads: bool):
        self.resolve_after = resolve_after
        self.has_loads = has_loads
        #: bumped whenever the adapter drops classifications (self-modifying
        #: code): the models' block memos key on the entries' identity
        self.generation = 0
        #: stream position of the next chunk's first entry
        self._base = 0
        #: the previous chunk's last scan letter (its slot may open this one)
        self._carry = b""
        #: conditional branches awaiting their outcome, in stream order:
        #: (position, pc, static target, fall-through)
        self._open: list = []
        self._tracks: dict = {}

    def chunk(self, entries: list, occupancy: list | None = None, drains=()) -> "RetireChunk":
        """Account the next ``entries`` (:func:`retired` tuples) once.

        ``occupancy`` gives each entry's measured EX/MEM cycles (the
        VAX's microcode); without it a memory op holds the port for
        ``mem_port_cycles`` and anything else for one cycle.  ``drains``
        are ``(chunk position, cycles)`` window-handler drains, charged
        before the entry at that position.
        """
        base = self._base
        count = len(entries)
        # one letter per entry, after the carried one: every delayed
        # transfer but the last letter has its slot here
        carry = self._carry
        scan = carry + bytes(map(_FLAGS, entries)).translate(_SCAN_LETTERS)
        self._carry = scan[-1:]
        head = scan[:-1]
        slots = head.count(b"D") + head.count(b"C")
        nops = scan.count(b"DN") + scan.count(b"CN")
        opened = self._open
        start = base - len(carry)
        for match in _CONDITIONALS.finditer(scan, len(carry)):
            position = match.start()
            entry = entries[position - len(carry)]
            opened.append((start + position, entry[4], entry[6], entry[7]))

        # a branch at p resolves here if its resolving retire p + k is in
        # this chunk; the open list is in stream order, so those come first
        reach = base + count - self.resolve_after
        resolved = []
        taken = 0
        for done, (position, pc, target, fallthrough) in enumerate(opened):
            if position >= reach:
                break
            resolve_at = position + self.resolve_after
            outcome = entries[resolve_at - base][4] != fallthrough
            taken += outcome
            resolved.append((position, resolve_at, pc, target, outcome))
        else:
            done = len(opened)
        del opened[:done]
        self._base = base + count
        return RetireChunk(
            self, base, entries, occupancy, list(drains), slots, nops, resolved, taken,
            len(opened), scan[len(carry):],
        )

    def _track(self, config: UarchConfig) -> _PredictorTrack:
        key = (config.predictor, config.bht_entries)
        track = self._tracks.get(key)
        if track is None:
            track = self._tracks[key] = _PredictorTrack(config)
        return track


class RetireChunk:
    """A chunk of the retired stream with its configuration-free books.

    Made by :meth:`RetireStream.chunk`; every model probing the run
    reads the same chunk, and whatever one configuration axis needs
    (occupancies per memory-port width, verdicts per predictor) is
    computed by the first model that asks and reused by the rest.
    """

    __slots__ = (
        "stream", "base", "entries", "drains", "instructions", "window_cycles",
        "delay_slots", "delay_slot_nops", "branches", "branches_taken", "unresolved",
        "_measured", "_measured_extra", "_mem_ops", "_by_port", "_resolved", "_verdicts",
        "_letters", "_blocks", "_ids",
    )

    def __init__(self, stream, base, entries, occupancy, drains, delay_slots,
                 delay_slot_nops, resolved, branches_taken, unresolved, letters):
        self.stream = stream
        self.base = base
        self.entries = entries
        self.drains = drains
        self.instructions = len(entries)
        self.window_cycles = sum(cycles for _, cycles in drains)
        self.delay_slots = delay_slots
        self.delay_slot_nops = delay_slot_nops
        self.branches = len(resolved)
        self.branches_taken = branches_taken
        #: conditional branches still awaiting their outcome after this chunk
        self.unresolved = unresolved
        self._measured = occupancy
        self._measured_extra = sum(occupancy) - len(entries) if occupancy is not None else 0
        self._mem_ops = None
        self._by_port: dict = {}
        self._resolved = resolved
        self._verdicts: dict = {}
        #: one scan letter per entry (see ``_SCAN_LETTERS``)
        self._letters = letters
        self._blocks = None
        self._ids = None

    def occupancy(self, mem_port_cycles: int) -> list:
        """Each entry's EX/MEM cycles under a ``mem_port_cycles`` port."""
        if self._measured is not None:
            return self._measured
        cycles = self._by_port.get(mem_port_cycles)
        if cycles is None:
            cycles = self._by_port[mem_port_cycles] = [
                mem_port_cycles if entry[3] else 1 for entry in self.entries
            ]
        return cycles

    def structural_stalls(self, mem_port_cycles: int) -> int:
        """Extra EX/MEM occupancy beyond one cycle per instruction."""
        if self._measured is not None:
            return self._measured_extra
        if self._mem_ops is None:
            self._mem_ops = sum(map(operator.itemgetter(3), self.entries))
        return self._mem_ops * (mem_port_cycles - 1)

    def block_starts(self) -> set:
        """Positions where a block starts: the chunk start, past every
        delay slot or slotless conditional branch, and every drain."""
        if self._blocks is None:
            count = self.instructions
            starts = {0}
            starts.update(position for position, _ in self.drains)
            for match in _BLOCK_ENDS.finditer(self._letters):
                start = match.end() + (0 if match.group() == b"c" else 1)
                if start < count:
                    starts.add(start)
            self._blocks = starts
        return self._blocks

    def memo_keys(self) -> tuple:
        """What a block memo keys on, per entry: ``(identities, measured
        occupancies or None)``."""
        if self._ids is None:
            measured = self._measured
            self._ids = (
                tuple(map(id, self.entries)),
                tuple(measured) if measured is not None else None,
            )
        return self._ids

    def verdicts(self, config: UarchConfig) -> tuple[int, list]:
        """``(hits, misses)`` of ``config``'s predictor on this chunk's
        resolved branches; misses are ``(chunk position, branch pc)``."""
        key = (config.predictor, config.bht_entries)
        verdicts = self._verdicts.get(key)
        if verdicts is None:
            verdicts = self._verdicts[key] = self.stream._track(config).verdicts(
                self._resolved, self.base
            )
        return verdicts


def _context(writes_1, load_1, ready_1, writes_2, load_2, ready_2) -> tuple:
    """A canonical issue context: a producer that can no longer stall
    anyone (result ready by now, or nothing written) is dropped."""
    if ready_1 <= 0 or not writes_1:
        writes_1, load_1, ready_1 = (), False, 0
    if ready_2 <= 0 or not writes_2:
        writes_2, load_2, ready_2 = (), False, 0
    return (writes_1, load_1, ready_1, writes_2, load_2, ready_2)


_NO_CONTEXT = _context((), False, 0, (), False, 0)


def _shifted(context: tuple, cycles: int) -> tuple:
    """``context`` after the frontier moved ``cycles`` ahead."""
    writes_1, load_1, ready_1, writes_2, load_2, ready_2 = context
    return _context(
        writes_1, load_1, ready_1 - cycles, writes_2, load_2, ready_2 - cycles
    )


class PipelineModel:
    """Cycle accounting for one configuration over one run.

    Fed :class:`RetireChunk` objects in stream order through
    :meth:`consume` — the adapters (:mod:`repro.uarch.adapters`) cut
    them from a machine's retired stream — and closed by
    :meth:`finalize`.  The model never touches machine state.
    """

    def __init__(self, config: UarchConfig | None = None, machine: str = "risc1",
                 tracer=None):
        self.config = config or UarchConfig()
        self.machine = machine
        self.stats = PipelineStats(machine=machine, config=self.config.to_dict())
        self._alu_lat, self._load_lat = _LATENCIES[self.config.forwarding]
        self._tracer = tracer
        self._trace_stall = tracer is not None and tracer.wants(EventKind.PIPE_STALL)
        #: the RAW timeline, kept only by a model that walks it: the EX
        #: cycle the next instruction may issue at (the first one's is
        #: 2), and the context of the last two issues (see :meth:`_issue`)
        self._next_free = 2
        self._context = _NO_CONTEXT
        #: (context, block's memo keys) -> what issuing the block does
        self._memo: dict = {}
        self._memo_generation = 0
        self._unresolved = 0

    @property
    def traces_stalls(self) -> bool:
        """Whether this model emits ``PIPE_STALL`` tracer events."""
        return self._trace_stall

    def _walks(self, stream: RetireStream) -> bool:
        """Whether this model must walk the RAW timeline of ``stream``.

        With ALU latency 1 a consumer always issues at or after its
        producer's result, and so does a load's consumer when the load
        latency does not exceed the memory port's occupancy: raw and
        load-use stalls are then 0 without looking.  Traced stalls need
        the issue frontier for their timestamps.
        """
        return (
            self._trace_stall
            or self._alu_lat > 1
            or (stream.has_loads and self._load_lat > self.config.mem_port_cycles)
        )

    # -- feeding -----------------------------------------------------------

    def consume(self, chunk: RetireChunk) -> None:
        """Account one chunk of the retired stream."""
        config = self.config
        stats = self.stats
        hits, misses = chunk.verdicts(config)
        stats.instructions += chunk.instructions
        stats.branches += chunk.branches
        stats.branches_taken += chunk.branches_taken
        stats.branch_hits += hits
        stats.control_stalls += config.mispredict_penalty * len(misses)
        stats.window_stalls += chunk.window_cycles
        stats.structural_stalls += chunk.structural_stalls(config.mem_port_cycles)
        stats.delay_slots += chunk.delay_slots
        stats.delay_slot_nops += chunk.delay_slot_nops
        stats.delay_slots_filled += chunk.delay_slots - chunk.delay_slot_nops
        self._unresolved = chunk.unresolved
        if self._walks(chunk.stream):
            self._walk(chunk, misses)

    def _walk(self, chunk: RetireChunk, misses: list) -> None:
        """Issue the chunk block by block: RAW stalls.

        A block's stalls depend only on its entries and the context it
        starts from, so an untraced model memoizes each (context, block)
        pair and replays it; a traced one issues every block for its
        event timestamps.
        """
        entries = chunk.entries
        occupancy = chunk.occupancy
        mem_port_cycles = self.config.mem_port_cycles
        penalty = self.config.mispredict_penalty
        # the frontier moves before the entry at an event's position:
        # window drains first (noted as that entry's hook fires), then
        # the flushes of branches it resolves as mispredicted
        events: dict = {}
        for position, cycles in chunk.drains:
            events.setdefault(position, []).append(("window", cycles, 0))
        if penalty:
            for position, pc in misses:
                events.setdefault(position, []).append(("control", penalty, pc))
        starts = sorted(chunk.block_starts().union(events))
        starts.append(len(entries))
        tracer = self._tracer if self._trace_stall else None
        if tracer is None:
            if self._memo_generation != chunk.stream.generation:
                self._memo.clear()
                self._memo_generation = chunk.stream.generation
            memo = self._memo
            ids, measured = chunk.memo_keys()
        issue = self._issue
        context = self._context
        next_free = self._next_free
        raw = load_use = 0
        for start, end in zip(starts, starts[1:]):
            if start in events:
                for cause, cycles, pc in events[start]:
                    next_free += cycles
                    context = _shifted(context, cycles)
                    if tracer is not None:
                        tracer.pipe_stall(next_free, pc, cause, cycles)
            if tracer is not None:
                outcome = issue(
                    context, entries[start:end],
                    occupancy(mem_port_cycles)[start:end], next_free,
                )
            else:
                key = (context, ids[start:end])
                if measured is not None:
                    key += (measured[start:end],)
                outcome = memo.get(key)
                if outcome is None:
                    outcome = memo[key] = issue(
                        context, entries[start:end], occupancy(mem_port_cycles)[start:end]
                    )
            block_raw, block_load_use, advance, context = outcome
            raw += block_raw
            load_use += block_load_use
            next_free += advance
        self._context = context
        self._next_free = next_free
        self.stats.raw_stalls += raw
        self.stats.load_use_stalls += load_use

    def _issue(self, context: tuple, entries: list, occupancy: list, base=None) -> tuple:
        """Issue one block from ``context``, in cycles from its start.

        ``context`` is ``(writes, from a load, result ready)`` of the
        last issue and of the one before it (its writes minus the last
        one's), readiness relative to the block's first issue cycle.
        Older producers cannot bind: at latency ≤ 3, two intervening
        issues of at least a cycle each cover them.  Returns ``(raw,
        load-use, cycles advanced, exit context)``; with ``base`` (the
        block's absolute first issue cycle) stalls are traced.
        """
        writes_1, load_1, ready_1, writes_2, load_2, ready_2 = context
        ready = {}
        for reg in writes_2:
            ready[reg] = (ready_2, load_2)
        for reg in writes_1:
            ready[reg] = (ready_1, load_1)
        alu_lat = self._alu_lat
        load_lat = self._load_lat
        tracer = self._tracer if base is not None else None
        last = (writes_1, load_1, ready_1)
        before = (writes_2, load_2, ready_2)
        next_free = 0
        raw = load_use = 0
        for entry, occupied in zip(entries, occupancy):
            reads, writes, is_load, _, pc, _, _, _ = entry
            ex = next_free
            for reg in reads:
                producer = ready.get(reg)
                if producer is not None and producer[0] > ex:
                    ex, binding_load = producer
            if ex > next_free:
                stall = ex - next_free
                if binding_load:
                    load_use += stall
                else:
                    raw += stall
                if tracer is not None:
                    tracer.pipe_stall(
                        base + ex, pc, "load_use" if binding_load else "raw", stall
                    )
            next_free = ex + occupied
            result_at = ex + (load_lat if is_load else alu_lat)
            for reg in writes:
                ready[reg] = (result_at, is_load)
            before = last
            last = (writes, is_load, result_at)
        writes_1, load_1, ready_1 = last
        exit_context = _context(
            writes_1, load_1, ready_1 - next_free,
            tuple(reg for reg in before[0] if reg not in writes_1),
            before[1], before[2] - next_free,
        )
        return raw, load_use, next_free, exit_context

    # -- finishing ---------------------------------------------------------

    def finalize(self) -> PipelineStats:
        """Close the run and return the finished :class:`PipelineStats`.

        Branches whose outcome the halt cut off are counted as
        unresolved, not guessed.  Every issue slot, stall and flush
        moves the last instruction's exit by one cycle, and the pipe
        takes ``depth - 1`` cycles to fill.
        """
        stats = self.stats
        stats.branches_unresolved = self._unresolved
        if stats.instructions:
            depth = self.config.depth
            stats.fill_cycles = depth - 1
            stats.cycles = stats.instructions + stats.stall_cycles + depth - 1
        return stats
