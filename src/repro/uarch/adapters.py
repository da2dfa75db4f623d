"""Machine adapters: retired-instruction streams → pipeline model feed.

The pipeline model (:mod:`repro.uarch.pipeline`) is machine-agnostic; the
adapters here turn each machine's retired stream into
:class:`~repro.uarch.pipeline.RetireChunk` objects, cut from a bounded
buffer every :data:`~repro.uarch.pipeline.CHUNK` retires.  One adapter
feeds any number of models at once, and the models share everything
about a chunk that does not depend on their configuration, so comparing
N configurations costs one architectural run plus little more than one
accounting pass.

**RISC I** (:class:`RiscPipelineAdapter`) records each retire as one
int, ``(pc << shift) | cwp`` (``shift`` is 3 for the standard eight
windows).  When it is the only hook, the fast engine's batched loop
writes those keys straight into :attr:`RiscPipelineAdapter.stream` and
hands it the instructions it translates; otherwise the adapter hangs
off ``CPU.on_execute``, which fires identically in the reference
``step()`` loop and the fast engine's exact loop, and its ``__call__``
appends the same key.  Either way the models see the same stream, so
pipeline stats are engine-independent by construction.  Each distinct
key is classified once into a flat tuple: register operands resolved to
*physical* indices through the same window maps the fast engine uses, so
the CALL/RETURN overlap (caller LOW = callee HIGH) aliases correctly and
cross-call hazards through shared registers are seen.  A CALL's
return-address write lands in the *next* window (rotation happens under
its delay slot).  Window overflow/underflow drain cycles are moves of the
architectural ``stats.overflow_cycles`` counter, recorded at the stream
position of the next retire.  Branch outcomes are read from the retired
PC stream: a conditional jump at ``P`` was taken iff the second retire
after it (branch, slot, then resolved path) is not at ``P + 8``.

**VAX** (:class:`VaxPipelineAdapter`) hangs off ``VaxCPU.on_execute``.
Its per-step work is two appends: the instruction's classification
(computed once per PC, dropped whenever a store hits classified code)
and ``stats.cycles`` as it retires.  An instruction's exact cycle cost
(base + specifier + memory-traffic cycles) is the difference to the next
retire's stamp, so the newest retire stays in the buffer until its
successor arrives; that cost becomes the EX/MEM occupancy, modelling the
microcode serializing the pipe.  Conditional branches resolve one retire
later against the recorded fall-through PC.  Register reads/writes come
from pairing operand access codes (``r``/``w``/``m``) with register-mode
operands; memory operands' address registers were consumed by the
specifier evaluators and are not re-derived (address-generation hazards
are out of scope for a baseline whose pipe is already serialized by
microcode occupancy).

A model that traces ``PIPE_STALL`` events is fed one retire at a time,
so its events interleave with the machine's own exactly as they retire.

Approximations shared by both adapters (documented in
``docs/PIPELINE.md``): condition codes are always forwarded, and an
interrupt arriving exactly in a branch's resolution shadow perturbs that
one branch's taken/not-taken reading — both engines perturb it
identically, so differential parity holds.
"""

from __future__ import annotations

from operator import sub

from repro.isa.conditions import Cond
from repro.isa.opcodes import Opcode
from repro.uarch.pipeline import CHUNK, RetireStream, retired

__all__ = [
    "RiscPipelineAdapter",
    "VaxPipelineAdapter",
    "attach_pipeline",
    "detach_pipeline",
]

_ARITH_OPS = frozenset(
    {
        Opcode.ADD, Opcode.ADDC, Opcode.SUB, Opcode.SUBC, Opcode.SUBR,
        Opcode.SUBCR, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL,
        Opcode.SRL, Opcode.SRA,
    }
)
_LOAD_OPS = frozenset(
    {Opcode.LDL, Opcode.LDSU, Opcode.LDSS, Opcode.LDBU, Opcode.LDBS}
)
_STORE_OPS = frozenset({Opcode.STL, Opcode.STS, Opcode.STB})
#: conditions that make a jump genuinely conditional: ALW always takes,
#: NOP never does — neither needs a predictor
_UNCONDITIONAL = frozenset({Cond.ALW, Cond.NOP})


class _Classes(dict):
    """key -> :func:`retired` tuple, classifying a key on first lookup."""

    __slots__ = ("_classify",)

    def __init__(self, classify):
        super().__init__()
        self._classify = classify

    def __missing__(self, key):
        entry = self[key] = self._classify(key)
        return entry


class RiscPipelineAdapter:
    """Feeds one RISC I run's retired stream to one or more models.

    Installed as (or chained into) ``cpu.on_execute``.  The fast engine
    fills :attr:`stream` itself through :meth:`batch_sink` when nothing
    else observes the run.  Classification is keyed on the decoded
    instruction's identity per PC, so self-modifying code reclassifies
    (after the retires of the old word are accounted under it).
    """

    #: buffered retires at which the fast engine calls :meth:`flush`
    chunk_size = CHUNK

    def __init__(self, cpu, models):
        from repro.core.engine import _window_maps

        self.cpu = cpu
        self.models = list(models)
        self.prev = None
        num_windows = cpu.regs.num_windows
        self._maps = _window_maps(num_windows)
        self._nwindows = num_windows
        #: retire keys are ``(pc << shift) | cwp``
        self.shift = max(3, (num_windows - 1).bit_length())
        self._cwp_mask = (1 << self.shift) - 1
        #: the bounded buffer of retire keys not yet handed to the models
        self.stream: list[int] = []
        #: window drains in the buffer: (stream position, cycles)
        self._drains: list = []
        self._overflow_seen = cpu.stats.overflow_cycles
        #: pc -> the decoded instruction the retires at pc executed
        self._insts: dict = {}
        self._classes = _Classes(self._classify)
        self._retire = RetireStream(resolve_after=2, has_loads=True)
        self._eager = any(model.traces_stalls for model in self.models)

    # -- classification ----------------------------------------------------

    def _classify(self, key: int) -> tuple:
        pc = key >> self.shift
        cwp = key & self._cwp_mask
        inst = self._insts[pc]
        op = inst.opcode
        vreads: tuple = ()
        vwrites: tuple = ()
        call_dest = 0
        is_load = is_mem = delayed = conditional = is_nop = False
        target = None
        if op in _ARITH_OPS:
            vreads = self._operand_reads(inst)
            if inst.dest:
                vwrites = (inst.dest,)
            elif op is Opcode.ADD and not inst.scc:
                is_nop = True  # add r0, ... — the canonical slot filler
        elif op in _LOAD_OPS:
            vreads = self._operand_reads(inst)
            if inst.dest:
                vwrites = (inst.dest,)
            is_load = is_mem = True
        elif op in _STORE_OPS:
            vreads = self._operand_reads(inst, extra=inst.dest)
            is_mem = True
        elif op is Opcode.JMP:
            vreads = self._operand_reads(inst)
            delayed = True
            conditional = inst.cond not in _UNCONDITIONAL
        elif op is Opcode.JMPR:
            delayed = True
            conditional = inst.cond not in _UNCONDITIONAL
            target = (pc + inst.y) & 0xFFFFFFFF
        elif op is Opcode.CALL:
            vreads = self._operand_reads(inst)
            call_dest = inst.dest
            delayed = True
        elif op is Opcode.CALLR:
            call_dest = inst.dest
            delayed = True
        elif op in (Opcode.RET, Opcode.RETINT):
            vreads = self._operand_reads(inst)
            delayed = True
        elif op is Opcode.CALLINT:
            call_dest = inst.dest
        elif op in (Opcode.LDHI, Opcode.GTLPC, Opcode.GETPSW):
            if inst.dest:
                vwrites = (inst.dest,)
        elif op is Opcode.PUTPSW:
            if inst.dest:
                vreads = (inst.dest,)
        maps = self._maps
        reads = tuple(maps[reg][cwp] for reg in vreads)
        if call_dest:
            # CALL writes the return address in the window it rotates into
            writes = (maps[call_dest][(cwp + 1) % self._nwindows],)
        else:
            writes = tuple(maps[reg][cwp] for reg in vwrites)
        return retired(
            pc,
            reads,
            writes,
            is_load=is_load,
            is_mem=is_mem,
            delayed=delayed,
            conditional=conditional,
            static_target=target,
            fallthrough=(pc + 8) & 0xFFFFFFFF if conditional else None,
            is_nop=is_nop,
        )

    @staticmethod
    def _operand_reads(inst, extra: int = 0) -> tuple:
        reads = []
        if inst.rs1:
            reads.append(inst.rs1)
        if not inst.imm and inst.s2:
            reads.append(inst.s2)
        if extra:
            reads.append(extra)
        return tuple(reads)

    # -- feeding -----------------------------------------------------------

    def batch_sink(self):
        """The sink the fast engine's batched loop may fill, or ``None``.

        Only an adapter that is the run's sole hook, with no model
        tracing stalls (which must interleave per retire), takes the
        batched path.
        """
        return self if self.prev is None and not self._eager else None

    def note_inst(self, pc: int, inst) -> None:
        """Record the instruction the retires at ``pc`` execute.

        A different instruction at a known PC (self-modifying code)
        first accounts the buffered retires under the old one.
        """
        old = self._insts.get(pc)
        if old is not None and old is not inst:
            self.flush()
            for cwp in range(self._nwindows):
                self._classes.pop((pc << self.shift) | cwp, None)
            self._retire.generation += 1
        self._insts[pc] = inst

    def note_drain(self) -> None:
        """Record a move of ``stats.overflow_cycles`` as a window drain
        charged before the next retire."""
        overflow = self.cpu.stats.overflow_cycles
        drained = overflow - self._overflow_seen
        if drained:
            self._overflow_seen = overflow
            if drained > 0:
                position = len(self.stream)
                drains = self._drains
                if drains and drains[-1][0] == position:
                    drains[-1] = (position, drains[-1][1] + drained)
                else:
                    drains.append((position, drained))

    def __call__(self, pc: int, inst) -> None:
        if self.prev is not None:
            self.prev(pc, inst)
        if self._insts.get(pc) is not inst:
            self.note_inst(pc, inst)
        self.note_drain()
        stream = self.stream
        stream.append((pc << self.shift) | self.cpu.regs.cwp)
        if self._eager or len(stream) >= CHUNK:
            self.flush()

    def flush(self) -> None:
        """Hand the buffered retires to every model as one chunk."""
        stream = self.stream
        count = len(stream)
        if not count:
            return
        entries = list(map(self._classes.__getitem__, stream))
        stream.clear()
        drains = self._drains
        # a drain noted after the last buffered retire belongs to the next
        self._drains = [(0, cycles) for position, cycles in drains if position == count]
        chunk = self._retire.chunk(
            entries, drains=[drain for drain in drains if drain[0] < count]
        )
        for model in self.models:
            model.consume(chunk)

    def finalize(self):
        self.flush()
        # a drain after the final retire was never charged to an issue
        self._drains = []
        return [model.finalize() for model in self.models]

    def attach(self) -> None:
        cpu = self.cpu
        self.prev = cpu.on_execute
        cpu.on_execute = self

    def detach(self) -> None:
        self.cpu.on_execute = self.prev


class VaxPipelineAdapter:
    """Feeds one VAX run's retired stream to one or more models."""

    def __init__(self, cpu, models):
        from repro.baselines.vax.isa import BRANCH_CONDITIONS

        self.cpu = cpu
        self.models = list(models)
        self.prev = None
        self._conditional = frozenset(BRANCH_CONDITIONS) - {"brb", "brw"}
        #: the buffered retires: their classifications and ``stats.cycles``
        #: as each fired its hook
        self.stream: list = []
        self._stamps: list[int] = []
        #: pc -> classification, and the byte range those PCs' code spans
        self._classes: dict = {}
        self._lo = cpu.memory.size
        self._hi = 0
        self._watch_prev = None
        self._retire = RetireStream(resolve_after=1, has_loads=False)
        self._eager = any(model.traces_stalls for model in self.models)

    def _classify(self, pc: int, info, operands, branch_disp) -> tuple:
        from repro.baselines.vax.isa import SP

        reads: list = []
        writes: list = []
        specs = [spec for spec in info.operands if spec.access != "b"]
        for spec, operand in zip(specs, operands):
            if operand.kind != "reg":
                continue
            if spec.access in ("r", "m"):
                reads.append(operand.value)
            if spec.access in ("w", "m"):
                writes.append(operand.value)
        if info.kind in ("push", "calls", "ret"):
            reads.append(SP)
            writes.append(SP)
        # cpu.pc already points past this instruction (the fall-through)
        end = self.cpu.pc
        entry = retired(
            pc,
            tuple(reads),
            tuple(writes),
            conditional=info.mnemonic in self._conditional,
            static_target=(end + branch_disp) & 0xFFFFFFFF if branch_disp is not None else None,
            fallthrough=end,
        )
        self._classes[pc] = entry
        self._lo = min(self._lo, pc)
        self._hi = max(self._hi, end)
        return entry

    def _note_write(self, address: int, width: int = 4) -> None:
        """Drop every classification when a store hits classified code."""
        if self._watch_prev is not None:
            self._watch_prev(address, width)
        if address < self._hi and address + width > self._lo:
            self._classes.clear()
            self._retire.generation += 1
            self._lo = self.cpu.memory.size
            self._hi = 0

    def __call__(self, pc: int, info, operands, branch_disp) -> None:
        if self.prev is not None:
            self.prev(pc, info, operands, branch_disp)
        entry = self._classes.get(pc)
        if entry is None:
            entry = self._classify(pc, info, operands, branch_disp)
        stream = self.stream
        stream.append(entry)
        self._stamps.append(self.cpu.stats.cycles)
        if self._eager or len(stream) > CHUNK:
            self.flush()

    def flush(self, final: bool = False) -> None:
        """Hand the buffered retires to every model as one chunk.

        The newest retire's cost is known only once its successor fires
        (or the run ends, with ``final``), so it stays buffered.
        """
        stream = self.stream
        stamps = self._stamps
        count = len(stream) if final else len(stream) - 1
        if count <= 0:
            return
        if final:
            stamps.append(self.cpu.stats.cycles)
        occupancy = [
            cycles if cycles > 0 else 1 for cycles in map(sub, stamps[1:count + 1], stamps)
        ]
        entries = stream[:count]
        del stream[:count]
        del stamps[:count]
        chunk = self._retire.chunk(entries, occupancy)
        for model in self.models:
            model.consume(chunk)

    def finalize(self):
        self.flush(final=True)
        self._stamps = []
        return [model.finalize() for model in self.models]

    def attach(self) -> None:
        cpu = self.cpu
        self.prev = cpu.on_execute
        cpu.on_execute = self
        self._watch_prev = cpu.memory.write_watch
        cpu.memory.write_watch = self._note_write

    def detach(self) -> None:
        cpu = self.cpu
        cpu.on_execute = self.prev
        if cpu.memory.write_watch == self._note_write:
            cpu.memory.write_watch = self._watch_prev


def attach_pipeline(cpu, models):
    """Chain the right adapter for ``cpu`` into its ``on_execute`` hook.

    ``models`` is one :class:`~repro.uarch.pipeline.PipelineModel` or a
    list of them.  Returns the adapter; call ``finalize()`` for the
    finished stats and ``detach_pipeline(cpu, adapter)`` to restore the
    hook.
    """
    from repro.uarch.pipeline import PipelineModel

    if isinstance(models, PipelineModel):
        models = [models]
    adapter = (
        RiscPipelineAdapter(cpu, models)
        if cpu.name == "risc1"
        else VaxPipelineAdapter(cpu, models)
    )
    adapter.attach()
    return adapter


def detach_pipeline(cpu, adapter) -> None:
    """Undo :func:`attach_pipeline`, restoring any chained hook."""
    if cpu.on_execute is adapter:
        adapter.detach()
