"""Predecoded fast execution engine for the VAX-like baseline.

The reference interpreter (:meth:`repro.baselines.vax.cpu.VaxCPU.step`)
re-parses every instruction's variable-length operand specifiers, builds
an operand object per specifier, dispatches on the mnemonic by string
compares and ``getattr``, and routes every operand access through the
generic ``_read``/``_write`` and :class:`~repro.machine.memory.Memory`'s
checked accessors.  None of the parse depends on anything but the
instruction bytes.

This engine is the VAX front end of the skeleton in
:mod:`repro.machine.engine` (the RISC I engine, :mod:`repro.core.engine`,
is the other): one slot per byte of the program's segments, each
translated once into a closure with the opcode's semantics, its operand
accessors, its static cycle cost (decode base plus specifier costs),
length and mnemonic bound at translation time.  Operand accessors read
and write registers directly and memory through ``struct`` on the
backing bytes, with the same bounds checks, traps, traffic counters,
MMIO handling and MEM_REF events as the reference accessors.  Every
closure returns the next PC.

Exactness is the contract, as for RISC I: the same exit code, output,
every :class:`~repro.baselines.vax.cpu.VaxStats` field, the memory
traffic counters, final state and tracer event stream (timestamps and
the PCs of mid-instruction MEM_REF events included) as the reference
loop; ``tests/test_engine_diff.py`` checks it.  Two loops:

* the **batched** loop (no tracer kind wanted, no ``on_execute`` hook, or
  a pipeline adapter offering a retire sink) bumps one count per step;
  ``instructions``, ``by_mnemonic`` and ``inst_bytes`` are folded from
  the counts on flush, and ``cycles`` is the static costs plus
  ``memory_cycles`` times the run's memory-reference delta.  With a sink,
  each retire also appends its PC and its exact cycles (static cost plus
  that instruction's memory references) to the adapter's buffers;
* the **exact** loop (tracing, or any other hook) accounts per step, so
  every event and hook sees what ``step()`` would show.

Instructions with autoincrement/autodecrement specifiers (which the
compiler never emits) run through ``cpu.step()``: their side effects must
land between the specifiers' evaluation and the operand reads, which the
fused accessors here do not model.  So do undecodable bytes, instructions
reaching past the program's span, and PCs outside it.  CALLS and RET
take a direct path when the whole frame is in bounds and clear of
watched memory, and otherwise hand the frame to the reference linkage
code, so a trap mid-frame leaves the same partial state.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct

from repro.baselines.vax.cpu import MMIO_BASE, SIGN, WORD, _signed
from repro.baselines.vax.isa import AP, BRANCH_CONDITIONS, FP, MAX_LENGTH, SP, decode
from repro.core.api import MachineHalted
from repro.machine.engine import EngineSkeleton
from repro.machine.memory import MemoryError_
from repro.machine.traps import Trap, TrapKind

_LONG = Struct(">I")
_SHORT = Struct(">H")
#: big-endian unsigned layouts by operand width
_LAYOUTS = {1: Struct(">B"), 2: _SHORT, 4: _LONG}
_MEMORY_MODES = frozenset({"deferred", "disp", "absolute"})
_SIDE_EFFECT_MODES = frozenset({"autoinc", "autodec"})


@lru_cache(maxsize=None)
def _saved_registers(mask: int) -> tuple[int, ...]:
    """The registers a CALLS entry mask saves (bits 2..11), ascending."""
    return tuple(reg for reg in range(2, 12) if mask & (1 << reg))


def _bus_error(address: int, width: int, size: int) -> MemoryError_:
    """The trap :class:`~repro.machine.memory.Memory` raises out of bounds."""
    return MemoryError_(
        TrapKind.BUS_ERROR,
        f"access of {width} byte(s) at {address:#x} exceeds {size:#x}",
    )


def _not_writable(value):
    raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "write to immediate operand")


class VaxEngine(EngineSkeleton):
    """One fast run-to-halt executor bound to a :class:`VaxCPU`."""

    shift = 0
    max_length = MAX_LENGTH
    mix_field = "by_mnemonic"
    trace_flags = ("_trace_retire", "_trace_mem", "_trace_flow", "_trace_trap")

    # -- translation -------------------------------------------------------

    def _decode(self, address: int):
        inst = decode(self.cpu.memory._bytes, address)
        # bytes past the span are not watched, so code there is interpreted
        if inst is None or address + inst.length > self.base + self.span:
            return None
        return inst

    def _describe(self, inst) -> tuple:
        timing = self.cpu.timing
        specifier_cycles = timing.specifier_cycles
        cycles = timing.base_cycles[inst.info.kind] + sum(
            specifier_cycles[family] for family, _, _ in inst.operands
        )
        mnemonic = inst.info.mnemonic
        return cycles, mnemonic, mnemonic, inst.length

    def _fold(self, idx: int, count: int) -> None:
        self.cpu.stats.inst_bytes += count * self.lengths[idx]

    # -- operand accessors -------------------------------------------------

    def _reader(self, operand, width: int, end: int):
        """``(is_const, is_reg, value, get)`` for one read operand.

        Bodies inline the two cheap kinds: a constant's ``value``, or
        ``regs[value]`` for a full-width register; anything else is the
        zero-argument ``get``.
        """
        family, reg, value = operand
        if family in ("literal", "immediate"):
            return True, False, value, None
        regs = self.cpu.regs
        if family == "register":
            if width == 4:
                return False, True, reg, None
            mask = (1 << (8 * width)) - 1
            return False, False, None, lambda: regs[reg] & mask
        cpu = self.cpu
        stats = cpu.stats
        mem_stats = cpu.memory.stats
        mem = cpu.memory._bytes
        size = cpu.memory.size
        trace = cpu._trace_mem
        tracer = cpu.tracer
        disp = 0 if value is None else value
        unpack = _LAYOUTS[width].unpack_from

        def get():
            address = disp if reg is None else (regs[reg] + disp) & WORD
            if address + width > size:
                raise _bus_error(address, width, size)
            mem_stats.data_reads += 1
            stats.data_reads += 1
            if trace:
                tracer.mem_ref(stats.cycles, end, address, "r", width)
            return unpack(mem, address)[0]

        return False, False, None, get

    def _writer(self, operand, width: int, end: int):
        """``(reg, put)``: a full-width register to assign, or ``put(value)``."""
        family, reg, value = operand
        if family in ("literal", "immediate"):
            return None, _not_writable
        cpu = self.cpu
        regs = cpu.regs
        if family == "register":
            if width == 4:
                return reg, None
            mask = (1 << (8 * width)) - 1
            keep = ~mask & WORD

            def put(value):
                regs[reg] = (regs[reg] & keep) | (value & mask)

            return None, put
        stats = cpu.stats
        mem_stats = cpu.memory.stats
        mem = cpu.memory._bytes
        size = cpu.memory.size
        trace = cpu._trace_mem
        tracer = cpu.tracer
        mmio = cpu._mmio_store
        lo, hi = self._store_range()
        note_write = self._note_write
        disp = 0 if value is None else value
        mask = (1 << (8 * width)) - 1
        pack = _LAYOUTS[width].pack_into

        def put(value):
            address = disp if reg is None else (regs[reg] + disp) & WORD
            if address >= MMIO_BASE:
                mmio(address, value, width, end)
                return
            if address + width > size:
                raise _bus_error(address, width, size)
            pack(mem, address, value & mask)
            mem_stats.data_writes += 1
            if lo <= address < hi:
                note_write(address, width)
            stats.data_writes += 1
            if trace:
                tracer.mem_ref(stats.cycles, end, address, "w", width)

        return None, put

    def _addresser(self, operand):
        """A zero-argument function computing an address operand."""
        family, reg, value = operand
        if family not in _MEMORY_MODES:
            def address():
                raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "address operand must reference memory")

            return address
        if reg is None:
            return lambda: value
        regs = self.cpu.regs
        disp = 0 if value is None else value
        return lambda: (regs[reg] + disp) & WORD

    # -- closures ----------------------------------------------------------

    def _make_handler(self, inst, pc: int):
        """Build the closure for ``inst`` at ``pc``; ``False`` to interpret."""
        operands = inst.operands
        if any(family in _SIDE_EFFECT_MODES for family, _, _ in operands):
            return False
        info = inst.info
        mnemonic = info.mnemonic
        end = pc + inst.length
        cpu = self.cpu
        regs = cpu.regs

        if inst.branch_disp is not None:
            return self._make_branch(mnemonic, (end + inst.branch_disp) & WORD, end)
        if mnemonic == "halt":
            def run():
                cpu._halt(_signed(regs[0]))

            return run
        if mnemonic == "jmp":
            return self._addresser(operands[0])
        if mnemonic == "calls":
            return self._make_calls(operands, end)
        if mnemonic == "ret":
            return self._make_ret(end)

        widths = [spec.width for spec in info.operands]
        if mnemonic in ("movl", "movw", "movb", "movzbl", "movzwl", "cvtbl", "cvtwl"):
            return self._make_move(operands, *widths, mnemonic.startswith("cvt"), end)
        if mnemonic in ("cmpl", "cmpw", "cmpb"):
            return self._make_compare(operands, widths[0], end)
        if mnemonic in ("addl2", "addl3", "subl2", "subl3", "bisl2", "bisl3",
                        "xorl2", "xorl3", "andl2", "andl3", "mull2", "mull3",
                        "divl2", "divl3"):
            dest = operands[2] if mnemonic.endswith("3") else operands[1]
            return self._make_binary(mnemonic[:-1], operands[0], operands[1], dest, end)
        maker = getattr(self, f"_make_{mnemonic}")
        return maker(operands, end)

    def _make_branch(self, mnemonic: str, target: int, end: int):
        cpu = self.cpu
        if mnemonic in ("brb", "brw"):
            return lambda: target
        if mnemonic == "beql":
            def run():
                return target if cpu.z else end
        elif mnemonic == "bneq":
            def run():
                return end if cpu.z else target
        elif mnemonic == "blss":
            def run():
                return target if cpu.n else end
        elif mnemonic == "bgeq":
            def run():
                return end if cpu.n else target
        elif mnemonic == "bleq":
            def run():
                return target if cpu.n or cpu.z else end
        elif mnemonic == "bgtr":
            def run():
                return end if cpu.n or cpu.z else target
        else:
            holds = BRANCH_CONDITIONS[mnemonic]

            def run():
                return target if holds(cpu.n, cpu.z, cpu.v, cpu.c) else end

        return run

    def _make_move(self, operands, width: int, dest_width: int, sign_extend: bool, end: int):
        """MOVx, and the MOVZxL/CVTxL widenings to ``dest_width``."""
        cpu = self.cpu
        regs = cpu.regs
        c0, r0, v0, g0 = self._reader(operands[0], width, end)
        rd, put = self._writer(operands[1], dest_width, end)
        half = 1 << (8 * width - 1)
        extend = (WORD ^ ((1 << (8 * width)) - 1)) if sign_extend else 0
        sign = 1 << (8 * dest_width - 1)

        def run():
            value = v0 if c0 else regs[v0] if r0 else g0()
            if extend and value >= half:
                value |= extend
            if rd is None:
                put(value)
            else:
                regs[rd] = value
            cpu.z = value == 0
            cpu.n = value >= sign
            return end

        return run

    def _make_moval(self, operands, end: int):
        cpu = self.cpu
        regs = cpu.regs
        address = self._addresser(operands[0])
        rd, put = self._writer(operands[1], 4, end)

        def run():
            value = address()
            if rd is None:
                put(value)
            else:
                regs[rd] = value
            cpu.z = value == 0
            cpu.n = value >= SIGN
            return end

        return run

    def _make_pushl(self, operands, end: int):
        regs = self.cpu.regs
        c0, r0, v0, g0 = self._reader(operands[0], 4, end)
        push = self._pusher()

        def run():
            push(v0 if c0 else regs[v0] if r0 else g0())
            return end

        return run

    def _pusher(self):
        """``push(value)`` exactly as ``VaxCPU._push``, minus the checks'
        method calls."""
        cpu = self.cpu
        regs = cpu.regs
        stats = cpu.stats
        mem_stats = cpu.memory.stats
        mem = cpu.memory._bytes
        size = cpu.memory.size
        pack = _LONG.pack_into
        lo, hi = self._store_range()
        note_write = self._note_write

        def push(value):
            sp = regs[SP] = (regs[SP] - 4) & WORD
            if sp + 4 > size:
                raise _bus_error(sp, 4, size)
            pack(mem, sp, value)
            mem_stats.data_writes += 1
            if lo <= sp < hi:
                note_write(sp, 4)
            stats.data_writes += 1

        return push

    def _make_clrl(self, operands, end: int):
        cpu = self.cpu
        regs = cpu.regs
        rd, put = self._writer(operands[0], 4, end)

        def run():
            if rd is None:
                put(0)
            else:
                regs[rd] = 0
            cpu.n = False
            cpu.z = True
            cpu.v = False
            return end

        return run

    def _make_tstl(self, operands, end: int):
        cpu = self.cpu
        regs = cpu.regs
        c0, r0, v0, g0 = self._reader(operands[0], 4, end)

        def run():
            value = v0 if c0 else regs[v0] if r0 else g0()
            cpu.z = value == 0
            cpu.n = value >= SIGN
            cpu.v = cpu.c = False
            return end

        return run

    def _make_unary(self, source, dest, compute, end: int):
        cpu = self.cpu
        regs = cpu.regs
        c0, r0, v0, g0 = self._reader(source, 4, end)
        rd, put = self._writer(dest, 4, end)

        def run():
            value = compute(v0 if c0 else regs[v0] if r0 else g0())
            if rd is None:
                put(value)
            else:
                regs[rd] = value
            cpu.z = value == 0
            cpu.n = value >= SIGN
            return end

        return run

    def _make_incl(self, operands, end: int):
        return self._make_unary(operands[0], operands[0], lambda a: (a + 1) & WORD, end)

    def _make_decl(self, operands, end: int):
        return self._make_unary(operands[0], operands[0], lambda a: (a - 1) & WORD, end)

    def _make_mnegl(self, operands, end: int):
        return self._make_unary(operands[0], operands[1], lambda a: -a & WORD, end)

    def _make_mcoml(self, operands, end: int):
        return self._make_unary(operands[0], operands[1], lambda a: ~a & WORD, end)

    def _make_binary(self, operation: str, source, other, dest, end: int):
        """``dest = other <operation> source`` (the VAX operand order)."""
        cpu = self.cpu
        regs = cpu.regs
        c0, r0, v0, g0 = self._reader(source, 4, end)
        c1, r1, v1, g1 = self._reader(other, 4, end)
        rd, put = self._writer(dest, 4, end)

        if operation == "addl":
            def run():
                a = v0 if c0 else regs[v0] if r0 else g0()
                b = v1 if c1 else regs[v1] if r1 else g1()
                raw = b + a
                result = raw & WORD
                if rd is None:
                    put(result)
                else:
                    regs[rd] = result
                cpu.z = result == 0
                cpu.n = result >= SIGN
                cpu.c = raw > WORD
                cpu.v = bool(~(a ^ b) & (a ^ result) & SIGN)
                return end

            return run
        if operation == "subl":
            def run():
                a = v0 if c0 else regs[v0] if r0 else g0()
                b = v1 if c1 else regs[v1] if r1 else g1()
                result = (b - a) & WORD
                if rd is None:
                    put(result)
                else:
                    regs[rd] = result
                cpu.z = result == 0
                cpu.n = result >= SIGN
                cpu.c = b < a  # borrow
                cpu.v = bool((b ^ a) & (b ^ result) & SIGN)
                return end

            return run

        if operation == "bisl":
            combine = int.__or__
        elif operation == "xorl":
            combine = int.__xor__
        elif operation == "andl":
            combine = int.__and__
        elif operation == "mull":
            def combine(b, a):
                return (_signed(b) * _signed(a)) & WORD
        else:  # divl: other / source, truncating toward zero as C does
            def combine(b, a):
                divisor = _signed(a)
                if divisor == 0:
                    raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "integer divide by zero", pc=end)
                return int(_signed(b) / divisor) & WORD

        def run():
            a = v0 if c0 else regs[v0] if r0 else g0()
            b = v1 if c1 else regs[v1] if r1 else g1()
            result = combine(b, a)
            if rd is None:
                put(result)
            else:
                regs[rd] = result
            cpu.z = result == 0
            cpu.n = result >= SIGN
            return end

        return run

    def _make_ashl(self, operands, end: int):
        cpu = self.cpu
        regs = cpu.regs
        c0, _, v0, g0 = self._reader(operands[0], 1, end)
        c1, r1, v1, g1 = self._reader(operands[1], 4, end)
        rd, put = self._writer(operands[2], 4, end)
        # a constant left shift (the compiler's scaled index) is folded;
        # amounts are masked to 5 bits, as in the reference
        fixed = c0 and _signed(v0, 8) >= 0
        amount = _signed(v0, 8) & 31 if fixed else 0

        def run():
            if fixed:
                result = ((v1 if c1 else regs[v1] if r1 else g1()) << amount) & WORD
            else:
                count = _signed(v0 if c0 else g0(), 8)
                value = v1 if c1 else regs[v1] if r1 else g1()
                if count >= 0:
                    result = (value << (count & 31)) & WORD
                else:
                    result = (_signed(value) >> ((-count) & 31)) & WORD
            if rd is None:
                put(result)
            else:
                regs[rd] = result
            cpu.z = result == 0
            cpu.n = result >= SIGN
            return end

        return run

    def _make_compare(self, operands, width: int, end: int):
        cpu = self.cpu
        regs = cpu.regs
        c0, r0, v0, g0 = self._reader(operands[0], width, end)
        c1, r1, v1, g1 = self._reader(operands[1], width, end)
        half = 1 << (8 * width - 1)

        def run():
            a = v0 if c0 else regs[v0] if r0 else g0()
            b = v1 if c1 else regs[v1] if r1 else g1()
            cpu.z = a == b
            # signed order: flip the sign bit, then compare unsigned
            cpu.n = (a ^ half) < (b ^ half)
            cpu.c = a < b
            cpu.v = False
            return end

        return run

    def _make_calls(self, operands, end: int):
        cpu = self.cpu
        regs = cpu.regs
        stats = cpu.stats
        mem_stats = cpu.memory.stats
        mem = cpu.memory._bytes
        size = cpu.memory.size
        pack = _LONG.pack_into
        read_mask = _SHORT.unpack_from
        trace = cpu._trace_flow
        tracer = cpu.tracer
        lo, hi = self._store_range()
        c0, r0, v0, g0 = self._reader(operands[0], 4, end)
        address = self._addresser(operands[1])
        push = cpu._push

        def run():
            nargs = v0 if c0 else regs[v0] if r0 else g0()
            target = address()
            if trace:
                tracer.call(stats.cycles, end, cpu._depth + 1, target)
            if target + 2 > size:
                raise _bus_error(target, 2, size)
            mask = read_mask(mem, target)[0]
            mem_stats.data_reads += 1
            stats.data_reads += 1
            saved = _saved_registers(mask & 0xFFC)
            sp = regs[SP]
            frame = 4 * (len(saved) + 5)
            bottom = sp - frame
            if bottom >= 0 and sp <= size and not (bottom < hi and sp > lo):
                pack(mem, sp - 4, nargs)
                slot = sp - 8
                for reg in saved:
                    pack(mem, slot, regs[reg])
                    slot -= 4
                pack(mem, slot, regs[AP])
                pack(mem, slot - 4, regs[FP])
                pack(mem, slot - 8, end)
                pack(mem, slot - 12, mask)
                pushes = frame >> 2
                mem_stats.data_writes += pushes
                stats.data_writes += pushes
                regs[SP] = bottom
            else:
                # out of bounds or over watched memory: the reference
                # pushes, trapping (and watching) exactly where it does
                push(nargs)
                for reg in saved:
                    push(regs[reg])
                push(regs[AP])
                push(regs[FP])
                push(end)
                push(mask)
            regs[FP] = regs[SP]
            regs[AP] = (sp - 4) & WORD
            stats.calls += 1
            depth = cpu._depth = cpu._depth + 1
            if depth > stats.max_call_depth:
                stats.max_call_depth = depth
            stats.call_linkage_refs += 1 + (frame >> 2)
            return target + 2

        return run

    def _make_ret(self, end: int):
        cpu = self.cpu
        regs = cpu.regs
        stats = cpu.stats
        mem_stats = cpu.memory.stats
        mem = cpu.memory._bytes
        size = cpu.memory.size
        unpack = _LONG.unpack_from
        trace = cpu._trace_flow
        tracer = cpu.tracer

        def run():
            fp = regs[FP]
            if fp + 8 <= size:
                saved = _saved_registers(unpack(mem, fp)[0] & 0xFFC)
                pops = len(saved) + 5
                if fp + 4 * pops <= size:
                    if trace:
                        tracer.ret(stats.cycles, end, cpu._depth - 1)
                    target = unpack(mem, fp + 4)[0]
                    regs[FP] = unpack(mem, fp + 8)[0]
                    regs[AP] = unpack(mem, fp + 12)[0]
                    slot = fp + 16
                    for reg in reversed(saved):
                        regs[reg] = unpack(mem, slot)[0]
                        slot += 4
                    regs[SP] = (slot + 4 + 4 * unpack(mem, slot)[0]) & WORD
                    mem_stats.data_reads += pops
                    stats.data_reads += pops
                    stats.returns += 1
                    cpu._depth -= 1
                    stats.call_linkage_refs += pops
                    return target
            # a frame reaching past memory: the reference pops, trapping
            # exactly where it does, and leaves ``cpu.pc`` as it would
            cpu.pc = end
            cpu._ret()
            return cpu.pc

        return run

    # -- the run loops -----------------------------------------------------

    def _fault_pc(self, idx: int, pc: int) -> None:
        """Leave ``cpu.pc`` where the reference does when the instruction
        at slot ``idx`` raises: past it, unless RET already placed it."""
        if self.keys[idx] != "ret":
            self.cpu.pc = pc + self.lengths[idx]

    def _run_batched(self, limit: int, sink=None) -> None:
        """The no-observer loop: stats are batched per slot.

        With a ``sink`` (a pipeline adapter that is the run's only hook)
        each retire also appends its PC to ``sink.stream`` and its cycles
        to ``sink.occupancy``, handed over every ``sink.chunk_size``
        retires; fallback steps feed the adapter through its hook and are
        closed with ``sink.settle()``.
        """
        cpu = self.cpu
        stats = cpu.stats
        handlers = self.handlers
        counts = self.counts
        base = self.base
        span = self.span
        translate = self._translate
        memory_cycles = cpu.timing.memory_cycles
        if sink is not None:
            retire = sink.stream.append
            occupancy = sink.occupancy
            occupy = occupancy.append
            chunk_size = sink.chunk_size
            costs = self.costs
        pc = cpu.pc
        # memory references since the last fold into ``stats.cycles``
        refs = stats.data_reads + stats.data_writes
        offset = 0
        handler = None
        try:
            for _ in range(limit):
                offset = pc - base
                if 0 <= offset < span:
                    handler = handlers[offset]
                    if handler is None:
                        handler = translate(offset)
                else:
                    handler = False
                if handler is False:
                    stats.cycles += (stats.data_reads + stats.data_writes - refs) * memory_cycles
                    cpu.pc = pc
                    try:
                        cpu.step()  # feeds a sink through its on_execute hook
                    finally:
                        refs = stats.data_reads + stats.data_writes
                        if sink is not None:
                            sink.settle()
                    pc = cpu.pc
                    continue
                counts[offset] += 1
                if sink is None:
                    pc = handler()
                    continue
                retire(pc)
                before = stats.data_reads + stats.data_writes
                try:
                    pc = handler()
                except MachineHalted:
                    occupy(
                        costs[offset]
                        + (stats.data_reads + stats.data_writes - before) * memory_cycles
                    )
                    raise
                occupy(
                    costs[offset]
                    + (stats.data_reads + stats.data_writes - before) * memory_cycles
                )
                if len(occupancy) >= chunk_size:
                    sink.flush()
        except BaseException:
            if handler:  # raised by a translated instruction
                self._fault_pc(offset, pc)
            raise
        else:
            cpu.pc = pc
        finally:
            stats.cycles += (stats.data_reads + stats.data_writes - refs) * memory_cycles
            self._flush_all()

    def _run_exact(self, limit: int) -> None:
        """The observed loop: per-step stats so events and hooks match."""
        cpu = self.cpu
        stats = cpu.stats
        by_mnemonic = stats.by_mnemonic
        tracer = cpu.tracer
        trace_retire = cpu._trace_retire
        trace_trap = cpu._trace_trap
        memory_cycles = cpu.timing.memory_cycles
        handlers = self.handlers
        costs = self.costs
        names = self.names
        insts = self.insts
        lengths = self.lengths
        base = self.base
        span = self.span
        translate = self._translate
        pc = cpu.pc
        for _ in range(limit):
            offset = pc - base
            if 0 <= offset < span:
                handler = handlers[offset]
                if handler is None:
                    handler = translate(offset)
            else:
                handler = False
            if handler is False:
                cpu.pc = pc
                cpu.step()
                pc = cpu.pc
                continue
            length = lengths[offset]
            stats.inst_bytes += length
            hook = cpu.on_execute
            if hook is not None:
                cpu.pc = pc + length
                hook(pc, insts[offset])
            refs = stats.data_reads + stats.data_writes
            try:
                next_pc = handler()
            except Trap as trap:
                if trace_trap:
                    tracer.trap(stats.cycles, pc, trap.kind.name, trap.detail)
                self._fault_pc(offset, pc)
                raise
            except BaseException:
                self._fault_pc(offset, pc)
                raise
            finally:
                cycles = (
                    costs[offset]
                    + (stats.data_reads + stats.data_writes - refs) * memory_cycles
                )
                stats.cycles += cycles
                stats.instructions += 1
                by_mnemonic[names[offset]] += 1
                if trace_retire:
                    tracer.retire(stats.cycles, pc, names[offset], cycles)
            pc = next_pc
        cpu.pc = pc
