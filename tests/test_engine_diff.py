"""Differential tests: the fast engines must be bit-identical to reference.

Every scenario here runs twice — once with ``engine="reference"`` (the
plain ``step()`` loop) and once with ``engine="fast"`` (the predecoded
RISC engine / the predecoded VAX engine) — and asserts that *all*
observable state agrees: the run result, every stats field, the memory
traffic counters, the final architectural state, and the complete tracer
event stream (timestamps included).
"""

import functools

import pytest

from repro.asm.assembler import assemble
from repro.baselines.vax.cpu import VaxCPU
from repro.cc.driver import compile_program
from repro.core.api import StepLimitExceeded
from repro.core.cpu import CPU
from repro.isa.encoding import EncodingError
from repro.machine.traps import Trap
from repro.obs.tracer import Tracer
from repro.workloads import ALL_WORKLOADS

WORKLOADS = sorted(ALL_WORKLOADS)
TRACED_WORKLOADS = ["towers", "qsort", "ackermann", "sed"]


@functools.lru_cache(maxsize=None)
def workload_program(name: str, target: str):
    return compile_program(ALL_WORKLOADS[name].source(), target=target).program


def _outcome(run):
    """Run a machine; classify how it ended, keeping the comparable bits."""
    try:
        result = run()
        return ("halt", result.to_dict())
    except StepLimitExceeded as exc:
        return ("limit", exc.limit, exc.pc, exc.stats.to_dict())
    except Trap as trap:
        return ("trap", trap.kind, trap.detail, trap.pc)
    except EncodingError as exc:
        return ("encoding", str(exc))


def run_risc(program, engine, *, windows=8, traced=False, max_steps=5_000_000,
             hook_factory=None, interrupt_at=None):
    cpu = CPU(num_windows=windows)
    tracer = Tracer(capacity=1 << 14) if traced else None
    cpu.load(program)
    if hook_factory is not None:
        cpu.on_execute = hook_factory(cpu, program)
    if interrupt_at is not None:
        cpu.raise_interrupt(interrupt_at)
    outcome = _outcome(
        lambda: cpu.run(max_steps=max_steps, tracer=tracer, engine=engine)
    )
    return {
        "outcome": outcome,
        "stats": cpu.stats.to_dict(),
        "mem": (
            cpu.memory.stats.inst_fetches,
            cpu.memory.stats.data_reads,
            cpu.memory.stats.data_writes,
        ),
        "pc": (cpu.pc, cpu.npc),
        "regs": list(cpu.regs._regs),
        "cwp": cpu.regs.cwp,
        "psw": (cpu.psw.pack(), cpu.psw.interrupts_enabled),
        "console": "".join(cpu._console),
        "interrupts": cpu.interrupts_taken,
        "events": list(tracer.events) if tracer else None,
        "dropped": tracer.dropped if tracer else 0,
    }


def assert_risc_identical(program, **kwargs):
    reference = run_risc(program, "reference", **kwargs)
    fast = run_risc(program, "fast", **kwargs)
    assert fast == reference
    return reference


def run_vax(program, engine, *, traced=False, max_steps=5_000_000, cpu=None):
    if cpu is None:
        cpu = VaxCPU()
        cpu.load(program)
    tracer = Tracer(capacity=1 << 14) if traced else None
    outcome = _outcome(
        lambda: cpu.run(max_steps=max_steps, tracer=tracer, engine=engine)
    )
    return vax_state(cpu, outcome, tracer)


def vax_state(cpu, outcome=None, tracer=None):
    return {
        "outcome": outcome,
        "stats": cpu.stats.to_dict(),
        "mem": (cpu.memory.stats.data_reads, cpu.memory.stats.data_writes),
        "pc": cpu.pc,
        "regs": list(cpu.regs),
        "flags": (cpu.n, cpu.z, cpu.v, cpu.c),
        "depth": cpu._depth,
        "console": "".join(cpu._console),
        "events": list(tracer.events) if tracer else None,
        "dropped": tracer.dropped if tracer else 0,
    }


def assert_vax_identical(program, **kwargs):
    reference = run_vax(program, "reference", **kwargs)
    fast = run_vax(program, "fast", **kwargs)
    assert fast == reference
    return reference


class TestWorkloadParity:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_risc_untraced(self, name):
        reference = assert_risc_identical(workload_program(name, "risc1"))
        assert reference["outcome"][0] == "halt"

    @pytest.mark.parametrize("name", TRACED_WORKLOADS)
    def test_risc_traced(self, name):
        reference = assert_risc_identical(workload_program(name, "risc1"), traced=True)
        assert reference["events"]

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_vax_untraced(self, name):
        reference = assert_vax_identical(workload_program(name, "cisc"))
        assert reference["outcome"][0] == "halt"

    @pytest.mark.parametrize("name", TRACED_WORKLOADS)
    def test_vax_traced(self, name):
        reference = assert_vax_identical(workload_program(name, "cisc"), traced=True)
        assert reference["events"]


class TestWindowTraffic:
    """Deep recursion under few windows: overflow and underflow handling."""

    @pytest.mark.parametrize("windows", [2, 3])
    @pytest.mark.parametrize("traced", [False, True])
    def test_towers_under_window_pressure(self, windows, traced):
        reference = assert_risc_identical(
            workload_program("towers", "risc1"), windows=windows, traced=traced
        )
        stats = reference["stats"]
        assert stats["window_overflows"] > 0
        assert stats["window_underflows"] > 0


INTERRUPT_PROGRAM = """
; count to 100 in a loop; the handler bumps a memory cell
main:
    add r2, r0, #0
loop:
    add r2, r2, #1
    cmp r2, #100
    jne loop
    nop
    set r3, cell
    ldl r4, 0(r3)
    puti r2
    putc r0
    puti r4
    halt r2

handler:
    set r16, cell
    ldl r17, 0(r16)
    add r17, r17, #1
    stl r17, 0(r16)
    retint r26, #0
    nop

.data
cell: .word 0
"""


class TestInterruptParity:
    @pytest.mark.parametrize("traced", [False, True])
    def test_hook_driven_interrupts(self, traced):
        program = assemble(INTERRUPT_PROGRAM)

        def hook_factory(cpu, prog):
            handler = prog.symbol("handler")
            count = [0]

            def hook(pc, inst):
                count[0] += 1
                if count[0] in (20, 75, 130):
                    cpu.raise_interrupt(handler)

            return hook

        reference = assert_risc_identical(
            program, hook_factory=hook_factory, traced=traced
        )
        assert reference["interrupts"] == 3
        assert reference["console"].endswith("3")

    def test_prelatched_interrupt_batched_path(self):
        """An interrupt pending at entry, no hook: the batched loop delivers."""
        program = assemble(INTERRUPT_PROGRAM)
        reference = assert_risc_identical(
            program, interrupt_at=program.symbol("handler")
        )
        assert reference["interrupts"] == 1
        assert reference["console"].endswith("1")


class TestTrapParity:
    def _assert_trap(self, source, kind=None, traced=False):
        reference = assert_risc_identical(assemble(source), traced=traced)
        assert reference["outcome"][0] == "trap"
        if kind is not None:
            assert reference["outcome"][1] == kind
        return reference

    @pytest.mark.parametrize("traced", [False, True])
    def test_misaligned_load(self, traced):
        self._assert_trap(
            """
            main:
                add r2, r0, #2
                ldl r3, 0(r2)
                halt r0
            """,
            traced=traced,
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_bus_error_load(self, traced):
        self._assert_trap(
            """
            main:
                set r2, #0x100000
                ldl r3, 0(r2)
                halt r0
            """,
            traced=traced,
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_unknown_mmio_store(self, traced):
        reference = self._assert_trap(
            """
            main:
                set r2, #0x7F000008
                stl r0, 0(r2)
                halt r0
            """,
            traced=traced,
        )
        # the faulting PC is attached (satellite fix) on both engines
        assert reference["outcome"][3] is not None

    @pytest.mark.parametrize("traced", [False, True])
    def test_call_in_delay_slot(self, traced):
        self._assert_trap(
            """
            main:
                callr sub
                callr sub
                halt r0
            sub:
                ret
                nop
            """,
            traced=traced,
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_return_from_outermost_frame(self, traced):
        self._assert_trap(
            """
            main:
                ret
                nop
            """,
            traced=traced,
        )

    def test_illegal_instruction_word(self):
        reference = assert_risc_identical(
            assemble(
                """
                main:
                    jmp target
                    nop
                .data
                target: .word 0
                """
            )
        )
        # jumping into data executes whatever decodes there; outside the
        # predecoded range the fast engine falls back to step(), so both
        # engines agree however it ends
        assert reference["outcome"][0] in ("trap", "encoding")


SELF_MODIFYING_PROGRAM = """
; the instruction at `patch` starts as `add r6, r6, #1`; the loop
; overwrites it with `add r6, r6, #5` after the first iteration
main:
    set r2, patch
    set r3, newinst
    ldl r4, 0(r3)
    add r5, r0, #3
    add r6, r0, #0
loop:
patch:
    add r6, r6, #1
    stl r4, 0(r2)
    sub! r5, r5, #1
    jne loop
    nop
    halt r6

.data
newinst: .word 0
"""


class TestSelfModifyingCode:
    @pytest.mark.parametrize("traced", [False, True])
    def test_patched_instruction_reexecutes(self, traced):
        from repro.isa.encoding import Instruction, encode
        from repro.isa.opcodes import Opcode

        # plant the replacement word (add r6, r6, #5) in the data cell
        patched = encode(Instruction.short(Opcode.ADD, dest=6, rs1=6, s2=5, imm=True))
        program = assemble(
            SELF_MODIFYING_PROGRAM.replace(".word 0", f".word {patched:#x}")
        )
        reference = assert_risc_identical(program, traced=traced)
        # 1 (original) + 5 + 5 (patched re-executions)
        assert reference["outcome"][1]["exit_code"] == 11


#: ``patch`` starts as ``addl2 #1, r6``; the loop rewrites its literal
#: specifier to 5 after the first pass (a byte store one past the start of
#: an already translated instruction)
VAX_PATCH_LITERAL = """
__start:
    movl #3, r5
    clrl r6
patch:
    addl2 #1, r6
    movb #5, @#patch+1
    decl r5
    bneq patch
    movl r6, r0
    halt
"""

#: after two passes the loop rewrites ``patch``'s opcode byte, turning
#: ``addl2 #3, r6`` into ``subl2 #3, r6``
VAX_PATCH_OPCODE = """
__start:
    movl #4, r5
    movl #20, r6
patch:
    addl2 #3, r6
    decl r5
    cmpl r5, #2
    bneq skip
    movb #0xC2, @#patch
skip:
    tstl r5
    bneq patch
    movl r6, r0
    halt
"""


class TestVaxSelfModifyingCode:
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "source,exit_code", [(VAX_PATCH_LITERAL, 11), (VAX_PATCH_OPCODE, 20)]
    )
    def test_patched_instruction_reexecutes(self, source, exit_code, traced):
        from repro.baselines.vax.assembler import assemble_vax

        reference = assert_vax_identical(assemble_vax(source), traced=traced)
        assert reference["outcome"][0] == "halt"
        assert reference["outcome"][1]["exit_code"] == exit_code


def _vax_program(body: str, data: str = ""):
    from repro.baselines.vax.assembler import assemble_vax

    return assemble_vax(
        f"__start:\n{body}\n.data\n{data}\n"
        # an unknown opcode, then movl with an (unsupported) index specifier
        "bad: .byte 1\nbadspec: .byte 0xD0, 0x45, 0x51\nbuf: .space 64\n"
    )


#: every opcode, every operand family and width, and both branch senses
VAX_ALU_PROGRAM = """
    movl #100, r1
    movl #-7, r2
    moval @#buf, r12
    movl r1, (r12)
    movl r2, 4(r12)
    addl3 r1, r2, r3
    subl3 r2, r1, r4
    mull3 4(r12), (r12), r5
    divl3 #3, r1, r6
    divl3 r2, @#buf, r7
    bisl3 #5, r1, r8
    xorl3 #255, r1, r9
    andl3 #12, r1, r10
    ashl #3, r1, r11
    ashl #-2, r2, r11
    ashl r3, r1, 8(r12)
    ashl 4(r12), (r12), r3
    mnegl r1, r4
    mcoml 4(r12), 12(r12)
    incl r6
    decl (r12)
    addl2 #1, r10
    subl2 (r12), r10
    mull2 #3, r10
    divl2 #2, r10
    bisl2 #1, r10
    xorl2 #2, r10
    andl2 #3, r10
    addl2 r2, r2
    subl2 r1, r2
    movzbl r2, r3
    movzwl r2, r4
    cvtbl r2, r5
    cvtwl r2, r6
    cvtbl 7(r12), r7
    movb r1, r7
    movw r2, r8
    movb r2, 16(r12)
    movw r2, 18(r12)
    movzwl 16(r12), r9
    clrl 20(r12)
    clrl r9
    pushl r1
    pushl (r12)
    movl (sp), r9
    tstl r2
    cmpl r1, r2
    blssu l1
    movl #1, @#0x7F000004
l1: cmpw r1, r2
    blequ l2
    movl #2, @#0x7F000004
l2: cmpb r2, r1
    bgtru l3
    movl #3, @#0x7F000004
l3: cmpl r2, r1
    bgequ l4
    movl #4, @#0x7F000004
l4: bleq l5
    movl #5, @#0x7F000004
l5: bgtr l6
    movl #6, @#0x7F000004
l6: bgeq l7
    movl #7, @#0x7F000004
l7: blss l8
    movl #8, @#0x7F000004
l8: tstl r2
    beql l9
    bneq l9
    brb l9
l9: brw l10
l10:
    movl #9, r3
    subl3 r3, r3, r4
    blssu l11
    movl #11, @#0x7F000004
l11:
    movl #-1, r3
    addl3 #1, r3, r4
    bgequ l12
    movl #12, @#0x7F000004
l12:
    addl3 #0, r3, r4
    blssu l14
    movl #14, @#0x7F000004
l14:
    subl3 #1, #0, r4
    bgequ l13
    movl #13, @#0x7F000004
l13:
    movl r3, @#0x7F000004
    movb #65, @#0x7F000000
    movl r5, @#0x7F000004
    movl r11, @#0x7F000004
    movl 8(r12), @#0x7F000004
    movl 12(r12), @#0x7F000004
    movl r10, r0
    halt
"""

#: autoincrement/autodecrement specifiers run through ``step()``, in a
#: loop, around translated instructions that read the same registers
VAX_SIDE_EFFECT_PROGRAM = """
    moval @#buf, r1
    movl #5, r3
fill:
    movl r3, (r1)+
    addl3 r1, #0, r4
    decl r3
    bneq fill
    moval @#buf, r1
    clrl r5
sum:
    addl2 (r1)+, r5
    cmpl r1, r4
    blssu sum
    movl r5, -(sp)
    addl3 (sp)+, (sp), r0
    movl r5, @#0x7F000004
    halt
"""

#: calls with saved registers, arguments and a nested call
VAX_CALL_PROGRAM = """
    movl #7, r6
    pushl #3
    pushl #4
    calls #2, f
    movl r0, @#0x7F000004
    movl r6, r0
    halt
f:  .entry 0x00C0
    movl 4(ap), r6
    addl3 8(ap), r6, r7
    pushl r7
    calls #1, g
    addl3 r0, r7, r0
    ret
g:  .entry 0x0000
    mull3 4(ap), #2, r0
    ret
"""

VAX_TRAP_PROGRAMS = {
    "divide_by_zero": "    clrl r1\n    divl3 r1, #5, r2\n    halt",
    "write_to_immediate": "    movl #5, r1\n    movl r1, #3\n    halt",
    "address_of_register": "    moval r1, r2\n    halt",
    "jump_to_register": "    jmp r1",
    "bus_error_read": "    movl @#0x200000, r1\n    halt",
    "bus_error_write": "    movl #1, r2\n    movl r2, @#0xFFFFF\n    halt",
    "unknown_mmio": "    movl #1, @#0x7F000008\n    halt",
    "illegal_opcode": "    jmp @#bad",
    "illegal_specifier": "    jmp @#badspec",
    "calls_pushes_past_zero": "    movl #12, sp\n    calls #0, f\n    halt\nf:  .entry 0\n    ret",
    "ret_frame_past_memory": "    movl #0xFFFF8, fp\n    movl #0, @#0xFFFF8\n    ret",
    "calls_bad_target": "    calls #0, @#0xFFFFF\n    halt",
    "runs_off_into_data": "    brw bad",
}


class TestVaxInstructionParity:
    """Hand-written programs covering what compiled code never does:
    every operand family and width, fallback specifiers, traps at every
    point the reference can raise, and frames that take the reference
    CALLS/RET path."""

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "body", [VAX_ALU_PROGRAM, VAX_SIDE_EFFECT_PROGRAM, VAX_CALL_PROGRAM],
        ids=["alu", "side_effects", "calls"],
    )
    def test_program(self, body, traced):
        reference = assert_vax_identical(_vax_program(body), traced=traced)
        assert reference["outcome"][0] == "halt", reference["outcome"]
        assert reference["console"]

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("name", sorted(VAX_TRAP_PROGRAMS))
    def test_trap(self, name, traced):
        reference = assert_vax_identical(
            _vax_program(VAX_TRAP_PROGRAMS[name]), traced=traced
        )
        assert reference["outcome"][0] == "trap", reference["outcome"]

    def test_calls_over_the_program_span(self):
        """A stack inside the data segment: pushes over predecoded memory
        take the reference path, with the watch invalidating as needed."""
        reference = assert_vax_identical(
            _vax_program("    moval @#buf+60, sp\n" + VAX_CALL_PROGRAM)
        )
        assert reference["outcome"][0] == "halt"

    def test_pipeline_over_fallback_steps(self):
        from repro.uarch import PipelineModel, UarchConfig, run_with_pipeline

        program = _vax_program(VAX_SIDE_EFFECT_PROGRAM)
        runs = {}
        for engine in ("reference", "fast"):
            cpu = VaxCPU()
            cpu.load(program)
            _, stats = run_with_pipeline(
                cpu, [UarchConfig(), UarchConfig(forwarding="none")], engine=engine
            )
            runs[engine] = [s.to_dict() for s in stats]
        assert runs["fast"] == runs["reference"]


class TestPswParity:
    def test_getpsw_putpsw_round_trip(self):
        reference = assert_risc_identical(
            assemble(
                """
                main:
                    add! r2, r0, #0
                    getpsw r3
                    putpsw r3
                    getpsw r4
                    halt r4
                """
            )
        )
        assert reference["outcome"][0] == "halt"


class TestStepLimitParity:
    def test_partial_stats_attached_and_identical(self):
        program = workload_program("towers", "risc1")
        reference = run_risc(program, "reference", max_steps=1_000)
        fast = run_risc(program, "fast", max_steps=1_000)
        assert fast == reference
        kind, limit, pc, stats = reference["outcome"]
        assert kind == "limit"
        assert limit == 1_000
        assert stats["instructions"] == 1_000

    def test_vax_partial_stats(self):
        program = workload_program("towers", "cisc")
        reference = run_vax(program, "reference", max_steps=500)
        fast = run_vax(program, "fast", max_steps=500)
        assert fast == reference
        assert reference["outcome"][0] == "limit"
        assert reference["outcome"][3]["instructions"] == 500


class TestChunkedRuns:
    """Step budgets ending mid-program: partial stats identical, and the
    machine resumable chunk by chunk, as the recorder's ``advance`` runs it."""

    BUDGETS = [1, 2, 7, 100, 1_234, 5_000]

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_vax_partial_stats_at_budget(self, budget):
        program = workload_program("qsort", "cisc")
        reference = run_vax(program, "reference", max_steps=budget)
        fast = run_vax(program, "fast", max_steps=budget)
        assert fast == reference
        assert reference["outcome"][0] == "limit"
        assert reference["stats"]["instructions"] == budget

    @pytest.mark.parametrize("chunk", [1, 97, 1_000])
    @pytest.mark.parametrize("name", ["qsort", "towers"])
    def test_vax_chunked_fast_run_matches_one_reference_run(self, name, chunk):
        from repro.obs.record import advance

        program = workload_program(name, "cisc")
        reference = run_vax(program, "reference")
        cpu = VaxCPU()
        cpu.load(program)
        steps = 0
        while not cpu.halted and steps < 50_000:
            steps += chunk
            advance(cpu, steps, engine="fast")
        assert cpu.halted
        expected = dict(reference)
        del expected["outcome"]
        got = vax_state(cpu)
        del got["outcome"]
        assert got == expected

    def test_vax_chunked_self_modifying_run(self):
        from repro.baselines.vax.assembler import assemble_vax
        from repro.obs.record import advance

        program = assemble_vax(VAX_PATCH_OPCODE)
        reference = run_vax(program, "reference")
        cpu = VaxCPU()
        cpu.load(program)
        for steps in range(1, 200):
            advance(cpu, steps, engine="fast")
        assert cpu.halted
        assert cpu.exit_code == 20
        assert vax_state(cpu)["stats"] == reference["stats"]


class TestVaxRestoreMidRun:
    @pytest.mark.parametrize("name", ["qsort", "linked_list_h"])
    def test_restore_then_fast_run(self, name):
        """Snapshot mid-run, run on, restore the same machine, then finish
        with a fast run: identical to an uninterrupted reference run."""
        program = workload_program(name, "cisc")
        reference = run_vax(program, "reference")
        cpu = VaxCPU()
        cpu.load(program)
        _partial_run(cpu, "fast", 1_500)
        snap = cpu.snapshot()
        _partial_run(cpu, "fast", 2_500)
        cpu.restore(snap)
        assert run_vax(program, "fast", cpu=cpu) == reference

    def test_restore_over_patched_code(self):
        """Restoring memory from before a self-modifying store must drop
        the translations made of the patched bytes."""
        from repro.baselines.vax.assembler import assemble_vax

        program = assemble_vax(VAX_PATCH_OPCODE)
        reference = run_vax(program, "reference")
        cpu = VaxCPU()
        cpu.load(program)
        _partial_run(cpu, "fast", 4)
        snap = cpu.snapshot()
        _partial_run(cpu, "fast", 40)  # past the opcode patch
        cpu.restore(snap)
        assert run_vax(program, "fast", cpu=cpu) == reference


class TestVaxWatchChaining:
    """A fast run with the pipeline adapter installed and a debugger-style
    watch already on ``write_watch``: the watch sees every store, the
    pipeline stats match, and the watch is reinstalled afterwards."""

    @staticmethod
    def _watched_run(program, engine):
        from repro.uarch import PipelineModel, UarchConfig, attach_pipeline, detach_pipeline

        cpu = VaxCPU()
        cpu.load(program)
        hits = []

        def watch(address, width=4):
            hits.append((address, width, cpu.stats.data_writes))

        cpu.memory.write_watch = watch
        adapter = attach_pipeline(cpu, PipelineModel(UarchConfig(), machine=cpu.name))
        try:
            outcome = _outcome(lambda: cpu.run(max_steps=5_000_000, engine=engine))
        finally:
            detach_pipeline(cpu, adapter)
        assert cpu.memory.write_watch is watch
        return outcome, hits, adapter.finalize()[0].to_dict(), vax_state(cpu)

    @pytest.mark.parametrize("name", ["qsort", "towers"])
    def test_workload(self, name):
        program = workload_program(name, "cisc")
        reference = self._watched_run(program, "reference")
        fast = self._watched_run(program, "fast")
        assert fast == reference
        assert reference[1]  # the watch fired

    def test_self_modifying(self):
        from repro.baselines.vax.assembler import assemble_vax

        program = assemble_vax(VAX_PATCH_OPCODE)
        reference = self._watched_run(program, "reference")
        fast = self._watched_run(program, "fast")
        assert fast == reference
        patch = program.symbol("patch")
        assert (patch, 1) in [(address, width) for address, width, _ in fast[1]]

    def test_hook_sees_the_same_stream(self):
        program = workload_program("towers", "cisc")
        streams = {}
        for engine in ("reference", "fast"):
            cpu = VaxCPU()
            cpu.load(program)
            seen = []
            cpu.on_execute = lambda pc, inst: seen.append((pc, inst, cpu.pc))
            cpu.run(max_steps=5_000_000, engine=engine)
            streams[engine] = seen
        assert streams["fast"] == streams["reference"]


class TestPipelineParity:
    """The uarch timing model rides the retired-instruction hook, so its
    accounting must be bit-identical across engines for both machines —
    the fast paths fall back to their exact loops when a hook is live."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_risc_pipeline_stats(self, name):
        program = workload_program(name, "risc1")
        runs = {}
        for engine in ("reference", "fast"):
            cpu = CPU()
            cpu.load(program)
            result = cpu.run(max_steps=5_000_000, engine=engine, uarch=True)
            runs[engine] = result.pipeline.to_dict()
        assert runs["fast"] == runs["reference"]
        assert runs["fast"]["instructions"] > 0
        assert runs["fast"]["cycles"] >= runs["fast"]["instructions"]

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_vax_pipeline_stats(self, name):
        program = workload_program(name, "cisc")
        runs = {}
        for engine in ("reference", "fast"):
            cpu = VaxCPU()
            cpu.load(program)
            result = cpu.run(max_steps=5_000_000, engine=engine, uarch=True)
            runs[engine] = result.pipeline.to_dict()
        assert runs["fast"] == runs["reference"]
        assert runs["fast"]["instructions"] > 0

    def test_risc_pipeline_under_window_pressure(self):
        """Window spill/fill drain cycles must agree across engines too."""
        program = workload_program("towers", "risc1")
        runs = {}
        for engine in ("reference", "fast"):
            cpu = CPU(num_windows=2)
            cpu.load(program)
            result = cpu.run(max_steps=5_000_000, engine=engine, uarch=True)
            runs[engine] = result.pipeline.to_dict()
        assert runs["fast"] == runs["reference"]
        assert runs["fast"]["window_stalls"] > 0


# -- fuzz corpus ---------------------------------------------------------------
#
# Every file in tests/fuzz_corpus/ is a minimized repro of a divergence the
# differential fuzzer once found (and this repo then fixed).  Cross-checking
# each one across all five oracles keeps every fixed bug fixed: a regression
# turns the file's report divergent again and names the disagreeing oracles.

from pathlib import Path

FUZZ_CORPUS = sorted((Path(__file__).parent / "fuzz_corpus").glob("*.c"))


@pytest.mark.parametrize("path", FUZZ_CORPUS, ids=lambda p: p.stem)
def test_fuzz_corpus_stays_clean(path):
    from repro.fuzz.crosscheck import crosscheck_source

    report = crosscheck_source(path.read_text(encoding="utf-8"), max_steps=2_000_000)
    assert report.status == "ok", report.render()


# -- snapshot / restore --------------------------------------------------------
#
# The Machine.snapshot()/restore() contract is bit-exact resumability: a
# restored machine is indistinguishable from the original — same future
# execution, stats, traffic counters and output — whichever engine runs it.
# That contract is what makes checkpointed time travel (repro.dbg) sound.

import json as _json


def _partial_run(cpu, engine, budget):
    try:
        cpu.run(max_steps=budget, engine=engine)
    except StepLimitExceeded:
        pass


class TestSnapshotRestore:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_risc_roundtrip(self, name, engine):
        program = workload_program(name, "risc1")
        cpu = CPU()
        cpu.load(program)
        _partial_run(cpu, engine, 2000)
        snap = _json.loads(_json.dumps(cpu.snapshot()))  # prove JSON-safety
        other = CPU()
        other.load(program)
        other.restore(snap)
        assert other.snapshot() == snap
        # identical futures under the same engine, bounded budget
        a = _outcome(lambda: cpu.run(max_steps=3000, engine=engine))
        b = _outcome(lambda: other.run(max_steps=3000, engine=engine))
        assert a == b
        assert other.snapshot() == cpu.snapshot()

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_vax_roundtrip(self, name, engine):
        program = workload_program(name, "cisc")
        cpu = VaxCPU()
        cpu.load(program)
        _partial_run(cpu, engine, 2000)
        snap = _json.loads(_json.dumps(cpu.snapshot()))
        other = VaxCPU()
        other.load(program)
        other.restore(snap)
        assert other.snapshot() == snap
        a = _outcome(lambda: cpu.run(max_steps=3000, engine=engine))
        b = _outcome(lambda: other.run(max_steps=3000, engine=engine))
        assert a == b
        assert other.snapshot() == cpu.snapshot()

    @pytest.mark.parametrize("name", TRACED_WORKLOADS)
    def test_cross_engine_resume(self, name):
        """A fast-engine snapshot resumed on the reference engine (and the
        reverse) must still converge to the identical final state."""
        for target, make in (("risc1", CPU), ("cisc", VaxCPU)):
            program = workload_program(name, target)
            cpu = make()
            cpu.load(program)
            _partial_run(cpu, "fast", 1500)
            snap = cpu.snapshot()
            finals = {}
            for engine in ("fast", "reference"):
                other = make()
                other.load(program)
                other.restore(snap)
                _outcome(lambda: other.run(max_steps=3000, engine=engine))
                finals[engine] = other.snapshot()
            assert finals["fast"] == finals["reference"]

    def test_restore_rejects_mismatched_shape(self):
        program = workload_program("towers", "risc1")
        cpu = CPU(num_windows=8)
        cpu.load(program)
        snap = cpu.snapshot()
        with pytest.raises(ValueError):
            CPU(num_windows=4).restore(snap)
        with pytest.raises(ValueError):
            CPU(memory_size=1 << 16).restore(snap)
        with pytest.raises(ValueError):
            VaxCPU().restore(snap)

    def test_restore_rejects_unknown_schema(self):
        cpu = CPU()
        cpu.load(workload_program("towers", "risc1"))
        snap = cpu.snapshot()
        snap["schema"] = 999
        with pytest.raises(ValueError):
            cpu.restore(snap)

    def test_risc_restore_under_window_pressure(self):
        """Snapshots taken mid-spill-pressure (2 windows) restore exactly."""
        program = workload_program("towers", "risc1")
        cpu = CPU(num_windows=2)
        cpu.load(program)
        _partial_run(cpu, "fast", 5000)
        assert cpu.stats.to_dict()["window_overflows"] > 0
        snap = cpu.snapshot()
        other = CPU(num_windows=2)
        other.load(program)
        other.restore(snap)
        a = _outcome(lambda: cpu.run(max_steps=5_000_000))
        b = _outcome(lambda: other.run(max_steps=5_000_000))
        assert a == b
