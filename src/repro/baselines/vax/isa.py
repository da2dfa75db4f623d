"""Instruction set of the VAX-like baseline.

Opcodes follow the real VAX numbering where one exists (MOVL = 0xD0,
ADDL3 = 0xC1, CALLS = 0xFB, ...); the handful of convenience instructions
that real VAX spells differently (ANDL2/3 instead of BICL2/3) take unused
opcodes and are documented as simplifications.

Each instruction lists its operands as ``(access, width)`` pairs:

* ``r`` — read value
* ``w`` — write value
* ``m`` — modify (read then write)
* ``a`` — address (effective address is the operand)
* ``b`` — branch displacement (16-bit, a documented simplification of
  VAX's 8-bit conditional branches)
"""

from __future__ import annotations

import dataclasses
import enum
import typing


class Mode(enum.IntEnum):
    """Operand-specifier addressing modes (high nibble of the spec byte)."""

    LITERAL = 0x0  # modes 0..3: 6-bit short literal
    REGISTER = 0x5
    DEFERRED = 0x6  # (Rn)
    AUTODEC = 0x7  # -(Rn)
    AUTOINC = 0x8  # (Rn)+ ; reg 15 -> immediate
    ABSOLUTE = 0x9  # with reg 15: @#address
    DISP8 = 0xA
    DISP16 = 0xC
    DISP32 = 0xE


#: Register aliases.
AP, FP, SP, PC = 12, 13, 14, 15
REGISTER_NAMES = {**{f"r{i}": i for i in range(16)}, "ap": AP, "fp": FP, "sp": SP, "pc": PC}


@dataclasses.dataclass(frozen=True)
class OperandSpec:
    access: str  # r, w, m, a, b
    width: int  # 1, 2, 4


def _ops(*pairs: str) -> tuple[OperandSpec, ...]:
    return tuple(OperandSpec(p[0], int(p[1])) for p in pairs)


@dataclasses.dataclass(frozen=True)
class VaxOpcodeInfo:
    opcode: int
    mnemonic: str
    operands: tuple[OperandSpec, ...]
    kind: str  # classification for the timing model


#: mnemonic -> definition.
INSTRUCTIONS: dict[str, VaxOpcodeInfo] = {
    info.mnemonic: info
    for info in (
        VaxOpcodeInfo(0x00, "halt", _ops(), "control"),
        VaxOpcodeInfo(0x04, "ret", _ops(), "ret"),
        VaxOpcodeInfo(0x11, "brb", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x31, "brw", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x12, "bneq", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x13, "beql", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x14, "bgtr", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x15, "bleq", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x18, "bgeq", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x19, "blss", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1A, "bgtru", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1B, "blequ", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1E, "bgequ", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1F, "blssu", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x17, "jmp", _ops("a4"), "branch"),
        VaxOpcodeInfo(0xFB, "calls", _ops("r4", "a4"), "calls"),
        VaxOpcodeInfo(0x90, "movb", _ops("r1", "w1"), "move"),
        VaxOpcodeInfo(0xB0, "movw", _ops("r2", "w2"), "move"),
        VaxOpcodeInfo(0xD0, "movl", _ops("r4", "w4"), "move"),
        VaxOpcodeInfo(0x9A, "movzbl", _ops("r1", "w4"), "move"),
        VaxOpcodeInfo(0x98, "cvtbl", _ops("r1", "w4"), "move"),
        VaxOpcodeInfo(0x3C, "movzwl", _ops("r2", "w4"), "move"),
        VaxOpcodeInfo(0x32, "cvtwl", _ops("r2", "w4"), "move"),
        VaxOpcodeInfo(0xDE, "moval", _ops("a4", "w4"), "move"),
        VaxOpcodeInfo(0xDD, "pushl", _ops("r4"), "push"),
        VaxOpcodeInfo(0xD4, "clrl", _ops("w4"), "move"),
        VaxOpcodeInfo(0xD5, "tstl", _ops("r4"), "alu"),
        VaxOpcodeInfo(0xD6, "incl", _ops("m4"), "alu"),
        VaxOpcodeInfo(0xD7, "decl", _ops("m4"), "alu"),
        VaxOpcodeInfo(0xCE, "mnegl", _ops("r4", "w4"), "alu"),
        VaxOpcodeInfo(0xD2, "mcoml", _ops("r4", "w4"), "alu"),
        VaxOpcodeInfo(0xC0, "addl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xC1, "addl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xC2, "subl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xC3, "subl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xC4, "mull2", _ops("r4", "m4"), "mul"),
        VaxOpcodeInfo(0xC5, "mull3", _ops("r4", "r4", "w4"), "mul"),
        VaxOpcodeInfo(0xC6, "divl2", _ops("r4", "m4"), "div"),
        VaxOpcodeInfo(0xC7, "divl3", _ops("r4", "r4", "w4"), "div"),
        VaxOpcodeInfo(0xC8, "bisl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xC9, "bisl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xCC, "xorl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xCD, "xorl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xE0, "andl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xE1, "andl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0x78, "ashl", _ops("r1", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xD1, "cmpl", _ops("r4", "r4"), "alu"),
        VaxOpcodeInfo(0x91, "cmpb", _ops("r1", "r1"), "alu"),
        VaxOpcodeInfo(0xB1, "cmpw", _ops("r2", "r2"), "alu"),
    )
}

BY_OPCODE: dict[int, VaxOpcodeInfo] = {info.opcode: info for info in INSTRUCTIONS.values()}

#: Conditional-branch condition evaluators on (n, z, v, c).
BRANCH_CONDITIONS = {
    "brb": lambda n, z, v, c: True,
    "brw": lambda n, z, v, c: True,
    "beql": lambda n, z, v, c: z,
    "bneq": lambda n, z, v, c: not z,
    "blss": lambda n, z, v, c: n,
    "bleq": lambda n, z, v, c: n or z,
    "bgtr": lambda n, z, v, c: not (n or z),
    "bgeq": lambda n, z, v, c: not n,
    "blssu": lambda n, z, v, c: c,
    "blequ": lambda n, z, v, c: c or z,
    "bgtru": lambda n, z, v, c: not (c or z),
    "bgequ": lambda n, z, v, c: not c,
}


class VaxInstruction(typing.NamedTuple):
    """One statically decoded instruction: what ``on_execute`` observers
    see, and what the predecoded engine specializes.

    ``operands`` holds one ``(mode family, register, value)`` triple per
    non-branch operand: the family names the addressing mode as the
    timing model prices it (``literal``, ``immediate``, ``register``,
    ``deferred``, ``autoinc``, ``autodec``, ``disp``, ``absolute``);
    ``register`` is the specifier's register (``None`` for literals,
    immediates and absolute addresses); ``value`` is the literal or
    immediate value, the absolute address or the displacement.
    """

    info: VaxOpcodeInfo
    length: int
    operands: tuple
    branch_disp: int | None


#: bytes of the longest encodable instruction: opcode plus three operand
#: specifiers with 32-bit displacements
MAX_LENGTH = 1 + 3 * 5

_DISP_SIZES = {Mode.DISP8: 1, Mode.DISP16: 2, Mode.DISP32: 4}


def _signed_bytes(raw: bytes) -> int:
    return int.from_bytes(raw, "big", signed=True)


def decode(code, pc: int) -> VaxInstruction | None:
    """Parse the instruction starting at ``pc`` in ``code`` (a memory
    image) without executing it; ``None`` if no valid instruction starts
    there (unknown opcode, unknown specifier, or bytes past the image)."""
    size = len(code)
    if not 0 <= pc < size:
        return None
    info = BY_OPCODE.get(code[pc])
    if info is None:
        return None
    cursor = pc + 1
    operands = []
    branch_disp = None
    for spec in info.operands:
        if spec.access == "b":
            if cursor + 2 > size:
                return None
            branch_disp = _signed_bytes(code[cursor : cursor + 2])
            cursor += 2
            continue
        if cursor >= size:
            return None
        byte = code[cursor]
        cursor += 1
        if byte < 0x40:
            operands.append(("literal", None, byte))
            continue
        mode = byte >> 4
        reg = byte & 0xF
        if mode == Mode.REGISTER:
            operands.append(("register", reg, None))
        elif mode == Mode.DEFERRED:
            operands.append(("deferred", reg, None))
        elif mode == Mode.AUTODEC:
            operands.append(("autodec", reg, None))
        elif mode == Mode.AUTOINC and reg == PC:
            if cursor + spec.width > size:
                return None
            operands.append(
                ("immediate", None, int.from_bytes(code[cursor : cursor + spec.width], "big"))
            )
            cursor += spec.width
        elif mode == Mode.AUTOINC:
            operands.append(("autoinc", reg, None))
        elif mode == Mode.ABSOLUTE and reg == PC:
            if cursor + 4 > size:
                return None
            operands.append(("absolute", None, int.from_bytes(code[cursor : cursor + 4], "big")))
            cursor += 4
        elif mode in _DISP_SIZES:
            width = _DISP_SIZES[Mode(mode)]
            if cursor + width > size:
                return None
            operands.append(("disp", reg, _signed_bytes(code[cursor : cursor + width])))
            cursor += width
        else:
            return None
    return VaxInstruction(info, cursor - pc, tuple(operands), branch_disp)
