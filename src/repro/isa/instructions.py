"""Instruction set definition.

Instructions are pre-decoded objects (class :class:`Instr`) so the
interpreter's hot loop does no bit-level decoding.  A separate byte encoding
exists in :mod:`repro.isa.encoding` for the assembler/disassembler
round-trip.

Operand conventions (fields ``a``, ``b``, ``c`` are register indices, ``imm``
an integer or float immediate):

=============  =======================================================
Group          Semantics
=============  =======================================================
ALU            ``op rd, rs1, rs2`` → a=rd, b=rs1, c=rs2
ALU-immediate  ``op rd, rs1, imm`` → a=rd, b=rs1, imm
LI / FLI       ``li rd, imm`` → a=rd, imm
Memory         ``ld rd, rs1, imm`` (address = rs1+imm) / ``st rs2, rs1, imm``
Branches       ``beq rs1, rs2, target`` → b=rs1, c=rs2, imm=target pc
Jumps          ``jmp target`` (imm) / ``jal target`` (imm, lr←pc+4)
               / ``jr rs`` (b=rs)
FP             registers index the FP file; ``fcvt``/``icvt`` cross files
Vector         registers index the vector file
System         ``syscall`` (number in r0, args r1..r5, result r0),
               ``rdtsc rd``, ``mrs rd, imm`` (system-register read),
               ``cpuid rd``, ``brk``, ``nop``, ``halt``
=============  =======================================================

Control-flow instructions (conditional branches, ``jmp``, ``jal``, ``jr``)
retire as *branches* for the performance-counter model; ``syscall`` retires
as a *far branch* (paper §4.2.1 excludes far branches on Intel to remove
overcount nondeterminism).
"""

from __future__ import annotations

from typing import Optional, Union

# Opcode numbers. Stable: the encoding and disassembler rely on them.
NOP = 0
HALT = 1
# ALU register-register
ADD = 2
SUB = 3
MUL = 4
DIV = 5
MOD = 6
AND = 7
OR = 8
XOR = 9
SLL = 10
SRL = 11
SRA = 12
SLT = 13
SLE = 14
SEQ = 15
SNE = 16
# ALU immediate
ADDI = 17
ANDI = 18
ORI = 19
XORI = 20
SLLI = 21
SRLI = 22
MULI = 23
LI = 24
MOV = 25
# Memory
LD = 26
ST = 27
LDB = 28
STB = 29
# Control flow
JMP = 30
JAL = 31
JR = 32
BEQ = 33
BNE = 34
BLT = 35
BGE = 36
BLE = 37
BGT = 38
# Floating point
FADD = 39
FSUB = 40
FMUL = 41
FDIV = 42
FLD = 43
FST = 44
FLI = 45
FMOV = 46
FCVT = 47  # int gpr -> float fpr
ICVT = 48  # float fpr -> int gpr (truncating)
FLT = 49  # rd(gpr) = fs1 < fs2
FLE = 50
FEQ = 51
# Vector
VADD = 52
VMUL = 53
VXOR = 54
VLD = 55
VST = 56
VBCAST = 57
VRED = 58
# System / nondeterministic
SYSCALL = 59
RDTSC = 60
MRS = 61
CPUID = 62
BRK = 63

NUM_OPCODES = 64

MNEMONICS = {
    NOP: "nop", HALT: "halt",
    ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
    AND: "and", OR: "or", XOR: "xor", SLL: "sll", SRL: "srl", SRA: "sra",
    SLT: "slt", SLE: "sle", SEQ: "seq", SNE: "sne",
    ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
    SLLI: "slli", SRLI: "srli", MULI: "muli", LI: "li", MOV: "mov",
    LD: "ld", ST: "st", LDB: "ldb", STB: "stb",
    JMP: "jmp", JAL: "jal", JR: "jr",
    BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLE: "ble", BGT: "bgt",
    FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
    FLD: "fld", FST: "fst", FLI: "fli", FMOV: "fmov",
    FCVT: "fcvt", ICVT: "icvt", FLT: "flt", FLE: "fle", FEQ: "feq",
    VADD: "vadd", VMUL: "vmul", VXOR: "vxor",
    VLD: "vld", VST: "vst", VBCAST: "vbcast", VRED: "vred",
    SYSCALL: "syscall", RDTSC: "rdtsc", MRS: "mrs", CPUID: "cpuid",
    BRK: "brk",
}

OPCODES_BY_MNEMONIC = {name: op for op, name in MNEMONICS.items()}

#: Conditional branches (count as retired branches, may or may not be taken).
CONDITIONAL_BRANCHES = frozenset({BEQ, BNE, BLT, BGE, BLE, BGT})
#: All instructions retired as branches by the branch counter.
BRANCH_OPCODES = frozenset({JMP, JAL, JR} | CONDITIONAL_BRANCHES)
#: Far branches (privilege-level switches); excluded from the "near branch"
#: counter Parallaft uses on Intel (paper §4.2.1).
FAR_BRANCH_OPCODES = frozenset({SYSCALL})
#: Instructions whose result is nondeterministic across runs/cores.
NONDET_OPCODES = frozenset({RDTSC, MRS, CPUID})
#: Memory-touching instructions (used by the memory-intensity profiler).
MEMORY_OPCODES = frozenset({LD, ST, LDB, STB, FLD, FST, VLD, VST})
#: Instructions that may stop the interpreter without retiring (halt,
#: syscall, brk, trapped nondet reads); compiled blocks never contain one.
STOPPING_OPCODES = frozenset({HALT, SYSCALL, BRK}) | NONDET_OPCODES

_R3 = frozenset({
    ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SLL, SRL, SRA,
    SLT, SLE, SEQ, SNE, FADD, FSUB, FMUL, FDIV, FLT, FLE, FEQ,
    VADD, VMUL, VXOR,
})
_R2_IMM = frozenset({ADDI, ANDI, ORI, XORI, SLLI, SRLI, MULI, LD, ST, LDB, STB,
                     FLD, FST, VLD, VST})
_R1_IMM = frozenset({LI, FLI, MRS})
_R2 = frozenset({MOV, FMOV, FCVT, ICVT, VBCAST, VRED})
_BRANCH3 = CONDITIONAL_BRANCHES
_IMM_ONLY = frozenset({JMP, JAL})
_R1 = frozenset({JR, RDTSC, CPUID})
_NONE = frozenset({NOP, HALT, SYSCALL, BRK})


class Instr:
    """One pre-decoded instruction.

    ``a``/``b``/``c`` are small register indices whose meaning depends on the
    opcode (see module docstring); ``imm`` is an int immediate, a float (for
    ``fli``), or a code address (branch/jump targets).
    """

    __slots__ = ("op", "a", "b", "c", "imm")

    def __init__(self, op: int, a: int = 0, b: int = 0, c: int = 0,
                 imm: Union[int, float] = 0):
        self.op = op
        self.a = a
        self.b = b
        self.c = c
        self.imm = imm

    def __repr__(self) -> str:
        return (f"Instr({MNEMONICS.get(self.op, self.op)}, a={self.a}, "
                f"b={self.b}, c={self.c}, imm={self.imm})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instr):
            return NotImplemented
        return (self.op, self.a, self.b, self.c, self.imm) == (
            other.op, other.a, other.b, other.c, other.imm)

    def __hash__(self) -> int:
        return hash((self.op, self.a, self.b, self.c, self.imm))

    def copy(self) -> "Instr":
        return Instr(self.op, self.a, self.b, self.c, self.imm)


def operand_shape(op: int) -> str:
    """Return the operand shape class of an opcode.

    One of ``"r3"``, ``"r2imm"``, ``"r1imm"``, ``"r2"``, ``"branch"``,
    ``"imm"``, ``"r1"``, ``"none"``.  Used by the assembler, disassembler and
    encoding to agree on operand layout.
    """
    if op in _R3:
        return "r3"
    if op in _R2_IMM:
        return "r2imm"
    if op in _R1_IMM:
        return "r1imm"
    if op in _R2:
        return "r2"
    if op in _BRANCH3:
        return "branch"
    if op in _IMM_ONLY:
        return "imm"
    if op in _R1:
        return "r1"
    if op in _NONE:
        return "none"
    raise ValueError(f"unknown opcode {op}")


def is_branch(op: int) -> bool:
    return op in BRANCH_OPCODES


def is_far_branch(op: int) -> bool:
    return op in FAR_BRANCH_OPCODES


def make_nop() -> Instr:
    return Instr(NOP)


def make_brk() -> Instr:
    return Instr(BRK)
