"""Basic-block compiler for the interpreter's fast path.

A program's code is cut once into non-overlapping straight-line blocks.
Each block starts at a *leader* — the pc the program was first run from,
every static ``jmp``/``jal``/branch target, and the pc after every
control-flow, system or ``halt`` instruction — and holds ALU,
ALU-immediate, memory, FP, vector and ``nop`` instructions.  It ends after
one control-flow instruction, before an instruction that stops the
interpreter (:data:`~repro.isa.instructions.STOPPING_OPCODES`), before the
next leader, or at :data:`MAX_BLOCK` instructions (the pc after a cut block
becomes a leader).  Because blocks never overlap, compiled code is bounded
by program size.

The first time a block runs it is compiled: its Python source is generated
with register indices and immediates as constants, the ``jal`` link value
and the fall-through pc baked in, and every two's-complement wrap kept
wherever the single-step loop applies it.  A process-wide memo from source
to function compiles identical blocks (the same program loaded twice, say)
only once.

A compiled block is called as ``fn(regs, fregs, vregs, ld, st, lb, sb, rd,
wr)`` — the register files, then the address space's bound ``load_word``,
``store_word``, ``load_byte``, ``store_byte``, ``read_bytes`` and
``write_bytes`` — and returns the next pc.  Instruction ``k`` of the block
sits on line ``k + _FIRST_LINE`` of its source, so when a memory access, a
frame-pool allocation or a division by zero raises inside the block,
:meth:`Block.fault_index` reads ``k`` off the traceback: the instructions
before ``k`` have retired, ``k`` itself has not — exactly where the
single-step loop would have stopped.
"""

from __future__ import annotations

import math
import struct
import types
from typing import Dict, List, Optional

from repro.isa import instructions as I
from repro.isa.instructions import Instr

#: Longest block, in instructions.
MAX_BLOCK = 64

_TWO63 = 1 << 63
_TWO64 = 1 << 64

#: Little-endian double access for ``fld``/``fst``, shared with the
#: single-step loop.
unpack_double = struct.Struct("<d").unpack
pack_double = struct.Struct("<d").pack


def fcvtzs(value: float) -> int:
    """``icvt``: float to signed 64-bit integer, truncating.

    Follows AArch64 FCVTZS for the values Python's ``int`` rejects: NaN
    converts to 0 and ±inf to the extreme representable integer.  Finite
    values truncate and wrap to 64 bits.
    """
    if value != value:
        return 0
    if value == math.inf:
        return _TWO63 - 1
    if value == -math.inf:
        return -_TWO63
    return ((int(value) + _TWO63) % _TWO64) - _TWO63


# Names the generated source may use besides its arguments and builtins.
_NAMESPACE = {"unpack_double": unpack_double, "pack_double": pack_double,
              "fcvtzs": fcvtzs}

_PARAMS = "regs, fregs, vregs, ld, st, lb, sb, rd, wr"

# Source line of a block's first instruction (line 1 is the ``def``).
_FIRST_LINE = 2

#: Process-wide memo: generated source -> compiled function.
_MEMO: Dict[str, types.FunctionType] = {}


def compiled_count() -> int:
    """Distinct block sources compiled by this process so far."""
    return len(_MEMO)


def _wrap(expr: str) -> str:
    return f"((({expr}) + {_TWO63}) % {_TWO64}) - {_TWO63}"


class _Emitter:
    """Generates one block's source lines, one per instruction."""

    def __init__(self):
        #: Immediates with no exact literal (non-finite floats), passed to
        #: the function as defaults ``k0``, ``k1``, ...
        self.consts: List[object] = []

    def const(self, value) -> str:
        if type(value) is int or (type(value) is float
                                  and math.isfinite(value)):
            return repr(value)
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def address(self, instr: Instr) -> str:
        if type(instr.imm) is int and instr.imm == 0:
            return f"regs[{instr.b}]"
        return f"regs[{instr.b}] + {self.const(instr.imm)}"

    def line(self, instr: Instr, pc: int) -> str:
        op, a, b, c = instr.op, instr.a, instr.b, instr.c
        rb, rc = f"regs[{b}]", f"regs[{c}]"
        if op == I.NOP:
            return "pass"
        if I.ADD <= op <= I.SNE:
            if op == I.DIV or op == I.MOD:
                # abs(y) == 0 raises ZeroDivisionError before any write.
                quotient = (f"x = {rb}; y = {rc}; q = abs(x) // abs(y); "
                            f"q = -q if (x < 0) != (y < 0) else q; ")
                if op == I.DIV:
                    return quotient + f"regs[{a}] = {_wrap('q')}"
                return quotient + f"regs[{a}] = {_wrap('x - q * y')}"
            if op >= I.SLT:
                cmp = {I.SLT: "<", I.SLE: "<=", I.SEQ: "==", I.SNE: "!="}[op]
                return f"regs[{a}] = 1 if {rb} {cmp} {rc} else 0"
            value = {
                I.ADD: f"{rb} + {rc}", I.SUB: f"{rb} - {rc}",
                I.MUL: f"{rb} * {rc}", I.AND: f"{rb} & {rc}",
                I.OR: f"{rb} | {rc}", I.XOR: f"{rb} ^ {rc}",
                I.SLL: f"{rb} << ({rc} & 63)",
                I.SRL: f"({rb} & {_TWO64 - 1}) >> ({rc} & 63)",
                I.SRA: f"{rb} >> ({rc} & 63)",
            }[op]
            return f"regs[{a}] = {_wrap(value)}"
        if op == I.LI:
            return f"regs[{a}] = {_wrap(self.const(instr.imm))}"
        if op == I.MOV:
            return f"regs[{a}] = {rb}"
        if I.ADDI <= op <= I.MULI:
            imm = self.const(instr.imm)
            value = {
                I.ADDI: f"{rb} + {imm}", I.ANDI: f"{rb} & {imm}",
                I.ORI: f"{rb} | {imm}", I.XORI: f"{rb} ^ {imm}",
                I.SLLI: f"{rb} << ({imm} & 63)",
                I.SRLI: f"({rb} & {_TWO64 - 1}) >> ({imm} & 63)",
                I.MULI: f"{rb} * {imm}",
            }[op]
            return f"regs[{a}] = {_wrap(value)}"
        if op == I.LD:
            return f"regs[{a}] = ld({self.address(instr)})"
        if op == I.ST:
            return f"st({self.address(instr)}, regs[{a}])"
        if op == I.LDB:
            return f"regs[{a}] = lb({self.address(instr)})"
        if op == I.STB:
            return f"sb({self.address(instr)}, regs[{a}])"
        if op == I.JMP:
            return f"return {self.const(instr.imm)}"
        if op == I.JAL:
            return f"regs[14] = {pc + 4}; return {self.const(instr.imm)}"
        if op == I.JR:
            return f"return {rb}"
        if op in I.CONDITIONAL_BRANCHES:
            cmp = {I.BEQ: "==", I.BNE: "!=", I.BLT: "<", I.BGE: ">=",
                   I.BLE: "<=", I.BGT: ">"}[op]
            return (f"return {self.const(instr.imm)} if {rb} {cmp} {rc} "
                    f"else {pc + 4}")
        fb, fc = f"fregs[{b}]", f"fregs[{c}]"
        if op in (I.FADD, I.FSUB, I.FMUL, I.FDIV):
            # A zero divisor raises ZeroDivisionError before the write.
            sym = {I.FADD: "+", I.FSUB: "-", I.FMUL: "*", I.FDIV: "/"}[op]
            return f"fregs[{a}] = {fb} {sym} {fc}"
        if op == I.FLD:
            return f"fregs[{a}] = unpack_double(rd({self.address(instr)}, 8))[0]"
        if op == I.FST:
            return f"wr({self.address(instr)}, pack_double(fregs[{a}]))"
        if op == I.FLI:
            if type(instr.imm) is float:  # float() of a float is itself
                return f"fregs[{a}] = {self.const(instr.imm)}"
            return f"fregs[{a}] = float({self.const(instr.imm)})"
        if op == I.FMOV:
            return f"fregs[{a}] = {fb}"
        if op == I.FCVT:
            return f"fregs[{a}] = float({rb})"
        if op == I.ICVT:
            return f"regs[{a}] = fcvtzs({fb})"
        if op in (I.FLT, I.FLE, I.FEQ):
            cmp = {I.FLT: "<", I.FLE: "<=", I.FEQ: "=="}[op]
            return f"regs[{a}] = 1 if {fb} {cmp} {fc} else 0"
        if op in (I.VADD, I.VMUL, I.VXOR):
            if op == I.VXOR:
                lanes = [f"x[{i}] ^ y[{i}]" for i in range(4)]
            else:
                sym = "+" if op == I.VADD else "*"
                lanes = [_wrap(f"x[{i}] {sym} y[{i}]") for i in range(4)]
            return f"x = vregs[{b}]; y = vregs[{c}]; vregs[{a}] = [{', '.join(lanes)}]"
        if op == I.VLD:
            lanes = ", ".join(f"ld(x + {8 * i})" for i in range(4))
            return f"x = {self.address(instr)}; vregs[{a}] = [{lanes}]"
        if op == I.VST:
            lanes = "; ".join(f"st(x + {8 * i}, y[{i}])" for i in range(4))
            return f"x = {self.address(instr)}; y = vregs[{a}]; {lanes}"
        if op == I.VBCAST:
            return f"vregs[{a}] = [{rb}] * 4"
        if op == I.VRED:
            return f"regs[{a}] = {_wrap(f'sum(vregs[{b}])')}"
        raise ValueError(f"opcode {op} cannot sit in a block")


class Block:
    """One straight-line block: ``n`` instructions from code index
    ``start``, compiled on first use."""

    __slots__ = ("start", "n", "mem_ops", "branch", "fn")

    def __init__(self, start: int, code: List[Instr]):
        ops = [instr.op for instr in code]
        self.start = start
        self.n = len(ops)
        self.mem_ops = sum(op in I.MEMORY_OPCODES for op in ops)
        self.branch = ops[-1] in I.BRANCH_OPCODES
        self.fn: Optional[types.FunctionType] = None

    def compile(self, code: List[Instr], code_base: int) -> types.FunctionType:
        emitter = _Emitter()
        pc = code_base + 4 * self.start
        lines = [emitter.line(instr, pc + 4 * i) for i, instr
                 in enumerate(code[self.start:self.start + self.n])]
        if not self.branch:
            lines.append(f"return {pc + 4 * self.n}")
        params = "".join(f", k{i}=None" for i in range(len(emitter.consts)))
        source = f"def block({_PARAMS}{params}):\n" + "".join(
            f"    {line}\n" for line in lines)
        fn = _MEMO.get(source)
        if fn is None:
            namespace = dict(_NAMESPACE)
            exec(compile(source, "<block>", "exec"), namespace)
            fn = _MEMO[source] = namespace["block"]
        if emitter.consts:
            fn = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                    tuple(emitter.consts))
        self.fn = fn
        return fn

    def fault_index(self, exc: BaseException) -> int:
        """Index in this block of the instruction that raised ``exc``."""
        tb = exc.__traceback__
        while tb.tb_frame.f_code is not self.fn.__code__:
            tb = tb.tb_next
        return tb.tb_lineno - _FIRST_LINE


def partition(code: List[Instr], code_base: int,
              entry: int) -> Dict[int, Block]:
    """Cut ``code`` into blocks; returns leader pc -> block.

    Leaders whose instruction stops the interpreter get no block: the
    single-step loop runs them.
    """
    size = len(code)
    leaders = set()
    entry_index = (entry - code_base) >> 2
    if 0 <= entry_index < size:
        leaders.add(entry_index)
    for index, instr in enumerate(code):
        op = instr.op
        if op in I.BRANCH_OPCODES or op in I.STOPPING_OPCODES:
            leaders.add(index + 1)
        if op in I.BRANCH_OPCODES and op != I.JR \
                and type(instr.imm) is int and (instr.imm - code_base) % 4 == 0:
            target = (instr.imm - code_base) >> 2
            if 0 <= target < size:
                leaders.add(target)
    blocks: Dict[int, Block] = {}
    index = 0
    while index < size:
        if index not in leaders:
            index += 1
            continue
        start = index
        while index < size and index - start < MAX_BLOCK \
                and code[index].op not in I.STOPPING_OPCODES \
                and (index == start or index not in leaders):
            index += 1
            if code[index - 1].op in I.BRANCH_OPCODES:
                break
        if index == start:
            index += 1
            continue
        if index - start == MAX_BLOCK:
            leaders.add(index)
        blocks[code_base + 4 * start] = Block(start, code[start:index])
    return blocks
