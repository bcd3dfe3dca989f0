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
and the fall-through pc baked in, and ``li`` of an int folded.  A
process-wide memo from source to function compiles identical blocks (the
same program loaded twice, say) only once; every block shares one globals
dict.  The generated code

* keeps registers in Python locals: a prologue loads each GPR and FPR the
  block reads before writing it, instructions work on the locals, and the
  registers the block wrote are stored back just before its ``return``
  (for a branch, on the branch's own line);
* wraps to 64 bits only when a value left the signed range:
  ``v = <expr>; r = v if -2**63 <= v and v < 2**63 else wrap(v)`` equals
  ``wrap(v)`` for every int; ``div``/``mod`` by a positive divisor the
  block's own ``li`` made known need no sign test on the divisor and, for
  ``mod``, no wrap;
* reads and writes pages inline for ``ld``, ``st``, ``fld`` and ``fst``:
  it looks the page up and unpacks from or packs into the frame.  Anything
  else — a misaligned word, an unmapped page, an FP access that crosses a
  page, and for stores a page that is copy-on-write, read-only or not yet
  soft-dirty — calls the address space's accessor, which faults or
  resolves exactly as the single-step loop's call does.  Byte and vector
  accesses always call it.

A compiled block is called as ``fn(regs, fregs, vregs, pg, ld, st, lb, sb,
ldd, sd, sh, mk, lim)`` — the register files; the page table's bound
``get``; the address space's bound ``load_word``, ``store_word``,
``load_byte``, ``store_byte``, ``load_double`` and ``store_double``; then
the page shift, the in-page offset mask and the last in-page offset an
8-byte access may start at — and returns the next pc.  Page geometry is an
argument because blocks and the memo are shared by every address space
loaded from a program, whatever its platform's page size.

Line 2 of a block's source is its prologue, and instruction ``k`` sits on
line ``k + _FIRST_LINE``.  When a memory access, a frame-pool allocation
or a division by zero raises inside the block, :meth:`Block.unwind` reads
``k`` off the traceback and copies the faulting frame's register locals
back.  That is exact: a local the block only read still holds its loaded
value, a written one holds the value of the last retired instruction that
wrote it, one not yet assigned is absent, and the faulting instruction
never assigned.  So the instructions before ``k`` have retired and ``k``
itself has not — exactly where the single-step loop would have stopped.
"""

from __future__ import annotations

import math
import struct
import types
from typing import Dict, List, Optional, Tuple

from repro.isa import instructions as I
from repro.isa.instructions import Instr

#: Longest block, in instructions.
MAX_BLOCK = 64

_TWO63 = 1 << 63
_TWO64 = 1 << 64


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


# The globals of every compiled block: besides its arguments and builtins,
# the generated source uses little-endian word and double access straight
# on a frame's bytearray.
_GLOBALS = {"uw": struct.Struct("<q").unpack_from,
            "pw": struct.Struct("<Q").pack_into,
            "ud": struct.Struct("<d").unpack_from,
            "pd": struct.Struct("<d").pack_into,
            "fcvtzs": fcvtzs}

_PARAMS = "regs, fregs, vregs, pg, ld, st, lb, sb, ldd, sd, sh, mk, lim"

# Source line of a block's first instruction (line 1 is the ``def``,
# line 2 the register prologue).
_FIRST_LINE = 3

# A page an inline store may write without fault handling: private,
# writable and already soft-dirty (``AddressSpace.store_word``'s test).
_STORABLE = "p is not None and {} and p.soft_dirty and p.writable and not p.cow"

#: Process-wide memo: generated source -> compiled function.
_MEMO: Dict[str, types.FunctionType] = {}


def compiled_count() -> int:
    """Distinct block sources compiled by this process so far."""
    return len(_MEMO)


class _Emitter:
    """Generates one block's source lines, one per instruction, and
    tracks which registers the block reads and writes."""

    def __init__(self):
        #: Immediates with no exact literal (non-finite floats), passed to
        #: the function as defaults ``k0``, ``k1``, ...
        self.consts: List[object] = []
        #: Prologue statements loading registers read before written.
        self.loads: List[str] = []
        #: Local name -> register slot of every register written.
        self.writes: Dict[str, str] = {}
        self._bound = set()
        #: GPRs holding a value known at compile time (from ``li``).
        self.known: Dict[int, int] = {}

    def const(self, value) -> str:
        if type(value) is int or (type(value) is float
                                  and math.isfinite(value)):
            return repr(value)
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def _read(self, name: str, slot: str) -> str:
        if name not in self._bound:
            self._bound.add(name)
            self.loads.append(f"{name} = {slot}")
        return name

    def _write(self, name: str, slot: str) -> str:
        self._bound.add(name)
        self.writes[name] = slot
        return name

    def r(self, index: int) -> str:
        """Read GPR ``index``.  Emit every read of an instruction before
        its write: a register read after the write is not loaded."""
        return self._read(f"r{index}", f"regs[{index}]")

    def f(self, index: int) -> str:
        return self._read(f"f{index}", f"fregs[{index}]")

    def set_r(self, index: int) -> str:
        self.known.pop(index, None)
        return self._write(f"r{index}", f"regs[{index}]")

    def set_f(self, index: int) -> str:
        return self._write(f"f{index}", f"fregs[{index}]")

    def wrapped(self, index: int, value: str) -> str:
        """``r<index> = wrap(value)``, skipping the bigint wrap when the
        value is already in range."""
        return (f"v = {value}; {self.set_r(index)} = v if -2**63 <= v and "
                f"v < 2**63 else (v + 2**63) % 2**64 - 2**63")

    def address(self, instr: Instr) -> str:
        base = self.r(instr.b)
        if type(instr.imm) is int and instr.imm == 0:
            return f"a = {base}; "
        return f"a = {base} + {self.const(instr.imm)}; "

    def spill(self) -> List[str]:
        """Statements storing every written register back."""
        return [f"{slot} = {name}" for name, slot in self.writes.items()]

    def line(self, instr: Instr, pc: int) -> str:
        op, a, b, c = instr.op, instr.a, instr.b, instr.c
        if op == I.NOP:
            return "pass"
        if I.ADD <= op <= I.SNE:
            rb, rc = self.r(b), self.r(c)
            if op == I.DIV or op == I.MOD:
                return self.divide(op, a, rb, self.known.get(c), rc)
            if op >= I.SLT:
                cmp = {I.SLT: "<", I.SLE: "<=", I.SEQ: "==", I.SNE: "!="}[op]
                return f"{self.set_r(a)} = 1 if {rb} {cmp} {rc} else 0"
            value = {
                I.ADD: f"{rb} + {rc}", I.SUB: f"{rb} - {rc}",
                I.MUL: f"{rb} * {rc}", I.AND: f"{rb} & {rc}",
                I.OR: f"{rb} | {rc}", I.XOR: f"{rb} ^ {rc}",
                I.SLL: f"{rb} << ({rc} & 63)",
                I.SRL: f"({rb} & {_TWO64 - 1}) >> ({rc} & 63)",
                I.SRA: f"{rb} >> ({rc} & 63)",
            }[op]
            return self.wrapped(a, value)
        if op == I.LI:
            if type(instr.imm) is int:
                folded = ((instr.imm + _TWO63) % _TWO64) - _TWO63
                line = f"{self.set_r(a)} = {folded}"
                self.known[a] = folded
                return line
            return self.wrapped(a, self.const(instr.imm))
        if op == I.MOV:
            rb, value = self.r(b), self.known.get(b)
            line = f"{self.set_r(a)} = {rb}"
            if value is not None:
                self.known[a] = value
            return line
        if I.ADDI <= op <= I.MULI:
            rb, imm = self.r(b), self.const(instr.imm)
            value = {
                I.ADDI: f"{rb} + {imm}", I.ANDI: f"{rb} & {imm}",
                I.ORI: f"{rb} | {imm}", I.XORI: f"{rb} ^ {imm}",
                I.SLLI: f"{rb} << ({imm} & 63)",
                I.SRLI: f"({rb} & {_TWO64 - 1}) >> ({imm} & 63)",
                I.MULI: f"{rb} * {imm}",
            }[op]
            return self.wrapped(a, value)
        if op in I.MEMORY_OPCODES:
            return self.access(instr)
        if op in (I.FADD, I.FSUB, I.FMUL, I.FDIV):
            # A zero divisor raises ZeroDivisionError before the write.
            sym = {I.FADD: "+", I.FSUB: "-", I.FMUL: "*", I.FDIV: "/"}[op]
            fb, fc = self.f(b), self.f(c)
            return f"{self.set_f(a)} = {fb} {sym} {fc}"
        if op == I.FLI:
            if type(instr.imm) is float:  # float() of a float is itself
                return f"{self.set_f(a)} = {self.const(instr.imm)}"
            return f"{self.set_f(a)} = float({self.const(instr.imm)})"
        if op == I.FMOV:
            fb = self.f(b)
            return f"{self.set_f(a)} = {fb}"
        if op == I.FCVT:
            rb = self.r(b)
            return f"{self.set_f(a)} = float({rb})"
        if op == I.ICVT:
            fb = self.f(b)
            return f"{self.set_r(a)} = fcvtzs({fb})"
        if op in (I.FLT, I.FLE, I.FEQ):
            cmp = {I.FLT: "<", I.FLE: "<=", I.FEQ: "=="}[op]
            fb, fc = self.f(b), self.f(c)
            return f"{self.set_r(a)} = 1 if {fb} {cmp} {fc} else 0"
        if op in (I.VADD, I.VMUL, I.VXOR):
            if op == I.VXOR:
                lanes = [f"x[{i}] ^ y[{i}]" for i in range(4)]
            else:
                sym = "+" if op == I.VADD else "*"
                lanes = [f"((x[{i}] {sym} y[{i}] + {_TWO63}) % {_TWO64}) "
                         f"- {_TWO63}" for i in range(4)]
            return f"x = vregs[{b}]; y = vregs[{c}]; vregs[{a}] = [{', '.join(lanes)}]"
        if op == I.VBCAST:
            return f"vregs[{a}] = [{self.r(b)}] * 4"
        if op == I.VRED:
            return self.wrapped(a, f"sum(vregs[{b}])")
        raise ValueError(f"opcode {op} cannot sit in a block")

    def divide(self, op: int, a: int, x: str, divisor: Optional[int],
               y: str) -> str:
        """``div``/``mod``, truncating toward zero.  A zero divisor
        raises ZeroDivisionError before any write."""
        if divisor is not None and divisor > 0:
            # Known and positive: nothing can raise, and a remainder is
            # below the divisor, so in range.
            if op == I.MOD:
                return (f"{self.set_r(a)} = {x} % {divisor} if {x} >= 0 "
                        f"else -(-{x} % {divisor})")
            return self.wrapped(a, f"{x} // {divisor} if {x} >= 0 "
                                   f"else -(-{x} // {divisor})")
        signs = f"({x} < 0) != ({y} < 0)"
        if op == I.DIV:
            return self.wrapped(a, f"-(-{x} // {y}) if {signs} else {x} // {y}")
        return f"v = {x} % {y}; " + self.wrapped(
            a, f"v - {y} if v and {signs} else v")

    def access(self, instr: Instr) -> str:
        """A memory instruction: the address goes to ``a``, then the inline
        page access or, failing its test, the accessor call."""
        op, a = instr.op, instr.a
        address = self.address(instr)
        if op == I.LD:
            return (address + f"p = pg(a >> sh); {self.set_r(a)} = "
                    f"uw(p.frame.data, a & mk)[0] "
                    f"if p is not None and not a & 7 else ld(a)")
        if op == I.ST:
            ra = self.r(a)
            fits = _STORABLE.format("not a & 7")
            return (address + f"p = pg(a >> sh); pw(p.frame.data, a & mk, "
                    f"{ra} & {_TWO64 - 1}) if {fits} else st(a, {ra})")
        if op == I.FLD:
            return (address + f"p = pg(a >> sh); o = a & mk; "
                    f"{self.set_f(a)} = ud(p.frame.data, o)[0] "
                    f"if p is not None and o <= lim else ldd(a)")
        if op == I.FST:
            fa = self.f(a)
            fits = _STORABLE.format("o <= lim")
            return (address + f"p = pg(a >> sh); o = a & mk; "
                    f"pd(p.frame.data, o, {fa}) if {fits} else sd(a, {fa})")
        if op == I.LDB:
            return address + f"{self.set_r(a)} = lb(a)"
        if op == I.STB:
            return address + f"sb(a, {self.r(a)})"
        if op == I.VLD:
            lanes = ", ".join(f"ld(a + {8 * i})" for i in range(4))
            return address + f"vregs[{a}] = [{lanes}]"
        lanes = "; ".join(f"st(a + {8 * i}, y[{i}])" for i in range(4))
        return address + f"y = vregs[{a}]; {lanes}"   # VST

    def exit(self, instr: Instr, pc: int) -> Tuple[List[str], str]:
        """A block-ending control-flow instruction: the statements before
        the register spill and the expression returned after it."""
        op = instr.op
        if op == I.JMP:
            return [], self.const(instr.imm)
        if op == I.JAL:
            return [f"{self.set_r(14)} = {pc + 4}"], self.const(instr.imm)
        if op == I.JR:
            return [], self.r(instr.b)
        cmp = {I.BEQ: "==", I.BNE: "!=", I.BLT: "<", I.BGE: ">=",
               I.BLE: "<=", I.BGT: ">"}[op]
        rb, rc = self.r(instr.b), self.r(instr.c)
        return [], f"{self.const(instr.imm)} if {rb} {cmp} {rc} else {pc + 4}"


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
        body = code[self.start:self.start + self.n]
        straight = body[:-1] if self.branch else body
        lines = [emitter.line(instr, pc + 4 * i)
                 for i, instr in enumerate(straight)]
        if self.branch:
            before, target = emitter.exit(body[-1], pc + 4 * (self.n - 1))
        else:
            before, target = [], str(pc + 4 * self.n)
        lines.append("; ".join(before + emitter.spill()
                               + [f"return {target}"]))
        lines.insert(0, "; ".join(emitter.loads) or "pass")
        params = "".join(f", k{i}=None" for i in range(len(emitter.consts)))
        source = f"def block({_PARAMS}{params}):\n" + "".join(
            f"    {line}\n" for line in lines)
        fn = _MEMO.get(source)
        if fn is None:
            exec(compile(source, "<block>", "exec"), _GLOBALS)
            fn = _MEMO[source] = _GLOBALS.pop("block")
        if emitter.consts:
            fn = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                    tuple(emitter.consts))
        self.fn = fn
        return fn

    def unwind(self, exc: BaseException, regs: List[int],
               fregs: List[float]) -> int:
        """Index in this block of the instruction that raised ``exc``;
        copies the register locals (``r<i>``, ``f<i>``) of the faulting
        frame back into ``regs`` and ``fregs``.  One the block only read
        still holds the value it loaded."""
        tb = exc.__traceback__
        while tb.tb_frame.f_code is not self.fn.__code__:
            tb = tb.tb_next
        for name, value in tb.tb_frame.f_locals.items():
            if name[0] in "rf" and name[1:].isdigit():
                (regs if name[0] == "r" else fregs)[int(name[1:])] = value
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
