"""Block and loop-region compiler for the interpreter's fast path.

A program's code is cut once into non-overlapping straight-line blocks.
Each block starts at a *leader* — the pc the program was first run from,
every static ``jmp``/``jal``/branch target, and the pc after every
control-flow, system or ``halt`` instruction — and holds ALU,
ALU-immediate, memory, FP, vector and ``nop`` instructions.  It ends after
one control-flow instruction, before an instruction that stops the
interpreter (:data:`~repro.isa.instructions.STOPPING_OPCODES`), before the
next leader, or at :data:`MAX_BLOCK` instructions (the pc after a block
ended that way becomes a leader).  Because blocks never overlap, compiled
code is bounded by program size.

The blocks of each loop form a *region*: a strongly connected component
of the block graph, whose edges are branch targets, fall-throughs and
``jmp`` targets (a ``jal``, a ``jr`` or a stopping instruction leaves the
compiled path, so a loop that calls out has no region).  A loop of at
most :data:`MAX_REGION` blocks compiles into one function, shared by its
members and entered at any of them; see :class:`Region`.  Blocks outside
every region, and every block while a breakpoint lies in its region's
span, run one call each.

The first time a block or region runs it is compiled: its Python source
is generated with register indices and immediates as constants, the
``jal`` link value and the fall-through pc baked in, and ``li`` of an int
folded.  A process-wide memo from a digest of the source to the function
compiles identical sources (the same program loaded twice, say) only
once; every function shares one globals dict.  The generated code

* keeps registers in Python locals: a prologue loads each GPR and FPR the
  block reads before writing it (a region: every one it touches),
  instructions work on the locals, and the registers written are stored
  back just before the ``return`` (for a block ending in a branch, on the
  branch's own line);
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

While breakpoints are armed, a block that holds one runs as a *cut
block*, the part before it (:func:`cut`).  Cut blocks are keyed by their
pc range in the program's block cache, never in the memo: there is one
per segment end.  All cuts of one block share one function, compiled on
the block's first cut, whose instruction lines are guarded by the cut's
index range.

Line 2 of a block's source is its prologue, and instruction ``k`` sits on
line ``k + _FIRST_LINE``; a region maps each instruction line to its
member and index in a table.  When a memory access, a frame-pool
allocation or a division by zero raises inside compiled code,
:meth:`Block.unwind` or :meth:`Region.unwind` finds the faulting
instruction from the traceback's line, reads the counts of the region
members that completed before it from the frame's locals, and copies the
frame's register locals back.  That is exact: a local only read still
holds its loaded value, a written one holds the value of the last retired
instruction that wrote it, one not yet assigned is absent, and the
faulting instruction never assigned.  So the instructions before it have
retired and it has not — exactly where the single-step loop would have
stopped.
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
#: Most member blocks in one loop region; the blocks of a larger loop run
#: one call each.
MAX_REGION = 32

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
# Source line of a region's first member line (after the ``def``, the
# prologue and the ``while True:``).
_REGION_FIRST_LINE = 4

# A page an inline store may write without fault handling: private,
# writable and already soft-dirty (``AddressSpace.store_word``'s test).
_STORABLE = "p is not None and {} and p.soft_dirty and p.writable and not p.cow"

#: Process-wide memo: digest of the generated source -> compiled function.
#: Keyed by a digest so that the memo keeps no copy of the source text.
_MEMO: Dict[bytes, types.FunctionType] = {}


def compiled_count() -> int:
    """Distinct block and region sources compiled by this process so
    far."""
    return len(_MEMO)


class _Emitter:
    """Generates one block's source lines, one per instruction, and
    tracks which registers the block reads and writes."""

    def __init__(self, fold: bool = True):
        #: Whether an ``li`` makes its register known to later
        #: instructions: not where code may be entered past the ``li``.
        self.fold = fold
        #: Immediates with no exact literal (non-finite floats), passed to
        #: the function as defaults ``k0``, ``k1``, ...
        self.consts: List[object] = []
        #: Prologue statements loading registers read before written.
        self.loads: List[str] = []
        #: Local name -> register slot of every register written.
        self.writes: Dict[str, str] = {}
        #: Local name -> register slot of every register read or written.
        self.slots: Dict[str, str] = {}
        #: GPRs holding a value known at compile time (from ``li``).
        self.known: Dict[int, int] = {}

    def const(self, value) -> str:
        if type(value) is int or (type(value) is float
                                  and math.isfinite(value)):
            return repr(value)
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def _read(self, name: str, slot: str) -> str:
        if name not in self.slots:
            self.slots[name] = slot
            self.loads.append(f"{name} = {slot}")
        return name

    def _write(self, name: str, slot: str) -> str:
        self.slots[name] = slot
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
                if self.fold:
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


def _function(name: str, params: str, lines: List[str],
              consts: List[object], memo: bool = True) -> types.FunctionType:
    """Compile ``def name(params, k0=None, ...)`` with body ``lines`` —
    through the process-wide memo unless ``memo`` is false — and bind
    ``consts`` as the defaults ``k0``, ``k1``, ..."""
    params += "".join(f", k{i}=None" for i in range(len(consts)))
    source = f"def {name}({params}):\n" + "".join(
        f"    {line}\n" for line in lines)
    # Imported on first use: hashlib loads OpenSSL (a few ms), which
    # start-up need not pay.
    import hashlib
    key = hashlib.blake2b(source.encode(), digest_size=16).digest()
    fn = _MEMO.get(key) if memo else None
    if fn is None:
        scope: Dict[str, types.FunctionType] = {}
        exec(compile(source, f"<{name}>", "exec"), _GLOBALS, scope)
        fn = scope[name]
        if memo:
            _MEMO[key] = fn
    if consts:
        defaults = fn.__defaults__[:-len(consts)] + tuple(consts)
        fn = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                defaults)
    return fn


def _emit(emitter: _Emitter, code: List[Instr], code_base: int, start: int,
          n: int) -> Tuple[List[str], List[str], str]:
    """The lines of the ``n`` instructions from code index ``start``, one
    each, except a final control-flow instruction: for it (or for none),
    the statements before the register spill and the next-pc expression.
    Nothing is known about the registers on entry."""
    emitter.known = {}
    pc = code_base + 4 * start
    body = code[start:start + n]
    branch = body[-1].op in I.BRANCH_OPCODES
    lines = [emitter.line(instr, pc + 4 * i)
             for i, instr in enumerate(body[:-1] if branch else body)]
    if branch:
        before, target = emitter.exit(body[-1], pc + 4 * (n - 1))
    else:
        before, target = [], str(pc + 4 * n)
    return lines, before, target


def _frame_of(exc: BaseException, fn: types.FunctionType,
              regs: List[int], fregs: List[float]):
    """The traceback entry of ``fn``'s frame in ``exc``; copies that
    frame's register locals (``r<i>``, ``f<i>``) back into ``regs`` and
    ``fregs``."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not fn.__code__:
        tb = tb.tb_next
    for name, value in tb.tb_frame.f_locals.items():
        if name[0] in "rf" and name[1:].isdigit():
            (regs if name[0] == "r" else fregs)[int(name[1:])] = value
    return tb


class Block:
    """One straight-line block: ``n`` instructions from code index
    ``start``, compiled on first use.  ``region`` is the loop region the
    block is a member of, if any.

    A *cut block* runs part of a block: it is made by :meth:`cut` and
    already compiled.
    """

    __slots__ = ("start", "n", "mem_ops", "branch", "fn", "region", "base",
                 "cuts")

    def __init__(self, start: int, code: List[Instr]):
        ops = [instr.op for instr in code]
        self.start = start
        self.n = len(ops)
        self.mem_ops = sum(op in I.MEMORY_OPCODES for op in ops)
        self.branch = ops[-1] in I.BRANCH_OPCODES
        self.fn: Optional[types.FunctionType] = None
        self.region: Optional[Region] = None
        #: Code index of the instruction on line ``_FIRST_LINE`` of ``fn``:
        #: ``start``, or for a cut block the start of the block it cuts.
        self.base = start
        #: The function every cut of this block runs, compiled on its
        #: first cut.
        self.cuts: Optional[types.FunctionType] = None

    def compile(self, code: List[Instr],
                code_base: int) -> types.FunctionType:
        emitter = _Emitter()
        lines, before, target = _emit(emitter, code, code_base, self.start,
                                      self.n)
        lines.append("; ".join(before + emitter.spill()
                               + [f"return {target}"]))
        lines.insert(0, "; ".join(emitter.loads) or "pass")
        self.fn = _function("block", _PARAMS, lines, emitter.consts)
        return self.fn

    def cut(self, code: List[Instr], code_base: int, lo: int,
            hi: int) -> "Block":
        """The cut block of this block's instructions ``[lo, hi)``.

        All cuts of a block share one function, compiled outside the
        memo: each instruction line runs only if its index is in
        ``[lo, hi)``, bound as defaults.  So a block cut at many
        breakpoints is compiled once, and its cuts go with its program.
        """
        if self.cuts is None:
            emitter = _Emitter(fold=False)
            lines, before, target = _emit(emitter, code, code_base,
                                          self.start, self.n)
            lines = [f"if lo <= {k} < hi: {line}"
                     for k, line in enumerate(lines)]
            spill = emitter.spill()
            if self.branch:
                lines.append(f"if hi == {self.n}: " + "; ".join(
                    before + spill + [f"return {target}"]))
            lines.append("; ".join(
                spill + [f"return {code_base + 4 * self.start} + 4 * hi"]))
            # Entered mid-block: load every register the block touches.
            lines.insert(0, "; ".join(
                f"{name} = {slot}" for name, slot in emitter.slots.items())
                or "pass")
            self.cuts = _function("cut", _PARAMS + ", lo=0, hi=0", lines,
                                  emitter.consts, memo=False)
        first = self.start + lo
        part = Block(first, code[first:self.start + hi])
        part.base = self.start
        fn = self.cuts
        part.fn = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                     (lo, hi) + fn.__defaults__[2:])
        return part

    def unwind(self, exc: BaseException, regs: List[int],
               fregs: List[float]) -> Tuple[int, int, int, int, int]:
        """Where ``exc`` was raised, as :meth:`Region.unwind` reports it:
        this block's start, the index ``k`` in it of the faulting
        instruction, and no earlier blocks.  Copies the faulting frame's
        register locals back; one the block only read still holds the
        value it loaded."""
        tb = _frame_of(exc, self.fn, regs, fregs)
        k = self.base + tb.tb_lineno - _FIRST_LINE - self.start
        return self.start, k, 0, 0, 0


class Region:
    """The member blocks of one loop, compiled into one function.

    The function can be entered at any member's pc and is called as
    ``fn(<block arguments>, pc, room, br)``.  It enters a member only if
    the member's instructions fit in ``room``, returns right after the
    branch that makes ``br`` branches, and otherwise runs until control
    leaves the loop.  It returns ``(pc, instructions, memory ops,
    branches)``.
    """

    __slots__ = ("members", "lo", "hi", "fn", "table")

    def __init__(self, members: List[Tuple[int, int]], code_base: int):
        #: (code index, length) of every member, in pc order.  Plain
        #: tuples, not the members' ``Block``s, which refer to the region.
        self.members = tuple(sorted(members))
        #: The pc span of the members: a region holding an armed
        #: breakpoint in it does not run.
        self.lo = code_base + 4 * self.members[0][0]
        self.hi = code_base + 4 * max(start + n for start, n in members)
        self.fn: Optional[types.FunctionType] = None
        #: Source line -> (member start, index in the member) of every
        #: instruction line.
        self.table: Dict[int, Tuple[int, int]] = {}

    def compile(self, code: List[Instr],
                code_base: int) -> types.FunctionType:
        emitter = _Emitter()
        lines: List[str] = []
        for start, n in self.members:
            body, before, target = _emit(emitter, code, code_base, start, n)
            mem_ops = sum(instr.op in I.MEMORY_OPCODES
                          for instr in code[start:start + n])
            counts = [f"ni += {n}"] + [f"nm += {mem_ops}"] * (mem_ops > 0)
            lines += [f"{'elif' if lines else 'if'} "
                      f"pc == {code_base + 4 * start}:",
                      f"    if ni + {n} > room: break"]
            for k, line in enumerate(body):
                self.table[len(lines) + _REGION_FIRST_LINE] = (start, k)
                lines.append(f"    {line}")
            if len(body) < n:   # ends in a branch
                self.table[len(lines) + _REGION_FIRST_LINE] = (start, n - 1)
                lines += ["    " + "; ".join(before + counts + [
                              "nb += 1", f"pc = {target}"]),
                          "    if nb >= br: break"]
            else:
                lines[-1] += "; " + "; ".join(counts + [f"pc = {target}"])
        lines += ["else:", "    break"]
        loads = [f"{name} = {slot}" for name, slot in emitter.slots.items()]
        lines = (["; ".join(loads + ["ni = nm = nb = 0"]), "while True:"]
                 + [f"    {line}" for line in lines]
                 + ["; ".join(emitter.spill() + ["return pc, ni, nm, nb"])])
        self.fn = _function("region", _PARAMS + ", pc, room, br", lines,
                            emitter.consts)
        return self.fn

    def unwind(self, exc: BaseException, regs: List[int],
               fregs: List[float]) -> Tuple[int, int, int, int, int]:
        """Where ``exc`` was raised: the faulting member's start, the index
        ``k`` in it of the faulting instruction, and the instructions,
        memory ops and branches of the members that completed before it in
        this call.  Copies the register locals back; the prologue loaded
        every register the region touches, so each holds its value after
        the last retired instruction."""
        tb = _frame_of(exc, self.fn, regs, fregs)
        local = tb.tb_frame.f_locals
        start, k = self.table[tb.tb_lineno]
        return start, k, local["ni"], local["nm"], local["nb"]


def partition(code: List[Instr], code_base: int,
              entry: int) -> Dict[int, Block]:
    """Cut ``code`` into blocks and group the blocks of each loop into a
    region; returns leader pc -> block.

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
    for loop in _loops(_successors(blocks, code, code_base)):
        if len(loop) <= MAX_REGION:
            region = Region([(blocks[pc].start, blocks[pc].n) for pc in loop],
                            code_base)
            for pc in loop:
                blocks[pc].region = region
    return blocks


def _successors(blocks: Dict[int, Block], code: List[Instr],
                code_base: int) -> Dict[int, List[int]]:
    """The block graph: leader pc -> the leader pcs control can pass to
    without leaving the compiled path.  A branch goes to its target and
    falls through, a ``jmp`` goes to its target, a block with no
    control-flow instruction falls through; ``jal``, ``jr`` and a
    following stopping instruction lead nowhere."""
    graph = {}
    for pc, block in blocks.items():
        last = code[block.start + block.n - 1]
        end = pc + 4 * block.n
        if last.op == I.JMP:
            targets = [last.imm]
        elif last.op in (I.JAL, I.JR):
            targets = []
        elif block.branch:
            targets = [last.imm, end]
        else:
            targets = [end]
        graph[pc] = [target for target in targets
                     if type(target) is int and target in blocks]
    return graph


def _loops(graph: Dict[int, List[int]]) -> List[List[int]]:
    """The strongly connected components of ``graph`` that hold a cycle
    (Tarjan's algorithm, iterative)."""
    order: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack = set()
    loops = []
    for root in graph:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, edges = work[-1]
            for succ in edges:
                if succ not in order:
                    order[succ] = low[succ] = len(order)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], order[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in graph[node]:
                        loops.append(component)
    return loops


def cut(blocks: Dict, block: Optional[Block], pc: int, bps,
        code: List[Instr], code_base: int) -> Optional[Block]:
    """The block to run from ``pc`` while the breakpoints ``bps`` are
    armed: ``block`` (the one led by ``pc``, or None) when it holds none
    of them, else the part of it before the first, a cut block; None when
    that part is empty.

    With ``block`` None, ``pc`` is the pc after a resumed breakpoint, and
    the cut runs from there towards the end of the block holding it.  Cut
    blocks are cached in ``blocks`` under their ``(first, stop)`` pc
    range: there is one per segment end, and they go with their program.
    """
    owner, lo = block, 0
    if owner is None:
        for lo in range(1, MAX_BLOCK):
            owner = blocks.get(pc - 4 * lo)
            if owner is not None:
                break
        if owner is None or owner.n <= lo:
            return None
    start = pc - 4 * lo
    hi = owner.n
    for bp in bps:
        if pc <= bp < start + 4 * hi:
            hi = (bp - start) >> 2
    if hi <= lo:
        return None
    if hi - lo == owner.n:
        return owner
    key = (pc, start + 4 * hi)
    part = blocks.get(key)
    if part is None:
        part = blocks[key] = owner.cut(code, code_base, lo, hi)
    return part
