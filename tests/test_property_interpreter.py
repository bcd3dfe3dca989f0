"""Differential property tests for the interpreter's two paths.

A random program runs twice: once in 2,000-instruction quanta (or random
ones), where compiled loop regions, blocks and cut blocks run wherever
they fit, and once in 1-instruction quanta on the single-step loop alone
(:func:`helpers.single_step_only`: no block is ever cut, so no compiled
code can run).  Both runs must agree on the non-budget stops in order,
the instructions executed, registers (FP by bit pattern), pc, every
counter, page bytes, ``dirty_marks`` and ``cow_faults``.  Every program
runs at both page sizes (4 KiB and 16 KiB): its data offsets are
page-relative.

The data region is four pages, one in each state a block's inline store
must tell apart: copy-on-write shared (and soft-dirty), private and
dirty, private and clean, and read-only (and soft-dirty).  So each test
the inline store makes is the only one standing between it and a wrong
write.  Programs mix the ISA round-trip strategy with the cases a block
must stop inside exactly: aligned and misaligned word, byte, FP and
vector accesses near the start and the end of each data page, loads from
unmapped addresses, FP and vector stores running into the next page,
division by zero, non-finite FP values, and copy-on-write stores that
overrun a tiny frame-pool budget.  Loop-shaped programs (backward
branches, ``while`` loops closed by a ``jmp``, nested loops, a ``jal``
to a subroutine in the body, and faults that strike only on a later
iteration) exercise loop regions and breakpoints inside loops.
"""

import contextlib
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import single_step_only
from repro.cpu import CpuContext, StopReason, run
from repro.isa import Instr
from repro.isa import instructions as ins
from repro.isa.program import CODE_BASE, DATA_BASE, INSTR_SIZE, Program
from repro.mem import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_PRIVATE,
    PROT_READ,
    PROT_WRITE,
    AddressSpace,
    FramePool,
)

from test_property_isa import instructions

#: Both platforms' page sizes (``intel_14700``, ``apple_m2``).
PAGES = (4096, 16384)
#: Data pages from DATA_BASE: copy-on-write, private dirty, private
#: clean, read-only.  The page after them is unmapped.
COW, DIRTY, CLEAN, READ_ONLY = range(4)
DATA_PAGES = 4
#: r10 holds zero, r11 an unmapped address, r12 the data region; random
#: instructions never write them.
ZERO, UNMAPPED, DATA = 10, 11, 12
RESERVED = (ZERO, UNMAPPED, DATA)
UNMAPPED_BASE = 0x4000_0000
PROLOGUE = [Instr(ins.LI, DATA, imm=DATA_BASE),
            Instr(ins.LI, UNMAPPED, imm=UNMAPPED_BASE)]
QUANTUM = 2000
LIMIT = 3000

gpr = st.integers(0, 15)
dest = st.sampled_from([r for r in range(16) if r not in RESERVED])
fpr = st.integers(0, 3)   # few registers: values flow between FP ops
vec = st.integers(0, 3)
special_floats = st.sampled_from(
    [-0.0, -2.75, 1e308, 1e19, math.inf, -math.inf, math.nan])


KINDS = ("mapped", "unmapped", "cross", "divide", "fp", "vector", "alu",
         "control")


class DataAccess:
    """A memory instruction whose offset into the data region is
    page-relative: ``delta`` bytes from the start of data page
    ``index``, or back from its end."""

    def __init__(self, op, reg, index, from_end, delta):
        self.op, self.reg = op, reg
        self.index, self.from_end, self.delta = index, from_end, delta

    def at(self, page):
        offset = self.index * page + (
            page - self.delta if self.from_end else self.delta)
        return Instr(self.op, self.reg, DATA, imm=offset)


class PageRelativeProgram:
    """A program whose data accesses are :class:`DataAccess`es."""

    def __init__(self, code, data):
        self.code, self.data = code, data

    def at(self, page):
        code = [i.at(page) if isinstance(i, DataAccess) else i
                for i in self.code]
        return Program(code, data=self.data, name="prop")

    def __repr__(self):
        return (f"PageRelativeProgram(<at {PAGES[0]}-byte pages: "
                f"{self.at(PAGES[0]).instrs}>, data={self.data!r})")


@st.composite
def block_cases(draw, n_instrs, kinds=KINDS):
    """Instructions the ISA strategy does not reach, aimed at block
    boundaries and mid-block faults."""
    kind = draw(st.sampled_from(kinds))
    if kind == "mapped":
        op = draw(st.sampled_from(sorted(ins.MEMORY_OPCODES)))
        from_end = draw(st.booleans())
        delta = draw(st.integers(0, 64)) * 8 + 32 * from_end
        if op in (ins.LDB, ins.STB, ins.FLD, ins.FST) \
                or draw(st.integers(0, 3)) == 0:   # misaligned words fault
            delta += draw(st.integers(0, 7))
        return DataAccess(op, draw(vec if op in (ins.VLD, ins.VST) else
                                   fpr if op in (ins.FLD, ins.FST) else dest),
                          draw(st.integers(0, DATA_PAGES - 1)), from_end,
                          delta)
    if kind == "unmapped":
        op = draw(st.sampled_from([ins.LD, ins.LDB, ins.FLD, ins.VLD]))
        return Instr(op, 0, UNMAPPED, imm=draw(st.integers(0, 64)) * 8)
    if kind == "cross":  # the last lanes or bytes fall into the next page
        op = draw(st.sampled_from([ins.VST, ins.FST, ins.VLD, ins.FLD]))
        return DataAccess(op, draw(vec if op in (ins.VLD, ins.VST) else fpr),
                          draw(st.integers(0, DATA_PAGES - 1)), True,
                          draw(st.sampled_from([16, 8, 4])))
    if kind == "divide":
        op = draw(st.sampled_from([ins.DIV, ins.MOD, ins.FDIV]))
        if op == ins.FDIV:
            return Instr(op, draw(fpr), draw(fpr), draw(fpr))
        return Instr(op, draw(dest), draw(gpr),
                     draw(st.sampled_from([ZERO, UNMAPPED]) | gpr))
    if kind == "fp":
        op = draw(st.sampled_from([ins.FLI, ins.FLI, ins.FSUB, ins.FMUL,
                                   ins.FCVT, ins.ICVT, ins.ICVT, ins.FLT,
                                   ins.FLE, ins.FEQ, ins.FMOV]))
        if op == ins.FLI:
            return Instr(op, draw(fpr), imm=draw(special_floats))
        if op == ins.FCVT:
            return Instr(op, draw(fpr), draw(gpr))
        if op == ins.ICVT:
            return Instr(op, draw(dest), draw(fpr))
        if op in (ins.FLT, ins.FLE, ins.FEQ):
            return Instr(op, draw(dest), draw(fpr), draw(fpr))
        return Instr(op, draw(fpr), draw(fpr), draw(fpr))
    if kind == "vector":
        op = draw(st.sampled_from([ins.VADD, ins.VMUL, ins.VXOR, ins.VBCAST,
                                   ins.VRED]))
        if op == ins.VBCAST:
            return Instr(op, draw(vec), draw(gpr))
        if op == ins.VRED:
            return Instr(op, draw(dest), draw(vec))
        return Instr(op, draw(vec), draw(vec), draw(vec))
    if kind == "alu":
        op = draw(st.sampled_from(
            [ins.SUB, ins.MUL, ins.SLL, ins.SRL, ins.SRA, ins.SLE, ins.SEQ,
             ins.SNE, ins.ORI, ins.XORI, ins.SRLI, ins.MULI, ins.LI]))
        imm = draw(st.integers(-(2**65), 2**65))
        return Instr(op, draw(dest), draw(gpr), draw(gpr), imm=imm)
    op = draw(st.sampled_from([ins.BLE, ins.BGT, ins.JR, ins.RDTSC,
                               ins.CPUID, ins.BRK]))
    target = CODE_BASE + draw(st.integers(0, n_instrs - 1)) * INSTR_SIZE
    return Instr(op, draw(dest), draw(gpr), draw(gpr), imm=target)


def keeps_reserved(instr):
    return instr.a not in RESERVED


@st.composite
def programs(draw, max_body=40, kinds=None):
    """Random :class:`PageRelativeProgram`s; with ``kinds``, only those
    :func:`block_cases`."""
    size = draw(st.integers(1, max_body))
    init = initial_registers(draw)
    n_instrs = len(PROLOGUE) + len(init) + size + 1
    if kinds:
        instr = block_cases(n_instrs, kinds)
    else:
        instr = st.one_of(instructions(n_instrs).filter(keeps_reserved),
                          block_cases(n_instrs))
    body = draw(st.lists(instr, min_size=size, max_size=size))
    data = draw(st.binary(min_size=0, max_size=64))
    return PageRelativeProgram(PROLOGUE + init + body + [Instr(ins.HALT)],
                               data)


#: Loop counters (outer and inner loop) and the link register: loop
#: bodies never write them.
OUTER, INNER, LINK = 8, 9, 14
LOOP_REGS = (OUTER, INNER, LINK)
#: What loop bodies draw from ``block_cases``: no control flow, and data
#: accesses (a quarter of which fault) only now and then, so that loops
#: mostly run their course.
LOOP_KINDS = ("mapped", "fp", "vector", "alu", "fp", "alu")


class Label:
    """A position in a program under construction."""

    def __init__(self, name):
        self.name = name


class Jump:
    """A control-flow instruction to a :class:`Label`."""

    def __init__(self, op, label, b=0, c=0):
        self.op, self.label, self.b, self.c = op, label, b, c


def resolve(items):
    """Instructions with every :class:`Jump` pointed at its label."""
    at, index = {}, 0
    for item in items:
        if isinstance(item, Label):
            at[item.name] = index
        else:
            index += 1
    return [Instr(item.op, 0, item.b, item.c,
                  imm=CODE_BASE + at[item.label] * INSTR_SIZE)
            if isinstance(item, Jump) else item
            for item in items if not isinstance(item, Label)]


#: The register a loop-body instruction writes instead of a reserved or
#: loop register.  FP and vector indices are all below 8: none moves.
SPARE = {ZERO: 5, UNMAPPED: 5, DATA: 5, OUTER: 6, INNER: 7, LINK: 15}


def straight_line(item):
    """``item`` made fit for a loop body, not filtered out (that would
    reject too many draws): control flow and ``halt`` become ``nop``, a
    raw ``ld``/``st`` (whose random address would almost always fault)
    addresses the data region, and a write to a reserved or loop
    register goes to a spare one."""
    if isinstance(item, DataAccess):
        item.reg = SPARE.get(item.reg, item.reg)
        return item
    op, a = item.op, SPARE.get(item.a, item.a)
    if op in ins.BRANCH_OPCODES or op == ins.HALT:
        return Instr(ins.NOP)
    if op in (ins.LD, ins.ST):
        return Instr(op, a, DATA, imm=item.imm & 0x1F8)
    return Instr(op, a, item.b, item.c, imm=item.imm)


@st.composite
def late_fault(draw, counter, count):
    """Instructions that fault only once ``counter``, counting down from
    ``count``, has come down to a drawn value (mostly on a lap after the
    first): a division by zero, or a load from below the data region."""
    temp = draw(st.sampled_from(sorted(set(range(16)) - set(SPARE))))
    lap = draw(st.integers(0, count))
    items = [Instr(ins.ADDI, temp, counter, imm=-lap)]
    if draw(st.booleans()):
        return items + [Instr(ins.DIV, temp, draw(gpr), temp)]
    return items + [Instr(ins.MULI, temp, temp, imm=8),
                    Instr(ins.ADD, temp, temp, DATA),
                    Instr(ins.LD, temp, temp, imm=0)]


#: Instructions :func:`initial_registers` returns.
N_INITIAL = 16 - len(RESERVED) + 8


def initial_registers(draw):
    """Non-zero registers, so that not every division faults."""
    return ([Instr(ins.LI, r, imm=draw(st.integers(-(2**63), 2**63 - 1)))
             for r in range(16) if r not in RESERVED]
            + [Instr(ins.FLI, f, imm=draw(special_floats)) for f in range(8)])


@st.composite
def loop_programs(draw):
    """Random loop-shaped :class:`PageRelativeProgram`s: one or two loops,
    each closed by a backward branch or, as a ``while`` loop, by a
    ``jmp``; maybe an inner loop, a ``jal`` to a subroutine and a fault
    on a later lap in the body."""
    body = st.one_of(instructions(80), block_cases(80, LOOP_KINDS)).map(
        straight_line)

    def straight(most):
        return draw(st.lists(body, max_size=most))

    def loop(counter, name, nest):
        count = draw(st.sampled_from(range(1, 13)))
        items = [Instr(ins.LI, counter, imm=count), Label(name)]
        do_while = draw(st.booleans())
        if not do_while:
            items.append(Jump(ins.BEQ, f"{name}.end", counter, ZERO))
        items += straight(6)
        if nest:
            items += loop(INNER, f"{name}.inner", False)
        if draw(st.booleans()):
            items += draw(late_fault(counter, count))
        items += straight(4)
        if draw(st.booleans()):
            items.append(Jump(ins.JAL, "sub"))
        items += straight(4)
        items.append(Instr(ins.ADDI, counter, counter, imm=-1))
        if do_while:
            return items + [Jump(ins.BNE, name, counter, ZERO)]
        return items + [Jump(ins.JMP, name), Label(f"{name}.end")]

    items = PROLOGUE + initial_registers(draw) + straight(3)
    items += loop(OUTER, "first", draw(st.booleans()))
    if draw(st.booleans()):
        items += straight(3) + loop(OUTER, "second", draw(st.booleans()))
    items += [Instr(ins.HALT), Label("sub")] + straight(5) + [
        Instr(ins.JR, 0, LINK)]
    return PageRelativeProgram(resolve(items),
                               draw(st.binary(min_size=0, max_size=64)))


class Proc:
    """Just enough of a process to drive ``run``."""

    class Nondet:
        def __init__(self):
            self.tsc = 1000

        def read_tsc(self):
            self.tsc += 7
            return self.tsc

        def read_sysreg(self, sysreg):
            return sysreg * 3

        def cpuid(self):
            return 0xC0DE

    def __init__(self, program, page, skid, fork_budget):
        self.pool = FramePool(page)
        mem = self.mem = AddressSpace(self.pool, aslr=False)
        mem.load_program(program)

        def data_page(index):
            return DATA_BASE + index * page

        for index in (DIRTY, READ_ONLY):
            mem.mmap(data_page(index), page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        for index in (COW, DIRTY, READ_ONLY):
            mem.write_bytes(data_page(index) + 64,
                            bytes(range(index, 256, 3)) * (page // 128))
        mem.mprotect(data_page(READ_ONLY), page, PROT_READ)
        # The sibling keeps sharing every frame: the written pages stay
        # copy-on-write (and soft-dirty) in this space, the read-only one
        # soft-dirty and shared.
        self.sibling = mem.fork()
        mem.write_bytes(data_page(DIRTY), b"\1")
        mem.mmap(data_page(CLEAN), page, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        mem.cow_faults = mem.dirty_marks = 0
        if fork_budget:
            # With no frame to spare, the first store to each
            # copy-on-write page overruns the budget.
            self.pool.set_budget(self.pool.resident_bytes)
        self.cpu = CpuContext()
        self.cpu.pc = program.entry
        self.nondet = self.Nondet()
        self.skid = skid

    def skid_draw(self):
        return self.skid


def execute(program, quantum, *, single_step=False, page=PAGES[0], skid=0,
            overcount=0, branch_target=None, instr_target=None,
            breakpoints=(), skip=None, fork_budget=False):
    """Run ``program`` to a terminal stop or ``LIMIT`` instructions and
    return everything the two paths must agree on; with ``single_step``,
    on the single-step loop alone.  ``skip`` is the first run's
    ``bp_skip_pc``."""
    proc = Proc(program, page, skid, fork_budget)
    cpu = proc.cpu
    cpu.instr_overcount = overcount
    if branch_target is not None:
        cpu.arm_branch_overflow(branch_target)
    if instr_target is not None:
        cpu.arm_instr_overflow(instr_target)
    cpu.breakpoints.update(breakpoints)
    cpu.bp_skip_pc = skip
    with single_step_only(proc.mem) if single_step \
            else contextlib.nullcontext():
        return drive(proc, quantum)


def drive(proc, quantum):
    """Run ``proc`` in ``quantum``-instruction runs, resuming every stop a
    kernel would resume."""
    cpu = proc.cpu
    stops, total = [], 0
    while total < LIMIT:
        stop = run(proc, min(quantum, LIMIT - total))
        total += stop.executed
        if stop.reason is StopReason.BUDGET:
            continue
        fault = stop.fault
        stops.append((stop.reason, stop.needed, fault and (
            fault.kind, fault.address, fault.detail), cpu.pc))
        if stop.reason is StopReason.SYSCALL:
            cpu.pc += INSTR_SIZE
            cpu.instr_retired += 1
            cpu.far_branches_retired += 1
        elif stop.reason is StopReason.BREAKPOINT:
            cpu.bp_skip_pc = cpu.pc
            # What a fault injector or debugger may do at the stop: the
            # resumed code must read the register anew.
            cpu.regs.gprs[1 + len(stops) % 7] ^= 1
        elif stop.reason is StopReason.OOM:
            proc.pool.set_budget(None)   # resume the same store
        elif stop.reason not in (StopReason.COUNTER_OVERFLOW,
                                 StopReason.INSTR_OVERFLOW):
            break
    regs = cpu.regs
    mem = proc.mem
    return {
        "stops": stops,
        "executed": total,
        "gprs": tuple(regs.gprs),
        "fprs": struct.pack("<8d", *regs.fprs),
        "vecs": tuple(map(tuple, regs.vecs)),
        "pc": cpu.pc,
        "counters": (cpu.instr_retired, cpu.branches_retired,
                     cpu.mem_ops_retired, cpu.instr_overcount,
                     cpu.far_branches_retired),
        "pages": {vpn: bytes(pte.frame.data)
                  for vpn, pte in sorted(mem.pages.items())},
        "dirty_marks": mem.dirty_marks,
        "cow_faults": mem.cow_faults,
    }


def assert_paths_agree(relative, quantum=QUANTUM, **setup):
    """At each page size, the compiled path in ``quantum``-instruction
    runs and the single-step loop agree on ``relative.at(page)``."""
    for page in PAGES:
        program = relative.at(page)
        compiled = execute(program, quantum, page=page, **setup)
        steps = execute(program, 1, single_step=True, page=page, **setup)
        assert compiled == steps


class TestBlocksMatchSingleStep:
    @given(programs())
    @settings(deadline=None)
    def test_plain_runs(self, program):
        assert_paths_agree(program)

    @given(programs(kinds=("fp", "vector", "alu")))
    @settings(deadline=None)
    def test_arithmetic_edge_values(self, program):
        """Non-finite floats and wide immediates."""
        assert_paths_agree(program)

    @given(programs(kinds=("mapped", "cross")))
    @settings(deadline=None)
    def test_data_page_states(self, program):
        """Only accesses to the four data pages: every inline-access
        fallback is taken."""
        assert_paths_agree(program)

    @given(programs(), st.integers(0, 60), st.integers(0, 5),
           st.integers(0, 7))
    @settings(deadline=None)
    def test_branch_overflow_with_skid(self, program, target, skid,
                                       overcount):
        assert_paths_agree(program, branch_target=target, skid=skid,
                           overcount=overcount)

    @given(programs(), st.integers(0, LIMIT), st.integers(0, 7))
    @settings(deadline=None)
    def test_instruction_overflow(self, program, target, overcount):
        assert_paths_agree(program, instr_target=target, overcount=overcount)

    @given(programs(), st.data())
    @settings(deadline=None)
    def test_breakpoint(self, program, data):
        index = data.draw(st.integers(0, len(program.code) - 1))
        assert_paths_agree(program,
                           breakpoints=[CODE_BASE + index * INSTR_SIZE])

    @given(programs())
    @settings(deadline=None)
    def test_cow_store_over_budget(self, program):
        assert_paths_agree(program, fork_budget=True)


#: Quanta from one instruction up: short ones end runs inside blocks and
#: inside loop regions.
quanta = st.one_of(st.integers(1, 40), st.integers(41, QUANTUM))


class TestLoopsMatchSingleStep:
    """Loop regions, blocks and cut blocks against the single-step loop."""

    @given(loop_programs(), quanta)
    @settings(deadline=None)
    def test_random_quanta(self, program, quantum):
        assert_paths_agree(program, quantum=quantum)

    @given(loop_programs(), quanta, st.integers(0, 80), st.integers(0, 5),
           st.integers(0, 7))
    @settings(deadline=None)
    def test_branch_overflow_with_skid(self, program, quantum, target, skid,
                                       overcount):
        assert_paths_agree(program, quantum=quantum, branch_target=target,
                           skid=skid, overcount=overcount)

    @given(loop_programs(), quanta, st.integers(0, LIMIT), st.integers(0, 7))
    @settings(deadline=None)
    def test_instruction_overflow(self, program, quantum, target, overcount):
        assert_paths_agree(program, quantum=quantum, instr_target=target,
                           overcount=overcount)

    @given(loop_programs(), quanta, st.data())
    @settings(deadline=None)
    def test_breakpoints_in_loops(self, program, quantum, data):
        """One or two breakpoints past the register set-up, so mostly
        inside a loop; each hit resumes through ``bp_skip_pc``.  The
        first run may start with ``bp_skip_pc`` at one of them, which
        skips nothing, as the run starts elsewhere."""
        first = len(PROLOGUE) + N_INITIAL
        pcs = st.integers(first, len(program.code) - 1).map(
            lambda index: CODE_BASE + index * INSTR_SIZE)
        breakpoints = data.draw(st.lists(pcs, min_size=1, max_size=2))
        skip = data.draw(st.none() | st.sampled_from(breakpoints))
        assert_paths_agree(program, quantum=quantum, breakpoints=breakpoints,
                           skip=skip)

    @given(loop_programs(), quanta)
    @settings(deadline=None)
    def test_cow_store_over_budget(self, program, quantum):
        assert_paths_agree(program, quantum=quantum, fork_budget=True)


def while_loop(count, lap):
    """``while (OUTER) { r1 += 3; r2 = load(DATA + 8 * (OUTER - lap));
    OUTER -= 1; }``: a region of two members, the test and the body,
    whose load faults on the lap where ``OUTER`` drops below ``lap``."""
    head = len(PROLOGUE) + 1
    end = CODE_BASE + (head + 8) * INSTR_SIZE
    code = PROLOGUE + [
        Instr(ins.LI, OUTER, imm=count),
        Instr(ins.BEQ, 0, OUTER, ZERO, imm=end),
        Instr(ins.ADDI, 1, 1, imm=3),
        Instr(ins.ADDI, 3, OUTER, imm=-lap),
        Instr(ins.MULI, 3, 3, imm=8),
        Instr(ins.ADD, 3, 3, DATA),
        Instr(ins.LD, 2, 3, imm=0),
        Instr(ins.ADDI, OUTER, OUTER, imm=-1),
        Instr(ins.JMP, imm=CODE_BASE + head * INSTR_SIZE),
        Instr(ins.HALT)]
    return Program(code, name="while"), CODE_BASE + head * INSTR_SIZE


def test_breakpoint_runs_execute_compiled_code():
    """With a breakpoint armed inside a loop, the body before it runs as a
    compiled cut block and, after each resume, the rest of the body as
    another; a breakpoint outside the loop leaves its region on."""
    program, head = while_loop(5, 0)
    body = head + INSTR_SIZE
    bp = body + 4 * INSTR_SIZE                 # the load
    proc = Proc(program, PAGES[0], 0, False)
    proc.cpu.breakpoints.add(bp)
    for lap in range(1, 4):
        stop = run(proc, QUANTUM)
        assert stop.reason is StopReason.BREAKPOINT and proc.cpu.pc == bp
        assert proc.cpu.regs.gprs[1] == 3 * lap
        proc.cpu.bp_skip_pc = bp
    assert program.blocks[(body, bp)].fn is not None
    assert program.blocks[(bp + INSTR_SIZE, bp + 3 * INSTR_SIZE)].fn \
        is not None
    assert program.blocks[head].region.fn is None

    program, head = while_loop(5, 0)
    proc = Proc(program, PAGES[0], 0, False)
    halt = CODE_BASE + (len(program.instrs) - 1) * INSTR_SIZE
    proc.cpu.breakpoints.add(halt)
    assert run(proc, QUANTUM).reason is StopReason.BREAKPOINT
    assert proc.cpu.pc == halt and proc.cpu.regs.gprs[1] == 5 * 3
    assert program.blocks[head].region.fn is not None


def test_skip_applies_to_the_first_instruction_only():
    """``bp_skip_pc`` skips a breakpoint only at the run's first
    instruction: a run that starts elsewhere and runs compiled code
    first still stops at the breakpoint on its first arrival."""
    program, head = while_loop(5, 0)
    bp = head + 5 * INSTR_SIZE
    proc = Proc(program, PAGES[0], 0, False)
    proc.cpu.breakpoints.add(bp)
    proc.cpu.bp_skip_pc = bp
    stop = run(proc, QUANTUM)
    assert stop.reason is StopReason.BREAKPOINT and proc.cpu.pc == bp
    assert proc.cpu.regs.gprs[1] == 3
    assert program.blocks[program.entry].fn is not None


def test_cut_block_reads_a_register_changed_at_the_stop():
    """The rest of a block after a resumed breakpoint reads the registers
    as they are then, not as an ``li`` earlier in the block left them."""
    body = [Instr(ins.LI, 3, imm=4), Instr(ins.LI, 5, imm=40),
            Instr(ins.ADDI, 1, 1, imm=1), Instr(ins.DIV, 2, 5, 3)]
    program = Program(PROLOGUE + body + [Instr(ins.HALT)], name="cut")
    bp = CODE_BASE + (len(PROLOGUE) + 2) * INSTR_SIZE
    proc = Proc(program, PAGES[0], 0, False)
    proc.cpu.breakpoints.add(bp)
    assert run(proc, QUANTUM).reason is StopReason.BREAKPOINT
    proc.cpu.regs.gprs[3] = 8
    proc.cpu.bp_skip_pc = bp
    assert run(proc, QUANTUM).reason is StopReason.HALTED
    assert program.blocks[(bp + INSTR_SIZE, bp + 2 * INSTR_SIZE)].fn
    assert proc.cpu.regs.gprs[2] == 5


def test_region_fault_on_a_later_lap_keeps_the_earlier_laps():
    """The load faults in the region's second member on its fourth lap,
    inside one call: the stop retires the three laps before it and the
    body instructions before the load, as the single-step loop does."""
    program, head = while_loop(5, 3)
    proc = Proc(program, PAGES[0], 0, False)
    stop = run(proc, QUANTUM)
    assert program.blocks[head].region.fn is not None
    assert stop.reason is StopReason.FAULT
    assert proc.cpu.pc == head + 5 * INSTR_SIZE
    laps = 3 * 8 + 1 + 4
    assert proc.cpu.instr_retired == len(PROLOGUE) + 1 + laps
    assert proc.cpu.branches_retired == 3 * 2 + 1
    assert proc.cpu.mem_ops_retired == 3
    assert proc.cpu.regs.gprs[1] == 4 * 3
    assert execute(program, QUANTUM) == execute(program, 1, single_step=True)


def test_mid_block_cow_store_stops_oom_and_resumes():
    """A copy-on-write store deep in a block overruns the pool: the block
    retires exactly the instructions before it and the store retries."""
    body = [Instr(ins.ADDI, 1, 1, imm=5)] * 6 + [
        Instr(ins.ST, 1, DATA, imm=16), Instr(ins.ADDI, 2, 2, imm=1)]
    program = Program(PROLOGUE + body + [Instr(ins.HALT)], name="oom")
    result = execute(program, QUANTUM, fork_budget=True)
    store_pc = CODE_BASE + (len(PROLOGUE) + 6) * INSTR_SIZE
    assert result["stops"][0][:1] == (StopReason.OOM,)
    assert result["stops"][0][3] == store_pc
    assert result["stops"][1][0] is StopReason.HALTED
    assert result["counters"][0] == len(PROLOGUE) + len(body)
    assert result["cow_faults"] == 1
    assert result == execute(program, 1, single_step=True, fork_budget=True)


#: A block-ending fault: (faulting instruction, stop, fork budget).
BLOCK_FAULTS = {
    "page-fault": (Instr(ins.LD, 3, UNMAPPED), StopReason.FAULT, False),
    "divide-by-zero": (Instr(ins.DIV, 3, 1, ZERO), StopReason.FAULT, False),
    "frame-pool": (Instr(ins.ST, 1, DATA, imm=16), StopReason.OOM, True),
}


@pytest.mark.parametrize("page", PAGES)
@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
def test_block_fault_keeps_exactly_the_retired_register_writes(fault, page):
    """A block keeps registers in locals: when it faults, the writes of
    the instructions before the fault reach the register files and the
    writes after it do not."""
    faulting, reason, fork_budget = BLOCK_FAULTS[fault]
    before = [Instr(ins.LI, 1, imm=41), Instr(ins.ADDI, 2, 2, imm=7),
              Instr(ins.FLI, 1, imm=2.5), Instr(ins.MOV, 4, 1)]
    after = [Instr(ins.LI, 1, imm=-1), Instr(ins.LI, 3, imm=99),
             Instr(ins.FLI, 2, imm=1.5), Instr(ins.LI, 5, imm=3)]
    program = Program(PROLOGUE + before + [faulting] + after
                      + [Instr(ins.HALT)], name="spill")
    proc = Proc(program, page, 0, fork_budget)
    stop = run(proc, QUANTUM)
    assert program.blocks[program.entry].fn is not None   # the block ran
    assert stop.reason is reason
    assert stop.executed == len(PROLOGUE) + len(before)
    assert proc.cpu.pc == CODE_BASE + stop.executed * INSTR_SIZE
    gprs, fprs = proc.cpu.regs.gprs, proc.cpu.regs.fprs
    assert (gprs[DATA], gprs[UNMAPPED]) == (DATA_BASE, UNMAPPED_BASE)
    assert (gprs[1], gprs[2], gprs[4], fprs[1]) == (41, 7, 41, 2.5)
    assert (gprs[3], gprs[5], fprs[2]) == (0, 0, 0.0)

    stepped = Proc(program, page, 0, fork_budget)
    with single_step_only(stepped.mem):
        while run(stepped, 1).reason is StopReason.BUDGET:
            pass
    assert stepped.cpu.regs.snapshot() == proc.cpu.regs.snapshot()
