"""Differential property tests for the interpreter's two paths.

A random program runs twice: once in 2,000-instruction quanta, where the
compiled-block fast path takes every block that fits, and once with
``budget=1`` plus a breakpoint on an address no program reaches, which
keeps every instruction on the single-step loop.  Both runs must agree on
the non-budget stops in order, the instructions executed, registers (FP
by bit pattern), pc, every counter, page bytes, ``dirty_marks`` and
``cow_faults``.

Programs mix the ISA round-trip strategy with the cases a block must stop
inside exactly: word, byte, FP and vector accesses to a mapped data page,
loads from unmapped addresses, a vector store running off the page,
division by zero, non-finite FP values, and copy-on-write stores that
overrun a tiny frame-pool budget.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import CpuContext, StopReason, run
from repro.isa import Instr
from repro.isa import instructions as ins
from repro.isa.program import CODE_BASE, DATA_BASE, INSTR_SIZE, Program
from repro.mem import AddressSpace, FramePool

from test_property_isa import instructions

PAGE = 4096
#: r10 holds zero, r11 an unmapped address, r12 the data page; random
#: instructions never write them.
ZERO, UNMAPPED, DATA = 10, 11, 12
RESERVED = (ZERO, UNMAPPED, DATA)
UNMAPPED_BASE = 0x4000_0000
PROLOGUE = [Instr(ins.LI, DATA, imm=DATA_BASE),
            Instr(ins.LI, UNMAPPED, imm=UNMAPPED_BASE)]
#: A breakpoint no program reaches: arming it disables the block path.
FAR_BREAKPOINT = CODE_BASE - INSTR_SIZE
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


@st.composite
def block_cases(draw, n_instrs, kinds=KINDS):
    """Instructions the ISA strategy does not reach, aimed at block
    boundaries and mid-block faults."""
    kind = draw(st.sampled_from(kinds))
    if kind == "mapped":
        op = draw(st.sampled_from(sorted(ins.MEMORY_OPCODES)))
        offset = draw(st.integers(0, PAGE // 8 - 4)) * 8
        if op in (ins.LDB, ins.STB, ins.FLD, ins.FST):
            offset += draw(st.integers(0, 7))
        return Instr(op, draw(vec if op in (ins.VLD, ins.VST) else
                              fpr if op in (ins.FLD, ins.FST) else dest),
                     DATA, imm=offset)
    if kind == "unmapped":
        op = draw(st.sampled_from([ins.LD, ins.LDB, ins.FLD, ins.VLD]))
        return Instr(op, 0, UNMAPPED, imm=draw(st.integers(0, 64)) * 8)
    if kind == "cross":  # the last lanes or bytes fall off the data page
        op = draw(st.sampled_from([ins.VST, ins.FST]))
        return Instr(op, draw(vec if op == ins.VST else fpr), DATA,
                     imm=draw(st.sampled_from([PAGE - 16, PAGE - 8, PAGE - 4])))
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
    """Random programs; with ``kinds``, only those :func:`block_cases`."""
    size = draw(st.integers(1, max_body))
    # Start from non-zero registers, so that not every division faults.
    init = [Instr(ins.LI, r, imm=draw(st.integers(-(2**63), 2**63 - 1)))
            for r in range(16) if r not in RESERVED]
    init += [Instr(ins.FLI, f, imm=draw(special_floats)) for f in range(8)]
    n_instrs = len(PROLOGUE) + len(init) + size + 1
    if kinds:
        instr = block_cases(n_instrs, kinds)
    else:
        instr = st.one_of(instructions(n_instrs).filter(keeps_reserved),
                          block_cases(n_instrs))
    body = draw(st.lists(instr, min_size=size, max_size=size))
    data = draw(st.binary(min_size=0, max_size=64))
    return Program(PROLOGUE + init + body + [Instr(ins.HALT)], data=data,
                   name="prop")


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

    def __init__(self, program, skid, fork_budget):
        self.pool = FramePool(PAGE)
        self.mem = AddressSpace(self.pool, aslr=False)
        self.mem.load_program(program)
        if fork_budget:
            # Run in a COW child; with no frame to spare, its first store
            # to each page overruns the budget.
            self.parent = self.mem
            self.mem = self.mem.fork()
            self.pool.set_budget(self.pool.resident_bytes)
        self.cpu = CpuContext()
        self.cpu.pc = program.entry
        self.nondet = self.Nondet()
        self.skid = skid

    def skid_draw(self):
        return self.skid


def execute(program, quantum, *, skid=0, overcount=0, branch_target=None,
            instr_target=None, breakpoint=None, fork_budget=False):
    """Run ``program`` to a terminal stop or ``LIMIT`` instructions and
    return everything the two paths must agree on."""
    proc = Proc(program, skid, fork_budget)
    cpu = proc.cpu
    cpu.instr_overcount = overcount
    if branch_target is not None:
        cpu.arm_branch_overflow(branch_target)
    if instr_target is not None:
        cpu.arm_instr_overflow(instr_target)
    if breakpoint is not None:
        cpu.breakpoints.add(breakpoint)
    if quantum == 1:
        cpu.breakpoints.add(FAR_BREAKPOINT)
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


def assert_paths_agree(program, **setup):
    blocks = execute(program, QUANTUM, **setup)
    steps = execute(program, 1, **setup)
    assert blocks == steps


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
        index = data.draw(st.integers(0, len(program) - 1))
        assert_paths_agree(program, breakpoint=CODE_BASE + index * INSTR_SIZE)

    @given(programs())
    @settings(deadline=None)
    def test_cow_store_over_budget(self, program):
        assert_paths_agree(program, fork_budget=True)


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
    assert result == execute(program, 1, fork_budget=True)
