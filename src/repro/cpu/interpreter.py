"""The instruction interpreter.

``run(proc, budget)`` executes up to ``budget`` instructions of one process
and returns a :class:`~repro.cpu.exceptions.Stop` when something the kernel
must handle occurs: a syscall (stopped *before* execution, ptrace-style), a
hardware breakpoint, an armed perf-counter overflow (with modelled skid), a
``brk`` patch site, a trapped nondeterministic instruction, a fault, or halt.
Stopping instructions (syscall, brk, nondet, fault, halt) do **not** retire;
the kernel retires them when it completes them, exactly like a trapping
instruction on real hardware.

Every main *and* checker instruction goes through here, along one of two
paths with identical results (see :mod:`repro.cpu.blocks`):

* **Compiled code.**  At a block leader the loop calls compiled code:
  - the *loop region* the block is a member of, if it has one and no
    armed breakpoint lies in the region's pc span.  The region gets two
    allowances: instructions, ``min(budget - executed, deliver_at -
    counted, instr_ovf_at - counted)`` with ``counted = ir + overcount``,
    and branches, ``branch_target - bc``.  It enters a member only if the
    whole member fits in the first, and returns right after the branch
    that uses up the second, with its instruction, memory-op and branch
    counts;
  - else the block, or while breakpoints are armed and one lies inside it,
    the *cut block* that stops before the first.  A block runs only if it
    fits in the budget and ends at or before both counter targets.

  After the call the counters advance by its counts, and a final branch
  that reaches the branch overflow target arms delivery exactly as the
  single-step loop would; ``bp_skip_pc`` is cleared, as the single-step
  loop clears it after one instruction.  Compiled code works on registers
  in locals and reads and writes mapped pages inline; the loop hands it
  the page table's lookup, the address space's accessors for every other
  case, and the page geometry.  A fault copies back the registers the
  retired instructions wrote, retires exactly those instructions and
  returns the single-step loop's ``Stop``.  A page size that is not a
  power of two keeps the whole run on the single-step loop.
* **Single step.**  Everything else runs one instruction per iteration of
  a flat, local-variable-heavy loop: non-leader pcs (a quantum resumed
  mid-block, a handler entry) up to the next leader, an armed breakpoint
  and the instruction a run resumes from at one (after which the rest of
  its block runs as a cut block), the instructions before a counter
  target or the end of the budget that no block fits, and stopping
  instructions.
"""

from __future__ import annotations

from repro.common.errors import FramePoolExhausted
from repro.cpu.blocks import cut, fcvtzs, partition
from repro.cpu.exceptions import Fault, FaultKind, Stop, StopReason
from repro.isa.instructions import FDIV, MEMORY_OPCODES
from repro.mem.address_space import PageFault

_TWO63 = 1 << 63
_TWO64 = 1 << 64
_HUGE = 1 << 62
_BLOCK_FAULTS = (PageFault, FramePoolExhausted, ZeroDivisionError)


def run(proc, budget: int) -> Stop:
    """Run ``proc`` for at most ``budget`` instructions.

    ``proc`` must expose ``cpu`` (CpuContext), ``mem`` (AddressSpace),
    ``nondet`` (NondetSource) and ``skid_draw()``.  Counter state is read
    from and written back to ``proc.cpu``.
    """
    cpu = proc.cpu
    mem = proc.mem
    regs = cpu.regs.gprs
    fregs = cpu.regs.fprs
    vregs = cpu.regs.vecs
    code = mem.code
    code_base = mem.code_base
    code_len = len(code)

    pc = cpu.pc
    ir = cpu.instr_retired
    bc = cpu.branches_retired
    mc = cpu.mem_ops_retired
    overcount = cpu.instr_overcount

    branch_target = cpu.branch_overflow_target
    deliver_at = cpu.overflow_deliver_at
    instr_ovf_at = cpu.instr_overflow_at

    bps = cpu.breakpoints
    skip_pc = cpu.bp_skip_pc if cpu.bp_skip_pc is not None else -1
    cpu.bp_skip_pc = None
    # The pc after the breakpoint being resumed from: with breakpoints
    # armed, the rest of the block holding it runs as a cut block.
    tail = skip_pc + 4
    trap_nondet = cpu.trap_nondet

    page_size = mem.page_size
    # Inline page access shifts and masks: power-of-two pages only.
    blocks = None if page_size & (page_size - 1) else mem.blocks
    if blocks is not None:
        if not blocks:
            blocks.update(partition(code, code_base, pc))
        pg = mem.pages.get
        ld, st, lb, sb = (mem.load_word, mem.store_word, mem.load_byte,
                          mem.store_byte)
        ldd, sd = mem.load_double, mem.store_double
        sh, mk, lim = page_size.bit_length() - 1, page_size - 1, page_size - 8

    executed = 0
    stop = None

    while executed < budget:
        if blocks is not None:
            block = blocks.get(pc)
            if bps and (block is not None or pc == tail):
                block = None if pc == skip_pc else cut(
                    blocks, block, pc, bps, code, code_base)
            if block is not None:
                region = block.region
                if region is not None and bps:
                    for bp in bps:
                        if region.lo <= bp < region.hi:
                            region = None
                            break
                unit = region or block
                try:
                    if region is not None:
                        counted = ir + overcount
                        pc, n, m, b = (region.fn or region.compile(
                            code, code_base))(
                            regs, fregs, vregs, pg, ld, st, lb, sb, ldd, sd,
                            sh, mk, lim, pc,
                            min(budget - executed, deliver_at - counted,
                                instr_ovf_at - counted),
                            branch_target - bc)
                    else:
                        n = block.n
                        end = ir + overcount + n
                        if executed + n > budget or end > deliver_at \
                                or end > instr_ovf_at:
                            n = 0
                        else:
                            pc = (block.fn or block.compile(code, code_base))(
                                regs, fregs, vregs, pg, ld, st, lb, sb, ldd,
                                sd, sh, mk, lim)
                            m, b = block.mem_ops, block.branch
                except _BLOCK_FAULTS as exc:
                    first, k, n, m, b = unit.unwind(exc, regs, fregs)
                    m += sum(instr.op in MEMORY_OPCODES
                             for instr in code[first:first + k])
                    pc = code_base + 4 * (first + k)
                    ir += n + k
                    executed += n + k
                    mc += m
                    bc += b
                    stop = _block_fault_stop(exc, executed, pc,
                                             code[first + k].op)
                    break
                if n:
                    ir += n
                    executed += n
                    mc += m
                    skip_pc = -1
                    if b:
                        bc += b
                        if bc >= branch_target:
                            # The last branch retired as ir - 1: the
                            # delivery point the single-step loop arms for
                            # it.
                            branch_target = _HUGE
                            deliver_at = ir + overcount + proc.skid_draw()
                    continue

        counted = ir + overcount
        if counted >= deliver_at:
            deliver_at = _HUGE
            branch_target = _HUGE
            stop = Stop(StopReason.COUNTER_OVERFLOW, executed)
            break
        if counted >= instr_ovf_at:
            instr_ovf_at = _HUGE
            stop = Stop(StopReason.INSTR_OVERFLOW, executed)
            break
        if bps and pc in bps and pc != skip_pc:
            stop = Stop(StopReason.BREAKPOINT, executed)
            break
        skip_pc = -1

        index = (pc - code_base) >> 2
        if index < 0 or index >= code_len:
            stop = Stop(StopReason.FAULT, executed,
                        Fault(FaultKind.PAGE_FAULT, pc, "exec"))
            break
        instr = code[index]
        op = instr.op

        try:
            if op <= 16:  # NOP..SNE
                if op >= 2:  # ALU r3
                    a_val = regs[instr.b]
                    b_val = regs[instr.c]
                    if op == 2:      # ADD
                        value = a_val + b_val
                    elif op == 3:    # SUB
                        value = a_val - b_val
                    elif op == 4:    # MUL
                        value = a_val * b_val
                    elif op == 5:    # DIV
                        if b_val == 0:
                            stop = Stop(StopReason.FAULT, executed,
                                        Fault(FaultKind.DIVIDE_BY_ZERO, pc))
                            break
                        value = abs(a_val) // abs(b_val)
                        if (a_val < 0) != (b_val < 0):
                            value = -value
                    elif op == 6:    # MOD
                        if b_val == 0:
                            stop = Stop(StopReason.FAULT, executed,
                                        Fault(FaultKind.DIVIDE_BY_ZERO, pc))
                            break
                        quotient = abs(a_val) // abs(b_val)
                        if (a_val < 0) != (b_val < 0):
                            quotient = -quotient
                        value = a_val - quotient * b_val
                    elif op == 7:    # AND
                        value = a_val & b_val
                    elif op == 8:    # OR
                        value = a_val | b_val
                    elif op == 9:    # XOR
                        value = a_val ^ b_val
                    elif op == 10:   # SLL
                        value = a_val << (b_val & 63)
                    elif op == 11:   # SRL
                        value = (a_val & (_TWO64 - 1)) >> (b_val & 63)
                    elif op == 12:   # SRA
                        value = a_val >> (b_val & 63)
                    elif op == 13:   # SLT
                        value = 1 if a_val < b_val else 0
                    elif op == 14:   # SLE
                        value = 1 if a_val <= b_val else 0
                    elif op == 15:   # SEQ
                        value = 1 if a_val == b_val else 0
                    else:            # SNE
                        value = 1 if a_val != b_val else 0
                    regs[instr.a] = ((value + _TWO63) % _TWO64) - _TWO63
                elif op == 1:  # HALT
                    cpu.halted = True
                    stop = Stop(StopReason.HALTED, executed)
                    break
                # NOP: nothing
                pc += 4
            elif op <= 25:  # ALU immediate group
                if op == 24:       # LI
                    regs[instr.a] = ((instr.imm + _TWO63) % _TWO64) - _TWO63
                elif op == 25:     # MOV
                    regs[instr.a] = regs[instr.b]
                else:
                    a_val = regs[instr.b]
                    imm = instr.imm
                    if op == 17:   # ADDI
                        value = a_val + imm
                    elif op == 18:  # ANDI
                        value = a_val & imm
                    elif op == 19:  # ORI
                        value = a_val | imm
                    elif op == 20:  # XORI
                        value = a_val ^ imm
                    elif op == 21:  # SLLI
                        value = a_val << (imm & 63)
                    elif op == 22:  # SRLI
                        value = (a_val & (_TWO64 - 1)) >> (imm & 63)
                    else:           # MULI
                        value = a_val * imm
                    regs[instr.a] = ((value + _TWO63) % _TWO64) - _TWO63
                pc += 4
            elif op <= 29:  # memory
                address = regs[instr.b] + instr.imm
                if op == 26:       # LD
                    regs[instr.a] = mem.load_word(address)
                elif op == 27:     # ST
                    mem.store_word(address, regs[instr.a])
                elif op == 28:     # LDB
                    regs[instr.a] = mem.load_byte(address)
                else:              # STB
                    mem.store_byte(address, regs[instr.a])
                mc += 1
                pc += 4
            elif op <= 38:  # control flow
                if op == 30:       # JMP
                    pc = instr.imm
                elif op == 31:     # JAL
                    regs[14] = pc + 4
                    pc = instr.imm
                elif op == 32:     # JR
                    pc = regs[instr.b]
                else:
                    a_val = regs[instr.b]
                    b_val = regs[instr.c]
                    if op == 33:    # BEQ
                        taken = a_val == b_val
                    elif op == 34:  # BNE
                        taken = a_val != b_val
                    elif op == 35:  # BLT
                        taken = a_val < b_val
                    elif op == 36:  # BGE
                        taken = a_val >= b_val
                    elif op == 37:  # BLE
                        taken = a_val <= b_val
                    else:           # BGT
                        taken = a_val > b_val
                    pc = instr.imm if taken else pc + 4
                bc += 1
                if bc >= branch_target:
                    branch_target = _HUGE
                    deliver_at = ir + overcount + 1 + proc.skid_draw()
            elif op <= 51:  # floating point
                if op == 39:
                    fregs[instr.a] = fregs[instr.b] + fregs[instr.c]
                elif op == 40:
                    fregs[instr.a] = fregs[instr.b] - fregs[instr.c]
                elif op == 41:
                    fregs[instr.a] = fregs[instr.b] * fregs[instr.c]
                elif op == 42:
                    divisor = fregs[instr.c]
                    if divisor == 0.0:
                        stop = Stop(StopReason.FAULT, executed,
                                    Fault(FaultKind.DIVIDE_BY_ZERO, pc, "fp"))
                        break
                    fregs[instr.a] = fregs[instr.b] / divisor
                elif op == 43:  # FLD
                    fregs[instr.a] = mem.load_double(regs[instr.b] + instr.imm)
                    mc += 1
                elif op == 44:  # FST
                    mem.store_double(regs[instr.b] + instr.imm,
                                     fregs[instr.a])
                    mc += 1
                elif op == 45:  # FLI
                    fregs[instr.a] = float(instr.imm)
                elif op == 46:  # FMOV
                    fregs[instr.a] = fregs[instr.b]
                elif op == 47:  # FCVT (int -> float)
                    fregs[instr.a] = float(regs[instr.b])
                elif op == 48:  # ICVT (float -> int, truncating)
                    regs[instr.a] = fcvtzs(fregs[instr.b])
                elif op == 49:  # FLT
                    regs[instr.a] = 1 if fregs[instr.b] < fregs[instr.c] else 0
                elif op == 50:  # FLE
                    regs[instr.a] = 1 if fregs[instr.b] <= fregs[instr.c] else 0
                else:           # FEQ
                    regs[instr.a] = 1 if fregs[instr.b] == fregs[instr.c] else 0
                pc += 4
            elif op <= 58:  # vector
                if op == 52:   # VADD
                    lhs, rhs = vregs[instr.b], vregs[instr.c]
                    vregs[instr.a] = [
                        ((lhs[i] + rhs[i] + _TWO63) % _TWO64) - _TWO63
                        for i in range(4)]
                elif op == 53:  # VMUL
                    lhs, rhs = vregs[instr.b], vregs[instr.c]
                    vregs[instr.a] = [
                        ((lhs[i] * rhs[i] + _TWO63) % _TWO64) - _TWO63
                        for i in range(4)]
                elif op == 54:  # VXOR
                    lhs, rhs = vregs[instr.b], vregs[instr.c]
                    vregs[instr.a] = [lhs[i] ^ rhs[i] for i in range(4)]
                elif op == 55:  # VLD
                    address = regs[instr.b] + instr.imm
                    vregs[instr.a] = [mem.load_word(address + 8 * i)
                                      for i in range(4)]
                    mc += 1
                elif op == 56:  # VST
                    address = regs[instr.b] + instr.imm
                    lanes = vregs[instr.a]
                    for i in range(4):
                        mem.store_word(address + 8 * i, lanes[i])
                    mc += 1
                elif op == 57:  # VBCAST
                    value = regs[instr.b]
                    vregs[instr.a] = [value] * 4
                else:           # VRED
                    total = sum(vregs[instr.b])
                    regs[instr.a] = ((total + _TWO63) % _TWO64) - _TWO63
                pc += 4
            else:  # system group
                if op == 59:   # SYSCALL: stop before executing (ptrace-style)
                    stop = Stop(StopReason.SYSCALL, executed)
                    break
                if op == 63:   # BRK
                    stop = Stop(StopReason.BRK, executed)
                    break
                if trap_nondet:
                    stop = Stop(StopReason.NONDET, executed)
                    break
                if op == 60:   # RDTSC
                    regs[instr.a] = proc.nondet.read_tsc()
                elif op == 61:  # MRS
                    regs[instr.a] = proc.nondet.read_sysreg(instr.imm)
                else:           # CPUID
                    regs[instr.a] = proc.nondet.cpuid()
                pc += 4
        except PageFault as fault:
            stop = Stop(StopReason.FAULT, executed,
                        Fault(FaultKind.PAGE_FAULT, fault.address,
                              fault.access))
            break
        except FramePoolExhausted as exc:
            # A COW resolution overran the frame-pool budget.  The pool
            # reserves *before* mutating and the faulting store has not
            # advanced pc, so stopping here leaves the process resumable:
            # waking it retries the same instruction.
            stop = Stop(StopReason.OOM, executed, needed=exc.needed)
            break

        ir += 1
        executed += 1

    if stop is None:
        stop = Stop(StopReason.BUDGET, executed)

    cpu.pc = pc
    cpu.instr_retired = ir
    cpu.branches_retired = bc
    cpu.mem_ops_retired = mc
    cpu.instr_overcount = overcount
    cpu.branch_overflow_target = branch_target
    cpu.overflow_deliver_at = deliver_at
    cpu.instr_overflow_at = instr_ovf_at
    return stop


def _block_fault_stop(exc: BaseException, executed: int, pc: int,
                      op: int) -> Stop:
    """The ``Stop`` the single-step loop returns for ``exc`` raised by the
    instruction ``op`` at ``pc``."""
    if isinstance(exc, PageFault):
        return Stop(StopReason.FAULT, executed,
                    Fault(FaultKind.PAGE_FAULT, exc.address, exc.access))
    if isinstance(exc, FramePoolExhausted):
        return Stop(StopReason.OOM, executed, needed=exc.needed)
    return Stop(StopReason.FAULT, executed,
                Fault(FaultKind.DIVIDE_BY_ZERO, pc,
                      "fp" if op == FDIV else ""))
