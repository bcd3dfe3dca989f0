"""Tests for kernel odds and ends: VFS, cost model, nondet sources, ABI."""

import pytest

from repro import abi
from repro.common.rng import RngPool
from repro.cpu.nondet import (
    CPUID_BIG,
    CPUID_LITTLE,
    MIDR_BIG,
    MIDR_LITTLE,
    SYSREG_CNTFRQ,
    SYSREG_MIDR,
    SYSREG_MPIDR,
    NondetSource,
)
from repro.kernel import Kernel, KernelCostModel
from repro.kernel.kernel import random_bytes
from repro.kernel.vfs import Console, DevUrandom, DevZero, MemFile, NullSink, Vfs


class TestVfs:
    def test_dev_zero(self):
        assert DevZero().read(16) == b"\x00" * 16
        assert DevZero().write(b"abc") == 3

    def test_dev_urandom_changes_per_read(self):
        import random
        dev = DevUrandom(random.Random(1))
        assert dev.read(32) != dev.read(32)

    def test_console_captures(self):
        console = Console()
        console.write(b"hello ")
        console.write(b"world")
        assert console.text() == "hello world"
        assert console.read(10) == b""

    def test_null_sink_swallows(self):
        sink = NullSink()
        assert sink.write(b"secret") == 6
        assert sink.read(4) == b""

    def test_memfile_offset_and_write(self):
        f = MemFile("x", b"abcdef")
        assert f.read(3) == b"abc"
        assert f.read(10) == b"def"
        assert f.read(1) == b""
        g = MemFile("y", b"abcdef")
        g.read(2)
        g.write(b"XY")
        assert g.content() == b"abXYef"

    def test_memfile_clone_independent_offset(self):
        f = MemFile("x", b"abcdef")
        f.read(3)
        clone = f.clone()
        assert clone.read(3) == b"def"
        assert f.read(3) == b"def"

    def test_vfs_registry_and_devices(self):
        import random
        vfs = Vfs(random.Random(0))
        vfs.register("in.dat", b"payload")
        assert vfs.open("in.dat").read(7) == b"payload"
        assert isinstance(vfs.open("/dev/zero"), DevZero)
        assert isinstance(vfs.open("/dev/urandom"), DevUrandom)
        assert vfs.open("missing") is None

    def test_memfile_mappable_console_not(self):
        assert MemFile("x", b"").mappable
        assert not Console().mappable


class TestCostModel:
    def test_fork_cost_scales_with_pages(self):
        costs = KernelCostModel()
        assert costs.fork_cycles(100) > costs.fork_cycles(10)

    def test_cow_cost_scales_with_page_size(self):
        costs = KernelCostModel()
        assert costs.cow_cycles(16384) > costs.cow_cycles(4096)

    def test_page_population_scale_applies(self):
        small = KernelCostModel(page_population_scale=1.0)
        big = KernelCostModel(page_population_scale=100.0)
        assert big.cow_cycles(4096) == pytest.approx(
            100.0 * small.cow_cycles(4096))
        assert big.hash_cycles(4096) == pytest.approx(
            100.0 * small.hash_cycles(4096))
        assert big.dirty_clear_cycles(10) == pytest.approx(
            100.0 * small.dirty_clear_cycles(10))

    def test_syscall_cost_has_per_byte_term(self):
        costs = KernelCostModel()
        assert costs.syscall_cycles(1 << 20) > 2 * costs.syscall_cycles(0)


class TestNondetSource:
    def make(self, core=None):
        times = iter(range(1, 100))

        class FakeCore:
            def __init__(self, is_big, index):
                self.is_big = is_big
                self.index = index

        box = [FakeCore(*core) if core else None]
        source = NondetSource(lambda: next(times) * 0.001, lambda: box[0])
        return source, box

    def test_tsc_monotonic(self):
        source, _ = self.make()
        values = [source.read_tsc() for _ in range(5)]
        assert values == sorted(values)
        assert len(set(values)) == 5

    def test_midr_differs_by_core_kind(self):
        big, _ = self.make(core=(True, 0))
        little, _ = self.make(core=(False, 5))
        assert big.read_sysreg(SYSREG_MIDR) == MIDR_BIG
        assert little.read_sysreg(SYSREG_MIDR) == MIDR_LITTLE
        assert big.cpuid() == CPUID_BIG
        assert little.cpuid() == CPUID_LITTLE

    def test_mpidr_is_core_index(self):
        source, _ = self.make(core=(False, 6))
        assert source.read_sysreg(SYSREG_MPIDR) == 6

    def test_unknown_sysreg_reads_zero(self):
        source, _ = self.make(core=(True, 0))
        assert source.read_sysreg(77) == 0

    def test_cntfrq_constant(self):
        source, _ = self.make(core=(True, 0))
        assert source.read_sysreg(SYSREG_CNTFRQ) > 0


class TestRngPool:
    def test_streams_reproducible(self):
        a = RngPool(5).stream("x")
        b = RngPool(5).stream("x")
        assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]

    def test_streams_decorrelated(self):
        pool = RngPool(5)
        assert pool.stream("x").random() != pool.stream("y").random()

    def test_same_name_same_stream(self):
        pool = RngPool(0)
        assert pool.stream("x") is pool.stream("x")

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 7, 64, 1000, 4097])
    def test_random_bytes_keep_the_per_byte_stream(self, length):
        """``getrandom``'s one-draw bytes equal one ``getrandbits(8)``
        per byte, and the generator ends in the same state."""
        bulk, per_byte = RngPool(7).stream("g"), RngPool(7).stream("g")
        assert random_bytes(bulk, length) == bytes(
            per_byte.getrandbits(8) for _ in range(length))
        assert bulk.getrandbits(64) == per_byte.getrandbits(64)
        assert random_bytes(bulk, 5) == bytes(
            per_byte.getrandbits(8) for _ in range(5))


class TestAbi:
    def test_syscall_names_cover_table(self):
        from repro.kernel.kernel import Kernel as K
        for sysno in K._SYSCALLS:
            assert sysno in abi.SYSCALL_NAMES

    def test_fatal_signal_set(self):
        assert abi.SIGSEGV in abi.FATAL_SIGNALS
        assert abi.SIGUSR1 not in abi.FATAL_SIGNALS

    def test_mmap_flags_match_mem_module(self):
        from repro import mem
        assert abi.MAP_PRIVATE == mem.MAP_PRIVATE
        assert abi.MAP_SHARED == mem.MAP_SHARED
        assert abi.MAP_ANONYMOUS == mem.MAP_ANONYMOUS
        assert abi.MAP_FIXED == mem.MAP_FIXED
        assert abi.PROT_READ == mem.PROT_READ
        assert abi.PROT_WRITE == mem.PROT_WRITE


class TestKernelEdgeCases:
    def test_unknown_syscall_returns_enosys(self):
        from repro.minic import compile_source
        from repro.sim import Executor, apple_m2
        kernel = Kernel(page_size=16384)
        executor = Executor(kernel, apple_m2())
        # Hand-written assembly issuing syscall 999.
        from repro.isa import assemble
        program = assemble("""
            li r0, 999
            syscall
            mov r7, r0
            li r0, 60
            li r1, 0
            syscall
            halt
        """)
        proc = kernel.spawn(program)
        executor.schedule_default(proc)
        executor.run()
        assert proc.cpu.regs.gprs[7] == -abi.ENOSYS

    def test_bad_fd_operations(self):
        from repro.isa import assemble
        from repro.sim import Executor, apple_m2
        kernel = Kernel(page_size=16384)
        executor = Executor(kernel, apple_m2())
        program = assemble(f"""
            li r0, {abi.SYS_WRITE}
            li r1, 42
            li r2, 0x1000000
            li r3, 4
            syscall
            mov r7, r0
            halt
        """)
        proc = kernel.spawn(program)
        executor.schedule_default(proc)
        executor.run()
        assert proc.cpu.regs.gprs[7] == -abi.EBADF

    def test_kill_invalid_pid(self):
        kernel = Kernel(page_size=16384)
        from repro.minic import compile_source
        from repro.sim import Executor, apple_m2
        executor = Executor(kernel, apple_m2())
        proc = kernel.spawn(compile_source(
            "func main() { print_int(kill(424242, 9)); }"))
        executor.schedule_default(proc)
        executor.run()
        assert kernel.console.text().strip() == str(-abi.EINVAL)

    def test_sigaction_rejects_sigkill(self):
        from repro.minic import compile_source
        from repro.sim import Executor, apple_m2
        kernel = Kernel(page_size=16384)
        executor = Executor(kernel, apple_m2())
        proc = kernel.spawn(compile_source(
            f"func main() {{ print_int(sigaction({abi.SIGKILL}, 4096)); }}"))
        executor.schedule_default(proc)
        executor.run()
        assert kernel.console.text().strip() == str(-abi.EINVAL)
