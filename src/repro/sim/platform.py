"""Platform configurations: the machines the paper evaluates on.

``apple_m2`` models the paper's primary platform (Table 3): 4 Avalanche big
cores + 4 Blizzard little cores, 16 KB pages, separate voltage domains for
the little cluster (so DVFS there scales power ~f^3), and a deterministic
branch counter.  ``intel_14700`` models §5.8: 4 KB pages (4x the
checkpointing work for the same footprint), little (E-)cores sharing the big
cores' voltage domain (so frequency scaling saves little energy), a raw
branch counter that includes far branches (Parallaft must exclude them), and
instruction-based slicing (footnote 14).

The CPI/contention/power constants are calibration inputs: they are chosen
so the *baseline* machine behaves plausibly (per-workload little-core
slowdowns of ~2-4x, big-core power several watts, little a fraction); every
evaluation number is then produced by running the actual runtime mechanisms
on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.common.units import DEFAULT_CYCLE_SCALE, GHZ


@dataclass
class PlatformConfig:
    name: str
    arch: str                      # 'aarch64' or 'x86_64'
    n_big: int
    n_little: int
    big_freq_hz: float
    little_freq_max_hz: float
    little_freq_min_hz: float
    page_size: int
    #: Hardware cycles represented by one simulated cycle.
    cycle_scale: int = DEFAULT_CYCLE_SCALE

    # CPI model: cpi = base + mem_penalty * mem_ratio * miss_factor, where
    # mem_ratio = mem_ops / instructions and miss_factor grows as the
    # working set exceeds the cluster's *effective* cache capacity.  The
    # effective capacity shrinks when other processes run in the same
    # cluster (shared L2, paper §5.2): that is where RAFT's main-vs-checker
    # contention and Parallaft's migration-pollutes-big-cache effect come
    # from.
    big_cpi_base: float = 0.85
    big_mem_penalty: float = 1.2
    little_cpi_base: float = 1.0
    little_mem_penalty: float = 11.0
    #: Model cache capacities (bytes), scaled to the workload footprints.
    big_cache_bytes: int = 256 << 10
    little_cache_bytes: int = 128 << 10
    #: How strongly a cluster co-runner shrinks the effective capacity:
    #: cache_eff = cache / (1 + share_factor * (n_active - 1)).
    big_cache_share_factor: float = 1.0
    little_cache_share_factor: float = 0.1

    #: DRAM bandwidth contention: CPI multiplier
    #: 1 + dram_coeff * own_dram_intensity * (sum of co-runners' intensity,
    #: weighted by their clock relative to the big cores).
    dram_coeff: float = 0.9
    #: Flat per-co-runner slowdown floor (interconnect arbitration, snoop
    #: traffic): CPI *= 1 + corunner_floor * (n_active - 1).  This is what
    #: keeps cache-resident workloads from seeing literally zero overhead
    #: when sharing a cluster.
    corunner_floor: float = 0.035

    # Power model (watts).
    big_static_w: float = 0.25
    big_dyn_max_w: float = 4.6
    little_static_w: float = 0.03
    little_dyn_max_w: float = 0.7
    dram_background_w: float = 0.9
    #: Energy per memory operation (joules) - models DRAM activity.
    mem_op_energy_j: float = 1.1e-10
    #: True when the little cluster has its own voltage rail: DVFS scales
    #: dynamic power ~ f^3.  False (Intel hybrid): voltage pinned by the big
    #: cluster, so power only scales ~ f.
    separate_voltage_domain: bool = True

    # Performance-counter imperfections.
    instr_overcount_max: int = 3
    skid_max: int = 6
    skid_probability: float = 0.5
    #: Raw branch counter includes far branches (Intel; paper §4.2.1).
    branch_counter_includes_far: bool = False

    #: Default slicing unit: 'cycles' (Apple) or 'instructions' (Intel,
    #: because cycle-slicing can break partially-executed rep-prefixed
    #: instructions - paper footnote 14).
    slicing_unit: str = "cycles"

    def hw_to_virtual(self, hw_count: float) -> int:
        return max(1, round(hw_count / self.cycle_scale))

    def core_dyn_power_w(self, cluster: str, freq_hz: float) -> float:
        """Dynamic power at a DVFS point."""
        if cluster == "big":
            ratio = freq_hz / self.big_freq_hz
            exponent = 3.0
            peak = self.big_dyn_max_w
        else:
            ratio = freq_hz / self.little_freq_max_hz
            exponent = 3.0 if self.separate_voltage_domain else 1.0
            peak = self.little_dyn_max_w
        return peak * (ratio ** exponent)

    def core_static_power_w(self, cluster: str) -> float:
        return self.big_static_w if cluster == "big" else self.little_static_w

    def miss_factor(self, cluster: str, footprint_bytes: float,
                    n_active: int = 1) -> float:
        """Fraction of memory operations that miss the cluster's caches:
        0 while the working set fits the capacity its ``n_active``
        processes share, saturating at 1 once it is twice that."""
        if cluster == "big":
            cache = self.big_cache_bytes
            share = self.big_cache_share_factor
        else:
            cache = self.little_cache_bytes
            share = self.little_cache_share_factor
        cache = cache / (1.0 + share * max(0, n_active - 1))
        if footprint_bytes <= cache:
            return 0.0
        return min(1.0, (footprint_bytes - cache) / cache)

    def cpi(self, cluster: str, mem_ratio: float,
            footprint_bytes: float = 0.0, n_active: int = 1) -> float:
        return self.miss_cpi(
            cluster,
            mem_ratio * self.miss_factor(cluster, footprint_bytes, n_active),
            n_active)

    def miss_cpi(self, cluster: str, miss_ratio: float,
                 n_active: int = 1) -> float:
        """:meth:`cpi` from the memory operations per instruction that
        miss (``mem_ratio * miss_factor``), which the executor already
        holds as the process's DRAM intensity."""
        if cluster == "big":
            base = self.big_cpi_base + self.big_mem_penalty * miss_ratio
        else:
            base = (self.little_cpi_base
                    + self.little_mem_penalty * miss_ratio)
        return base * (1.0 + self.corunner_floor * max(0, n_active - 1))

    def little_slowdown(self, mem_ratio: float,
                        footprint_bytes: float = 0.0) -> float:
        """Uncontended little/big time ratio for a given memory intensity."""
        big_time = self.cpi("big", mem_ratio,
                            footprint_bytes) / self.big_freq_hz
        little_time = self.cpi("little", mem_ratio,
                               footprint_bytes) / self.little_freq_max_hz
        return little_time / big_time


def apple_m2() -> PlatformConfig:
    """The paper's primary platform (Table 3): Apple M2 Mac Mini."""
    return PlatformConfig(
        name="apple_m2",
        arch="aarch64",
        n_big=4,
        n_little=4,
        big_freq_hz=3.5 * GHZ,
        little_freq_max_hz=2.42 * GHZ,
        little_freq_min_hz=0.6 * GHZ,
        page_size=16384,
        separate_voltage_domain=True,
        branch_counter_includes_far=False,
        slicing_unit="cycles",
    )


def intel_14700() -> PlatformConfig:
    """The §5.8 platform: Intel Core i7-14700 hybrid (P+E cores)."""
    return PlatformConfig(
        name="intel_14700",
        arch="x86_64",
        n_big=4,               # P-cores used in the experiments
        n_little=4,            # E-cores used for checkers
        big_freq_hz=5.3 * GHZ,
        little_freq_max_hz=4.2 * GHZ,
        little_freq_min_hz=1.2 * GHZ,
        page_size=4096,
        # E-cores are larger relative to P-cores than Blizzard is to
        # Avalanche, but share the voltage rail.
        little_cpi_base=1.05,
        little_mem_penalty=4.5,
        big_cache_bytes=192 << 10,
        little_cache_bytes=112 << 10,
        # More severe cache contention from the many competing threads
        # (paper §5.8): co-runners hurt harder on the ring/L3.
        big_cache_share_factor=0.55,
        little_cache_share_factor=0.4,
        dram_coeff=2.2,
        big_static_w=0.35,
        big_dyn_max_w=9.5,
        little_static_w=0.12,
        little_dyn_max_w=3.4,
        dram_background_w=13.0,  # desktop package uncore + DRAM
        separate_voltage_domain=False,
        instr_overcount_max=3,
        skid_max=8,
        skid_probability=0.6,
        branch_counter_includes_far=True,
        slicing_unit="instructions",
    )


def platform_by_name(name: str) -> PlatformConfig:
    if name == "apple_m2":
        return apple_m2()
    if name == "intel_14700":
        return intel_14700()
    raise ValueError(f"unknown platform {name!r}")
