"""Parallaft reproduction: runtime-based CPU fault tolerance via
heterogeneous parallelism (Zhang, Ainsworth, Mukhanov, Jones - CGO 2025).

Public API quick reference
--------------------------

Protect a program::

    from repro import Parallaft, ParallaftConfig, compile_source, apple_m2

    program = compile_source(open("app.mc").read())
    stats = Parallaft(program, platform=apple_m2()).run()
    print(stats.to_dict())

Run the paper's experiments::

    from repro.harness import figures
    comparison = figures.run_suite_comparison()
    print(comparison.perf_geomean("parallaft"))

Layers (bottom-up): :mod:`repro.isa` / :mod:`repro.minic` (programs),
:mod:`repro.mem` / :mod:`repro.cpu` / :mod:`repro.kernel` (machine),
:mod:`repro.sim` (heterogeneous timing/energy), :mod:`repro.core`
(the shared runtime mechanism), :mod:`repro.modes` (detection
policies: ``parallaft``, the ``raft`` baseline and ``tmr``, each with
its config preset), :mod:`repro.faults` (injection),
:mod:`repro.workloads` / :mod:`repro.harness` (evaluation).
"""

from repro.core import (
    ComparisonStrategy,
    DetectedError,
    DirtyPageBackend,
    ExecPointCounter,
    Parallaft,
    ParallaftConfig,
    RunStats,
    protect,
)
from repro.faults import CampaignResult, FaultInjector, Outcome
from repro.isa import Program, assemble
from repro.minic import compile_source
from repro.sim import PlatformConfig, apple_m2, intel_14700, platform_by_name

__version__ = "1.0.0"

__all__ = [
    "Parallaft",
    "ParallaftConfig",
    "DirtyPageBackend",
    "ExecPointCounter",
    "ComparisonStrategy",
    "RunStats",
    "DetectedError",
    "protect",
    "FaultInjector",
    "CampaignResult",
    "Outcome",
    "Program",
    "assemble",
    "compile_source",
    "PlatformConfig",
    "apple_m2",
    "intel_14700",
    "platform_by_name",
    "__version__",
]
