"""The :class:`DetectionMode` contract and mode registry.

A detection mode is the *policy* half of the runtime: how many checker
replicas a segment forks, when they are submitted to the checker
scheduler, whether the run is sliced into segments at all, what happens
at a segment boundary (pairwise compare, majority vote, or nothing) and
how a divergence is resolved (fail-stop, retry/rollback, or forward
recovery).  The mechanism half — forking, replay, dirty tracking,
scheduling, swapping in a new main — stays in :mod:`repro.core.runtime`
and is shared by every mode.

A mode also owns its configuration: ``preset`` lists the
:class:`~repro.core.config.ParallaftConfig` fields it sets over the
defaults (``make_config`` builds from it), and ``validate_config``
rejects field combinations the mode cannot run.

Modes register themselves by name; :func:`get_mode` is the single
resolution point used by ``ParallaftConfig.detection_mode()``, the
harness CLI and the campaign drivers, so an unknown mode string raises a
typed :class:`~repro.common.errors.ConfigError` listing the registered
names instead of silently falling through to a default.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Type

from repro.common.errors import ConfigError, RuntimeConfigError

if TYPE_CHECKING:
    from repro.core.config import ParallaftConfig
    from repro.core.runtime import Parallaft
    from repro.core.segment import Replica, Segment

_REGISTRY: Dict[str, "DetectionMode"] = {}


class DetectionMode:
    """Segment-lifecycle policy for one detection strategy.

    Subclasses override the class attributes (cheap structural choices
    the runtime reads in hot paths) and the hook methods (boundary and
    error policy).  Mode objects are stateless singletons — per-run
    state lives on the runtime and its :class:`RunStats`.
    """

    #: Registry key; the value of ``ParallaftConfig.mode``.
    name: str = ""
    #: One-line summary for ``--help`` and the docs table.
    summary: str = ""
    #: Checker replicas forked per segment (the main is not a replica).
    replica_count: int = 1
    #: Submit the segment to the checker scheduler at segment *start*
    #: (concurrent log-consuming replay, RAFT) instead of at release.
    concurrent_checking: bool = False
    #: Whether ``on_quantum`` slices the run into periodic segments.
    slices: bool = True
    #: ``ParallaftConfig`` fields this mode sets over the defaults.
    preset: Dict[str, object] = {}

    # ------------------------------------------------------------ config

    @classmethod
    def make_config(cls, **overrides) -> "ParallaftConfig":
        """A fresh :class:`ParallaftConfig`: the defaults, then this
        mode's ``preset``, then ``overrides``.  An override that is not a
        config field (or tries to change ``mode``) raises
        :class:`ConfigError`."""
        from repro.core.config import ParallaftConfig
        fields = {f.name for f in dataclasses.fields(ParallaftConfig)}
        bad = sorted(k for k in overrides if k not in fields or k == "mode")
        if bad:
            raise ConfigError(
                f"unknown config field(s) for mode {cls.name!r}: "
                f"{', '.join(bad)}")
        return ParallaftConfig(mode=cls.name, **{**cls.preset, **overrides})

    def validate_config(self, config: "ParallaftConfig") -> None:
        """Reject config combinations this mode cannot run; called by
        ``ParallaftConfig.validate``.  Rollback recovery needs the
        per-segment checkpoints that only a slicing mode takes.  A slicing
        main opens its next segment before the last one retires, so a
        live-segment cap of 1 would park it at its first boundary forever."""
        if config.enable_recovery and not self.slices:
            raise RuntimeConfigError(
                f"recovery requires segment checkpoints; the {self.name} "
                f"mode has none")
        if self.slices and config.max_live_segments < 2:
            raise RuntimeConfigError(
                f"the {self.name} mode slices the run into segments; "
                f"max_live_segments must be >= 2")

    # ------------------------------------------------- lifecycle hooks

    def on_segment_start(self, rt: "Parallaft", segment: "Segment") -> None:
        """Called after a segment's replicas are forked (paused)."""
        if self.concurrent_checking:
            rt.sched.submit(segment)

    def on_segment_release(self, rt: "Parallaft",
                           segment: "Segment") -> None:
        """Called when the segment's end point is known and its replicas
        are ready to replay."""
        if not self.concurrent_checking:
            rt.sched.submit(segment)

    def boundary_check(self, rt: "Parallaft", segment: "Segment") -> None:
        """All replicas reached the segment end point: decide the
        segment's fate (CHECKED, error, vote, ...).  The default policy
        is the paper's pairwise checker-vs-checkpoint compare (which
        degenerates to "always pass" when ``compare_state`` is off, the
        RAFT configuration)."""
        rt._pairwise_boundary_check(segment)

    def absorb_replica_error(self, rt: "Parallaft", segment: "Segment",
                             replica: "Replica", kind: str,
                             detail: str) -> bool:
        """A single replica failed mid-replay (divergence, exception,
        timeout).  Return True if the mode absorbed the failure (e.g. by
        outvoting the replica) so the runtime must not report an error.
        The default policy absorbs nothing."""
        return False


# ---------------------------------------------------------------- registry

def register_mode(cls: Type[DetectionMode]) -> Type[DetectionMode]:
    """Class decorator: instantiate and register a mode singleton."""
    if not cls.name:
        raise ConfigError(f"{cls.__name__} has no mode name")
    _REGISTRY[cls.name] = cls()
    return cls


def registered_modes() -> List[str]:
    """Registered mode names, sorted for stable error messages."""
    return sorted(_REGISTRY)


def get_mode(name: str) -> DetectionMode:
    """Resolve a mode by name; unknown names raise a typed error that
    lists every registered mode."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown detection mode {name!r}; registered modes: "
            f"{', '.join(registered_modes())}") from None
