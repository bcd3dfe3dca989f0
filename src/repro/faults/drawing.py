"""The draw-and-retry loop of one planned injection.

Every injection campaign plans a fixed number of injections and, for each
one, repeatedly draws a fresh site until an injection actually *lands*
(the target may finish before the strike point, have no dirty page yet,
etc.).  The paper discards these misses; we cap the re-draws and count
the exhausted ones on ``CampaignResult.missed`` so a campaign always sums
to what it planned.  Its one caller is the shared engine hookup,
:meth:`repro.faults.injector.InjectionTarget.run_on_engine`, which both
the application and the infrastructure campaigns run through.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.faults.outcomes import InjectionResult

SiteT = TypeVar("SiteT")

__all__ = ["draw_until_fired"]


def draw_until_fired(draw: Callable[[], SiteT],
                     inject: Callable[[SiteT], Optional[InjectionResult]],
                     max_attempts: int) -> Optional[InjectionResult]:
    """One planned injection: draw a site, attempt it, re-draw on a miss.

    Returns the first landed :class:`InjectionResult`, or ``None`` after
    ``max_attempts`` consecutive misses — the caller records the miss.
    Every attempt consumes fresh draws from the caller's RNG, so a miss
    advances the stream exactly as a landed injection would.
    """
    for _attempt in range(max_attempts):
        result = inject(draw())
        if result is not None:
            return result
    return None
