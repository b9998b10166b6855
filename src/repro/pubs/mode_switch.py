"""LLC-MPKI-driven mode switching (Sec. III-B3).

Reserving priority entries wastes IQ capacity in memory-bound phases, where
memory-level parallelism (issuing as many loads as possible) matters more
than branch-misprediction penalty.  The mode switch observes LLC misses per
kilo-instruction over a fixed committed-instruction window and disables PUBS
while the observed MPKI is at or above a threshold.  While disabled, the IQ
has no reserved entries: dispatch takes the oldest hole of the priority and
normal free lists merged in release order
(:meth:`repro.iq.queue.IssueQueue.dispatch_uniform`; the paper's hardware
picks between the two lists at random, weighted by their entry ratio --
DESIGN.md §6), so the full capacity is usable with "no penalty for mode
switching".  The pipeline feeds the switch only in cycles that commit:
its decisions depend on commit progress alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ModeSwitchStats:
    windows: int = 0
    disabled_windows: int = 0

    @property
    def disabled_fraction(self) -> float:
        return self.disabled_windows / self.windows if self.windows else 0.0


class ModeSwitch:
    """Periodic LLC-MPKI observer gating the PUBS priority partition."""

    def __init__(self, threshold_mpki: float = 1.0, interval: int = 8192,
                 enabled: bool = True):
        if interval < 1:
            raise ValueError("observation interval must be positive")
        if threshold_mpki < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold_mpki = threshold_mpki
        self.interval = interval
        self.enabled = enabled
        #: Whether PUBS is currently active (True at reset: optimistic start).
        self.pubs_active = True
        self.stats = ModeSwitchStats()
        self._window_start_committed = 0
        self._window_start_misses = 0
        self.last_window_mpki = 0.0

    def observe(self, committed: int, llc_misses: int) -> bool:
        """Feed progress counters; returns the (possibly updated) PUBS state.

        Call as often as convenient (e.g. every commit group); a decision is
        only taken when a full observation window has elapsed.
        """
        if not self.enabled:
            return self.pubs_active
        elapsed = committed - self._window_start_committed
        if elapsed < self.interval:
            return self.pubs_active
        window_misses = llc_misses - self._window_start_misses
        self.last_window_mpki = 1000.0 * window_misses / elapsed
        self.pubs_active = self.last_window_mpki < self.threshold_mpki
        self.stats.windows += 1
        if not self.pubs_active:
            self.stats.disabled_windows += 1
        self._window_start_committed = committed
        self._window_start_misses = llc_misses
        return self.pubs_active
