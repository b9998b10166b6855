"""Budget control for sampled tables: the one way sampling stops.

Every sampled estimate is a table: each workload is an
:class:`~repro.sampling.adaptive.AdaptiveSession` escalating all its
configs in lockstep (so windows stay shared and the paired estimator
stays applicable), and :class:`TableController` decides where the next
escalation batch goes.  A single cell is a table of one session with one
config; fixed sampling is a session that cannot escalate.

A table's deliverable is a column of *speedups*: on shared windows the
paired estimator (:mod:`repro.sampling.paired`) usually meets the target
with far fewer regions than either side's CPI needs, and the workloads
that remain loose differ wildly (Constantinou et al.'s cross-workload
variance).  So the controller scores every workload by its worst
CI-to-target ratio -- the paired speedup CI of each variant against the
first config, or the CPI CI of a one-config session -- re-scores a
workload whenever it escalates, and hands the next batch to the single
worst open one.  The loop stops when every workload meets the target or
nothing can escalate (region caps, nothing left to split).

Determinism and cache identity are preserved: the controller never
alters *what* a session simulates, only *how far* each one walks its own
deterministic split sequence, so every region job hits the same
content-addressed cache entries on a re-run.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .adaptive import AdaptiveRun, AdaptiveSession
from .paired import paired_speedup


class TableController:
    """Rank open workloads by worst CI-to-target ratio; escalate there.

    Sessions join via :meth:`add` (construct the
    :class:`AdaptiveSession` yourself -- its constructor acquires the
    trace, so per-workload capture failures surface at add time where
    the caller can fall back that one workload without losing the
    table).  :meth:`run` drives the whole table to the target; then
    :meth:`results` returns each workload's per-config runs with
    convergence judged on the *table's* criterion.
    """

    def __init__(self, ci_target: float) -> None:
        if ci_target <= 0:
            raise ValueError("ci_target must be positive")
        self.ci_target = ci_target
        self._names: List[str] = []
        self._sessions: Dict[str, AdaptiveSession] = {}
        #: Each workload's CI-to-target ratio as :meth:`run` left it.
        self._scores: Dict[str, float] = {}

    def add(self, name: str, session: AdaptiveSession) -> None:
        if name in self._sessions:
            raise ValueError(f"duplicate workload: {name!r}")
        self._names.append(name)
        self._sessions[name] = session

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _criterion(self, session: AdaptiveSession) -> float:
        """The workload's worst relative CI under the table's criterion.

        With at least two configs: the paired speedup CI of every
        variant against the first config (the deliverable of a
        comparison table).  With one: that cell's CPI CI.  An undefined
        CI (too few shared windows, degenerate estimate) is +inf -- an
        open claim the controller must keep spending on.
        """
        runs = session.runs()
        if len(runs) >= 2:
            rels = []
            for variant in runs[1:]:
                estimate = paired_speedup(runs[0], variant)
                rels.append(math.inf if estimate is None
                            else estimate.relative_error)
        else:
            rels = [run.cpi.relative_error for run in runs]
        worst = max(rels)
        return math.inf if math.isnan(worst) else worst

    def _ratio(self, session: AdaptiveSession) -> float:
        return self._criterion(session) / self.ci_target

    # ------------------------------------------------------------------
    # The spend loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Escalate the worst open workload until the table converges.

        Each round: among the workloads still above target that can
        still grow, hand the next lockstep batch to the single worst
        one.  ``max`` keeps the first maximum, and the candidate list
        follows insertion order, so the spend sequence is deterministic.
        A workload's score depends on its own runs alone, so each is
        scored once after the first measurement and then only when it
        escalates.
        """
        sessions = self._sessions
        for name in self._names:
            sessions[name].measure_all()
        self._scores = scores = {name: self._ratio(sessions[name])
                                 for name in self._names}
        while True:
            candidates = [name for name in self._names
                          if scores[name] > 1.0
                          and sessions[name].can_escalate]
            if not candidates:
                return
            worst = max(candidates, key=scores.__getitem__)
            session = sessions[worst]
            session.escalate_all()
            session.measure_all()
            scores[worst] = self._ratio(session)

    # ------------------------------------------------------------------
    # Results and spend accounting
    # ------------------------------------------------------------------

    def results(self) -> "Dict[str, List[AdaptiveRun]]":
        """Per-workload runs, convergence judged on the table criterion.

        Every config of one workload shares a flag: the table either
        met its criterion for that workload (the paired speedup CIs, or
        a lone cell's CPI CI) or it did not -- per-cell CPI convergence
        would claim precision the controller deliberately did not buy.
        The flags reuse the scores :meth:`run` ended on.
        """
        return {name: self._sessions[name].runs(
                    converged=self._scores[name] <= 1.0)
                for name in self._names}

    @property
    def simulated_records(self) -> int:
        """Timed records planned across the whole table."""
        return sum(session.simulated_records
                   for session in self._sessions.values())

    @property
    def regions(self) -> int:
        """Scheduled regions across the whole table."""
        return sum(session.regions for session in self._sessions.values())


__all__ = ["TableController"]
