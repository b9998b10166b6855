"""Pinned digests of simulation results.

Trace replay is the only timed front end; the live functional front end
it replaced produced these exact results.  Tests that once compared the
two front ends now compare replay against a sha256 of what the live path
produced, so a timing change still shows up as a digest mismatch.
"""

import dataclasses
import hashlib
import json


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def stats_digest(stats) -> str:
    """sha256 of a :class:`~repro.core.stats.SimStats`' fields."""
    return _digest(dataclasses.asdict(stats))


def result_digest(result) -> str:
    """sha256 of a result's stats plus its side-structure counters."""
    return _digest({
        "stats": dataclasses.asdict(result.stats),
        "tracker_stats": dataclasses.asdict(result.tracker_stats),
        "predictor_accuracy": result.predictor_accuracy,
        "btb_hit_rate": result.btb_hit_rate,
        "iq_priority_dispatches": result.iq_priority_dispatches,
        "lsq_forwards": result.lsq_forwards,
        "select_avg_grants": result.select_avg_grants,
    })
