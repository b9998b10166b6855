"""Window signatures and representative selection (the SimPoint half).

Systematic placement alone cannot hit the 3% accuracy gate on
phase-structured workloads: per-window CPI varies by 10-30% around the
span mean, so a handful of evenly spaced windows is at the mercy of
which phases the stride happens to land on.  SimPoint (Sherwood et al.,
ASPLOS 2002) fixes this by *clustering* the windows on a cheap
execution signature and simulating one representative per cluster,
weighting each representative by its cluster's population.

The signature here is a per-window sparse feature vector computed from
the recorded trace arrays alone -- no simulation:

* ``pc`` buckets (``pc >> 6``): the classic basic-block-vector stand-in,
  what code the window runs;
* ``mem`` buckets of effective addresses (``addr >> 10``): what data it
  touches, which separates cache-friendly from cache-hostile phases the
  code signature cannot see;
* per-branch-site outcomes (``(pc, taken)``) and the window's overall
  taken rate: data-dependent control behavior, which separates
  predictable from unpredictable phases of the *same* code.

Counts are normalized by the window length, so the L1 distance between
two signatures is a fraction-of-execution overlap measure.  Clustering
is k-medoids with deterministic farthest-point seeding: no randomness,
so a (trace, parameters) pair always yields the same plan -- and
therefore the same exec job keys, which is what makes sampled regions
cacheable.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import rshift
from typing import Dict, List, Sequence, Tuple

from ..trace.format import FLAG_COND_BRANCH_TABLE, FLAG_TAKEN_TABLE

#: Instruction-bucket granularity (64 B of code per feature).
PC_SHIFT = 6
#: Data-bucket granularity (1 KiB of address space per feature).
ADDR_SHIFT = 10

Signature = Dict[tuple, float]


def window_signature(trace, start: int, length: int) -> Signature:
    """The signature of ``trace`` records ``[start, start + length)``.

    Features come in groups -- ``pc``, then ``mem``, then ``br`` -- each
    in ascending key order, then the taken rate; the order is part of
    the result, since :func:`signature_distance` sums in it.
    """
    end = start + length
    pcs = trace.pcs[start:end]
    flags = trace.flags[start:end]
    # The window's memory records hold the addresses ranked between
    # its two ends.
    addrs = trace.mem_addrs[trace.mem_rank(start):trace.mem_rank(end)]
    is_branch = flags.translate(FLAG_COND_BRANCH_TABLE)
    groups = (
        ("pc", Counter(map(rshift, pcs, repeat(PC_SHIFT)))),
        ("mem", Counter(map(rshift, addrs, repeat(ADDR_SHIFT)))),
    )
    sig: Signature = {}
    for group, counts in groups:
        for bucket, count in sorted(counts.items()):
            sig[(group, bucket)] = count / length
    outcomes = list(map(FLAG_TAKEN_TABLE.__getitem__,
                        compress(flags, is_branch)))
    if outcomes:
        sites = Counter(zip(compress(pcs, is_branch), outcomes))
        for (pc, outcome), count in sorted(sites.items()):
            sig[("br", pc, outcome)] = count / length
        sig[("taken-rate",)] = sum(outcomes) / len(outcomes)
    return sig


def signature_distance(a: Signature, b: Signature) -> float:
    """L1 distance; 0 for identical behavior, up to ~2+ for disjoint."""
    total = 0.0
    for key, value in a.items():
        total += abs(value - b.get(key, 0.0))
    for key, value in b.items():
        if key not in a:
            total += value
    return total


def cluster_windows(signatures: Sequence[Signature], k: int,
                    max_iterations: int = 32,
                    ) -> Tuple[List[int], List[int]]:
    """K-medoids over window signatures, fully deterministic.

    Returns ``(medoids, weights)``: the indices of the representative
    windows and how many windows each one stands for.  Seeding is
    farthest-point from window 0, refinement is classic alternating
    assignment / medoid update; ties break toward the lower index, so
    the same input always produces the same clustering.
    """
    n = len(signatures)
    if n == 0:
        raise ValueError("cannot cluster zero windows")
    k = min(k, n)
    # Farthest-point seeding: start at the first window, repeatedly add
    # the window farthest from every current medoid.
    medoids = [0]
    nearest = [signature_distance(signatures[i], signatures[0])
               for i in range(n)]
    while len(medoids) < k:
        far = max(range(n), key=lambda i: nearest[i])
        medoids.append(far)
        for i in range(n):
            d = signature_distance(signatures[i], signatures[far])
            if d < nearest[i]:
                nearest[i] = d
    for _ in range(max_iterations):
        assignment = assign_windows(signatures, medoids)
        updated = []
        for j in range(len(medoids)):
            members = [i for i, a in enumerate(assignment) if a == j]
            if not members:
                updated.append(medoids[j])
                continue
            updated.append(min(
                members,
                key=lambda i: (sum(signature_distance(signatures[i],
                                                      signatures[x])
                                   for x in members), i)))
        if updated == medoids:
            break
        medoids = updated
    assignment = assign_windows(signatures, medoids)
    weights = [0] * len(medoids)
    for a in assignment:
        weights[a] += 1
    return medoids, weights


def assign_windows(signatures: Sequence[Signature],
                   medoids: Sequence[int]) -> List[int]:
    """Index of each window's nearest medoid (ties toward the lower slot)."""
    return [min(range(len(medoids)),
                key=lambda j: (signature_distance(s, signatures[medoids[j]]),
                               j))
            for s in signatures]


__all__ = [
    "ADDR_SHIFT",
    "PC_SHIFT",
    "Signature",
    "assign_windows",
    "cluster_windows",
    "signature_distance",
    "window_signature",
]
