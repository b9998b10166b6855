"""Correctness tooling: differential oracle + machine invariants.

The PUBS mechanisms this repository reproduces (resetting confidence
counters, transitive slice linking through ``def_tab``/``brslice_tab``, the
split priority/normal IQ free lists) are stateful, pointer-chasing machinery
where silent corruption produces plausible-but-wrong IPC numbers rather
than crashes.  This package provides machine-checked evidence that a
simulation was sound:

* :class:`CommitOracle` co-executes every workload with an independent
  in-order architectural executor and cross-checks the pipeline's committed
  stream, memory effects and final register/memory state;
* :class:`InvariantRegistry` / :func:`default_registry` hold pluggable
  structural invariants swept at a configurable cycle interval;
* :class:`PipelineVerifier` attaches both to a running pipeline, controlled
  by the ``verify_level`` knob on
  :class:`~repro.core.config.ProcessorConfig` (``off`` / ``commit-only`` /
  ``full``) and surfaced by the ``repro verify`` CLI subcommand.

Violations raise :class:`InvariantViolation` (or its :class:`OracleMismatch`
specialization) carrying the cycle, the involved uop and a bounded state
snapshot.
"""

from .checker import VERIFY_LEVELS, PipelineVerifier, VerifierReport
from .invariants import (
    InvariantRegistry,
    check_brslice_tab,
    check_conf_tab,
    check_def_tab,
    default_registry,
)
from .oracle import CommitOracle
from .violations import InvariantViolation, OracleMismatch

__all__ = [
    "VERIFY_LEVELS",
    "PipelineVerifier",
    "VerifierReport",
    "InvariantRegistry",
    "default_registry",
    "check_brslice_tab",
    "check_conf_tab",
    "check_def_tab",
    "CommitOracle",
    "InvariantViolation",
    "OracleMismatch",
]
