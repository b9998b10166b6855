"""Processor configuration (the paper's Tables I, II and IV).

:meth:`ProcessorConfig.cortex_a72_like` is the paper's base machine: 4-wide
pipeline, 64-entry IQ, 128-entry ROB, 64-entry LSQ, 128+128 physical
registers, 2 iALU / 1 iMULT-DIV / 2 Ld-St / 2 FPU, perceptron predictor
(34-bit history, 256-entry weight table), 2K-set 4-way BTB, 10-cycle state
recovery penalty, and the Table I memory hierarchy.

:func:`size_models` provides the four scaled processors of Table IV /
Fig. 16.  The paper scales seven parameters (window structures and issue
resources); window capacity grows faster than issue bandwidth, which is why
issue conflicts -- and the value of criticality-aware selection -- grow with
processor size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..iq.select import FuPool
from ..memory.hierarchy import MemoryConfig
from ..pubs.config import PubsConfig


@dataclass(frozen=True)
class ReplayRegion:
    """One sampled (warmup, measure) window of a replayed trace.

    ``start`` is the dynamic sequence number where *measurement* begins.
    Two warmup phases precede it, SMARTS-style: ``warmup`` records train
    the microarchitectural state functionally (caches, predictor, BTB,
    slice tracker -- fast, no timing), then ``detail`` records run
    through the full timing model with the statistics discarded, so the
    measured window starts from a filled pipeline/ROB/IQ instead of a
    cold one (the dominant short-window bias).  The measured length is
    the run's ``max_instructions`` budget, so a region is fully
    described by (start, warmup, detail) -- and, riding inside
    :class:`ProcessorConfig`, it is hashed into the exec job key, which
    makes every region an independently cached simulation job
    (SimPoint/SMARTS-style sampling; see DESIGN.md §10).
    """

    start: int
    warmup: int
    detail: int = 0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("region start must be non-negative")
        if self.warmup < 0 or self.detail < 0:
            raise ValueError("region warmup/detail must be non-negative")
        if self.warmup + self.detail > self.start:
            raise ValueError(
                f"region warmup {self.warmup} + detail {self.detail} must "
                f"fit between record 0 and the region start {self.start}")


@dataclass(frozen=True)
class PredictorConfig:
    """Direction predictor + BTB configuration."""

    kind: str = "perceptron"  #: perceptron | gshare | bimode | tournament
    history_length: int = 34
    table_size: int = 256
    btb_sets: int = 2048
    btb_assoc: int = 4

    def enlarged(self) -> "PredictorConfig":
        """Fig. 13's enlarged perceptron: 36-bit history, 512-entry table."""
        return replace(self, history_length=36, table_size=512)


@dataclass(frozen=True)
class ProcessorConfig:
    """Complete machine configuration."""

    name: str = "medium"
    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    #: Cycles from fetch to earliest possible dispatch (front-end depth).
    frontend_depth: int = 5
    rob_size: int = 128
    iq_size: int = 64
    lsq_size: int = 64
    int_phys_regs: int = 128
    fp_phys_regs: int = 128
    #: State recovery penalty on a branch misprediction (Table I).
    recovery_penalty: int = 10
    fu_pool: FuPool = field(default_factory=FuPool)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: Add the age matrix to the IQ (the AGE / PUBS+AGE models of Sec. V-G).
    use_age_matrix: bool = False
    #: IQ organization (Sec. III-B1 taxonomy): "random" (modern baseline,
    #: the only one PUBS and the age matrix apply to), "shifting"
    #: (age-compacting, Alpha 21264 style) or "circular".
    iq_organization: str = "random"
    #: Distribute the IQ among function-unit classes (Sec. III-C2, AMD Zen
    #: style).  Composes with PUBS (each per-class queue gets its own
    #: priority partition) but not with the age matrix or the non-random
    #: organizations.
    distributed_iq: bool = False
    #: Wrong-path load handling: "idle" charges L1-hit latency without
    #: touching the cache (the standard trace-driven simplification);
    #: "pollute" synthesizes near-recent-data addresses and really accesses
    #: the hierarchy, modelling wrong-path cache pollution/prefetch effects.
    wrong_path_memory: str = "idle"
    #: Replay a single sampled (warmup, measure) window instead of the
    #: trace prefix: timing starts at ``replay_region.start`` after
    #: fast-forwarding warm state over the warmup residue.  None replays
    #: from the beginning as usual.
    replay_region: Optional[ReplayRegion] = None
    pubs: PubsConfig = field(default_factory=PubsConfig.disabled)
    seed: int = 1
    #: Runtime verification (:mod:`repro.verify`): "off" (no checking, the
    #: default), "commit-only" (differential oracle on every commit plus the
    #: end-of-run architectural state diff) or "full" (oracle + machine
    #: invariant sweeps every ``verify_interval`` cycles).  Part of the
    #: configuration hash, so verified and unverified runs never share a
    #: cached result.
    verify_level: str = "off"
    #: Cycle interval between invariant sweeps at ``verify_level="full"``.
    verify_interval: int = 256

    def __post_init__(self) -> None:
        for n in ("fetch_width", "decode_width", "issue_width", "commit_width",
                  "frontend_depth", "rob_size", "iq_size", "lsq_size",
                  "int_phys_regs", "fp_phys_regs"):
            if getattr(self, n) < 1:
                raise ValueError(f"{n} must be positive")
        if self.recovery_penalty < 0:
            raise ValueError("recovery_penalty must be non-negative")
        if self.pubs.enabled and self.pubs.priority_entries >= self.iq_size:
            raise ValueError("priority entries must leave normal IQ entries")
        if self.iq_organization not in ("random", "shifting", "circular"):
            raise ValueError(f"unknown IQ organization: {self.iq_organization}")
        if self.iq_organization != "random" and self.pubs.enabled:
            raise ValueError("PUBS applies to the random queue only (Sec. III-B)")
        if self.iq_organization != "random" and self.use_age_matrix:
            raise ValueError("the age matrix augments the random queue only")
        if self.distributed_iq and self.iq_organization != "random":
            raise ValueError("the distributed IQ uses random per-class queues")
        if self.distributed_iq and self.use_age_matrix:
            raise ValueError("the age matrix is a unified-IQ circuit")
        if self.wrong_path_memory not in ("idle", "pollute"):
            raise ValueError(
                f"unknown wrong-path memory policy: {self.wrong_path_memory}")
        if self.verify_level == "commit":  # accepted spelling of commit-only
            object.__setattr__(self, "verify_level", "commit-only")
        if self.verify_level not in ("off", "commit-only", "full"):
            raise ValueError(
                f"unknown verification level: {self.verify_level}")
        if self.verify_interval < 1:
            raise ValueError("verify_interval must be positive")

    # ------------------------------------------------------------------
    # Named configurations
    # ------------------------------------------------------------------

    @staticmethod
    def cortex_a72_like(**overrides) -> "ProcessorConfig":
        """The paper's Table I base processor (no PUBS, no age matrix)."""
        return ProcessorConfig(**overrides)

    def with_pubs(self, pubs: PubsConfig = None) -> "ProcessorConfig":
        """This machine with PUBS enabled (default Table II parameters)."""
        return replace(self, pubs=pubs or PubsConfig())

    def with_age_matrix(self) -> "ProcessorConfig":
        """This machine with the age matrix added to the IQ."""
        return replace(self, use_age_matrix=True)

    def with_verification(self, level: str = "full",
                          interval: int = None) -> "ProcessorConfig":
        """This machine with runtime verification enabled."""
        kwargs = {"verify_level": level}
        if interval is not None:
            kwargs["verify_interval"] = interval
        return replace(self, **kwargs)

    def with_frontend(self, mode: str) -> "ProcessorConfig":
        """This machine, fed by the trace-replay front end.

        Replay is the only timed front end, so ``"replay"`` returns this
        config unchanged; kept so callers that name the front end still
        work.
        """
        if mode != "replay":
            raise ValueError(
                f"unknown frontend mode: {mode!r} (the live front end was "
                "removed; trace replay is the only timed front end)")
        return self

    def with_region(self, start: int, warmup: int,
                    detail: int = 0) -> "ProcessorConfig":
        """This machine replaying one sampled region."""
        return replace(self,
                       replay_region=ReplayRegion(start, warmup, detail))

    def with_overrides(self, **kwargs) -> "ProcessorConfig":
        return replace(self, **kwargs)


#: Recognised :attr:`RunRequest.sampling` modes: ``"off"`` simulates the
#: whole timed span, ``"fixed"`` samples a fixed SimPoint representative
#: set, ``"adaptive"`` escalates representatives until the CI target.
SAMPLING_MODES = ("off", "fixed", "adaptive")


class EnvValueError(ValueError):
    """An environment variable a run reads (``REPRO_SAMPLING`` and
    ``REPRO_CI_TARGET`` in :meth:`RunRequest.resolved`, ``REPRO_JOBS``
    and ``REPRO_BATCH`` in :mod:`repro.exec.executor`,
    ``REPRO_BENCH_INSTRUCTIONS`` and ``REPRO_BENCH_SKIP`` in
    :func:`repro.analysis.bench_budget`) holds an unusable value; the
    message names the variable and the value."""


def env_int(name: str, default: Optional[int], minimum: int) -> Optional[int]:
    """Environment variable ``name`` as an int of at least ``minimum``,
    or ``default`` when it is unset or empty; any other value raises
    :class:`EnvValueError` naming the variable and the value."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
        if value >= minimum:
            return value
    except ValueError:
        pass
    kind = "positive" if minimum == 1 else "non-negative"
    raise EnvValueError(f"{name}={raw!r} is not a {kind} integer")


@dataclass(frozen=True)
class RunRequest:
    """How to run an experiment, separate from *what machine* runs it.

    :class:`ProcessorConfig` describes the simulated processor;
    ``RunRequest`` carries everything about the run itself -- budgets,
    execution policy (worker count, result cache, batching) and the
    sampling mode -- so the high-level entry points
    (:mod:`repro.api`) share one plan object instead of re-growing the
    same keyword list.

    Every field defaults to ``None`` = *unset*: :meth:`resolved` fills
    unset execution fields from the environment, and the runner applies
    the library defaults last, giving the precedence **explicit value >
    environment > default** everywhere.  ``jobs``, ``cache`` and
    ``batch`` stay ``None`` through resolution when unset -- the
    executor layer already owns their ``REPRO_JOBS`` / ``REPRO_CACHE`` /
    ``REPRO_BATCH`` policy.
    """

    #: Timed instruction budget (None -> the caller's library default).
    instructions: Optional[int] = None
    #: Functional fast-forward before timing starts.
    skip: Optional[int] = None
    #: Parallel worker processes (None -> ``REPRO_JOBS`` -> the
    #: usable-CPU count).
    jobs: Optional[int] = None
    #: Persistent result cache (None -> ``REPRO_CACHE`` policy).
    cache: Optional[bool] = None
    #: Max members per batched replay unit (None -> ``REPRO_BATCH`` ->
    #: the executor default; 0 or 1 disables batched grouping).
    batch: Optional[int] = None
    #: One of :data:`SAMPLING_MODES` (None -> ``REPRO_SAMPLING`` -> off).
    sampling: Optional[str] = None
    #: Relative CI half-width adaptive sampling drives toward
    #: (None -> ``REPRO_CI_TARGET`` -> the adaptive default).
    ci_target: Optional[float] = None
    #: Region-count cap for the sampled modes.
    regions: Optional[int] = None
    #: Measured records per sampled window.
    measure: Optional[int] = None
    #: Functional-warmup records per sampled window.
    warmup: Optional[int] = None
    #: Detailed-warmup records per sampled window.
    detail: Optional[int] = None
    #: Cap on the fraction of the span the sampled modes may simulate.
    max_fraction: Optional[float] = None
    #: Trace checkpoint spacing for sampled replays.
    checkpoint_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sampling is not None and self.sampling not in SAMPLING_MODES:
            raise ValueError(
                f"unknown sampling mode: {self.sampling!r} "
                f"(expected one of {', '.join(SAMPLING_MODES)})")
        if self.ci_target is not None:
            if self.ci_target <= 0:
                raise ValueError("ci_target must be positive")
            if self.sampling is not None and self.sampling != "adaptive":
                raise ValueError(
                    "ci_target applies to adaptive sampling only")
        for n in ("instructions", "jobs", "regions", "measure"):
            value = getattr(self, n)
            if value is not None and value < 1:
                raise ValueError(f"{n} must be positive")
        for n in ("skip", "warmup", "detail", "batch"):
            value = getattr(self, n)
            if value is not None and value < 0:
                raise ValueError(f"{n} must be non-negative")
        if self.max_fraction is not None and not 0 < self.max_fraction <= 1:
            raise ValueError("max_fraction must be in (0, 1]")
        if self.checkpoint_interval is not None \
                and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")

    def resolved(self) -> "RunRequest":
        """This request with unset fields filled from the environment.

        Reads ``REPRO_SAMPLING`` and ``REPRO_CI_TARGET`` (per call, so
        tests and benches can flip them); explicit field values always
        win.  The returned request re-validates, so e.g. an environment
        sampling mode of ``off`` combined with an explicit ``ci_target``
        fails here instead of being silently ignored.  An unusable environment
        value raises :class:`EnvValueError`.
        """
        updates = {}
        if self.sampling is None:
            raw = os.environ.get("REPRO_SAMPLING") or "off"
            if raw not in SAMPLING_MODES:
                raise EnvValueError(
                    f"REPRO_SAMPLING={raw!r} is not a sampling mode "
                    f"(expected one of {', '.join(SAMPLING_MODES)})")
            updates["sampling"] = raw
        if self.ci_target is None:
            raw = os.environ.get("REPRO_CI_TARGET")
            if raw:
                try:
                    value = float(raw)
                except ValueError:
                    value = math.nan
                if not value > 0:  # also rejects NaN
                    raise EnvValueError(
                        f"REPRO_CI_TARGET={raw!r} is not a positive number")
                updates["ci_target"] = value
        return replace(self, **updates) if updates else self

    def with_overrides(self, **kwargs) -> "RunRequest":
        """A copy with the given fields replaced (None leaves a field)."""
        changed = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **changed) if changed else self


def size_models() -> Dict[str, ProcessorConfig]:
    """The four processor sizes of Table IV (Fig. 16's sweep).

    Window capacity (IQ/LSQ/ROB/registers) doubles from one end to the
    other while issue width and FU counts grow sub-linearly, so larger
    models see more issue conflicts, as in the paper.
    """
    return {
        "small": ProcessorConfig(
            name="small", fetch_width=3, decode_width=3, issue_width=3,
            commit_width=3, iq_size=32, lsq_size=32, rob_size=64,
            int_phys_regs=96, fp_phys_regs=96,
            fu_pool=FuPool(ialu=2, imult=1, ldst=1, fpu=1),
        ),
        "medium": ProcessorConfig(name="medium"),
        "large": ProcessorConfig(
            name="large", fetch_width=5, decode_width=5, issue_width=5,
            commit_width=5, iq_size=96, lsq_size=96, rob_size=192,
            int_phys_regs=192, fp_phys_regs=192,
            fu_pool=FuPool(ialu=3, imult=1, ldst=2, fpu=2),
        ),
        "huge": ProcessorConfig(
            name="huge", fetch_width=6, decode_width=6, issue_width=6,
            commit_width=6, iq_size=128, lsq_size=128, rob_size=256,
            int_phys_regs=256, fp_phys_regs=256,
            fu_pool=FuPool(ialu=3, imult=2, ldst=3, fpu=3),
        ),
    }
