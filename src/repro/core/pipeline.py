"""Cycle-level out-of-order superscalar pipeline.

The machine of Table I: in-order front end (fetch through dispatch), a
random-queue IQ with position-based select (optionally partitioned for PUBS
and/or augmented with an age matrix), out-of-order issue constrained by the
function-unit mix, a reorder buffer committing in order, a load/store queue
with store-to-load forwarding, checkpointed misprediction recovery, and the
two-level cache hierarchy with a stream prefetcher.

Execution is trace-driven: the fetch stage reads the
architecturally-correct instruction stream straight from the typed
arrays of a recorded :class:`~repro.trace.format.Trace` (DESIGN.md §9),
building no per-record object, and warmup restores cached post-skip
checkpoints of the memory hierarchy and the predictor complex instead of
re-training them.  :meth:`Pipeline._prepare_replay` seats every run -- a
lone one or a batch member (:mod:`repro.batch`, whose members share one
``Trace``) -- and a pipeline runs once.  On a branch misprediction
the front end walks the *static* code along the predicted path, injecting
wrong-path uops that occupy rename registers, IQ entries, LSQ entries and
function units until recovery -- the resource contention that makes issue
priority matter.  Wrong-path fetch is config-dependent, so it can never be
part of a shared trace.  Wrong-path branches never redirect fetch
themselves and wrong-path memory ops do not touch the cache (standard
trace-driven simplifications; see DESIGN.md).

Per-cycle processing order is commit, writeback, issue, dispatch, fetch, so
results written back in cycle ``c`` can feed an issue in cycle ``c`` only
through the pre-scheduled ready cycles (producers set their consumers'
earliest issue cycle at their own issue), giving back-to-back issue of
dependent single-cycle operations.

A cycle in which no stage can act -- the ROB head has not completed, no
uop is ready to issue, dispatch stalls and fetch is blocked -- repeats
the one before it, so the cycle loop jumps over a run of such quiet
cycles at once and adds their counters in bulk
(:meth:`Pipeline._fast_forward`); results are the same as stepping.

The issue stage keeps an *incremental ready set* instead of re-scanning the
whole IQ every cycle: at dispatch each uop either gets a known ready cycle
(all producers already scheduled) or registers as a waiter on its
not-yet-scheduled source registers; a producer's issue wakes its waiters.
This is valid because, while a uop is IQ-resident, each source's ready
cycle makes exactly one transition (unscheduled -> a fixed cycle): sources
cannot be re-renamed under a resident consumer (their registers are freed
only at the commit of a younger writer, which retires after the consumer),
and recovery only squashes uops younger than the branch.  Every IQ
organization hands out an entry handle at dispatch that stays valid until
the entry issues, and ascending handle order is its select priority, so
the ready set serves all four.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import itemgetter
from typing import Deque, Dict, List, Optional

from ..branch.base import BranchPredictor
from ..branch.btb import BranchTargetBuffer
from ..branch.classic import BimodePredictor, GsharePredictor, TournamentPredictor
from ..branch.perceptron import PerceptronPredictor
from ..iq.age_matrix import AgeMatrix
from ..iq.distributed import DistributedIssueQueue, DistributedSelectLogic
from ..iq.ordered import CircularQueue, ShiftingQueue
from ..iq.queue import IssueQueue
from ..iq.select import SelectLogic
from ..isa.instruction import INST_BYTES, Program
from ..memory.cache import fill_image
from ..memory.hierarchy import MemoryHierarchy
from ..pubs.mode_switch import ModeSwitch
from ..pubs.slice_tracker import SliceTracker
from .config import ProcessorConfig
from .lsq import LoadStoreQueue
from .rename import Renamer
from .rob import ReorderBuffer
from .stats import SimStats
from .uop import NEVER, Uop

_slot_of = itemgetter(0)


def build_predictor(config: ProcessorConfig) -> BranchPredictor:
    """Instantiate the configured direction predictor."""
    p = config.predictor
    if p.kind == "perceptron":
        return PerceptronPredictor(p.history_length, p.table_size)
    if p.kind == "gshare":
        return GsharePredictor(p.table_size, p.history_length)
    if p.kind == "bimode":
        return BimodePredictor(p.table_size, p.history_length)
    if p.kind == "tournament":
        return TournamentPredictor()
    raise ValueError(f"unknown predictor kind: {p.kind}")


def replay_reach(config: ProcessorConfig) -> int:
    """How many trace records past its last commit a run may fetch.

    When a run commits its last record, its ROB and its front-end buffer
    (``fetch_width * (frontend_depth + 2)`` uops) may both be full of
    younger correct-path records, and fetch reads a record only when that
    buffer has room.  So a run that commits up to ``end`` never fetches
    record ``end + replay_reach(config)``: acquiring that many records
    covers it exactly (85, 156, 227 and 298 for the four Table IV
    machines).
    """
    return config.rob_size + config.fetch_width * (config.frontend_depth + 2)


#: The counters one cycle that dispatches nothing adds, by its cause: the
#: per-cause dispatch-stall counter (None for a front-end bubble) and the
#: top-down bucket that takes the cycle's decode slots (DESIGN.md §15).
_IDLE_COUNTERS = {
    "rob": ("rob_full_stall_cycles", "td_be_rob_slots"),
    "lsq": ("lsq_full_stall_cycles", "td_be_lsq_slots"),
    "regs": ("regs_full_stall_cycles", "td_be_regs_slots"),
    "iq": ("iq_full_stall_cycles", "td_be_iq_slots"),
    "priority": ("priority_stall_cycles", "td_be_priority_slots"),
    "recovery": (None, "td_recovery_slots"),
    "l1i": (None, "td_fe_l1i_slots"),
    "fetch": (None, "td_fe_fetch_slots"),
}


def _front_warm_config(config: ProcessorConfig) -> dict:
    """The configuration slice that shapes warmup-trained front-end state.

    The predictor and BTB are shaped by ``config.predictor``; the slice
    tracker's warm state additionally depends on the PUBS fields that size
    its tables or gate its training -- and, because training consumes each
    warm prediction outcome, on the predictor configuration too, which is
    why the three are checkpointed as one component.  Fields that only
    steer dispatch at *timing* time (priority entries, stall policy, mode
    switching) are deliberately excluded so sweeps over them share warm
    state.
    """
    p = config.pubs
    return {
        "predictor": config.predictor,
        "pubs": {
            "enabled": p.enabled,
            "blind": p.blind,
            "conf_counter_bits": p.conf_counter_bits,
            "conf_sets": p.conf_sets,
            "conf_assoc": p.conf_assoc,
            "conf_fold_width": p.conf_fold_width,
            "brslice_sets": p.brslice_sets,
            "brslice_assoc": p.brslice_assoc,
            "brslice_fold_width": p.brslice_fold_width,
            "word_width": p.word_width,
        },
    }


#: The warm state a seated run leaves behind, in the order
#: ``Pipeline(warm=...)`` takes it: the components the warm-checkpoint
#: store persists, plus the I-line dedup mark the warm walk leaves.
WARM_FIELDS = ("hierarchy", "predictor", "btb", "slice_tracker",
               "_last_ifetch_line")


class DeadlockError(RuntimeError):
    """The pipeline made no commit progress for an implausible interval."""


class Pipeline:
    """One simulated core running one program."""

    def __init__(self, program: Program, config: ProcessorConfig = None,
                 mem_seed: int = 0, trace_source=None, warm=None):
        """``warm`` optionally hands over the warm state a seated run
        left behind -- ``(hierarchy, predictor, btb, slice_tracker,
        last_ifetch_line)``, see :data:`WARM_FIELDS` -- to use instead
        of building fresh components and training them; it must match
        this config's memory and warm front-end slice
        (:func:`_front_warm_config`).  Batched replay builds each later
        member from the first one's warm snapshot this way.
        """
        self.config = config or ProcessorConfig.cortex_a72_like()
        cfg = self.config
        self.program = program
        self.mem_seed = mem_seed
        #: Optional :class:`~repro.trace.store.TraceStore` override (tests
        #: inject a temp-dir store; None => the shared environment-selected
        #: store).
        self._trace_source = trace_source
        #: The :class:`~repro.trace.format.Trace` fetch reads, acquired
        #: (or, in a batch, handed over) by :meth:`_prepare_replay`.
        self.trace = None
        #: Built from a warm snapshot: the seat trains nothing.
        self._warm_given = warm is not None
        if warm is None:
            self.predictor = build_predictor(cfg)
            self.btb = BranchTargetBuffer(cfg.predictor.btb_sets,
                                          cfg.predictor.btb_assoc)
            self.hierarchy = MemoryHierarchy(cfg.memory)
            self.slice_tracker = SliceTracker(cfg.pubs)
            self._last_ifetch_line = -1
        else:
            (self.hierarchy, self.predictor, self.btb,
             self.slice_tracker, self._last_ifetch_line) = warm
            # Rebind so later field reads see this run's own config
            # object, not the snapshot's.
            self.slice_tracker.config = cfg.pubs
        self.mode_switch = ModeSwitch(
            cfg.pubs.mode_switch_threshold_mpki,
            cfg.pubs.mode_switch_interval,
            enabled=cfg.pubs.enabled and cfg.pubs.mode_switch_enabled,
        )
        priority_entries = cfg.pubs.priority_entries if cfg.pubs.enabled else 0
        self.age_matrix = AgeMatrix(cfg.iq_size) if cfg.use_age_matrix else None
        if cfg.distributed_iq:
            self.iq = DistributedIssueQueue(cfg.iq_size, cfg.fu_pool,
                                            priority_entries, seed=cfg.seed)
            self.select_logic = DistributedSelectLogic(cfg.issue_width, cfg.fu_pool)
        elif cfg.iq_organization == "shifting":
            self.iq = ShiftingQueue(cfg.iq_size)
            self.select_logic = SelectLogic(cfg.issue_width, cfg.fu_pool)
        elif cfg.iq_organization == "circular":
            self.iq = CircularQueue(cfg.iq_size)
            self.select_logic = SelectLogic(cfg.issue_width, cfg.fu_pool)
        else:
            self.iq = IssueQueue(cfg.iq_size, priority_entries, seed=cfg.seed)
            self.select_logic = SelectLogic(cfg.issue_width, cfg.fu_pool,
                                            self.age_matrix)
        self.renamer = Renamer(cfg.int_phys_regs, cfg.fp_phys_regs)
        self.rob = ReorderBuffer(cfg.rob_size)
        self.lsq = LoadStoreQueue(cfg.lsq_size)
        self.stats = SimStats()

        self.cycle = 0
        self._next_seq = 0
        self._next_trace_seq = 0
        #: Index in ``trace.mem_addrs`` of the next correct-path memory
        #: record fetch reads: ``trace.mem_rank(_next_trace_seq)``.
        self._next_mem_seq = 0
        self._wrong_path_pc: Optional[int] = None  # None => fetching the trace
        self._fetch_resume_cycle = 0  # recovery redirect / I-miss stall
        #: Why fetch is stalled while ``cycle < _fetch_resume_cycle``
        #: ("recovery" or "l1i"); drives topdown bubble attribution.
        self._fetch_stall_reason = "fetch"
        #: Why the front end is empty when dispatch finds nothing: keeps
        #: the last stall's reason until a dispatch succeeds, so the
        #: pipeline-refill bubbles after a recovery or an I-miss are
        #: attributed to their cause, not to generic fetch bandwidth.
        self._bubble_reason = "fetch"
        self._frontend: Deque[Uop] = deque()
        self._frontend_capacity = cfg.fetch_width * (cfg.frontend_depth + 2)
        # Fetch-stage constants of the program, the machine and the
        # trace format.
        from ..trace.format import FLAG_TAKEN_TABLE  # deferred: import cycle
        self._taken_of = FLAG_TAKEN_TABLE
        self._fetch_width = cfg.fetch_width
        self._insts = program.insts
        self._end_pc = len(program.insts) * INST_BYTES
        self._entry_pc = program.entry_pc
        self._l1i_hit = cfg.memory.l1i.hit_latency
        self._events: Dict[int, List[Uop]] = {}
        # Incremental ready-set state (see the module docstring).
        self._wakeup: Dict[int, List[Uop]] = {}  # phys reg -> waiting uops
        self._ready_now: List[Uop] = []  # ready_at <= cycle, unissued
        self._ready_buckets: Dict[int, List[Uop]] = {}  # cycle -> uops
        self._forward_latency = 2  # store-to-load forwarding (L1-hit-like)
        self._commit_limit: Optional[int] = None
        #: Sampled-region detailed warmup owed before measurement.
        self._pending_detail = 0
        self._ran = False
        #: Hierarchy-counter baselines at the measurement start, so
        #: region stats report the measured window, not the warm phases.
        self._mem_stats_base = (0, 0, 0)
        #: Optional callback invoked with every committing uop (fidelity
        #: checks, tracing).  Keep it cheap: it runs on the commit path.
        self.commit_hook = None
        #: Timeline records of the most recent misprediction recoveries:
        #: (pc, fetch, dispatch, issue, complete) cycles per Fig. 1.
        self.misprediction_log: Deque[tuple] = deque(maxlen=64)
        self._last_data_addr = 1 << 30  # for wrong-path address synthesis
        #: Runtime verification (repro.verify): a differential oracle at
        #: every commit and, at "full" level, periodic invariant sweeps.
        #: None when cfg.verify_level == "off" -- the unverified hot path
        #: pays one attribute check per cycle and per commit, nothing more.
        self.verifier = None
        if cfg.verify_level != "off":
            from ..verify import PipelineVerifier  # deferred: import cycle
            self.verifier = PipelineVerifier(
                self, cfg.verify_level, cfg.verify_interval,
                mem_seed=mem_seed)

    # ==================================================================
    # Public driver
    # ==================================================================

    def run(self, max_instructions: int, skip_instructions: int = 0,
            max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until ``max_instructions`` commit.

        ``skip_instructions`` fast-forwards warm state over the trace
        before timing starts (the paper skips 16G instructions before its
        100M sample).  ``max_cycles`` bounds runaway simulations; a run
        that exhausts it raises :class:`DeadlockError`.  It also bounds
        the trace: fetch takes at most ``fetch_width`` correct-path
        records per cycle, so no more than that many records per cycle
        are ever acquired.

        A pipeline runs once; a second call raises :class:`RuntimeError`.
        A batch (:func:`repro.batch.run_batch`) seats its members before
        their runs; every other run is seated here.
        """
        if max_instructions < 1:
            raise ValueError("max_instructions must be positive")
        if self._ran:
            raise RuntimeError(
                "a Pipeline runs once: build a new one for the next run")
        self._ran = True
        if self.trace is None:
            timed = max_instructions
            if max_cycles is not None:
                timed = min(timed,
                            self.config.fetch_width * (max_cycles + 1))
            self._prepare_replay(timed, skip_instructions)
        if self._pending_detail:
            self._run_detail(self._pending_detail)
        limit = max_cycles if max_cycles is not None else 500 * max_instructions + 100_000
        # Cycles the detail warmup spent come before measurement.
        self._cycle_loop(max_instructions, self.cycle + limit, "")
        self._finalize_stats()
        if self.verifier is not None:
            self.verifier.on_run_end()
        return self.stats

    def _run_detail(self, detail: int) -> None:
        """Run the region's detailed-warmup records, then discard stats.

        SMARTS-style: the ``detail`` records before the measured window
        go through the full timing model so measurement starts from a
        filled pipeline (in-flight ROB/IQ/LSQ contents, outstanding
        misses), not the cold one a fast-forwarded seat leaves behind.
        Their cycles and commits are discarded; only the warm state --
        including the instructions still in flight -- carries over.
        """
        self._cycle_loop(detail, 500 * detail + 100_000,
                         " during detailed warmup")
        # Measurement starts here: fresh counters, and remember the
        # hierarchy's absolute miss counts so _finalize_stats reports
        # only the measured window's misses.
        self.stats = SimStats()
        self._mem_stats_base = (self.hierarchy.stats.l2_misses,
                                self.hierarchy.stats.l1d_misses,
                                self.hierarchy.stats.l1i_misses)

    def _cycle_loop(self, commit_limit: int, cycle_limit: int,
                    phase: str) -> None:
        """Advance cycles until ``commit_limit`` instructions committed.

        Each cycle runs the five stages in order (see the module
        docstring); a run past ``cycle_limit`` raises
        :class:`DeadlockError`.  After a cycle that leaves nothing for
        the next one to do -- dispatch placed nothing, fetch did not run,
        no uop waits to issue and the ROB head has not completed -- the
        loop jumps over the quiet cycles that follow
        (:meth:`_fast_forward`).
        """
        self._commit_limit = commit_limit
        stats = self.stats
        iq = self.iq
        verifier = self.verifier
        commit, writeback, issue, dispatch, fetch = (
            self._commit, self._writeback, self._issue, self._dispatch,
            self._fetch)
        rob = self.rob._entries
        cycle = self.cycle
        while stats.committed < commit_limit:
            cycle += 1
            self.cycle = cycle
            stats.cycles += 1
            commit()
            writeback()
            issue()
            idle = dispatch()
            fetched = fetch()
            stats.iq_occupancy_sum += iq.occupancy
            if verifier is not None:
                verifier.on_cycle()
            if cycle > cycle_limit:
                raise DeadlockError(
                    f"no completion{phase} after {cycle} cycles "
                    f"({stats.committed} committed)")
            if idle is not None and not fetched \
                    and not self._ready_now \
                    and not (rob and rob[0].completed) \
                    and stats.committed < commit_limit:
                cycle = self._fast_forward(idle, cycle_limit)

    def _fast_forward(self, idle: str, cycle_limit: int) -> int:
        """Skip the quiet cycles after the current one; the new cycle.

        The current cycle dispatched nothing (``idle`` names why, see
        :data:`_IDLE_COUNTERS`), fetch did not run, no uop is ready to
        issue and the ROB head has not completed.  Until some stage can
        act, every later cycle repeats it exactly: commit, writeback and
        issue find nothing, dispatch stalls on the same head for the
        same cause and fetch stays blocked.  The first cycle that can
        differ is the earliest of the next writeback event or ready
        bucket, the fetch resume cycle, the cycle the front-end head
        becomes old enough to dispatch, the next invariant sweep and the
        first cycle past ``cycle_limit`` (which raises in the loop, as it
        would stepping).  The skipped cycles' counters are added in bulk
        and the loop resumes just before that cycle.  The loop never
        jumps once the last commit is done, and no commit can fall inside
        a jump, so ``cycles`` never overshoots the last commit.
        """
        cycle = self.cycle
        events = self._events
        buckets = self._ready_buckets
        if cycle + 1 in events or cycle + 1 in buckets:
            return cycle  # the next cycle is busy: nothing to skip
        target = cycle_limit + 1
        if events:
            target = min(target, min(events))
        if buckets:
            target = min(target, min(buckets))
        if cycle < self._fetch_resume_cycle < target:
            target = self._fetch_resume_cycle
        frontend = self._frontend
        if frontend:
            ripe = frontend[0].fetch_cycle + self.config.frontend_depth
            if cycle < ripe < target:
                target = ripe
        verifier = self.verifier
        if verifier is not None and verifier.level == "full":
            interval = verifier.interval
            target = min(target, cycle - cycle % interval + interval)
        skipped = target - cycle - 1
        if skipped <= 0:
            return cycle
        stats = self.stats
        stats.cycles += skipped
        stats.iq_occupancy_sum += skipped * self.iq.occupancy
        self.select_logic.stats.cycles += skipped
        stall, slots = _IDLE_COUNTERS[idle]
        if stall is not None:
            stats.dispatch_stall_cycles += skipped
            setattr(stats, stall, getattr(stats, stall) + skipped)
            # A head stalled on the IQ counts as an unconfident dispatch
            # every cycle it asks for the priority partition.
            if idle == "priority" or (
                    idle == "iq" and frontend[0].unconfident
                    and self.mode_switch.pubs_active
                    and self.config.pubs.enabled):
                stats.unconfident_dispatches += skipped
        setattr(stats, slots,
                getattr(stats, slots) + skipped * self.config.decode_width)
        self.cycle = cycle = target - 1
        return cycle

    def _prewarm_regions(self) -> None:
        """Install the program's cacheable data regions into the L2.

        Models resuming from a warmed checkpoint: regions are warmed oldest-
        first while they cumulatively fit in 3/4 of the LLC (their steady
        state); larger regions stay cold because their steady state *is*
        missing.
        """
        l2 = self.hierarchy.l2
        budget = l2.config.size_bytes * 3 // 4
        warmed = 0
        ranges = []
        for start, size in self.program.warm_regions:
            if warmed + size > budget:
                continue
            warmed += size
            ranges.append((start, size))
        l2.install_image(fill_image(l2.config, ranges))

    # ------------------------------------------------------------------
    # Replay front end
    # ------------------------------------------------------------------

    def _prepare_replay(self, max_instructions: int, skip_instructions: int,
                        trace=None, reach: Optional[int] = None) -> None:
        """Seat a run: bind its trace and warm up to the seat.

        Timing starts at the *seat*: ``skip_instructions``, or a sampled
        region's start less its detail window.  The warm phase models
        fast-forwarding from a checkpoint -- caches, the branch
        predictor, the BTB and the confidence table see the stream
        before the seat functionally, without timing -- along one of
        three paths:

        * a full prefix (a skip, or a region whose warmup reaches record
          0): the trained state is restored from (or recorded into) the
          warm-checkpoint store, so a sweep trains it once, not once per
          config;
        * a region's partial warmup: the LLC prewarm plus warm spans
          over the records just before the seat;
        * seat 0: the LLC prewarm only.

        A pipeline built from a warm snapshot (``warm=``) trains
        nothing.  The differential oracle, when enabled, is seated at
        the same record.

        ``trace`` is the :class:`~repro.trace.format.Trace` of a batch
        whose earlier member acquired it.  Without one the run acquires
        its trace -- ``max_instructions`` past the timed start, plus
        ``reach`` records of fetch-ahead (default: this machine's
        :func:`replay_reach`; a batch passes its widest member's).
        """
        from ..trace.store import shared_store  # deferred: import cycle
        store = self._trace_source if self._trace_source is not None \
            else shared_store()
        region = self.config.replay_region
        if region is None:
            seat = skip_instructions
            end = seat + max_instructions
        elif skip_instructions:
            raise ValueError(
                "replay_region and skip_instructions are mutually "
                "exclusive: the region's warmup already positions "
                "the timed window")
        else:
            seat = region.start - region.detail
            end = region.start + max_instructions
            self._pending_detail = region.detail
        if trace is None:
            if reach is None:
                reach = replay_reach(self.config)
            trace = store.acquire(self.program, self.mem_seed, end + reach,
                                  skip_hint=skip_instructions)
        self.trace = trace
        if not self._warm_given:
            warmup = seat if region is None else region.warmup
            if warmup == seat and seat:
                self._restore_or_train_warm(store, trace, seat)
            else:
                self._prewarm_regions()
                self._warm_mem_span(trace, seat - warmup, seat)
                self._warm_front_span(trace, seat - warmup, seat)
        self._next_trace_seq = seat
        self._next_mem_seq = trace.mem_rank(seat)
        if self.verifier is not None:
            self.verifier.on_seat(trace, seat)

    def _restore_or_train_warm(self, store, trace, skip: int) -> None:
        """Restore warm components from checkpoints, training on a miss."""
        cfg = self.config
        mem_key = store.warm_key(self.program, self.mem_seed, skip, "mem",
                                 cfg.memory)
        warm = store.get_warm(mem_key)
        if warm is not None:
            (self.hierarchy,) = warm
        else:
            self._prewarm_regions()
            self._warm_mem_span(trace, 0, skip)
            store.put_warm(mem_key, (self.hierarchy,))
        front_key = store.warm_key(self.program, self.mem_seed, skip,
                                   "front", _front_warm_config(cfg))
        warm = store.get_warm(front_key)
        if warm is not None:
            self.predictor, self.btb, self.slice_tracker = warm
            # Geometry-equal by key; rebind so later field reads see the
            # run's own config object, not the snapshot's.
            self.slice_tracker.config = cfg.pubs
        else:
            self._warm_front_span(trace, 0, skip)
            store.put_warm(front_key,
                           (self.predictor, self.btb, self.slice_tracker))
        self._last_ifetch_line = trace.pcs[skip - 1] >> 6

    def _warm_mem_span(self, trace, start: int, end: int) -> None:
        """Warm the memory hierarchy over trace records ``[start, end)``.

        Each new I-line is an instruction fetch and each memory record a
        data access.  The walk reads the PC array and a memory mask
        translated from the flag bytes; the addresses of the memory
        records come, in order, from the span's slice of the address
        array (its memory records, ranked).
        """
        from ..trace.format import FLAG_MEM_TABLE  # deferred: import cycle
        is_mem = trace.flags[start:end].translate(FLAG_MEM_TABLE)
        next_addr = iter(trace.mem_addrs[trace.mem_rank(start):
                                         trace.mem_rank(end)]).__next__
        warm_ifetch = self.hierarchy.warm_ifetch
        warm_data = self.hierarchy.warm_data
        last_line = self._last_ifetch_line
        for pc, mem in zip(trace.pcs[start:end], is_mem):
            line = pc >> 6
            if line != last_line:
                warm_ifetch(pc)
                last_line = line
            if mem:
                warm_data(next_addr())
        self._last_ifetch_line = last_line

    def _warm_front_span(self, trace, start: int, end: int) -> None:
        """Train the predictor complex over trace records ``[start, end)``.

        Only conditional branches train the predictor, the BTB and (with
        PUBS) the confidence table, so the loop visits just their
        indices: a mask translated from the flag bytes compresses the
        span's index range.  A taken branch installs its static target.
        """
        from ..trace.format import (  # deferred: import cycle
            FLAG_COND_BRANCH_TABLE, FLAG_TAKEN_TABLE)
        pcs = trace.pcs
        flags = trace.flags
        insts = self._insts
        predictor = self.predictor
        btb = self.btb
        tracker = self.slice_tracker
        pubs_on = self.config.pubs.enabled
        for i in compress(range(start, end),
                          flags[start:end].translate(FLAG_COND_BRANCH_TABLE)):
            pc = pcs[i]
            taken = FLAG_TAKEN_TABLE[flags[i]]
            predicted = predictor.predict(pc)
            predictor.update(pc, taken, predicted)
            if taken:
                btb.install(pc, insts[pc // INST_BYTES].target)
            if pubs_on:
                tracker.on_branch_resolved(pc,
                                           correct=predicted == taken)

    def _finalize_stats(self) -> None:
        base_llc, base_l1d, base_l1i = self._mem_stats_base
        self.stats.llc_misses = self.hierarchy.stats.l2_misses - base_llc
        self.stats.l1d_misses = self.hierarchy.stats.l1d_misses - base_l1d
        self.stats.l1i_misses = self.hierarchy.stats.l1i_misses - base_l1i

    # ==================================================================
    # Commit
    # ==================================================================

    def _commit(self) -> None:
        rob = self.rob._entries  # oldest first
        stats = self.stats
        if rob and rob[0].completed:
            cycle = self.cycle
            renamer = self.renamer
            limit = self._commit_limit
            verifier = self.verifier
            for _ in range(self.config.commit_width):
                if limit is not None and stats.committed >= limit:
                    break
                if not rob:
                    break
                uop = rob[0]
                if not uop.completed:
                    break
                rob.popleft()
                renamer.release_committed(uop)
                inst = uop.inst
                if uop.in_lsq:
                    self.lsq.remove_committed(uop)
                    if inst.is_store and uop.mem_addr is not None:
                        self.hierarchy.store(cycle, uop.mem_addr)
                if inst.is_conditional_branch:
                    stats.cond_branches += 1
                    if uop.mispredicted:
                        stats.mispredictions += 1
                    self.slice_tracker.on_branch_resolved(
                        inst.pc, correct=not uop.mispredicted
                    )
                stats.committed += 1
                if verifier is not None:
                    verifier.on_commit(uop)
                if self.commit_hook is not None:
                    self.commit_hook(uop)
            # The mode switch decides on commit progress alone, so a
            # cycle that commits nothing cannot change its state.
            mode_switch = self.mode_switch
            if mode_switch.enabled:
                mode_switch.observe(stats.committed,
                                    self.hierarchy.stats.l2_misses)

    # ==================================================================
    # Writeback / branch resolution
    # ==================================================================

    def _writeback(self) -> None:
        completing = self._events.pop(self.cycle, None)
        if not completing:
            return
        for uop in completing:
            if uop.squashed:
                continue
            uop.completed = True
            if uop.mispredicted and uop.on_correct_path:
                self._recover(uop)

    def _recover(self, branch: Uop) -> None:
        """Branch misprediction recovery (flush + checkpoint restore)."""
        cycle = self.cycle
        penalty = cycle - branch.fetch_cycle
        self.stats.missspec_penalty_cycles += penalty
        self.stats.missspec_frontend_cycles += branch.dispatch_cycle - branch.fetch_cycle
        self.stats.missspec_iq_wait_cycles += branch.issue_cycle - branch.dispatch_cycle
        self.stats.missspec_execute_cycles += cycle - branch.issue_cycle
        self.misprediction_log.append(
            (branch.inst.pc, branch.fetch_cycle, branch.dispatch_cycle,
             branch.issue_cycle, cycle)
        )

        seq = branch.seq
        for uop in self._frontend:
            uop.squashed = True
        self._frontend.clear()
        for slot, uop in list(self.iq.occupied()):
            if uop.seq > seq:
                uop.squashed = True
                if self.age_matrix is not None:
                    self.age_matrix.remove(slot)
        self.iq.flush(keep=lambda uop: not uop.squashed)
        for uop in self.rob.squash_younger(seq):
            uop.squashed = True
            self.renamer.release_squashed(uop)
        for uop in self.lsq.squash_younger(seq):
            uop.squashed = True
        self.renamer.restore(branch.checkpoint)
        branch.checkpoint = None

        # Fetch already stands one record past the branch: the wrong
        # path it ran since moves neither trace cursor.
        self._wrong_path_pc = None
        self._fetch_resume_cycle = cycle + self.config.recovery_penalty
        self._fetch_stall_reason = "recovery"
        self._bubble_reason = "recovery"
        self._last_ifetch_line = -1

    # ==================================================================
    # Issue
    # ==================================================================

    def _issue(self) -> None:
        """Issue from the incrementally-maintained ready set.

        The requests are the IQ-resident uops whose sources are all
        ready by this cycle and whose store dependence (if any) has
        issued, found without touching the uops that cannot issue this
        cycle: per-cycle work is O(ready + granted), not O(IQ
        occupancy).  A granted producer wakes its register's waiters
        (registered at dispatch): its ready cycle is at least
        ``cycle + 1`` (latencies are >= 1), so a fully-woken consumer
        always lands in a future bucket, never in the current cycle's
        already-drained one.  Waiters squashed since registering are
        dropped lazily.
        """
        cycle = self.cycle
        ready = self._ready_now
        buckets = self._ready_buckets
        bucket = buckets.pop(cycle, None)
        if bucket is not None:
            ready.extend(bucket)
        elif not ready:
            self.select_logic.stats.cycles += 1
            return
        live: List[Uop] = []
        requests = []
        for uop in ready:
            if uop.squashed or uop.issue_cycle >= 0:
                continue
            live.append(uop)
            dep = uop.store_dep
            if dep is not None and dep.issue_cycle < 0 and not dep.squashed:
                continue  # stays live; retried once the store issues
            requests.append((uop.iq_slot, uop))
        if not requests:
            self.select_logic.stats.cycles += 1
            self._ready_now = live
            return
        # Dispatch order into the ready set is not slot order; the select
        # logic's position priority needs ascending handles.
        requests.sort(key=_slot_of)
        granted = self.select_logic.select(requests)
        iq_release = self.iq.release
        age_matrix = self.age_matrix
        for slot, _ in reversed(granted):  # grants come in slot order
            iq_release(slot)
            if age_matrix is not None:
                age_matrix.remove(slot)
        ready_cycle = self.renamer.ready_cycle
        wakeup = self._wakeup
        events = self._events
        for slot, uop in granted:
            uop.issue_cycle = cycle
            uop.iq_slot = -1
            inst = uop.inst
            done = cycle + (self._execution_latency(uop) if inst.is_load
                            else inst.latency)
            dest = uop.dest_phys
            if dest >= 0:
                ready_cycle[dest] = done
                waiters = wakeup.pop(dest, None)
                if waiters is not None:
                    for waiter in waiters:
                        if done > waiter.ready_at:
                            waiter.ready_at = done
                        waiter.pending_srcs -= 1
                        if waiter.pending_srcs == 0 and not waiter.squashed:
                            bucket = buckets.get(waiter.ready_at)
                            if bucket is None:
                                buckets[waiter.ready_at] = [waiter]
                            else:
                                bucket.append(waiter)
            bucket = events.get(done)
            if bucket is None:
                events[done] = [uop]
            else:
                bucket.append(uop)
        self._ready_now = [] if len(granted) == len(live) \
            else [u for u in live if u.issue_cycle < 0]

    def _execution_latency(self, uop: Uop) -> int:
        """Cycles from issue to writeback (loads access the hierarchy)."""
        inst = uop.inst
        if inst.is_load:
            dep = uop.store_dep
            if dep is not None and not dep.squashed:
                return 1 + self._forward_latency
            if uop.on_correct_path and uop.mem_addr is not None:
                self._last_data_addr = uop.mem_addr
                return 1 + self.hierarchy.load(self.cycle, uop.mem_addr)
            if self.config.wrong_path_memory == "pollute":
                # Wrong-path loads have no architectural address; real ones
                # usually land near recently-touched data, so synthesize a
                # deterministic address within 4 KB of the last correct-path
                # access (cache pollution and spurious prefetch training).
                addr = self._last_data_addr + (((inst.pc >> 2) * 0x61) & 0xFF8)
                return 1 + self.hierarchy.load(self.cycle, addr)
            # Wrong-path loads ("idle"): L1-hit time, no cache side effects.
            return 1 + self.hierarchy.l1d.config.hit_latency
        # Stores take 1 (address/data capture; memory written at commit).
        return inst.latency

    # ==================================================================
    # Dispatch (decode + rename + IQ/ROB/LSQ allocation)
    # ==================================================================

    def _dispatch(self) -> Optional[str]:
        """Dispatch up to ``decode_width`` uops from the front-end head.

        Returns None when it dispatched something; otherwise why it
        dispatched nothing -- a key of :data:`_IDLE_COUNTERS`, naming
        the counters the cycle added (the quiet-cycle fast-forward
        repeats them).
        """
        cfg = self.config
        cycle = self.cycle
        earliest = cycle - cfg.frontend_depth
        width = cfg.decode_width
        frontend = self._frontend
        if not frontend or frontend[0].fetch_cycle > earliest:
            # Front end empty or its head still too young: a bubble.
            reason = self._bubble_cause(cycle)
            stats = self.stats
            slots = _IDLE_COUNTERS[reason][1]
            setattr(stats, slots, getattr(stats, slots) + width)
            return reason
        pubs_on = cfg.pubs.enabled
        rob = self.rob
        lsq = self.lsq
        # Capacity checks read the structures directly: the ROB and LSQ
        # entry lists and the per-logical-register free lists.
        rob_entries, rob_size = rob._entries, rob.size
        lsq_entries, lsq_size = lsq._entries, lsq.size
        renamer = self.renamer
        free_lists = renamer.free_lists
        stats = self.stats
        age_matrix = self.age_matrix
        iq = self.iq
        iq_dispatch = iq.dispatch
        if pubs_on:
            tracker = self.slice_tracker
            mode_switch = self.mode_switch
            stall_policy = cfg.pubs.stall_policy
        ready_cycle = renamer.ready_cycle
        wakeup = self._wakeup
        dispatched = retired = 0
        # Topdown slot accounting (DESIGN.md §15): every loop exit books
        # the cycle's unfilled decode slots into exactly one bucket, so
        # the td_* counters sum to decode_width * cycles by construction.
        stall_bucket = None
        while dispatched < width and frontend:
            uop = frontend[0]
            if uop.fetch_cycle > earliest:
                break
            inst = uop.inst
            if not uop.decoded:
                # The decode stage proper: PUBS slice tracking.
                uop.decoded = True
                if pubs_on:
                    uop.unconfident = tracker.on_decode(inst)
            if len(rob_entries) >= rob_size:
                stats.dispatch_stall_cycles += 1
                stats.rob_full_stall_cycles += 1
                stall_bucket = "rob"
                break
            if inst.is_mem and len(lsq_entries) >= lsq_size:
                stats.dispatch_stall_cycles += 1
                stats.lsq_full_stall_cycles += 1
                stall_bucket = "lsq"
                break
            if inst.dest is not None and not free_lists[inst.dest]:
                stats.dispatch_stall_cycles += 1
                stats.regs_full_stall_cycles += 1
                stall_bucket = "regs"
                break
            # IQ entry allocation under the PUBS dispatch policies.
            if not pubs_on:
                slot = iq_dispatch(uop, False)
            elif not mode_switch.pubs_active:
                slot = iq.dispatch_uniform(uop)
            elif uop.unconfident:
                stats.unconfident_dispatches += 1
                slot = iq_dispatch(uop, True)
                if slot is not None:
                    stats.priority_dispatches += 1
                elif stall_policy:
                    # The stall policy blocked on the priority partition
                    # while the rest of the IQ may have space: a distinct
                    # cause, kept disjoint from iq_full so the per-cause
                    # split sums to dispatch_stall_cycles.
                    stats.dispatch_stall_cycles += 1
                    stats.priority_stall_cycles += 1
                    stall_bucket = "priority"
                    break
                else:
                    slot = iq_dispatch(uop, False)
            else:
                slot = iq_dispatch(uop, False)
            if slot is None:
                stats.dispatch_stall_cycles += 1
                stats.iq_full_stall_cycles += 1
                stall_bucket = "iq"
                break
            frontend.popleft()
            renamer.rename(uop)
            if uop.mispredicted and uop.on_correct_path:
                uop.checkpoint = renamer.checkpoint()
            uop.dispatch_cycle = cycle
            uop.iq_slot = slot
            rob.append(uop)
            if inst.is_mem:
                lsq.insert(uop)
            if age_matrix is not None:
                age_matrix.insert(slot)
            # Register with the ready set: sources with a known ready
            # cycle contribute to ``ready_at``; each source whose
            # producer has not issued yet adds a pending count and a
            # wakeup registration (duplicate source registers count
            # -- and are later woken -- once per occurrence).
            ready_at = pending = 0
            for phys in uop.src_phys:
                rc = ready_cycle[phys]
                if rc == NEVER:
                    pending += 1
                    waiters = wakeup.get(phys)
                    if waiters is None:
                        wakeup[phys] = [uop]
                    else:
                        waiters.append(uop)
                elif rc > ready_at:
                    ready_at = rc
            uop.ready_at = ready_at  # partial max while pending
            uop.pending_srcs = pending
            if not pending:
                if ready_at <= cycle:
                    self._ready_now.append(uop)
                else:
                    bucket = self._ready_buckets.get(ready_at)
                    if bucket is None:
                        self._ready_buckets[ready_at] = [uop]
                    else:
                        bucket.append(uop)
            if uop.on_correct_path:
                retired += 1
            dispatched += 1
        if dispatched:
            self._bubble_reason = "fetch"
            stats.td_retire_slots += retired
            stats.td_wrongpath_slots += dispatched - retired
        leftover = width - dispatched
        if not leftover:
            return None
        if stall_bucket is None:
            stall_bucket = self._bubble_cause(cycle)
        slots = _IDLE_COUNTERS[stall_bucket][1]
        setattr(stats, slots, getattr(stats, slots) + leftover)
        return None if dispatched else stall_bucket

    def _bubble_cause(self, cycle: int) -> str:
        """Why the front end has nothing to dispatch at ``cycle``.

        While a fetch stall is active the reason is exact; afterwards the
        refill bubbles keep the stall's reason until the first dispatch
        resets it to plain fetch bandwidth.
        """
        return self._fetch_stall_reason if cycle < self._fetch_resume_cycle \
            else self._bubble_reason

    # ==================================================================
    # Fetch
    # ==================================================================

    def _fetch(self) -> bool:
        """Fetch one group, predicting branches as they are fetched.

        A group is either all correct-path (trace records, up to and
        including a mispredicted branch, which redirects fetch) or all
        wrong-path (the static code along the predicted path): the path
        only switches back at a recovery, between fetch groups.
        Correct-path records are read straight from the trace arrays at
        ``_next_trace_seq`` (a memory record's address at
        ``_next_mem_seq``); one at or past the end of the trace raises
        :class:`~repro.trace.format.TraceExhaustedError`.  A record's
        successor comes from its static instruction: the target of a
        taken branch or a jump, else the fall-through.  Returns
        whether fetch ran (it may still fetch nothing on an I-cache
        miss); False when a fetch stall or a full front end blocked it.
        """
        cycle = self.cycle
        if cycle < self._fetch_resume_cycle:
            return False
        frontend = self._frontend
        width = self._frontend_capacity - len(frontend)
        if width <= 0:
            return False
        if width > self._fetch_width:
            width = self._fetch_width
        insts = self._insts  # the instruction at pc is insts[pc // 4]
        end_pc = self._end_pc
        entry_pc = self._entry_pc
        hierarchy = self.hierarchy
        l1i_hit = self._l1i_hit
        predictor = self.predictor
        btb = self.btb
        trace = self.trace
        pcs, flags, mem_addrs = trace.pcs, trace.flags, trace.mem_addrs
        taken_of = self._taken_of
        stats = self.stats
        wrong_pc = self._wrong_path_pc
        on_trace = wrong_pc is None
        trace_seq = self._next_trace_seq
        mem_seq = self._next_mem_seq
        seq = self._next_seq
        last_line = self._last_ifetch_line
        fetched = 0
        while fetched < width:
            if on_trace:
                try:
                    pc = pcs[trace_seq]
                except IndexError:
                    from ..trace.format import TraceExhaustedError
                    raise TraceExhaustedError(
                        f"trace exhausted at record {trace_seq} "
                        f"(captured {len(pcs)}); acquire a longer trace"
                    ) from None
                inst = insts[pc // INST_BYTES]
            else:
                inst = insts[wrong_pc // INST_BYTES]
                pc = inst.pc
            # Instruction cache: one access per new line.
            line = pc >> 6
            if line != last_line:
                lat = hierarchy.ifetch(cycle, pc)
                last_line = line
                if lat > l1i_hit:
                    self._fetch_resume_cycle = cycle + lat
                    self._fetch_stall_reason = "l1i"
                    self._bubble_reason = "l1i"
                    last_line = -1  # re-check after the fill
                    break
            uop = Uop(seq, inst, cycle, on_trace,
                      trace_seq if on_trace else -1)
            seq += 1
            frontend.append(uop)
            fetched += 1
            fall = pc + INST_BYTES
            # Branch prediction at fetch: next_pc is where fetch goes on.
            if inst.is_conditional_branch:
                predicted_taken = predictor.predict(pc)
                target = None
                if predicted_taken:
                    target = btb.lookup(pc)
                    if target is None:
                        predicted_taken = False  # BTB miss: cannot redirect
                        stats.btb_misses_taken += 1
                predicted_next = target if predicted_taken else fall
                if predicted_next == fall and fall >= end_pc:
                    predicted_next = entry_pc
                uop.predicted_next_pc = predicted_next
                if on_trace:  # correct path: train with the truth
                    taken = taken_of[flags[trace_seq]]
                    next_pc = inst.target if taken \
                        else fall if fall < end_pc else entry_pc
                    predictor.update(pc, taken, predicted_taken)
                    if taken:
                        btb.install(pc, next_pc)
                    uop.actual_taken = taken
                    uop.actual_next_pc = next_pc
                    if predicted_next != next_pc:
                        # The front end redirects down the predicted
                        # path; stop this fetch group.
                        uop.mispredicted = True
                        trace_seq += 1
                        wrong_pc = predicted_next
                        break
                else:
                    next_pc = predicted_next
            elif inst.is_branch:  # JUMP: direct, always taken
                uop.predicted_next_pc = next_pc = inst.target
                if on_trace:
                    uop.actual_taken = True
                    uop.actual_next_pc = next_pc
            else:
                if on_trace and inst.is_mem:
                    uop.mem_addr = mem_addrs[mem_seq]
                    mem_seq += 1
                next_pc = fall if fall < end_pc else entry_pc
            if on_trace:
                trace_seq += 1
            else:
                wrong_pc = next_pc
            if next_pc != fall:
                break  # taken-transfer fetch break
        self._next_seq = seq
        self._next_trace_seq = trace_seq
        self._next_mem_seq = mem_seq
        self._wrong_path_pc = wrong_pc
        self._last_ifetch_line = last_line
        stats.fetched += fetched
        if not on_trace:
            stats.wrong_path_fetched += fetched
        return True
