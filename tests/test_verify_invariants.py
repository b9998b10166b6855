"""Mutation tests for the invariant checkers (``repro.verify.invariants``).

Every built-in invariant must (a) pass on a warmed, mid-flight pipeline and
(b) *fire* when the structure it guards is deliberately corrupted -- a check
that cannot detect seeded corruption is a check that detects nothing.

The pipelines here are stopped mid-run (via ``max_cycles`` +
:class:`DeadlockError`) so the ROB/IQ/LSQ/rename structures are populated
with genuinely in-flight state when the mutations land.
"""

import pytest

from repro.core.config import ProcessorConfig
from repro.core.pipeline import DeadlockError, Pipeline
from repro.pubs.tables import Pointer
from repro.verify import InvariantViolation, default_registry
from repro.verify.invariants import InvariantRegistry, check_priority_partition
from repro.workloads import build_program, get_profile

BASE = ProcessorConfig.cortex_a72_like()
PUBS = BASE.with_pubs()


def warmed_pipeline(config=BASE, workload="sjeng", cycles=400):
    """A pipeline frozen mid-run with in-flight state in every structure."""
    pipeline = Pipeline(build_program(get_profile(workload)), config)
    with pytest.raises(DeadlockError):
        pipeline.run(10 ** 9, skip_instructions=500, max_cycles=cycles)
    return pipeline


def expect_violation(pipeline, invariant):
    with pytest.raises(InvariantViolation) as excinfo:
        default_registry().run(pipeline)
    assert excinfo.value.invariant == invariant
    return excinfo.value


@pytest.fixture
def base_pipeline():
    return warmed_pipeline(BASE)


@pytest.fixture
def pubs_pipeline():
    return warmed_pipeline(PUBS)


class TestRegistry:
    def test_default_registry_names(self):
        names = default_registry().names()
        assert names == ("free-list-conservation", "rob-iq-lsq-agreement",
                         "priority-partition-bounds",
                         "brslice-pointer-validity", "conf-counter-range",
                         "scheduler-wakeup-consistency",
                         "topdown-cycle-accounting",
                         "trace-sequence-continuity")

    def test_register_unregister_and_decorator(self):
        registry = InvariantRegistry()
        calls = []

        @registry.register("probe")
        def probe(pipeline):
            calls.append(pipeline)

        registry.run("sentinel")
        assert calls == ["sentinel"]
        with pytest.raises(ValueError):
            registry.register("probe", probe)
        registry.unregister("probe")
        assert len(registry) == 0

    def test_clean_pipelines_pass_every_invariant(self, base_pipeline,
                                                  pubs_pipeline):
        default_registry().run(base_pipeline)
        default_registry().run(pubs_pipeline)
        # And in-flight state is actually there to be checked.
        assert len(base_pipeline.rob) > 0
        assert base_pipeline.iq.occupancy > 0


class TestFreeListConservation:
    def test_double_free_detected(self, base_pipeline):
        renamer = base_pipeline.renamer
        renamer._free_int.append(renamer.map[0])  # mapped AND free
        violation = expect_violation(base_pipeline, "free-list-conservation")
        assert "duplicated" in violation.detail or "conserved" in violation.detail

    def test_leaked_register_detected(self, base_pipeline):
        renamer = base_pipeline.renamer
        renamer._free_int.pop()  # a register vanishes from the machine
        violation = expect_violation(base_pipeline, "free-list-conservation")
        assert "leaked" in violation.detail

    def test_cross_class_free_detected(self, base_pipeline):
        # An integer-class physical register on the FP free list.
        base_pipeline.renamer._free_fp.append(0)
        violation = expect_violation(base_pipeline, "free-list-conservation")
        assert "out-of-class" in violation.detail


class TestOccupancyAgreement:
    def test_iq_slot_cleared_behind_free_lists_back(self, base_pipeline):
        slot, _ = next(iter(base_pipeline.iq.occupied()))
        base_pipeline.iq._slots[slot] = None
        expect_violation(base_pipeline, "rob-iq-lsq-agreement")

    def test_stale_iq_handle_detected(self, base_pipeline):
        slot, uop = next(iter(base_pipeline.iq.occupied()))
        uop.iq_slot = slot + 999
        violation = expect_violation(base_pipeline, "rob-iq-lsq-agreement")
        assert "handle" in violation.detail or "disagrees" in violation.detail

    def test_stale_handle_on_a_shifting_pipeline_detected(self):
        """Shifting-queue handles are stable too: an entry whose uop
        names another live entry's handle is caught."""
        pipeline = warmed_pipeline(
            BASE.with_overrides(iq_organization="shifting"))
        default_registry().run(pipeline)
        (first, uop), (second, _) = list(pipeline.iq.occupied())[:2]
        uop.iq_slot = second
        violation = expect_violation(pipeline, "rob-iq-lsq-agreement")
        assert f"IQ entry {first} holds a uop whose handle says {second}" \
            in violation.detail

    def test_squashed_uop_lingering_in_iq_detected(self, base_pipeline):
        _, uop = next(iter(base_pipeline.iq.occupied()))
        uop.squashed = True
        violation = expect_violation(base_pipeline, "rob-iq-lsq-agreement")
        assert "squashed" in violation.detail

    def test_lsq_membership_mismatch_detected(self, base_pipeline):
        mem_uop = next(u for u in base_pipeline.rob if u.inst.is_mem)
        mem_uop.in_lsq = False
        violation = expect_violation(base_pipeline, "rob-iq-lsq-agreement")
        assert "LSQ" in violation.detail


class TestPriorityPartition:
    # Free-list tampering also desynchronizes iq.occupancy, which the
    # earlier rob-iq-lsq-agreement sweep would flag first; the partition
    # check is exercised directly so its own diagnostics are what fire.
    def test_priority_free_list_escapes_partition(self, pubs_pipeline):
        iq = pubs_pipeline.iq
        # Claim a normal-partition slot is free *priority* capacity.
        iq._free_priority.append(iq.priority_entries)
        with pytest.raises(InvariantViolation) as excinfo:
            check_priority_partition(pubs_pipeline)
        assert excinfo.value.invariant == "priority-partition-bounds"
        assert "partition" in excinfo.value.detail

    def test_duplicate_free_slot_detected(self, pubs_pipeline):
        iq = pubs_pipeline.iq
        iq._free_normal.append(iq._free_normal[0])
        with pytest.raises(InvariantViolation) as excinfo:
            check_priority_partition(pubs_pipeline)
        assert "duplicate" in excinfo.value.detail

    def test_dispatch_accounting_detected(self, pubs_pipeline):
        stats = pubs_pipeline.stats
        stats.priority_dispatches = stats.unconfident_dispatches + 1
        expect_violation(pubs_pipeline, "priority-partition-bounds")

    def test_distributed_queues_are_swept(self):
        pipeline = warmed_pipeline(
            BASE.with_overrides(distributed_iq=True).with_pubs())
        queue = next(iter(pipeline.iq.queues.values()))
        queue._free_priority.append(queue.size - 1)
        with pytest.raises(InvariantViolation) as excinfo:
            check_priority_partition(pipeline)
        assert excinfo.value.invariant == "priority-partition-bounds"


class TestSliceTableValidity:
    def test_wild_brslice_pointer_detected(self, pubs_pipeline):
        tracker = pubs_pipeline.slice_tracker
        tracker.brslice_tab._sets[0].insert(0, (3, Pointer(10 ** 6, 0)))
        violation = expect_violation(pubs_pipeline, "brslice-pointer-validity")
        assert "outside" in violation.detail

    def test_overwide_tag_detected(self, pubs_pipeline):
        tracker = pubs_pipeline.slice_tracker
        conf_ptr = tracker.conf_tab.pointer(0x100)
        wild_tag = 1 << tracker.brslice_tab.codec.fold_width
        tracker.brslice_tab._sets[1].insert(0, (wild_tag, conf_ptr))
        expect_violation(pubs_pipeline, "brslice-pointer-validity")

    def test_def_tab_pointer_checked(self, pubs_pipeline):
        tracker = pubs_pipeline.slice_tracker
        tracker.def_tab._entries[5] = Pointer(10 ** 6, 0)
        violation = expect_violation(pubs_pipeline, "brslice-pointer-validity")
        assert "def_tab[5]" in violation.detail


class TestConfidenceCounterRange:
    def test_overflowed_counter_detected(self, pubs_pipeline):
        conf = pubs_pipeline.slice_tracker.conf_tab
        conf.train(0x40, correct=True)  # guarantee an allocated counter
        counter = conf.counter_for_pc(0x40)
        counter.value = counter.maximum + 5
        violation = expect_violation(pubs_pipeline, "conf-counter-range")
        assert "outside" in violation.detail

    def test_negative_counter_detected(self, pubs_pipeline):
        conf = pubs_pipeline.slice_tracker.conf_tab
        conf.train(0x40, correct=False)
        conf.counter_for_pc(0x40).value = -1
        expect_violation(pubs_pipeline, "conf-counter-range")


class TestSchedulerWakeup:
    def test_phantom_pending_source_detected(self, base_pipeline):
        _, uop = next(iter(base_pipeline.iq.occupied()))
        uop.pending_srcs += 1  # claims a wakeup that was never registered
        violation = expect_violation(base_pipeline,
                                     "scheduler-wakeup-consistency")
        assert "pending_srcs" in violation.detail

    def test_negative_pending_count_detected(self, base_pipeline):
        _, uop = next(iter(base_pipeline.iq.occupied()))
        uop.pending_srcs = -1
        violation = expect_violation(base_pipeline,
                                     "scheduler-wakeup-consistency")
        assert "negative" in violation.detail

    @pytest.mark.parametrize("organization", ["shifting", "circular"])
    def test_phantom_pending_source_detected_on_ordered_queues(
            self, organization):
        pipeline = warmed_pipeline(
            BASE.with_overrides(iq_organization=organization))
        default_registry().run(pipeline)
        _, uop = next(iter(pipeline.iq.occupied()))
        uop.pending_srcs += 1
        violation = expect_violation(pipeline, "scheduler-wakeup-consistency")
        assert "pending_srcs" in violation.detail


class TestTraceSequence:
    def test_refetch_of_an_in_flight_record_detected(self, base_pipeline):
        base_pipeline._next_trace_seq -= 1  # fetch would re-read a record
        violation = expect_violation(base_pipeline,
                                     "trace-sequence-continuity")
        assert "fetch resumes" in violation.detail

    def test_memory_cursor_off_its_rank_detected(self, base_pipeline):
        base_pipeline._next_mem_seq += 1  # fetch would skip an address
        violation = expect_violation(base_pipeline,
                                     "trace-sequence-continuity")
        assert "memory record" in violation.detail

    def test_skipped_record_detected(self, base_pipeline):
        second = [u for u in base_pipeline.rob if u.on_correct_path][1]
        second.trace_seq += 1
        violation = expect_violation(base_pipeline,
                                     "trace-sequence-continuity")
        assert "expected" in violation.detail

    @pytest.mark.parametrize("config", [BASE, PUBS], ids=["base", "pubs"])
    @pytest.mark.parametrize("workload", ["sjeng", "gcc", "lbm", "mcf"])
    def test_recovery_finds_the_cursors_past_the_branch(self, workload,
                                                        config, monkeypatch):
        """Recovery moves neither trace cursor: fetch already stands one
        record past the mispredicted branch, and the wrong path it ran
        since reads no trace record."""
        real_recover = Pipeline._recover
        recoveries = []

        def recover(self, branch):
            assert self._next_trace_seq == branch.trace_seq + 1
            assert self._next_mem_seq == self.trace.mem_rank(
                self._next_trace_seq)
            recoveries.append(branch.trace_seq)
            real_recover(self, branch)

        monkeypatch.setattr(Pipeline, "_recover", recover)
        pipeline = Pipeline(build_program(get_profile(workload)), config)
        pipeline.run(2000, skip_instructions=2000)
        assert recoveries

    @pytest.mark.parametrize("mutant", ["recover-rewinds-too-far",
                                        "fetch-stops-advancing",
                                        "seat-ranks-one-late"])
    def test_mutated_pipeline_caught(self, mutant, monkeypatch):
        """A run whose fetch re-reads a record, or would read a memory
        record's address at the wrong rank, stops at the next sweep,
        before the record can commit."""
        if mutant == "recover-rewinds-too-far":
            real_recover = Pipeline._recover

            def recover(self, branch):
                real_recover(self, branch)
                self._next_trace_seq -= 1

            monkeypatch.setattr(Pipeline, "_recover", recover)
        elif mutant == "seat-ranks-one-late":
            real_prepare = Pipeline._prepare_replay

            def prepare(self, *args, **kwargs):
                real_prepare(self, *args, **kwargs)
                self._next_mem_seq += 1

            monkeypatch.setattr(Pipeline, "_prepare_replay", prepare)
        else:
            real_fetch = Pipeline._fetch

            def fetch(self):
                seq = self._next_trace_seq
                ran = real_fetch(self)
                self._next_trace_seq = seq
                return ran

            monkeypatch.setattr(Pipeline, "_fetch", fetch)
        config = BASE.with_verification("full", interval=1)
        pipeline = Pipeline(build_program(get_profile("sjeng")), config)
        with pytest.raises(InvariantViolation) as excinfo:
            pipeline.run(2000, skip_instructions=500)
        assert excinfo.value.invariant == "trace-sequence-continuity"
