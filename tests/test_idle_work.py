"""Work no result reads: quiet cycles and trace records past the reach.

After a cycle that leaves nothing for the next one to do, the cycle loop
jumps over the quiet cycles that follow and adds their counters in bulk
(:meth:`~repro.core.pipeline.Pipeline._fast_forward`).  The jump must be
invisible: with it monkeypatched into a no-op the loop steps every
cycle, and both runs must agree on every counter, every side-structure
statistic and the misprediction timeline.  A run acquires exactly
``end + replay_reach(config)`` trace records, so no run may ever fetch a
record at or past that bound.
"""

import contextlib
import dataclasses

import pytest

from repro.batch import run_batch
from repro.core.config import ProcessorConfig, size_models
from repro.core.pipeline import DeadlockError, Pipeline, replay_reach
from repro.exec.jobs import SimJob
from repro.memory import CacheConfig
from repro.pubs import PubsConfig
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BASE = ProcessorConfig.cortex_a72_like()
WORKLOADS = ("mcf", "libquantum", "sjeng", "gcc")
CONFIGS = {
    "base": BASE,
    "pubs": BASE.with_pubs(),
    "non-stall": BASE.with_pubs(PubsConfig(stall_policy=False)),
    # Short observation windows, so the mode switch decides (and on mcf
    # disables PUBS) inside the timed span.
    "mode-switch": BASE.with_pubs(PubsConfig(mode_switch_interval=256)),
    # A small IQ under the non-stall policy: unconfident heads stall on
    # a full IQ after asking for the priority partition.
    "non-stall-small-iq": BASE.with_overrides(iq_size=16).with_pubs(
        PubsConfig(stall_policy=False, priority_entries=4)),
    "distributed": BASE.with_overrides(distributed_iq=True).with_pubs(),
    "age-matrix": BASE.with_age_matrix(),
    "shifting": BASE.with_overrides(iq_organization="shifting"),
    "circular": BASE.with_overrides(iq_organization="circular"),
    # Two L1I lines: fetch stalls on I-misses while the front-end head
    # is still too young to dispatch.
    "tiny-l1i": BASE.with_overrides(memory=dataclasses.replace(
        BASE.memory, l1i=CacheConfig("L1I", 128, 1, 64, hit_latency=1))),
}
INSTRUCTIONS = 2000
SKIP = 2000


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(root=tmp_path_factory.mktemp("traces"),
                      persistent=False)


@contextlib.contextmanager
def stepping():
    """Step every cycle: the jump becomes a no-op."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Pipeline, "_fast_forward",
                   lambda self, idle, cycle_limit: self.cycle)
        yield


@contextlib.contextmanager
def recording_jumps():
    """Record every jump as ``(from, to, cycle_limit)``."""
    jumps = []
    real = Pipeline._fast_forward

    def fast_forward(self, idle, cycle_limit):
        before = self.cycle
        after = real(self, idle, cycle_limit)
        if after != before:
            jumps.append((before, after, cycle_limit))
        return after

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Pipeline, "_fast_forward", fast_forward)
        yield jumps


def _skipped(jumps):
    return sum(after - before for before, after, _ in jumps)


def _pipeline(workload, config, store):
    profile = get_profile(workload)
    return Pipeline(build_program(profile), config,
                    mem_seed=profile.mem_seed, trace_source=store)


def _observe(pipe):
    """Everything a run's result and reports read from the pipeline."""
    return {
        "cycle": pipe.cycle,
        "stats": dataclasses.asdict(pipe.stats),
        "select": dataclasses.asdict(pipe.select_logic.stats),
        "iq": (pipe.iq.dispatches, pipe.iq.priority_dispatches,
               pipe.iq.occupancy),
        "tracker": dataclasses.asdict(pipe.slice_tracker.stats),
        "mode_switch": dataclasses.asdict(pipe.mode_switch.stats),
        "mispredictions": list(pipe.misprediction_log),
    }


def _both(workload, config, store, *args, **kwargs):
    """(stepped, fast-forwarded, skipped cycles) of one run."""
    stepped = _pipeline(workload, config, store)
    with stepping():
        stepped.run(*args, **kwargs)
    jumped = _pipeline(workload, config, store)
    with recording_jumps() as jumps:
        jumped.run(*args, **kwargs)
    return _observe(stepped), _observe(jumped), _skipped(jumps)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_forward_matches_stepping(workload, name, store):
    stepped, jumped, skipped = _both(workload, CONFIGS[name], store,
                                     INSTRUCTIONS, SKIP)
    assert jumped == stepped
    assert skipped > 0  # the jump really ran
    if workload == "mcf" and name == "mode-switch":
        assert jumped["mode_switch"]["disabled_windows"] > 0


def test_fast_forward_matches_stepping_in_a_sampled_region(store):
    """The detailed warmup of a region runs the same loop."""
    config = BASE.with_pubs().with_region(6000, warmup=2000, detail=500)
    stepped, jumped, skipped = _both("mcf", config, store, 1500)
    assert jumped == stepped
    assert skipped > 0


def test_fast_forward_stops_at_every_invariant_sweep(store):
    """Full verification sweeps on the same cycles as stepping: the jump
    never crosses a sweep cycle."""
    config = BASE.with_pubs().with_verification("full", interval=64)
    stepped = _pipeline("mcf", config, store)
    with stepping():
        stepped.run(1000, SKIP)
    jumped = _pipeline("mcf", config, store)
    with recording_jumps() as jumps:
        jumped.run(1000, SKIP)
    assert _skipped(jumps) > 0
    assert _observe(jumped) == _observe(stepped)
    assert jumped.verifier.invariant_sweeps \
        == stepped.verifier.invariant_sweeps == stepped.cycle // 64 + 1


def test_deadlock_error_matches_stepping(store):
    """A cycle-bounded run raises at the same cycle, with the same
    message, whether or not the limit falls inside a quiet stretch."""
    capped = False
    for max_cycles in range(150, 700, 50):
        outcomes = []
        for mode in (stepping, recording_jumps):
            pipe = _pipeline("mcf", BASE, store)
            with mode() as jumps, pytest.raises(DeadlockError) as excinfo:
                pipe.run(10 ** 6, SKIP, max_cycles=max_cycles)
            outcomes.append((str(excinfo.value), _observe(pipe)))
        assert outcomes[0] == outcomes[1]
        # A jump cut off at the limit: the quiet stretch ran past it.
        capped |= any(after == limit for _, after, limit in jumps)
    assert capped


@pytest.mark.parametrize("pubs", [False, True], ids=["base", "pubs"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_run_fetches_past_its_reach(workload, pubs, tmp_path,
                                       monkeypatch):
    """Every Table IV machine, batched smallest first: the batch acquires
    once for its widest member, no member extends the trace, and none
    fetches a record at or past ``end + replay_reach`` of its own."""
    store = TraceStore(root=tmp_path, persistent=False)
    furthest = []
    real_fetch = Pipeline._fetch

    def fetch(self):
        ran = real_fetch(self)
        furthest[-1] = max(furthest[-1], self._next_trace_seq - 1)
        return ran

    real_run = Pipeline.run

    def run(self, *args, **kwargs):
        furthest.append(-1)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "_fetch", fetch)
    monkeypatch.setattr(Pipeline, "run", run)
    profile = get_profile(workload)
    machines = sorted(size_models().values(), key=replay_reach)
    jobs = [SimJob(profile, machine.with_pubs() if pubs else machine,
                   2000, 4000) for machine in machines]
    results = run_batch(jobs, trace_source=store)
    assert [r.stats.committed for r in results] == [2000] * len(jobs)
    assert store.captures == 1 and store.extensions == 0
    end = 4000 + 2000
    for job, seq in zip(jobs, furthest):
        assert end <= seq < end + replay_reach(job.config)


@pytest.mark.parametrize("sampling", ["fixed", "adaptive"])
def test_sampled_span_acquires_for_its_widest_config(sampling,
                                                     isolated_store):
    """A sampled span is captured once, for the widest machine that will
    replay its regions."""
    from repro.analysis.runner import run_suite
    from repro.trace.store import shared_store

    machines = size_models()
    run_suite({"small": machines["small"], "huge": machines["huge"]},
              ["mcf"], instructions=4000, skip=1000, sampling=sampling,
              jobs=1, cache=False)
    store = shared_store()
    profile = get_profile("mcf")
    info = store.describe(build_program(profile), profile.mem_seed)
    assert info["records"] == 1000 + 4000 + replay_reach(machines["huge"])
    assert store.captures == 1 and store.extensions == 0


def test_each_program_is_built_once():
    """A program is an immutable value, so every run of a workload shares
    one build (and the fingerprint memoized on it)."""
    profile = get_profile("gcc")
    program = build_program(profile)
    assert build_program(profile) is program
    assert isinstance(program.insts, tuple)
    assert isinstance(program.warm_regions, tuple)
