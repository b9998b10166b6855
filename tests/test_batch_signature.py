"""Property test: the batch signature partitions jobs exactly right.

Two jobs may share one batched trace walk iff they agree on the
warm-class state -- workload, budget, replay window, memory configuration
and the warmup-trained front-end slice.  Everything else is a
timing-steering knob each member keeps privately.  The property, over
randomly drawn configurations:

* any combination of *steering-only* differences (PUBS dispatch policy,
  window sizes, widths, IQ organization, verification) leaves the
  signature unchanged -- those jobs batch together;
* flipping any single *warm-class* field (profile, budget, region, memory
  geometry, predictor geometry, PUBS table geometry / enablement) splits
  the signature -- those jobs must not share a walk.
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import ProcessorConfig
from repro.exec.jobs import SimJob, batch_signature
from repro.pubs import PubsConfig
from repro.workloads import get_profile

BASE = ProcessorConfig.cortex_a72_like()
PROFILE = get_profile("sjeng")
INSTRUCTIONS, SKIP = 3000, 2000


def _job(config=BASE, profile=PROFILE, instructions=INSTRUCTIONS,
         skip=SKIP):
    return SimJob(profile, config, instructions, skip)


#: Timing-steering machine knobs: anything here may differ between batch
#: members.  PUBS stays enabled on both sides (its enablement is
#: warm-class); only its dispatch-policy fields vary.
steering_knobs = st.fixed_dictionaries({}, optional={
    "rob_size": st.sampled_from([96, 128, 192]),
    "iq_size": st.sampled_from([32, 64, 96]),
    "lsq_size": st.sampled_from([32, 64]),
    "fetch_width": st.sampled_from([3, 4, 5]),
    "recovery_penalty": st.sampled_from([5, 10, 15]),
    "use_age_matrix": st.booleans(),
    "verify_level": st.sampled_from(["off", "commit-only", "full"]),
    "priority_entries": st.sampled_from([4, 6, 8]),
    "stall_policy": st.booleans(),
    "mode_switch_enabled": st.booleans(),
})


def _steered(knobs) -> ProcessorConfig:
    pubs_fields = {k: knobs.pop(k) for k in
                   ("priority_entries", "stall_policy",
                    "mode_switch_enabled") if k in knobs}
    cfg = BASE.with_pubs(PubsConfig(**pubs_fields))
    if knobs:
        cfg = cfg.with_overrides(**knobs)
    return cfg


@given(steering_knobs, steering_knobs)
def test_steering_only_differences_share_a_signature(knobs_a, knobs_b):
    a = _job(_steered(dict(knobs_a)))
    b = _job(_steered(dict(knobs_b)))
    assert batch_signature(a) == batch_signature(b)


#: (left, right) job pairs differing in exactly one warm-class field
#: family; every pair must land in different batch-equivalence classes.
_WARM_SPLITS = {
    "workload": (lambda: _job(),
                 lambda: _job(profile=get_profile("mcf"))),
    "instructions": (lambda: _job(),
                     lambda: _job(instructions=INSTRUCTIONS + 500)),
    "skip": (lambda: _job(), lambda: _job(skip=SKIP + 500)),
    "region": (lambda: _job(),
               lambda: _job(BASE.with_region(start=1500, warmup=1000))),
    "memory_latency": (lambda: _job(), lambda: _job(BASE.with_overrides(
        memory=dataclasses.replace(BASE.memory, memory_latency=310)))),
    "predictor": (lambda: _job(), lambda: _job(BASE.with_overrides(
        predictor=dataclasses.replace(BASE.predictor,
                                      history_length=30)))),
    "pubs_enabled": (lambda: _job(), lambda: _job(BASE.with_pubs())),
    "pubs_geometry": (lambda: _job(BASE.with_pubs()),
                      lambda: _job(BASE.with_pubs(
                          PubsConfig(conf_sets=128)))),
    "pubs_blind": (lambda: _job(BASE.with_pubs()),
                   lambda: _job(BASE.with_pubs(PubsConfig(blind=True)))),
}


@given(st.sampled_from(sorted(_WARM_SPLITS)))
def test_any_warm_class_difference_splits_the_signature(split):
    left, right = _WARM_SPLITS[split]
    assert batch_signature(left()) != batch_signature(right())


def test_signature_is_stable_across_equal_builds():
    a = _job(ProcessorConfig.cortex_a72_like())
    b = _job(ProcessorConfig.cortex_a72_like())
    assert batch_signature(a) == batch_signature(b)
