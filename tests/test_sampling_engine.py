"""The one sampling engine, pinned to the planners it replaced.

Every sampled estimate runs as a :class:`~repro.sampling.controller.
TableController` table of :class:`~repro.sampling.adaptive.
AdaptiveSession`\\ s: fixed sampling is a session whose starting set is
its region cap, a single adaptive cell is a one-config table, and a pair
is a one-row table.  The digests below were recorded from the separate
fixed planner and per-cell escalation loop the sessions replaced, so the
engine must reproduce their regions, weights and estimates exactly.
"""

import hashlib

import pytest

from repro.analysis.runner import PairedRun, run_pair, run_suite
from repro.core.config import ProcessorConfig
from repro.sampling import (
    DEFAULT_REGIONS,
    AdaptiveSession,
    paired_speedup,
    sample_workload,
)
from repro.trace.store import TraceStore
from repro.workloads.profiles import get_profile, spec2006_profiles

BASE = ProcessorConfig.cortex_a72_like()
PUBS = BASE.with_pubs()
SKIP = 2000

#: Per ``"<program>-<span>"``: the sha256 of the fixed plan's regions,
#: each as ``(start, warmup, detail, measure, weight)`` in plan order,
#: for the span after a ``SKIP``-record skip with default parameters.
PINNED_FIXED_PLANS = {
    "astar-16000":
        "5e71a098ea7e1643d8578cadfa40d94b1d49e16220377a2ccdf32bffeba3a577",
    "astar-60000":
        "c559d5f260680ed16eb6fa0d5b1e2a88d72b600761e75472b92f09cf1fb70a96",
    "bwaves-16000":
        "59f9b788b5d19a8f146e2d925a7e79c737e048698e9bdad986849953c1de0a79",
    "bwaves-60000":
        "e13adf500bd9dcdde7c68fde44dc595eec7df784596b30e0a49c54f6e8c3f28d",
    "bzip2-16000":
        "86365bc2c005ea639067a10f93faa53d514b844bc9ea5d42411aa3b43a373cc4",
    "bzip2-60000":
        "3c611798f8a2eada6a54022f71be6b841ad112a5611c451fe31c5f7bd5eca981",
    "cactusADM-16000":
        "714a9d542df0d02a708af1206562c539f514eab0305082bfc423202496b650a2",
    "cactusADM-60000":
        "a60f1afb34420baf64a3eb361d3c8475900384aeb74afb0ae8a823c97148cdd5",
    "calculix-16000":
        "4665ce77dcbb645701bc0a19006fbdf433cdf089167f55ccc5755890643d4210",
    "calculix-60000":
        "4300ba39cca4127cd4b50c9ae75589585dad17d979fd9baaf200290b755eeff6",
    "dealII-16000":
        "758e4d453bb9641ca274ad7040edce5331212fe10d0cd1d063eafc7e3d24fc6d",
    "dealII-60000":
        "a123395e4d424d11946a39291d58a580f11c2f48612f6b8b6acc94967dff9e1e",
    "gamess-16000":
        "00d3a3f7d33466f1dfb085b8ddcd11b6e2f9aa540deb9d0999cfff5c44febc97",
    "gamess-60000":
        "1b3225ecbc3874412fda2d9cbac1cd764dae11d1b270a6a27727c9363ac1b451",
    "gcc-16000":
        "adb8f1f74fba01723979f204400bb33ac650423776a949504ceb4ae2a7e9ce73",
    "gcc-60000":
        "d0a171295338faa637676cd457ddd1d1c028041dad400b1aea41c5b14893988b",
    "GemsFDTD-16000":
        "8d14736f66c60e779ead2de93564dfe7cf561a022539e844a6b6ca41598e9e5c",
    "GemsFDTD-60000":
        "2596926aed9051b0cc539e32c523b059a4c53c55f60c75ba5e3ca622460cb12d",
    "gobmk-16000":
        "258dce59b2dc8fb62205097fd276026b0974bb204784f68e5d300230d25c7fe2",
    "gobmk-60000":
        "9a8b542d88fb46a967771f92c23781dbbb7973ffbeb932835b6997055ce2ed38",
    "gromacs-16000":
        "d51704ff3e3bb40bb2247daa65e50c60c009a032bea5a282c701d9a93fa4262b",
    "gromacs-60000":
        "302d60c472c1f1fcf1bd5dff75dd3bbdebef1f7acf22545755bd3c18d75b9af1",
    "h264ref-16000":
        "b4aa335b3e68b01573f850624c5d3f613d8081d309b579ea440837b065af5b71",
    "h264ref-60000":
        "ae30e7b0eb40d620f542ccb7ee30ee07872d8e3a2f6def1b3f57ca10147a77dc",
    "hmmer-16000":
        "55b883dfd9869da5f37c0c2b1ddb858412a05aa2ceafea89fc18d74545b079a4",
    "hmmer-60000":
        "b5ca55f9d84a125da19437c93474dab6e7addcbe70e24c8fc9e4859ee4494813",
    "lbm-16000":
        "6a8291ae530f148487d9db548a357305df5c781fefd557c0481d28420553207c",
    "lbm-60000":
        "bb94c99a4ed177a0ea28bc223d220615dccd3745b3edfc5febf68cef86ea7bdf",
    "leslie3d-16000":
        "4ac00d0ef21764f7ce31f41a0f2db9dedcce8fddbc50efc75792e082d4491c04",
    "leslie3d-60000":
        "834fe650927bef5083181947fe2f45640b4ed420856e6caf3666c453bd320c26",
    "libquantum-16000":
        "3b71a8f6870ac80fc15176291218a53faab6b23bc357786862727fb9b248e803",
    "libquantum-60000":
        "793fe0e99ad8a0f582d10f6bc5d7e942df8aeb18ff4cf043e6de9ad88dbcac20",
    "mcf-16000":
        "40f0c7ba1ca903a8d59efd35c7d7040ca6c68b1f19232ff2bf6973e82499101e",
    "mcf-60000":
        "e1a90c5b14ad04ad8be76a7ce23ee7446296e1c88293ce74d4bf34a309408cd3",
    "milc-16000":
        "747e50009917e160357e1abf7040e39fd661089ee0abc95b542c6cb0925150bb",
    "milc-60000":
        "47e20adf6e1e76a1a854df0958d5adde0a91b775c231ac91461ba41b4c7738d8",
    "namd-16000":
        "dbbc625663e943c690fb27992623c54c49181f416200e2d22bb971b883926669",
    "namd-60000":
        "00043f71c61201fd14a0b33f94060e3697c98c0a44691079f93bf8a9681ca007",
    "omnetpp-16000":
        "4eef9b91afb7252b12198fa9bbbe5c3189b33f06ad2b2c73111327c39d8c8888",
    "omnetpp-60000":
        "13761b2746e11d4ea6426dd6b74d1c810fa6efb5ed44534fb6d70ce60133ca8f",
    "perlbench-16000":
        "cc90103b6b0548b603dcddcdf4739a2089a19c9fa25848ac083600450888f80d",
    "perlbench-60000":
        "45916177f729ec7eaeddec5f7d2ea1a60f2598522229d67a3b73621b70c2084b",
    "povray-16000":
        "e5ecd2f6858b2bc7abaefe31eb9043edc079ae148c55211b9e323242328d6cc7",
    "povray-60000":
        "afd81846c7a51051c89484459dd93a27ffb56ce64d3da4a4c21c14f20aebce12",
    "sjeng-16000":
        "b023076c2667741f4d064acab5328be7d0c1f14aa8d02f66b9ea091eeb2c0e37",
    "sjeng-60000":
        "cf832a5e2f7f54bd196e7b8c72b550d479c60d6c5d754982950bf373d43ceea4",
    "soplex-16000":
        "d6f6f9bfd4a473b2808a07024c6471c507061dcfc1ae90649f723e0c0cc558c7",
    "soplex-60000":
        "f3110d510cef611f1137cc276fde57762588a0bfc9e4e5e6225b4c2e5cafa5fa",
    "sphinx3-16000":
        "942a6532eda5a27b0aa8e4aa8ea3291160cb9a891c9efc0f06eac30dad8b4f88",
    "sphinx3-60000":
        "dab2c97877bec139e6728af3b2f53db8ab3a1c8464c16656da35d0a576b6bd14",
    "tonto-16000":
        "c0225456e27444039e4f82984674d16080f8309a39391d10a609d5e88d396b56",
    "tonto-60000":
        "a595008fcbf9545c7856a27a13c251056db40d17dc8d873a87b3c57ad4da71a8",
    "xalancbmk-16000":
        "bd677cb0f43e1a63665332021c7c9a098dbff192d280f68742a4f3b1f43d469f",
    "xalancbmk-60000":
        "d0e0284bee0a783a4b6169a9c08aad7bc45dad232d3e1bf4b3b4e700935b63ca",
    "zeusmp-16000":
        "4d1095b5b9119e07bb9c21659efeab25080f75d1f93814b37827c25e9441e702",
    "zeusmp-60000":
        "d510f90078cb63eaca40b9f564d71aaa315f2a07262e64f52ce067d765b29f53",
}

#: Per ``"<program>-<config>"``: the sha256 of a single-cell adaptive
#: run at 20k/2k -- its regions as above, the CPI point, the relative
#: CI, every round as ``(regions, simulated_records, relative_ci)`` and
#: ``converged``.
PINNED_ADAPTIVE_RUNS = {
    "bzip2-base":
        "ca8e4542ae7c7953dfb4c7d537c8be549d1d9e1bfc491feac2bb3e98d39fb022",
    "bzip2-pubs":
        "8cd9cdd7715252e2bfee904da8f9e2f408bbf5a17785ebb6ff73cecde5e21436",
    "gcc-base":
        "4896cbba64ae604ad521fb57216ae82718af34773b05c102a7a731bc35a16f0a",
    "gcc-pubs":
        "09505c240609ce71578987986c53c3fcc6049b2d9d46152c4dbc4abbe1c621d5",
    "mcf-base":
        "cc82f0a4591e378f4128ef664f8399f729e464d39fb37d7e076e7a75575d4526",
    "mcf-pubs":
        "0134c04adf2bd2575e61e3a51234d40f6da8d2b69d12f01a2d5fab3e4d00c814",
    "sjeng-base":
        "e225f728b531d38b5d6af345dfb1a0aed8da8b4a0e345c4fbbe6c2be0bf77987",
    "sjeng-pubs":
        "7d602f9f9ab72eacba15da2f08052ae1018bbc4217668c287c40a88ebd98b4b7",
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _regions(plan):
    return [(r.start, r.warmup, r.detail, r.measure, r.weight)
            for r in plan.regions]


@pytest.fixture(scope="module")
def store():
    return TraceStore(persistent=False)


@pytest.mark.parametrize("span", [16000, 60000])
def test_fixed_sessions_reproduce_the_pinned_plans(span, store):
    """A session started at its region cap is the fixed plan, and never
    escalates."""
    for name in sorted(spec2006_profiles()):
        session = AdaptiveSession(
            get_profile(name), [None], instructions=span, skip=SKIP,
            start_regions=DEFAULT_REGIONS, regions=DEFAULT_REGIONS,
            jobs=1, cache=False, store=store)
        assert _digest(_regions(session.plan)) \
            == PINNED_FIXED_PLANS[f"{name}-{span}"], name
        assert not session.can_escalate


@pytest.mark.parametrize("name", ["mcf", "sjeng", "gcc", "bzip2"])
def test_one_cell_tables_reproduce_the_pinned_adaptive_runs(name, store):
    for label, config in (("base", BASE), ("pubs", PUBS)):
        run = sample_workload(name, config, instructions=20_000, skip=SKIP,
                              sampling="adaptive", jobs=1, cache=False,
                              store=store)
        payload = (_regions(run.plan), run.cpi.point, run.cpi.relative_error,
                   [(r.regions, r.simulated_records, r.relative_ci)
                    for r in run.rounds],
                   run.converged)
        assert _digest(payload) == PINNED_ADAPTIVE_RUNS[f"{name}-{label}"], \
            (label, payload)


def test_sampled_pair_is_the_suite_row(isolated_store):
    """An adaptive pair escalates both sides in lockstep under the table
    criterion, so it reports exactly what the suite reports."""
    budget = dict(sampling="adaptive", instructions=20_000, skip=SKIP,
                  jobs=1, cache=False)
    pair = run_pair("bzip2", BASE, PUBS, **budget)
    assert pair.ci_method == "paired"
    base, variant = pair.base_cell.sampled, pair.variant_cell.sampled
    assert base.plan.regions == variant.plan.regions
    assert paired_speedup(base, variant) is not None
    table = run_suite({"base": BASE, "pubs": PUBS}, ["bzip2"], **budget)
    row = PairedRun("bzip2", table["base"]["bzip2"], table["pubs"]["bzip2"])
    assert pair.speedup == row.speedup
    assert pair.speedup_relative_ci == row.speedup_relative_ci
