"""Trace format: round-trip, corruption handling, extension, the store.

The robustness contract mirrors the result cache's: any damaged or stale
on-disk trace is a *miss* (clean re-record), never a crash -- a sweep must
survive a truncated file, a schema bump, or garbage bytes without user
intervention.
"""

import functools
import multiprocessing
import pickle
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exec.serialize import CACHE_SCHEMA_VERSION
from repro.isa.executor import FunctionalExecutor
from repro.trace import (
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    capture_trace,
    decode_trace,
    encode_trace,
    extend_trace,
    trace_metadata,
)
from repro.trace.format import (
    FLAG_MEM,
    FLAG_MEM_TABLE,
    MEM_RANK_BLOCK,
    _checksum,
)
from repro.trace.store import TraceStore, program_fingerprint
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile, spec2006_profiles

PROFILE = get_profile("sjeng")
PROGRAM = build_program(PROFILE)


def _capture(length=1000, skip=400):
    return capture_trace(PROGRAM, PROFILE.mem_seed, length, skip=skip)


# ----------------------------------------------------------------------
# Capture correctness
# ----------------------------------------------------------------------

def _successor(trace, i):
    """The PC after record ``i``: the next record's, or the end state's."""
    return trace.pcs[i + 1] if i + 1 < len(trace) \
        else trace.end_checkpoint.pc


def test_capture_matches_functional_execution():
    trace = _capture(length=600, skip=0)
    executor = FunctionalExecutor(PROGRAM, mem_seed=PROFILE.mem_seed)
    for i in range(600):
        record = executor.step()
        assert trace.pcs[i] == record.inst.pc
        assert _successor(trace, i) == record.next_pc
        assert bool(trace.flags[i] & 1) == record.taken
        if record.mem_addr is not None:
            assert trace.flags[i] & 4
            assert trace.mem_addrs[trace.mem_rank(i)] == record.mem_addr
        else:
            assert not (trace.flags[i] & 4)


def test_capture_checkpoints_positions():
    trace = _capture(length=1000, skip=400)
    assert trace.skip_checkpoint.seq == 400
    assert trace.end_checkpoint.seq == 1000
    assert len(trace) == 1000
    no_skip = _capture(length=100, skip=0)
    assert no_skip.skip_checkpoint is None


def test_capture_validates_arguments():
    with pytest.raises(ValueError):
        capture_trace(PROGRAM, 0, 0)
    with pytest.raises(ValueError):
        capture_trace(PROGRAM, 0, 10, skip=11)


def test_checkpoint_restore_resumes_identically():
    trace = _capture(length=500, skip=200)
    resumed = trace.skip_checkpoint.restore(PROGRAM)
    fresh = FunctionalExecutor(PROGRAM, mem_seed=PROFILE.mem_seed)
    fresh.run(200)
    for a, b in zip(resumed.run(300), fresh.run(300)):
        assert (a.seq, a.inst.pc, a.taken, a.next_pc, a.mem_addr) \
            == (b.seq, b.inst.pc, b.taken, b.next_pc, b.mem_addr)


# ----------------------------------------------------------------------
# Round-trip and validation
# ----------------------------------------------------------------------

def test_encode_decode_round_trip():
    trace = _capture()
    payload = pickle.loads(pickle.dumps(encode_trace(trace)))
    loaded = decode_trace(payload)
    assert list(loaded.pcs) == list(trace.pcs)
    assert bytes(loaded.flags) == bytes(trace.flags)
    assert list(loaded.mem_addrs) == list(trace.mem_addrs)
    assert loaded.skip_checkpoint == trace.skip_checkpoint
    assert loaded.end_checkpoint == trace.end_checkpoint
    assert loaded.captured_skip == trace.captured_skip
    assert loaded.mem_seed == trace.mem_seed


@pytest.mark.parametrize("mutate", [
    lambda p: p.__setitem__("format", 999),          # stale schema
    lambda p: p.__setitem__("pcs", p["pcs"][:-4]),   # truncated array
    lambda p: p.__setitem__("checksum", "0" * 64),   # corrupted checksum
    lambda p: p.__setitem__("count", 7),             # inconsistent count
    lambda p: p.pop("end_checkpoint"),               # missing field
], ids=["version", "truncated", "checksum", "count", "missing-field"])
def test_decode_rejects_damaged_payloads(mutate):
    payload = encode_trace(_capture())
    mutate(payload)
    with pytest.raises(TraceFormatError):
        decode_trace(payload)


def test_decode_rejects_non_mapping():
    with pytest.raises(TraceFormatError):
        decode_trace([1, 2, 3])


def test_decode_rejects_an_address_count_off_the_memory_flags():
    payload = encode_trace(_capture())
    payload["mem_addrs"] = payload["mem_addrs"][:-8]  # one address short
    payload["checksum"] = _checksum(payload["pcs"], payload["flags"],
                                    payload["mem_addrs"])
    with pytest.raises(TraceFormatError, match="addresses"):
        decode_trace(payload)


def _v2_payload(trace):
    """``trace`` in the format-2 layout: five per-record arrays --
    successor PCs, one address slot per record and write-back values
    beside the PCs and flags -- checksummed the way format 2 was."""
    payload = encode_trace(trace)
    successors = array("I", trace.pcs[1:])
    successors.append(trace.end_checkpoint.pc)
    addrs = iter(trace.mem_addrs)
    dense = array("Q", (next(addrs) if f & FLAG_MEM else 0
                        for f in trace.flags))
    arrays = (payload["pcs"], payload["flags"], successors.tobytes(),
              dense.tobytes(), bytes(8 * len(trace)))
    payload.update(format=2, next_pcs=arrays[2], mem_addrs=arrays[3],
                   wb_values=arrays[4], checksum=_checksum(*arrays))
    return payload


def test_decode_rejects_the_v2_layout():
    payload = _v2_payload(_capture())
    with pytest.raises(TraceFormatError, match="version 2"):
        decode_trace(payload)
    # Relabelled as the current format, its dense addresses fail the
    # checksum over the three arrays.
    payload["format"] = TRACE_FORMAT_VERSION
    with pytest.raises(TraceFormatError):
        decode_trace(payload)


# ----------------------------------------------------------------------
# Layout: three arrays, one address per memory record
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(spec2006_profiles()))
def test_payload_is_five_bytes_a_record_plus_an_address_a_memory_record(
        name):
    """A 4-byte PC and a flag byte per record, 8 bytes per load or
    store: an array brought back per record fails here."""
    profile = get_profile(name)
    program = build_program(profile)
    trace = capture_trace(program, profile.mem_seed, 3000)
    mem_records = sum(program.at(pc).is_mem for pc in trace.pcs)
    assert trace.payload_bytes() == 5 * len(trace) + 8 * mem_records
    assert trace_metadata(encode_trace(trace))["payload_bytes"] \
        == trace.payload_bytes()


@functools.lru_cache(maxsize=None)
def _ranked_capture(workload, length):
    profile = get_profile(workload)
    program = build_program(profile)
    return program, capture_trace(program, profile.mem_seed, length)


#: Short traces, and lengths either side of the rank table's blocks.
_RANK_LENGTHS = st.one_of(
    st.integers(min_value=1, max_value=600),
    st.sampled_from([MEM_RANK_BLOCK * k + d for k in (1, 2, 3)
                     for d in (-1, 0, 1)]))


@given(workload=st.sampled_from(["lbm", "mcf", "sjeng"]),
       length=_RANK_LENGTHS)
def test_mem_rank_counts_memory_flags_and_finds_each_address(workload,
                                                             length):
    """``mem_rank(seq)`` is the number of memory flags before ``seq``, at
    every seq including the end, and ranks each memory record onto the
    address the functional executor computed for it."""
    program, trace = _ranked_capture(workload, length)
    flags = trace.flags
    for seq in range(length + 1):
        assert trace.mem_rank(seq) == \
            flags[:seq].translate(FLAG_MEM_TABLE).count(1)
    assert trace.mem_rank(length) == len(trace.mem_addrs)
    executor = FunctionalExecutor(program,
                                  mem_seed=get_profile(workload).mem_seed)
    for i in range(length):
        record = executor.step()
        if record.mem_addr is not None:
            assert trace.mem_addrs[trace.mem_rank(i)] == record.mem_addr


# ----------------------------------------------------------------------
# Extension
# ----------------------------------------------------------------------

def test_extension_is_bit_identical_to_fresh_capture():
    short = _capture(length=700, skip=300)
    extended = extend_trace(short, PROGRAM, 1500)
    fresh = capture_trace(PROGRAM, PROFILE.mem_seed, 1500, skip=300)
    assert list(extended.pcs) == list(fresh.pcs)
    assert bytes(extended.flags) == bytes(fresh.flags)
    assert list(extended.mem_addrs) == list(fresh.mem_addrs)
    assert extended.end_checkpoint == fresh.end_checkpoint
    # The input trace was not mutated.
    assert len(short) == 700


def test_extension_noop_when_already_long_enough():
    trace = _capture(length=500)
    assert extend_trace(trace, PROGRAM, 400) is trace


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------

def test_store_acquire_rounds_and_memoizes(tmp_path):
    store = TraceStore(root=tmp_path, persistent=True)
    trace = store.acquire(PROGRAM, PROFILE.mem_seed, 5000, skip_hint=2000)
    assert len(trace) == 5000  # exactly the need: no rounding
    assert store.acquire(PROGRAM, PROFILE.mem_seed, 3000) is trace
    assert store.captures == 1 and store.extensions == 0
    longer = store.acquire(PROGRAM, PROFILE.mem_seed, 5001)
    assert len(longer) == 5001
    assert store.extensions == 1


def test_store_persists_across_instances(tmp_path):
    first = TraceStore(root=tmp_path, persistent=True)
    first.acquire(PROGRAM, PROFILE.mem_seed, 1000, skip_hint=500)
    second = TraceStore(root=tmp_path, persistent=True)
    trace = second.acquire(PROGRAM, PROFILE.mem_seed, 1000)
    assert second.captures == 0  # served from disk
    assert trace.captured_skip == 500


def test_store_memory_only_when_not_persistent(tmp_path):
    store = TraceStore(root=tmp_path, persistent=False)
    store.acquire(PROGRAM, PROFILE.mem_seed, 1000)
    assert not list(tmp_path.rglob("*.pkl"))
    # Still memoized in-process.
    assert store.acquire(PROGRAM, PROFILE.mem_seed, 1000) is not None
    assert store.captures == 1
    # A longer need extends the memoized trace instead of re-recording.
    longer = store.acquire(PROGRAM, PROFILE.mem_seed, 1001)
    assert len(longer) == 1001
    assert store.captures == 1 and store.extensions == 1


@pytest.mark.parametrize("damage", [
    lambda path: path.write_bytes(path.read_bytes()[:-20]),  # truncated file
    lambda path: path.write_bytes(b"not a pickle"),          # garbage
    lambda path: path.write_bytes(
        pickle.dumps({"schema": CACHE_SCHEMA_VERSION, "key": "k",
                      "result": {"format": 0}})),
    lambda path: path.write_bytes(
        pickle.dumps({"schema": CACHE_SCHEMA_VERSION, "key": "k",
                      "result": _v2_payload(_capture(length=1000,
                                                     skip=0))})),
], ids=["truncated", "garbage", "stale-version", "v2-layout"])
def test_store_rerecords_after_damage(tmp_path, damage):
    """A damaged on-disk trace is silently re-recorded, never a crash."""
    store = TraceStore(root=tmp_path, persistent=True)
    store.acquire(PROGRAM, PROFILE.mem_seed, 1000)
    entries = list(tmp_path.rglob("*.pkl"))
    assert len(entries) == 1
    damage(entries[0])
    fresh_store = TraceStore(root=tmp_path, persistent=True)
    trace = fresh_store.acquire(PROGRAM, PROFILE.mem_seed, 1000)
    assert fresh_store.captures == 1  # damage => clean re-record
    assert len(trace) >= 1000


def test_store_warm_round_trip(tmp_path):
    store = TraceStore(root=tmp_path, persistent=True)
    key = store.warm_key(PROGRAM, PROFILE.mem_seed, 100, "mem",
                         {"geometry": 1})
    assert store.get_warm(key) is None
    store.put_warm(key, ({"state": [1, 2, 3]},))
    restored = store.get_warm(key)
    assert restored == ({"state": [1, 2, 3]},)
    # Every restore yields fresh objects, never shared mutables.
    assert store.get_warm(key)[0] is not restored[0]


def test_program_fingerprint_sensitive_to_seed():
    assert program_fingerprint(PROGRAM, 0) != program_fingerprint(PROGRAM, 1)


def test_program_fingerprint_pinned():
    """Trace and warm keys are content hashes of the program's fields.

    Pinned on a fixed hand-built program: anything that leaks into the
    canonical form -- say a decode attribute turned dataclass field --
    changes every stored key, so it must fail here, loudly.
    """
    from repro.isa import Opcode, Program, StaticInst
    program = Program("pinned", [
        StaticInst(0, Opcode.MOVI, dest=1, imm=5),
        StaticInst(4, Opcode.LOAD, dest=2, src1=1, imm=8),
        StaticInst(8, Opcode.FADD, dest=33, src1=32, src2=34),
        StaticInst(12, Opcode.STORE, src1=2, src2=1),
        StaticInst(16, Opcode.BNEZ, src1=2, target=0),
        StaticInst(20, Opcode.JUMP, target=4),
    ], warm_regions=[(1 << 20, 4096)])
    assert program_fingerprint(program, 7) == (
        "96f788090c052d9b30772bd0dd89974f15ee847ab60e246483cfa751ee6c8366")
    # Memoized per (program, mem_seed): equal programs share a key.
    twin = Program("pinned", list(program.insts), program.warm_regions)
    assert program_fingerprint(twin, 7) == program_fingerprint(program, 7)
    assert program_fingerprint(program, 8) != program_fingerprint(program, 7)


def _race_acquire(root):
    """Worker for the cross-process claim test (fork-picklable)."""
    store = TraceStore(root=root, persistent=True)
    store.acquire(PROGRAM, PROFILE.mem_seed, 2000)
    return store.captures


def test_store_parallel_acquire_captures_once(tmp_path):
    """Concurrent cold acquires of one key record the trace exactly once.

    The ``O_EXCL`` claim file elects a single recorder; everyone else
    polls until the entry is published, so the per-process capture
    counters must sum to one across the pool.
    """
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(4) as pool:
        counts = pool.map(_race_acquire, [tmp_path] * 4)
    assert sum(counts) == 1
    # The election leaves no claim file behind.
    assert not list(tmp_path.rglob("*.claim"))
    # And the published entry serves later processes from disk.
    follower = TraceStore(root=tmp_path, persistent=True)
    follower.acquire(PROGRAM, PROFILE.mem_seed, 2000)
    assert follower.captures == 0


# ----------------------------------------------------------------------
# Interval checkpoints (format v2)
# ----------------------------------------------------------------------

@given(interval=st.integers(min_value=32, max_value=300),
       length=st.integers(min_value=50, max_value=800),
       seat=st.integers(min_value=0, max_value=799))
def test_interval_checkpoints_round_trip_and_resume(interval, length, seat):
    """Property: cadence positions survive the round trip, and seating at
    the nearest checkpoint <= any seat resumes bit-identically.

    This is the contract mid-run region sampling leans on: replaying a
    region seats architectural state at ``checkpoint_at(seat)`` and
    fast-forwards only the residue.
    """
    seat = min(seat, length - 1)
    trace = capture_trace(PROGRAM, PROFILE.mem_seed, length,
                          checkpoint_interval=interval)
    expected = tuple(range(interval, length, interval))
    assert tuple(c.seq for c in trace.interval_checkpoints) == expected
    assert trace.checkpoint_interval == interval

    loaded = decode_trace(pickle.loads(pickle.dumps(encode_trace(trace))))
    assert loaded.checkpoint_interval == interval
    assert loaded.interval_checkpoints == trace.interval_checkpoints

    ckpt = loaded.checkpoint_at(seat)
    if ckpt is None:
        assert seat < interval  # nothing recorded at or below the seat
        executor = FunctionalExecutor(PROGRAM, mem_seed=PROFILE.mem_seed)
    else:
        assert ckpt.seq <= seat
        # Nearest: no recorded checkpoint lands in (ckpt.seq, seat].
        for other in loaded.interval_checkpoints:
            if other.seq <= seat:
                assert other.seq <= ckpt.seq
        executor = ckpt.restore(PROGRAM)
        assert executor.seq == ckpt.seq
    executor.run(seat - executor.seq)
    record = executor.step()
    assert record.inst.pc == trace.pcs[seat]
    assert record.next_pc == _successor(trace, seat)
    assert record.taken == bool(trace.flags[seat] & 1)


def test_interval_checkpoints_disabled_with_zero():
    trace = capture_trace(PROGRAM, PROFILE.mem_seed, 500,
                          checkpoint_interval=0)
    assert trace.checkpoint_interval == 0
    assert trace.interval_checkpoints == ()


def test_decode_rejects_misplaced_interval_checkpoint():
    trace = _capture(length=1000, skip=0)
    payload = encode_trace(trace)
    # Claim a checkpoint at a seq that is not a cadence multiple.
    payload["interval_checkpoints"] = (
        payload["end_checkpoint"],)  # seq == count: out of position
    with pytest.raises(TraceFormatError):
        decode_trace(payload)
