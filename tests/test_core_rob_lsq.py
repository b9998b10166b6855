"""Unit tests for the reorder buffer and load/store queue."""

import pytest

from repro.core import LoadStoreQueue, ReorderBuffer, Uop
from repro.isa import Opcode, StaticInst


def _uop(seq, opcode=Opcode.ADDI, addr=None, correct=True):
    if opcode is Opcode.LOAD:
        inst = StaticInst(seq * 4, Opcode.LOAD, dest=1, src1=2)
    elif opcode is Opcode.STORE:
        inst = StaticInst(seq * 4, Opcode.STORE, src1=1, src2=2)
    else:
        inst = StaticInst(seq * 4, opcode, dest=1, src1=2, imm=1)
    uop = Uop(seq, inst, fetch_cycle=0, on_correct_path=correct,
              trace_seq=seq if correct else -1)
    uop.mem_addr = addr
    return uop


class TestReorderBuffer:
    def test_fifo_commit_order(self):
        rob = ReorderBuffer(4)
        a, b = _uop(0), _uop(1)
        rob.append(a)
        rob.append(b)
        assert rob.head() is a
        assert rob.pop_head() is a
        assert rob.head() is b

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.append(_uop(0))
        rob.append(_uop(1))
        assert len(rob) == rob.size
        with pytest.raises(OverflowError):
            rob.append(_uop(2))

    def test_fetch_order_enforced(self):
        rob = ReorderBuffer(4)
        rob.append(_uop(5))
        with pytest.raises(ValueError):
            rob.append(_uop(3))

    def test_squash_younger(self):
        rob = ReorderBuffer(8)
        uops = [_uop(i) for i in range(5)]
        for u in uops:
            rob.append(u)
        squashed = rob.squash_younger(2)
        assert [u.seq for u in squashed] == [3, 4]
        assert [u.seq for u in rob] == [0, 1, 2]

    def test_squash_none(self):
        rob = ReorderBuffer(4)
        rob.append(_uop(0))
        assert rob.squash_younger(10) == []

    def test_empty_head(self):
        assert ReorderBuffer(4).head() is None

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestLoadStoreQueue:
    def test_capacity(self):
        lsq = LoadStoreQueue(2)
        lsq.insert(_uop(0, Opcode.LOAD, addr=0x100))
        lsq.insert(_uop(1, Opcode.LOAD, addr=0x200))
        assert len(lsq) == lsq.size
        with pytest.raises(OverflowError):
            lsq.insert(_uop(2, Opcode.LOAD, addr=0x300))

    def test_forwarding_same_word(self):
        lsq = LoadStoreQueue(8)
        store = _uop(0, Opcode.STORE, addr=0x100)
        load = _uop(1, Opcode.LOAD, addr=0x100)
        lsq.insert(store)
        lsq.insert(load)
        assert load.store_dep is store
        assert lsq.forwards == 1

    def test_no_forwarding_across_words(self):
        lsq = LoadStoreQueue(8)
        lsq.insert(_uop(0, Opcode.STORE, addr=0x100))
        load = _uop(1, Opcode.LOAD, addr=0x108)
        lsq.insert(load)
        assert load.store_dep is None

    def test_same_word_different_bytes_forwards(self):
        lsq = LoadStoreQueue(8)
        store = _uop(0, Opcode.STORE, addr=0x100)
        load = _uop(1, Opcode.LOAD, addr=0x104)
        lsq.insert(store)
        lsq.insert(load)
        assert load.store_dep is store

    def test_youngest_older_store_wins(self):
        lsq = LoadStoreQueue(8)
        s1 = _uop(0, Opcode.STORE, addr=0x100)
        s2 = _uop(1, Opcode.STORE, addr=0x100)
        load = _uop(2, Opcode.LOAD, addr=0x100)
        lsq.insert(s1)
        lsq.insert(s2)
        lsq.insert(load)
        assert load.store_dep is s2

    def test_wrong_path_load_never_forwards(self):
        lsq = LoadStoreQueue(8)
        lsq.insert(_uop(0, Opcode.STORE, addr=0x100))
        load = _uop(1, Opcode.LOAD, addr=0x100, correct=False)
        load.mem_addr = None  # wrong-path loads carry no address
        lsq.insert(load)
        assert load.store_dep is None

    def test_wrong_path_store_not_a_forward_source(self):
        lsq = LoadStoreQueue(8)
        ws = _uop(0, Opcode.STORE, addr=0x100, correct=False)
        lsq.insert(ws)
        load = _uop(1, Opcode.LOAD, addr=0x100)
        lsq.insert(load)
        assert load.store_dep is None

    def test_commit_releases_oldest_only(self):
        lsq = LoadStoreQueue(4)
        a = _uop(0, Opcode.LOAD, addr=0x100)
        b = _uop(1, Opcode.LOAD, addr=0x200)
        lsq.insert(a)
        lsq.insert(b)
        with pytest.raises(ValueError):
            lsq.remove_committed(b)
        lsq.remove_committed(a)
        assert not a.in_lsq and len(lsq) == 1

    def test_squash_younger(self):
        lsq = LoadStoreQueue(8)
        uops = [_uop(i, Opcode.LOAD, addr=0x100 * i) for i in range(4)]
        for u in uops:
            lsq.insert(u)
        dropped = lsq.squash_younger(1)
        assert [u.seq for u in dropped] == [2, 3]
        assert all(not u.in_lsq for u in dropped)
        assert len(lsq) == 2

    def test_fetch_order_enforced(self):
        lsq = LoadStoreQueue(4)
        lsq.insert(_uop(5, Opcode.LOAD, addr=0x100))
        with pytest.raises(ValueError):
            lsq.insert(_uop(2, Opcode.LOAD, addr=0x200))
