"""Warm checkpoints written before the front-end components cached
derived state still load, and behave exactly like freshly trained ones.

The perceptron memoizes its last output, the BTB derives its set mask
and tag shift, and the slice tracker memoizes per-PC resolutions.
``_PRE_MEMO_BLOB`` is a front-end warm component -- the pickled
``(predictor, btb, slice_tracker)`` tuple, as the warm-checkpoint store
writes it -- produced by :func:`_train` under the classes as they were
before any of that existed.  Loading it with today's classes must give
the state today's classes reach by the same training, and the two must
stay identical from there on.
"""

import base64
import pickle
import random
import zlib

from repro.branch import BranchTargetBuffer, PerceptronPredictor
from repro.isa import Opcode, StaticInst
from repro.pubs import PubsConfig, SliceTracker

from tests.reference_slice_tracker import table_state

_CONFIG = PubsConfig(conf_sets=8, conf_assoc=2, brslice_sets=8,
                     brslice_assoc=2)


def _program():
    rng = random.Random(7)
    insts = []
    for i in range(48):
        pc = i * 4
        if i % 5 == 4:
            insts.append(StaticInst(pc, Opcode.BNE, src1=rng.randrange(6),
                                    src2=rng.randrange(6), target=0))
        else:
            insts.append(StaticInst(pc, Opcode.ADD, dest=rng.randrange(6),
                                    src1=rng.randrange(6),
                                    src2=rng.randrange(6)))
    return insts


def _fresh():
    return (PerceptronPredictor(12, 8), BranchTargetBuffer(8, 2),
            SliceTracker(_CONFIG))


def _train(components, seed, steps=3000):
    """Drive the components like fetch, decode and commit do; returns
    every answer they gave."""
    predictor, btb, tracker = components
    insts = _program()
    rng = random.Random(seed)
    answers = []
    for _ in range(steps):
        inst = insts[rng.randrange(len(insts))]
        answers.append(tracker.on_decode(inst))
        if inst.is_conditional_branch:
            predicted = predictor.predict(inst.pc)
            if rng.random() < 0.2:
                continue  # wrong path: predicted, never trained
            taken = rng.random() < 0.7
            answers.append((predicted, btb.lookup(inst.pc)))
            predictor.update(inst.pc, taken, predicted)
            if taken:
                btb.install(inst.pc, inst.pc + 64)
            tracker.on_branch_resolved(inst.pc, predicted == taken)
    return answers


def _state(components):
    predictor, btb, tracker = components
    return (predictor._weights, predictor._history, predictor.stats,
            btb._sets, btb.lookups, btb.hits, table_state(tracker))


_PRE_MEMO_BLOB = (
    "eNqdVsuLHEUYn+nHzOzMuO5uAobFg48IK8jqQTQHkWU3qEw5YXD34CGh091TM9XsbPfQ"
    "j+yuKESQNUIdBEvw4CEHDx4EFXIIwUUIBDwI+Qc8+gcIgoni6/uqunu7y+Ti1NDd3+97"
    "f1+9rtqf3u815I8/FtN5HK17sRv6bH1OY5/O0zgKBT81KolRTMeBn0ax+EQ8+754T6xx"
    "O0ndNBF8uabvuQkVfLGU35ZCpVJvrhhBFCZi+H2TL+4FSRUjX2ceX2RBArqHzoyG05QJ"
    "0ufd1PVm1EmCd6ggHW6njKauIM/wjrNPgykDJ5fEGvxJj5iDf+BH2sQkTWKT5QKwgWxT"
    "JdMm9uAegr1cePAXvhYGv8NLQWYu3IFhEYM0SBfeLdIZ/I1s9Rr8CQ8p1gbrJhiQdsAR"
    "WYCRm1UBSLEVsNCFgfYMqQ1GLfXRIA0pswgyBukjDZINKW0B3ZHcJYinATQ+W4BaUhqe"
    "iquia8nRIa3BHzJYGAZClELF8vJixSBSOVTKxasYFJqxVO9v6gm+simJHTee0nQzm0xo"
    "ZV50wmzPSSg0BPvkJknkC2JwW2GySVCn60fChY8mGasPi/ygPgzC5ccaZDc6EtC0X44E"
    "lTo3Cp2DQucn+KC8PYui3WyuJpTFAnAz/LYJoZ9Roc8zL1lPZoFPnTR2/V2Ilve3kd7J"
    "yTL4lh+Fk2BazmqpWmDdEVBbiig12jTEmTkW1/jSPA6iOEgPHRqmcUChAi3eh2Uymznz"
    "CPwdgpDtzYJwLD7iy2jW8aMsTGnseBg1iC9ItChfV1JlDR+V5CSajZ39YIwLw+J9L1ap"
    "FTqPFECptlIgVU0wvh/FJfkqP7UXjcHKfpD6zDlJarUKpyymCUMre/PdQLy+cTbfRE5X"
    "pQLM6Io7E8NGB7rQHtOJA8u3XlS5nmH7aJ2nkx1g1udPTKeQzAbM1aKUMCPYNm+PImm9"
    "sg1BNekBzApupu4U0s08dlHxmENsdpk0a0gLEPM/iFVDGoDU7TQBaWTehf/9w5XUK/qA"
    "xYBkupuKrqVv+1BJH9n9PNctCRQC7ElsnUw6nzQm79Yayy5AN1uO7/qMogZ5QksNCkI+"
    "rmCWKgCZaxiUiRwwn3yhFcIGHJYZ2KrbhQKRkWYDykhuasVG/Q80m+ifVzAzx1gFM/KY"
    "zmj20O9zmi7meF2LD/2+odnD+B6vYO3c3ncahro72sRC3RsahnJXNb+Yx0yLD/P4UosF"
    "dV/Q6od5vKvFgrpjrX6ICS0W9NvRfGBur2j20MdFDcPcTmv2UHdNs4e6b2v9QN3PGCUv"
    "Mpf0tbzRxgabkq80HHM/zy5lsOqeAsNP54d5UzMN7uBMsNixPBPWQLIejpXz68lIlCp7"
    "x3imsDs5bWopmlLf1orbLPUNdhv4Zulf2WtU4rlbo21JG9IfZS8N4wX28vAWeOEduZfn"
    "O0EbT5XqNsDmLD5Z7ywDl1cgLVjZbB+X9JI2TbCsl7Vph1PiG00Oy3yOHZNr7DZJ2Y/k"
    "Ta0N2LrP2R1ylt3NW8H72hGV9wa2nfrNUZ6SYxr6cP9bfYvCcZQG4XSrRLeUmZOdzirO"
    "PBvOigyudbL48oRnv+ZR/Qb+7mFU+YmvMZoFw3gIA24RGqeRd/gBqLxlPIjxoJjsh8Wk"
    "GLDfM5ud48vVe4Z2GYaDETf7sRje7PFFVUZHYXCDec3gq1lYVDV1dP7zBu+q40TdeG6Z"
    "fLkqv+fGuwD/bPMFuPUEITRD3pAyL/M+FOv/AhLWiMQ="
)


def test_pre_memo_warm_component_loads_and_behaves_identically():
    loaded = pickle.loads(zlib.decompress(base64.b64decode(_PRE_MEMO_BLOB)))
    trained = _fresh()
    _train(trained, seed=1)
    assert _state(loaded) == _state(trained)
    assert _train(loaded, seed=2) == _train(trained, seed=2)
    assert _state(loaded) == _state(trained)
