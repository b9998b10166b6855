"""Perceptron branch predictor (Jimenez & Lin, HPCA 2001).

The paper's base processor uses a perceptron predictor with a 34-bit global
history and a 256-entry weight table (Table I); the enlarged predictor of
Fig. 13 uses a 36-bit history and a 512-entry table (+8.4 KB).  Both are
instances of this class.

Prediction: the weight vector selected by ``pc mod table_size`` is dotted
with the global history (encoded as +1 for taken, -1 for not-taken) plus a
bias weight; a non-negative output predicts taken.  Training: on a
misprediction, or when ``|output| <= theta``, each weight moves toward the
outcome.  ``theta = floor(1.93 * history_length + 14)`` is the threshold from
the original paper, and weights saturate at the 8-bit signed range used
there.
"""

from __future__ import annotations

from operator import add, mul, sub

from .base import BranchPredictor

_WEIGHT_MAX = 127
_WEIGHT_MIN = -128

#: ``_SATURATE[v]`` is ``v`` clamped to the weight range, for every ``v``
#: one training step can produce from a saturated weight (-129..128):
#: non-negative ``v`` index the front, negative ``v`` wrap to the back.
_SATURATE = ([min(v, _WEIGHT_MAX) for v in range(_WEIGHT_MAX + 2)]
             + [max(v, _WEIGHT_MIN) for v in range(_WEIGHT_MIN - 1, 0)])
_clamp = _SATURATE.__getitem__


class PerceptronPredictor(BranchPredictor):
    """Global-history perceptron predictor.

    The dot product and the training step run as C-level ``map``/``sum``
    over the weight row and the +/-1 history.  Fetch predicts a
    correct-path branch and trains it right away, so :meth:`update`
    reuses the output :meth:`predict` computed for the same PC when no
    update came in between (weights and history are then unchanged).
    """

    #: PC and perceptron output of the last :meth:`predict` since the
    #: last :meth:`update` (class-level defaults: state pickled before
    #: these existed loads with an empty memo).
    _last_pc = -1
    _last_output = 0

    def __init__(self, history_length: int = 34, table_size: int = 256):
        super().__init__()
        if history_length < 1:
            raise ValueError("history_length must be positive")
        if table_size < 1:
            raise ValueError("table_size must be positive")
        self.history_length = history_length
        self.table_size = table_size
        self.theta = int(1.93 * history_length + 14)
        # weights[i][0] is the bias; weights[i][1..h] pair with history bits.
        self._weights = [[0] * (history_length + 1) for _ in range(table_size)]
        # History as +/-1 ints, most recent last.
        self._history = [-1] * history_length

    def _output(self, pc: int) -> int:
        w = self._weights[(pc >> 2) % self.table_size]
        return w[0] + sum(map(mul, w[1:], self._history))

    def predict(self, pc: int) -> bool:
        output = self._output(pc)
        self._last_pc = pc
        self._last_output = output
        return output >= 0

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        self.stats.record(taken == predicted)
        output = self._last_output if pc == self._last_pc \
            else self._output(pc)
        self._last_pc = -1  # weights and history change below
        h = self._history
        if (output >= 0) != taken or abs(output) <= self.theta:
            # Each weight moves one step toward agreement with the
            # outcome: +h[i] when taken, -h[i] when not (h[i] is +/-1).
            w = self._weights[(pc >> 2) % self.table_size]
            w[0] = _clamp(w[0] + 1 if taken else w[0] - 1)
            w[1:] = map(_clamp, map(add if taken else sub, w[1:], h))
        del h[0]
        h.append(1 if taken else -1)

    def storage_bits(self) -> int:
        # 8-bit weights, (history_length + 1) per entry, plus the history
        # register itself.
        return self.table_size * (self.history_length + 1) * 8 + self.history_length
