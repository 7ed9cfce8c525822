"""Stateful property-based testing of the dynamic HINT wrapper.

A hypothesis rule-based state machine drives arbitrary interleavings of
inserts, deletes, compactions and queries, checking every query's ids
and count against a dictionary model.  A second setting narrows the
domain to eight points and widens the buffer, so one query overlaps many
tombstoned and staged rows at once.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as hs
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import DynamicHint, IntervalCollection

POINT = hs.integers(0, 127)


class DynamicHintMachine(RuleBasedStateMachine):
    M = 7
    THRESHOLD = 5
    BASE = 0  # intervals in the collection the index starts from

    def __init__(self):
        super().__init__()
        self.top = (1 << self.M) - 1
        st = np.arange(self.BASE) * 5 % (self.top + 1)
        base = IntervalCollection(st, np.minimum(st + np.arange(self.BASE) % 4, self.top))
        self.dyn = DynamicHint(base, m=self.M, rebuild_threshold=self.THRESHOLD)
        self.model = {rid: (st, end) for rid, st, end in base}

    @rule(st=POINT, length=POINT)
    def insert(self, st, length):
        st %= self.top + 1
        end = min(st + length, self.top)
        rid = self.dyn.insert(st, end)
        assert rid not in self.model
        self.model[rid] = (st, end)

    @precondition(lambda self: self.model)
    @rule(data=hs.data())
    def delete(self, data):
        rid = data.draw(hs.sampled_from(sorted(self.model)))
        self.dyn.delete(rid)
        del self.model[rid]

    @rule()
    def compact(self):
        self.dyn.compact()

    @rule(a=POINT, b=POINT)
    def query(self, a, b):
        a, b = sorted((a % (self.top + 1), b % (self.top + 1)))
        got = self.dyn.query(a, b).tolist()
        expected = {
            rid
            for rid, (st, end) in self.model.items()
            if st <= b and a <= end
        }
        assert len(got) == len(set(got))
        assert set(got) == expected
        assert self.dyn.query_count(a, b) == len(expected)

    @invariant()
    def length_matches_model(self):
        assert len(self.dyn) == len(self.model)


class CrowdedDynamicHintMachine(DynamicHintMachine):
    M = 3
    THRESHOLD = 40
    BASE = 48


STATEFUL = settings(max_examples=40, stateful_step_count=30, deadline=None)
TestDynamicHintStateful = DynamicHintMachine.TestCase
TestDynamicHintStateful.settings = STATEFUL
TestCrowdedDynamicHintStateful = CrowdedDynamicHintMachine.TestCase
TestCrowdedDynamicHintStateful.settings = STATEFUL


def test_snapshot_roundtrip_after_random_ops(rng):
    dyn = DynamicHint(m=8, rebuild_threshold=7)
    model = {}
    for _ in range(200):
        if rng.random() < 0.6 or not model:
            st = int(rng.integers(0, 256))
            end = min(st + int(rng.integers(0, 32)), 255)
            rid = dyn.insert(st, end)
            model[rid] = (st, end)
        else:
            rid = int(rng.choice(sorted(model)))
            dyn.delete(rid)
            del model[rid]
    snap = dyn.snapshot()
    assert len(snap) == len(model)
    assert {
        (int(i), int(s), int(e)) for i, s, e in snap
    } == {(rid, st, end) for rid, (st, end) in model.items()}