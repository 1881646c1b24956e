"""The one epoch window (``repro.serving.snapshot.EpochWindow``) as a
state machine: every reader that outlives a bump — a fleet's front end
and each shard worker — holds its epochs in it, so its rules are checked
once here, under any order of offers, publishes and lookups.

Invariants after every step:

* the served epoch is always gettable;
* no epoch moves backwards — neither the served one nor the newest;
* at most two epochs are held, the next one newer than the served one.
"""

from typing import NamedTuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.serving.snapshot import EpochWindow

EPOCHS = st.integers(min_value=0, max_value=12)


class Epoch(NamedTuple):
    epoch: int
    #: Tells two offers of one epoch number apart.
    tag: int


class EpochWindowMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.window = EpochWindow(Epoch(3, 0))
        self.offers = 0
        self.served_floor = 3
        self.newest_floor = 3

    def held(self) -> list[Epoch]:
        return [e for e in (self.window.served, self.window.next) if e is not None]

    @rule(epoch=EPOCHS)
    def offer(self, epoch):
        self.offers += 1
        value = Epoch(epoch, self.offers)
        served, newest = self.window.served, self.window.newest
        self.window.offer(value)
        taken = epoch > newest.epoch
        assert self.window.newest is (value if taken else newest)
        assert self.window.served is served

    @rule(through=st.none() | EPOCHS)
    def publish(self, through):
        served, later = self.window.served, self.window.next
        self.window.publish(through)
        moved = later is not None and (through is None or later.epoch <= through)
        assert self.window.served is (later if moved else served)
        assert self.window.next is (None if moved else later)

    @rule(epoch=EPOCHS)
    def get(self, epoch):
        found = self.window.get(epoch)
        matches = [e for e in self.held() if e.epoch == epoch]
        assert found is (matches[0] if matches else None)

    @invariant()
    def served_is_gettable(self):
        served = self.window.served
        assert served is not None
        assert self.window.get(served.epoch) is served

    @invariant()
    def no_epoch_moves_backwards(self):
        served, newest = self.window.served.epoch, self.window.newest.epoch
        assert served >= self.served_floor and newest >= self.newest_floor
        self.served_floor, self.newest_floor = served, newest

    @invariant()
    def at_most_two_epochs_are_held(self):
        held = self.held()
        assert len(held) <= 2
        if len(held) == 2:
            assert held[1].epoch > held[0].epoch


EpochWindowMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestEpochWindow = EpochWindowMachine.TestCase
