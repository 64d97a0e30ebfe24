"""Cross-layer invariants under random event streams.

A Hypothesis state machine drives `Simulation.process` with productions
(new items, updates, dependency chains, with and without lifetimes),
encounters, infrastructure windows, failures and the restores they
schedule. After every event it runs `invariants.check_invariants`, which
checks the incremental state (store indexes and byte counts, purge
choices, server fragments, queue caches and picks, save counts) against
recomputation from scratch.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oppbak.model import DataItem
from oppbak.scenario import config_from_dict
from oppbak.sim import (
    DataProducedEvent,
    EncounterEvent,
    InternetWindowEvent,
    TerminalFailureEvent,
)

from invariants import check_invariants, traced_simulation

TERMINALS = [f"t{i:02d}" for i in range(5)]  # as Simulation names them
PRODUCERS = TERMINALS[:3]

CONFIG = config_from_dict(
    {
        "seed": 7,
        "horizon_s": 1e9,
        "payload_mode": False,
        "restore_delay_s": 30.0,
        "terminals": {"count": len(TERMINALS), "producers": len(PRODUCERS),
                      "quota_bytes": 6_000, "base_reliability": 0.8,
                      "true_retrieval": 0.7},
        "workload": {"items_per_hour": 0.0},
        "mobility": {"encounter_rate_per_hour": 0.0},
        "infrastructure": {"window_rate_per_hour": 0.0},
        "failures": {"rate_per_hour": 0.0},
    }
)

steps = st.sampled_from([0.0, 1.0, 10.0, 60.0, 300.0])


class SimulationMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim, self.log = traced_simulation(CONFIG)
        self.restores: list = []  # follow-up events not yet processed
        self.counter = 0

    # -- driving ---------------------------------------------------------

    def _advance(self, dt: float) -> float:
        """Process restores due by now + dt and return that time."""
        target = self.sim.now + dt
        self.restores.sort(key=lambda e: e.time)
        while self.restores and self.restores[0].time <= target:
            self._process(self.restores.pop(0))
        return target

    def _process(self, event) -> None:
        self.restores.extend(self.sim.process(event))

    @rule(
        owner=st.sampled_from(PRODUCERS),
        kind=st.sampled_from(["new", "update", "chain"]),
        pick=st.integers(0, 1_000),
        size=st.integers(100, 2_500),
        priority=st.floats(0.3, 0.99),
        lifetime=st.sampled_from([None, None, 120.0, 1_200.0]),
        dt=steps,
    )
    def produce(self, owner, kind, pick, size, priority, lifetime, dt):
        now = self._advance(dt)
        index = self.sim.index
        own_ids = list(self.sim.owned_ids[owner])
        deps: tuple = ()
        if kind == "update" and own_ids:
            item_id = own_ids[pick % len(own_ids)]
            prev = index.latest_version(item_id)
            version, deps = prev + 1, ((item_id, prev),)
        else:
            item_id = f"{owner}/d{self.counter:03d}"
            self.counter += 1
            version = 1
            if kind == "chain" and own_ids:
                dep_id = own_ids[pick % len(own_ids)]
                deps = ((dep_id, index.latest_version(dep_id)),)
        item = DataItem(
            id=item_id, owner=owner, size_bytes=size, priority=priority, n=4, k=2,
            version=version,
            lifetime=None if lifetime is None else now + lifetime, temporal_deps=deps,
        )
        self._process(DataProducedEvent(time=now, owner=owner, item=item))

    @rule(owner=st.sampled_from(PRODUCERS), peer=st.sampled_from(TERMINALS),
          duration=st.sampled_from([0.1, 0.5, 2.0]), dt=steps)
    def encounter(self, owner, peer, duration, dt):
        if owner == peer:
            return
        a, b = sorted((owner, peer))
        self._process(EncounterEvent(time=self._advance(dt), a=a, b=b,
                                     duration=duration, bandwidth=5_000.0))

    @rule(terminal=st.sampled_from(TERMINALS), duration=st.sampled_from([0.0, 0.05, 0.2]),
          dt=steps)
    def window(self, terminal, duration, dt):
        self._process(InternetWindowEvent(time=self._advance(dt), terminal=terminal,
                                          duration=duration, bandwidth=10_000.0))

    @precondition(lambda self: sum(self.sim.alive.values()) > len(TERMINALS) - 2)
    @rule(terminal=st.sampled_from(TERMINALS), dt=steps)
    def failure(self, terminal, dt):
        self._process(TerminalFailureEvent(time=self._advance(dt), terminal=terminal))

    @precondition(lambda self: self.restores)
    @rule()
    def restore(self):
        self._advance(max(0.0, min(e.time for e in self.restores) - self.sim.now))

    @invariant()
    def invariants_hold(self):
        check_invariants(self.sim, self.log)


SimulationMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSimulationInvariants = SimulationMachine.TestCase
