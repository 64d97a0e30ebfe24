"""Invariants and run identities over Hypothesis-drawn small scenarios.

`tests/test_stateful.py` feeds hand-picked events to one fixed config;
here whole generated timelines run on drawn configs: 2 to 8 terminals,
n up to 8, quotas from 500 B to 1 MiB, updates, chains and lifetimes,
an actual retrieval rate other than the estimate, and either set of
backup peers. One test per (payload mode, failure targets) cell checks
every invariant after every event; one test per run identity checks it
on plain runs; and two relations compare the runs of two related
configs, which must agree byte for byte: R1, payload mode on and off,
and R3, a quota that is never pressed and ten times that quota. `run`'s
FIFO of follow-ups is checked against a (time, seq) heap driver, on drawn
configs and on one scripted timeline, and the placement `finish` reads
against every live replica.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oppbak import sim as sim_module
from oppbak.dispersal import fragment_wire_size
from oppbak.model import DataItem
from oppbak.peer import ReplicaStore
from oppbak.scenario import config_from_dict
from oppbak.sim import (
    DataProducedEvent,
    EncounterEvent,
    InternetWindowEvent,
    Simulation,
    TerminalFailureEvent,
)

from invariants import CheckedSimulation, traced_simulation
from test_golden import TRACE_LINE

TARGETS = ("producers", "all")

# a checked run re-scans every store and copies every queue after each event
checked = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
drawn = settings(checked, max_examples=30)


@st.composite
def scenarios(draw, payload_mode=st.booleans(), targets=st.sampled_from(TARGETS)):
    """A small scenario document; every section is drawn."""
    count = draw(st.integers(2, 8))
    n = draw(st.integers(1, 8))
    size_min = draw(st.integers(1, 4_000))
    base = draw(st.floats(0.3, 0.95))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "horizon_s": draw(st.floats(600.0, 7_200.0)),
        "payload_mode": draw(payload_mode),
        "restore_delay_s": draw(st.sampled_from([0.0, 30.0, 300.0])),
        "terminals": {
            "count": count,
            "producers": draw(st.integers(1, count)),
            "quota_bytes": draw(st.integers(500, 1 << 20)),
            "base_reliability": base,
            "true_retrieval": draw(st.floats(0.0, 1.0).filter(lambda p: p != base)),
            "backup_peers": draw(st.sampled_from(["all", "nonproducers"])),
        },
        "workload": {
            "items_per_hour": draw(st.floats(2.0, 30.0)),
            "size_min_bytes": size_min,
            "size_max_bytes": draw(st.integers(size_min, 20_000)),
            "n": n,
            "k": draw(st.integers(1, n)),
            "update_fraction": draw(st.floats(0.0, 0.6)),
            "chain_fraction": draw(st.floats(0.0, 0.6)),
            "lifetime_s": draw(st.one_of(st.none(), st.floats(60.0, 3_600.0))),
        },
        "mobility": {
            "encounter_rate_per_hour": draw(st.floats(60.0, 600.0)),
            "contact_duration_mean_s": draw(st.floats(5.0, 60.0)),
            "bandwidth_bytes_per_s": draw(st.floats(2_000.0, 50_000.0)),
        },
        "infrastructure": {
            "window_rate_per_hour": draw(st.floats(0.0, 2.0)),
            "window_duration_mean_s": draw(st.floats(1.0, 60.0)),
            "bandwidth_bytes_per_s": draw(st.floats(5_000.0, 200_000.0)),
        },
        "failures": {"rate_per_hour": draw(st.floats(0.0, 2.0)), "targets": draw(targets)},
    }


def traced_run(doc):
    """A plain run's simulation after the run, its report, and its trace lines."""
    lines = []
    sim = Simulation(config_from_dict(doc), trace=lines.append)
    return sim, sim.run(), lines


def heap_driven_run(doc):
    """`traced_run`'s report and trace lines, driven with the follow-ups in a
    (time, seq) heap: a follow-up runs before the next timeline event only if
    it is strictly earlier, and equal times run in creation order."""
    lines = []
    sim = Simulation(config_from_dict(doc), trace=lines.append)
    timeline = sim_module.generate_events(sim.config)[::-1]  # patchable, as `run` reads it
    heap, seq = [], 0
    while timeline or heap:
        if heap and (not timeline or heap[0][0] < timeline[-1].time):
            event = heapq.heappop(heap)[2]
        else:
            event = timeline.pop()
        for follow_up in sim.process(event):
            heapq.heappush(heap, (follow_up.time, seq, follow_up))
            seq += 1
    return sim.finish(), lines


def line_bytes(lines):
    """Kind -> the byte count of each of its trace lines."""
    nbytes = defaultdict(list)
    for line in lines:
        nbytes[line.split(" ", 2)[1]].append(int(line.rsplit(" bytes=", 1)[1]))
    return nbytes


@pytest.mark.parametrize("targets", TARGETS)
@pytest.mark.parametrize("payload_mode", [False, True], ids=["sizes", "payload"])
@checked
@given(data=st.data())
def test_invariants_hold_after_every_event(payload_mode, targets, data):
    doc = data.draw(scenarios(st.just(payload_mode), st.just(targets)))
    sim, _ = traced_simulation(config_from_dict(doc), CheckedSimulation)
    sim.run()


@drawn
@given(doc=scenarios())
def test_rerun_gives_the_same_report_and_trace(doc):
    _, first, first_lines = traced_run(doc)
    _, second, second_lines = traced_run(doc)
    assert first.json_bytes() == second.json_bytes()
    assert first_lines == second_lines


@drawn
@given(doc=scenarios())
def test_peer_totals_are_the_save_lines(doc):
    _, report, lines = traced_run(doc)
    saves = line_bytes(lines)["SAVE"]
    assert report.fragments_saved == len(saves)
    assert report.bytes_to_peers == sum(saves)


@drawn
@given(doc=scenarios())
def test_server_bytes_are_the_upload_lines(doc):
    _, report, lines = traced_run(doc)
    nbytes = line_bytes(lines)
    assert report.bytes_to_server == sum(nbytes["UPLOAD_ITEM"]) + sum(nbytes["UPLOAD_FRAG"])


@drawn
@given(doc=scenarios())
def test_outcomes_cover_every_registered_version(doc):
    sim, report, _ = traced_run(doc)
    assert sorted(report.outcomes) == sorted(f"{i}@{v}" for i, v in sim.index.keys())
    assert len(report.outcomes) == report.items_produced


@drawn
@given(doc=scenarios())
def test_every_trace_line_follows_the_grammar(doc):
    _, _, lines = traced_run(doc)
    assert [line for line in lines if not TRACE_LINE.match(line)] == []


@drawn
@given(doc=scenarios())
def test_every_offer_is_stored_as_one_save_line(doc):
    admitted = []
    accept = ReplicaStore.accept

    def spy(store, *args, **kwargs):
        admitted.append(accept(store, *args, **kwargs))
        return admitted[-1]

    with mock.patch.object(ReplicaStore, "accept", spy):
        _, _, lines = traced_run(doc)
    assert len(admitted) == len(line_bytes(lines)["SAVE"])
    assert None not in admitted


@drawn
@given(doc=scenarios())
def test_payload_mode_decides_nothing(doc):
    """R1: payloads come from their own generator and a restore only checks
    its rebuild, so a size-only run and a payload run agree byte for byte."""
    _, sized, sized_lines = traced_run({**doc, "payload_mode": False})
    _, payload, payload_lines = traced_run({**doc, "payload_mode": True})
    assert payload.json_bytes() == sized.json_bytes()
    assert payload_lines == sized_lines


@drawn
@given(doc=scenarios())
def test_a_slack_quota_decides_nothing(doc):
    """R3: where no store is ever pressed, ten times the quota changes nothing,
    since the quota is admission's only bound. Unpressed: every store's peak
    occupancy plus the largest fragment fits the smaller quota."""
    _, report, lines = traced_run(doc)
    peak = max(used for points in report.occupancy.values() for _, used in points)
    largest = fragment_wire_size(doc["workload"]["size_max_bytes"], doc["workload"]["k"])
    quota = doc["terminals"]["quota_bytes"]
    assume(peak + largest <= quota)
    slack_doc = {**doc, "terminals": {**doc["terminals"], "quota_bytes": 10 * quota}}
    _, slack, slack_lines = traced_run(slack_doc)
    assert slack.json_bytes() == report.json_bytes()
    assert slack_lines == lines


@drawn
@given(doc=scenarios())
def test_the_producers_placement_is_every_live_replica(doc):
    """The placement `finish` reads, its last, is in order the view built
    from each live store's whole key list."""
    placement, views = Simulation._placement, []

    def spy(sim, owners):
        expected = {}
        for terminal in (t for t in sim.names if sim.alive[t]):
            for replica in sim.stores[terminal].replicas():
                holders = expected.setdefault(replica.fragment.key, {})
                holders.setdefault(terminal, []).append(replica)
        views.append((placement(sim, owners), expected))
        return views[-1][0]

    def shape(view):
        return [(key, [(t, list(map(id, held))) for t, held in holders.items()])
                for key, holders in view.items()]

    with mock.patch.object(Simulation, "_placement", spy):
        traced_run(doc)
    view, expected = views[-1]
    assert shape(view) == shape(expected)


@drawn
@given(doc=scenarios())
def test_fifo_driver_equals_the_heap_driver(doc):
    _, report, lines = traced_run(doc)
    reference, reference_lines = heap_driven_run(doc)
    assert report.json_bytes() == reference.json_bytes()
    assert lines == reference_lines


def test_same_instant_failures_restore_in_order_after_the_timeline():
    """Two producers fail at t=100 with no restore delay, and t02's window at
    t=100 comes after them: both drivers run the window, then t00's restore,
    then t01's, so t00's item is restored from the server it just reached."""
    doc = {
        "seed": 1, "horizon_s": 3600.0, "payload_mode": False, "restore_delay_s": 0.0,
        "terminals": {"count": 4, "producers": 2, "quota_bytes": 10**6,
                      "base_reliability": 0.9, "true_retrieval": 1.0},
        "workload": {"items_per_hour": 0.0},
        "mobility": {"encounter_rate_per_hour": 0.0},
        "infrastructure": {"window_rate_per_hour": 0.0},
        "failures": {"rate_per_hour": 0.0},
    }
    items = [DataItem(id=f"{owner}/d0000", owner=owner, size_bytes=1000, priority=0.99, n=4, k=2)
             for owner in ("t00", "t01")]
    two_fragments = 2 * fragment_wire_size(1000, 2)
    timeline = [
        DataProducedEvent(1.0, "t00", items[0]),
        DataProducedEvent(2.0, "t01", items[1]),
        EncounterEvent(10.0, "t00", "t02", 1.0, two_fragments),
        EncounterEvent(11.0, "t01", "t03", 1.0, two_fragments),
        TerminalFailureEvent(100.0, "t00"),
        TerminalFailureEvent(100.0, "t01"),
        InternetWindowEvent(100.0, "t02", 1.0, 10**6),
    ]
    with mock.patch("oppbak.sim.generate_events", return_value=timeline):
        _, report, lines = traced_run(doc)
        reference, reference_lines = heap_driven_run(doc)
    assert report.json_bytes() == reference.json_bytes()
    assert lines == reference_lines
    at_failure = [line.split(" ", 1)[1] for line in lines if line.startswith("100.000000 ")]
    assert at_failure[:3] == ["FAIL terminal=t00 bytes=0", "FAIL terminal=t01 bytes=0",
                              "WINDOW terminal=t02 bytes=1000000"]
    assert at_failure[-2:] == [
        "RESTORE owner=t00 item=t00/d0000@1 source=server bytes=0",
        "RESTORE owner=t01 item=t01/d0000@1 source=peer bytes=0",
    ]
    assert report.calibration_episodes == ((0.9, 1), (0.9, 1))  # predicted at the failures
