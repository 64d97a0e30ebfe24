"""Golden digests: the sha256 of each run's report bytes and of its trace.

The simulator is deterministic, so a refactor or a speed-up must leave
these digests exactly as they are. They change only in a change that sets
out to change simulated behaviour and says so; such a change records the
new digests here in the same commit.

The scenarios cover metadata and payload mode, item expiry, updates and
dependency chains (outdated and pinned replicas), uploads that confirm
held replicas, terminal failures, restores and a conflict.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Any

import pytest

from oppbak.scenario import config_from_dict
from oppbak.sim import run, run_batch

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"


def _scenario(overrides: dict[str, Any], horizon_s: float | None = None) -> dict[str, Any]:
    doc = copy.deepcopy(json.loads(BASELINE.read_text()))
    for dotted, value in overrides.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    if horizon_s is not None:
        doc["horizon_s"] = horizon_s
    return doc


SCENARIOS: dict[str, dict[str, Any]] = {
    # ROADMAP's 100-terminal stress run at seed 42
    "t100": _scenario(
        {
            "terminals.count": 100,
            "terminals.producers": 30,
            "workload.items_per_hour": 30.0,
            "mobility.encounter_rate_per_hour": 400.0,
            "failures.rate_per_hour": 0.0,
        },
        28_800.0,
    ),
    # expiry, updates, chains, confirmations, failures, restores, a conflict
    "chains": _scenario(
        {
            "workload.items_per_hour": 10.0,
            "workload.update_fraction": 0.5,
            "workload.chain_fraction": 0.4,
            "workload.lifetime_s": 3_600.0,
            "failures.rate_per_hour": 0.2,
            "failures.targets": "all",
            "restore_delay_s": 60.0,
            "infrastructure.window_rate_per_hour": 0.5,
            "mobility.encounter_rate_per_hour": 200.0,
        },
        14_400.0,
    ),
    # real bytes, split 16-of-10 and rebuilt on every restore check
    "payload-16of10": _scenario(
        {
            "payload_mode": True,
            "terminals.count": 12,
            "terminals.producers": 4,
            "terminals.quota_bytes": 64_000_000,
            "workload.items_per_hour": 20.0,
            "workload.size_min_bytes": 4_000,
            "workload.size_max_bytes": 1_000_000,
            "workload.n": 16,
            "workload.k": 10,
            "mobility.encounter_rate_per_hour": 200.0,
            "mobility.bandwidth_bytes_per_s": 100_000.0,
            "failures.rate_per_hour": 0.5,
            "failures.targets": "all",
        },
        1_800.0,
    ),
    "baseline": _scenario({}),
}

# name -> (sha256 of report.json_bytes(), sha256 of the "\n"-joined trace)
GOLDEN: dict[str, tuple[str, str]] = {
    "baseline": (
        "8d4c447a15e2d7cde14ff121b6b776c5b5c92a2f2d85c8f3b848c6fedaceefd9",
        "75e3b1190646574466d7ce3dd2c1f6a048ba5ac276f9475b1e86138c46ea8c56",
    ),
    "chains": (
        "d260e20e1a6eadaa5626d6e8691917128c2250c04ed9250ad210538fd7b0425a",
        "1609f64664ff2a75d4f2a071675c77af2da141d30a7be5127110584e1aaa817e",
    ),
    "payload-16of10": (
        "d1da861fba4237e05906aa1d242ae4729fa700ced61792cca522d4709812ad82",
        "9820970edfaca3c09b9d9ab56cc2ec1931da11384431abd7944bb1018d6a5e9c",
    ),
    "t100": (
        "0e1fc06553351efae149f5536244be1d2eec470555f3c3c065dad85f7791a085",
        "9c1711e436aafbd3b69c85ce1538d86579777d7f714e1f538e8cd1fe370f4383",
    ),
}


@functools.cache
def traced_run(name: str) -> tuple[bytes, tuple[str, ...]]:
    """Report bytes and trace lines of one scenario, run once per session."""
    trace: list[str] = []
    report = run(config_from_dict(SCENARIOS[name]), trace=trace.append)
    return report.json_bytes(), tuple(trace)


def digests(name: str) -> tuple[str, str]:
    report, trace = traced_run(name)
    return (
        hashlib.sha256(report).hexdigest(),
        hashlib.sha256("\n".join(trace).encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_and_trace_match_golden_digests(name):
    assert digests(name) == GOLDEN[name]


# the trace line grammar README documents: time, kind, fields, byte count
TRACE_LINE = re.compile(r"^\d+\.\d{6} [A-Z_]+( [a-z]+=\S+)* bytes=\d+$")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_lines_follow_the_grammar(name):
    _, trace = traced_run(name)
    assert trace
    assert [line for line in trace if not TRACE_LINE.match(line)] == []


# The report's run totals are sums over the trace: one line per save, upload,
# production and conflict, its byte count the last field.
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_totals_are_the_trace_sums(name):
    report, trace = traced_run(name)
    totals = json.loads(report)
    nbytes: defaultdict[str, list[int]] = defaultdict(list)  # kind -> each line's bytes
    for line in trace:
        nbytes[line.split(" ", 2)[1]].append(int(line.rsplit(" bytes=", 1)[1]))
    assert totals["fragments_saved"] == len(nbytes["SAVE"])
    assert totals["bytes_to_peers"] == sum(nbytes["SAVE"])
    assert totals["bytes_to_server"] == sum(nbytes["UPLOAD_ITEM"]) + sum(nbytes["UPLOAD_FRAG"])
    assert totals["items_produced"] == len(nbytes["PRODUCE"])
    assert totals["conflict_count"] == len(nbytes["CONFLICT"])


# Run sets over many seeds. Updates and chains make `propagate_priority`
# raise several versions to one priority, so queued entries often tie on
# deficit and only their FIFO order decides which goes first; one digest
# per set pins that order across every seed.
SEED_SETS: dict[str, tuple[dict[str, Any], range]] = {
    "chain-batch": (
        _scenario(
            {
                "workload.update_fraction": 0.5,
                "workload.chain_fraction": 0.4,
                "workload.lifetime_s": 3_600.0,
                "failures.rate_per_hour": 1.0,
                "failures.targets": "all",
                "restore_delay_s": 60.0,
            },
            7_200.0,
        ),
        range(100, 160),
    ),
    "payload-16of10": (SCENARIOS["payload-16of10"], range(100, 108)),
}

# name -> (sha256 over every seed's report bytes, sha256 over every seed's trace)
SEED_SET_GOLDEN: dict[str, tuple[str, str]] = {
    "chain-batch": (
        "6be4dce84e71f781dfe6cbf64bd2cf346a6245a1a648bf0fbf3da7c19752b311",
        "4d2d920824a2093a3df614b579ce062731e2debbbb23088de81e4ea3888dc332",
    ),
    "payload-16of10": (
        "1fee6d5404a7f8e292e9a5d5b4dc7dc17eb6e38bfd00e742dc9d568146e52a9e",
        "89f70a8ff5e813015159757bdab9ae736cf747f9242d4a2a27c7637c23495769",
    ),
}


def seed_set_digests(name: str) -> tuple[str, str]:
    doc, seeds = SEED_SETS[name]
    reports, traces = hashlib.sha256(), hashlib.sha256()
    for seed in seeds:
        trace: list[str] = []
        report = run(config_from_dict({**doc, "seed": seed}), trace=trace.append)
        reports.update(report.json_bytes() + b"\n")
        traces.update("\n".join(trace).encode() + b"\n\n")
    return reports.hexdigest(), traces.hexdigest()


@pytest.mark.parametrize("name", sorted(SEED_SETS))
def test_seed_sets_match_golden_digests(name):
    assert seed_set_digests(name) == SEED_SET_GOLDEN[name]


# sha256 of `run_batch(...).json_bytes()` over the chain-batch seed set: the
# aggregated means, deviations, intervals and pooled calibration episodes
BATCH_GOLDEN = "36e84dfa3f75a846054472c997517260b0632a5905f51d4ae8e51253da27d119"


def test_batch_report_matches_golden_digest():
    doc, seeds = SEED_SETS["chain-batch"]
    batch = run_batch(config_from_dict({**doc, "seed": seeds.start}), len(seeds))
    assert hashlib.sha256(batch.json_bytes()).hexdigest() == BATCH_GOLDEN
