"""The benchmark's workloads: scenario overrides, run length and predictions.

Each workload is ``scenarios/baseline.json`` with the listed overrides.
``entry`` names the public entry point a sample times:

* ``run``   -- ``oppbak.sim.run(config)`` once per replication, scenario
  seeds ``seed, seed+1, ...`` (the same convention as ``run_batch``);
* ``batch`` -- ``oppbak.cli.main(["batch", ...])`` with ``replications``.

``replications`` and ``horizon_s`` set the run length: one sample does
8-16 s of work. The payload workload runs many short replications because
the cost of one swings widely with item sizes and producer lifetimes; the
spread over seeds falls with the number of items a sample produces.

``zero_calls`` lists the traced span names predicted to make no calls on
that workload; the smoke mode and the traced run check the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str
    overrides: dict[str, Any]
    horizon_s: float
    replications: int
    smoke_horizon_s: float
    smoke_replications: int
    zero_calls: tuple[str, ...]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="t100-meta",
            entry="run",
            overrides={
                "terminals.count": 100,
                "terminals.producers": 30,
                "workload.items_per_hour": 30.0,
                "mobility.encounter_rate_per_hour": 400.0,
                "failures.rate_per_hour": 0.0,
                "payload_mode": False,
            },
            horizon_s=28_800.0,
            replications=1,
            smoke_horizon_s=3_600.0,
            smoke_replications=1,
            zero_calls=("dispersal.split", "dispersal.reconstruct", "cli.main"),
        ),
        Workload(
            name="payload-16of10",
            entry="run",
            overrides={
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
            horizon_s=1_800.0,
            replications=64,
            smoke_horizon_s=900.0,
            smoke_replications=2,
            zero_calls=("cli.main",),
        ),
        Workload(
            name="chain-batch",
            entry="batch",
            overrides={
                "workload.update_fraction": 0.5,
                "workload.chain_fraction": 0.4,
                "workload.lifetime_s": 3_600.0,
                "failures.rate_per_hour": 1.0,
                "failures.targets": "all",
                "restore_delay_s": 60.0,
            },
            horizon_s=7_200.0,
            replications=1_000,
            smoke_horizon_s=7_200.0,
            smoke_replications=20,
            zero_calls=("dispersal.split", "dispersal.reconstruct"),
        ),
    )
}

# ROADMAP's T100 at seed 42 (horizon 28,800 s); a mismatch means the
# simulated behaviour changed, which a pure speed-up must not do.
GOLDEN_REPORT_SHA256 = {
    ("t100-meta", 42): "0e1fc06553351efae149f5536244be1d2eec470555f3c3c065dad85f7791a085",
}


def scenario_document(
    baseline: dict[str, Any], workload: Workload, seed: int, smoke: bool
) -> dict[str, Any]:
    """The scenario JSON for one workload and seed, built from the baseline."""
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in baseline.items()}
    for dotted, value in workload.overrides.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    doc["seed"] = seed
    doc["horizon_s"] = workload.smoke_horizon_s if smoke else workload.horizon_s
    return doc
