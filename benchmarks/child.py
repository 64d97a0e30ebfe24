"""One measured process: set oppbak up, run one workload sample, print a JSON line.

Usage: ``python3 benchmarks/child.py SPEC.json`` from the repository root,
with ``src`` on ``PYTHONPATH``. `run.py` writes the spec and starts one of
these per sample, so every sample pays import and set-up in a fresh process.

The spec's ``mode`` is ``setup`` (time set-up only) or ``sample``. Only
the entry-point calls are timed; event counts, digests and schema checks
happen outside the timed region. Replications run back to back, as in
``run_batch``: no forced garbage collection between them.

Times are wall seconds (``time.perf_counter``), the time a user waits.
The process's CPU seconds are reported beside them (``cpu_s``,
``setup_cpu_s``); they leave out work done in other processes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

import report_schema
import spans


def _report_errors(doc: dict[str, Any], schema: dict[str, Any]) -> list[str]:
    """Schema violations plus cross-field identities of a run report."""
    found = report_schema.errors(doc, schema)
    if found:
        return found[:5]
    if doc["items_produced"] != len(doc["outcomes"]):
        found.append("items_produced differs from the number of outcomes")
    if doc["conflict_count"] != len(doc["conflicts"]):
        found.append("conflict_count differs from the number of conflicts")
    if doc["items_measured"] > doc["items_produced"]:
        found.append("more items measured than produced")
    expected_mean = doc["fragments_saved"] / doc["items_produced"] if doc["items_produced"] else 0.0
    if doc["mean_fragments_per_item"] != expected_mean:
        found.append("mean_fragments_per_item is not fragments_saved / items_produced")
    return found


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    started, started_cpu = time.perf_counter(), time.process_time()
    import oppbak
    from oppbak import cli, sim
    from oppbak.scenario import config_from_dict, load_scenario

    config = load_scenario(spec["scenario"])
    setup_s = time.perf_counter() - started
    setup_cpu_s = time.process_time() - started_cpu
    setup_rss_mb = _peak_rss_mb()

    src = Path(spec["src"]).resolve()
    if src not in Path(oppbak.__file__).resolve().parents:
        raise RuntimeError(f"imported oppbak from {oppbak.__file__}, not from {src}")
    import numpy

    result: dict[str, Any] = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_rss_mb": setup_rss_mb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    schema = json.loads((src / "oppbak" / "report.schema.json").read_text())
    timeline_of = sim.generate_events  # captured before tracing wraps it
    tracer = spans.Tracer() if spec["traced"] else None
    trace_digest = hashlib.sha256()
    if tracer is not None:
        tracer.install(lambda line: trace_digest.update(line.encode() + b"\n"))

    replications = spec["replications"]
    report_digest = hashlib.sha256()
    errors: list[str] = []
    events = 0
    items = fragments = 0
    loss_sum = 0.0
    wall, cpu = time.perf_counter, time.process_time
    if spec["entry"] == "run":
        configs = [
            config_from_dict({**config.to_dict(), "seed": config.seed + r})
            for r in range(replications)
        ]
        w0, c0 = wall(), cpu()
        reports = [sim.run(replica_config) for replica_config in configs]
        run_s = wall() - w0
        cpu_s = cpu() - c0
        peak_rss_mb = _peak_rss_mb()
        for replica_config, report in zip(configs, reports):
            raw = report.json_bytes()
            report_digest.update(raw)
            errors += _report_errors(json.loads(raw), schema)
            events += _event_count(sim, timeline_of, replica_config)
            items += report.items_produced
            fragments += report.fragments_saved
            loss_sum += report.loss_ratio
    else:
        output = Path(spec["output"])
        argv = [
            "batch", "--scenario", spec["scenario"], "--replications", str(replications),
            "--seed", str(config.seed), "--format", "json", "--output", str(output),
        ]
        w0, c0 = wall(), cpu()
        code = cli.main(argv)
        run_s = wall() - w0
        cpu_s = cpu() - c0
        peak_rss_mb = _peak_rss_mb()
        if code != 0:
            raise RuntimeError(f"oppbak batch exited {code}")
        raw = output.read_bytes()
        output.unlink()
        report_digest.update(raw)
        doc = json.loads(raw)
        errors += report_schema.errors(doc, schema)[:5]
        if (doc.get("replications"), doc.get("seed")) != (replications, config.seed):
            errors.append("batch report names another seed or replication count")
        for r in range(replications):
            replica_config = config_from_dict({**config.to_dict(), "seed": config.seed + r})
            events += _event_count(sim, timeline_of, replica_config)
        items = round(doc["metrics"]["items_produced"]["mean"] * replications)
        fragments = round(doc["metrics"]["fragments_saved"]["mean"] * replications)
        loss_sum = doc["metrics"]["loss_ratio"]["mean"] * replications

    result.update(
        run_s=run_s,
        cpu_s=cpu_s,
        replications=replications,
        events=events,
        peak_rss_mb=peak_rss_mb,
        report_sha256=report_digest.hexdigest(),
        items_produced=items,
        fragments_saved=fragments,
        loss_ratio=loss_sum / replications,
        errors=errors,
    )
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
        result["trace_sha256"] = trace_digest.hexdigest()
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    """Largest resident set so far of this process or any child it waited
    for (a worker pool's processes, once joined), in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _event_count(sim: Any, timeline_of: Any, config: Any) -> int:
    """Events `run` processes: the generated timeline plus one restore
    attempt per producer failure (the only follow-up events it schedules)."""
    timeline = timeline_of(config)
    producers = set(sim.Simulation(config).producers)
    restores = sum(
        1 for e in timeline
        if isinstance(e, sim.TerminalFailureEvent) and e.terminal in producers
    )
    return len(timeline) + restores


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
