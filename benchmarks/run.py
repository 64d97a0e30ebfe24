"""oppbak benchmark: host time of simulator workloads, end to end and per layer.

Run from the repository root::

    python3 benchmarks/run.py --workload t100-meta --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35   # every workload
    python3 benchmarks/run.py --smoke                                # quick self-check

``--trace 0`` measures the end-to-end metrics: each sample is a fresh
process (`child.py`) timing one call into oppbak's public API, repeated
until ``--seconds`` is used up, and each metric is the median over samples.
``--trace 1`` runs one untraced and one span-traced sample and reports the
per-layer metrics plus the tracing overhead. Metric names, units and bounds
are declared in ``BENCHMARK.json``; README.md says what each one means.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(per-sample values, digests, Python/numpy versions, CPU count, git SHA)
goes to ``.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Optional

import spans
from workloads import GOLDEN_REPORT_SHA256, WORKLOADS, Workload, scenario_document

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5        # extra set-up-only processes per run, for a steadier setup_s
CHILD_TIMEOUT_S = 170   # a sample that takes longer counts as failed


class Harness:
    """Runs child processes for one checkout and collects their results."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.out = root / ".bench_out"
        self.out.mkdir(exist_ok=True)
        self.contract = json.loads((root / "BENCHMARK.json").read_text())
        self.baseline = json.loads((root / "scenarios" / "baseline.json").read_text())
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.attempted = 0
        self.failed = 0

    def scenario(self, workload: Workload, seed: int, smoke: bool) -> Path:
        path = self.out / f"scenario-{workload.name}-{seed}{'-smoke' if smoke else ''}.json"
        doc = scenario_document(self.baseline, workload, seed, smoke)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path

    def child(self, spec: dict[str, Any], counted: bool = True) -> Optional[dict[str, Any]]:
        """Run one child process; None when it fails (its stderr is passed on)."""
        spec = {**spec, "src": str(self.root / "src")}
        spec_path = self.out / f"spec-{os.getpid()}.json"
        spec_path.write_text(json.dumps(spec))
        self.attempted += counted
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"child timed out after {CHILD_TIMEOUT_S} s\n")
            self.failed += counted
            return None
        finally:
            spec_path.unlink(missing_ok=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            self.failed += counted
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for error in result.get("errors", ()):
            sys.stderr.write(f"report check: {error}\n")
        if result.get("errors"):
            self.failed += counted
        return result

    def sample_spec(self, workload: Workload, scenario: Path, smoke: bool,
                    traced: bool = False) -> dict[str, Any]:
        return {
            "mode": "sample",
            "entry": workload.entry,
            "scenario": str(scenario),
            "replications": workload.smoke_replications if smoke else workload.replications,
            "traced": traced,
            "output": str(self.out / f"batch-{os.getpid()}.json"),
            "spans": str(self.out / f"spans-{workload.name}.bin"),
        }

    def fail_mismatched_digests(self, samples: list[dict[str, Any]]) -> Optional[str]:
        """Count samples whose report digest differs from the majority as failed."""
        digests = Counter(s["report_sha256"] for s in samples)
        if not digests:
            return None
        reference, _ = digests.most_common(1)[0]
        odd = sum(n for d, n in digests.items() if d != reference)
        if odd:
            sys.stderr.write(f"report digests differ between samples: {dict(digests)}\n")
            self.failed += odd
        return reference


def git_sha(root: Path) -> str:
    """HEAD's commit from the checkout's own .git, or 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(samples: list[dict[str, Any]], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(s["run_s"] for s in samples),
        "events_per_s": statistics.median(s["events"] / s["run_s"] for s in samples),
        "replications_per_s": statistics.median(s["replications"] / s["run_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def with_units(values: dict[str, float], declared: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Attach units from BENCHMARK.json; the computed names must match the declared ones."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_sample(label: str, s: dict[str, Any]) -> None:
    print(
        f"  {label}: run_s={s['run_s']:.4f} cpu_s={s['cpu_s']:.4f} setup_s={s['setup_s']:.4f} "
        f"events={s['events']} replications={s['replications']} "
        f"peak_rss_mb={s['peak_rss_mb']:.1f} setup_rss_mb={s['setup_rss_mb']:.1f} report_sha256={s['report_sha256']} "
        f"items_produced={s['items_produced']} fragments_saved={s['fragments_saved']} "
        f"loss_ratio={s['loss_ratio']:.6f}"
        + (f" trace_sha256={s['trace_sha256']}" if "trace_sha256" in s else "")
    )


def print_metrics(metrics: dict[str, dict[str, Any]]) -> None:
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def measure(h: Harness, workload: Workload, seed: int, seconds: float,
            smoke: bool = False) -> tuple[Optional[dict[str, float]], dict[str, Any]]:
    """Untraced samples for `seconds`; returns end-to-end values and a record."""
    scenario = h.scenario(workload, seed, smoke)
    setup_spec = {"mode": "setup", "scenario": str(scenario)}
    h.child(setup_spec, counted=False)  # warm-up: bytecode cache, file cache
    print(f"{workload.name} seed={seed}: untraced samples")
    samples: list[dict[str, Any]] = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        result = h.child(h.sample_spec(workload, scenario, smoke))
        wall = time.perf_counter() - started
        if result is not None:
            samples.append(result)
            print_sample(f"sample {len(samples)}", result)
        if time.perf_counter() - begin + wall > seconds:
            break
    probes = [h.child(setup_spec) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes if p] + [s["setup_s"] for s in samples]
    digest = h.fail_mismatched_digests(samples)
    record: dict[str, Any] = {"samples": samples, "setup_s_values": setups, "report_sha256": digest}
    golden = GOLDEN_REPORT_SHA256.get((workload.name, seed))
    if golden and digest and not smoke:
        record["golden"] = "match" if digest == golden else "mismatch"
        print(f"  golden report digest for seed {seed}: {record['golden']} ({golden[:8]})")
    if not samples or not setups:
        return None, record
    return end_to_end(samples, setups), record


def traced(h: Harness, workload: Workload, seed: int,
           smoke: bool = False) -> tuple[Optional[dict[str, float]], dict[str, Any]]:
    """One untraced and one traced sample; returns per-layer values and a record.

    A call into a layer predicted to make none, or an event count that
    differs from the `sim.process` calls, counts the traced sample as failed.
    """
    scenario = h.scenario(workload, seed, smoke)
    h.child({"mode": "setup", "scenario": str(scenario)}, counted=False)
    print(f"{workload.name} seed={seed}: untraced then traced sample")
    plain = h.child(h.sample_spec(workload, scenario, smoke))
    spec = h.sample_spec(workload, scenario, smoke, traced=True)
    tracing = h.child(spec)
    record: dict[str, Any] = {"samples": [s for s in (plain, tracing) if s]}
    for label, s in (("untraced", plain), ("traced", tracing)):
        if s:
            print_sample(label, s)
    if plain is None or tracing is None:
        return None, record
    h.fail_mismatched_digests([plain, tracing])
    values, calls, self_s = spans.layer_metrics(Path(spec["spans"]))
    values["trace.overhead_s"] = tracing["run_s"] - plain["run_s"]
    record.update(
        calls=calls,
        zero_call_violations=[n for n in workload.zero_calls if calls.get(n, 0)],
        event_count_mismatch=calls.get("sim.process", 0) != tracing["events"],
        trace_sha256=tracing["trace_sha256"],
    )
    print(f"  tracing overhead: {values['trace.overhead_s']:.4f} s "
          f"({values['trace.overhead_s'] / plain['run_s']:.1%} of untraced run_s)")
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    print("  largest self times: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
    if record["zero_call_violations"]:
        sys.stderr.write(f"predicted zero calls but called: {record['zero_call_violations']}\n")
    if record["event_count_mismatch"]:
        sys.stderr.write(f"events counted {tracing['events']} != "
                         f"sim.process calls {calls.get('sim.process', 0)}\n")
    if record["zero_call_violations"] or record["event_count_mismatch"]:
        h.failed += 1
    return values, record


def write_record(h: Harness, name: str, seed: int, trace: int, seconds: float,
                 metrics: dict[str, Any], record: dict[str, Any], correct: bool) -> None:
    first = record["samples"][0]
    doc = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "run_count": len(record["samples"]),
        "correct": correct,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": metrics,
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(h.root),
        **record,
    }
    path = h.out / f"BENCH_{name}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"results written to {path.relative_to(h.root)}")


def report_workload(h: Harness, workload: Workload, seed: int, seconds: float,
                    trace: int) -> Optional[dict[str, dict[str, Any]]]:
    """Measure one workload, print its metrics and write its record."""
    if trace:
        values, record = traced(h, workload, seed)
        declared = h.contract["per_layer"]
    else:
        values, record = measure(h, workload, seed, seconds)
        declared = h.contract["end_to_end"]
    if values is None:
        sys.stderr.write(f"{workload.name}: no successful sample, nothing to report\n")
        return None
    metrics = with_units(values, declared)
    print_metrics(metrics)
    write_record(h, workload.name, seed, trace, seconds, metrics, record, h.failed == 0)
    return metrics


def run(h: Harness, workloads: list[Workload], seed: int, seconds: float, trace: int) -> int:
    """Report each workload; with several, metric names get a workload prefix."""
    combined: dict[str, dict[str, Any]] = {}
    for workload in workloads:
        metrics = report_workload(h, workload, seed, seconds, trace)
        if metrics is None:
            return 1
        prefix = f"{workload.name}." if len(workloads) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": h.failed == 0, "attempted": h.attempted,
                      "failed": h.failed, "metrics": combined}))
    return 0


def smoke(h: Harness, seed: int) -> int:
    """Each workload shrunk, untraced twice and traced once, with every check."""
    problems: list[str] = []
    for workload in WORKLOADS.values():
        values, record = measure(h, workload, seed, 0.0, smoke=True)
        second, second_record = measure(h, workload, seed, 0.0, smoke=True)
        layers, trace_record = traced(h, workload, seed, smoke=True)
        if values is None or second is None or layers is None:
            problems.append(f"{workload.name}: a sample failed")
            continue
        for declared, got in (("end_to_end", values), ("per_layer", layers)):
            try:
                print_metrics(with_units(got, h.contract[declared]))
            except RuntimeError as exc:
                problems.append(f"{workload.name}: {exc}")
        digests = {record["report_sha256"], second_record["report_sha256"]}
        digests |= {s["report_sha256"] for s in trace_record["samples"]}
        if len(digests) != 1:
            problems.append(f"{workload.name}: report digests differ: {sorted(digests)}")
    if h.failed:
        problems.append(f"{h.failed} of {h.attempted} child runs failed a check (see stderr)")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the benchmark itself")
    args = parser.parse_args(argv)
    root = Path.cwd()
    for needed in ("BENCHMARK.json", "scenarios/baseline.json", "src/oppbak/__init__.py"):
        if not (root / needed).is_file():
            sys.stderr.write(f"error: {needed} not found; run from the repository root\n")
            return 2
    h = Harness(root)
    if args.smoke:
        return smoke(h, args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    seconds = h.contract["run_seconds"] if args.seconds is None else args.seconds
    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    return run(h, chosen, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
