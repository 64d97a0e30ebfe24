"""Bytecodes and Python-level calls of each benchmark workload.

Runs every workload of `benchmarks/workloads.py` at its full horizon and
a fixed seed and replication count (`SIZES`) under `sys.settrace`, with
opcode events switched on for every frame:

* `bytecodes` counts the bytecode instructions Python code executed;
* `calls` counts the frames started, generator resumptions included.

Work done in C (builtins, `bisect`, numpy kernels) counts only through
the Python code that calls it. A `run` workload calls `oppbak.sim.run`
once per seed, a `batch` workload calls `oppbak.sim.run_batch`. Scenarios
are built and oppbak and numpy imported before counting starts, and the
workloads run in name order in one process. The counts depend on the
Python version but not on timing or hash seed: the same tree prints the
same bytes on every run.

Usage: python3 tools/opcount.py
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SIZES = {  # workload -> (seed, replications)
    "t100-meta": (42, 1),
    "chain-batch": (1, 50),
    "payload-16of10": (1, 16),
}


def count(work: Callable[[], Any]) -> dict[str, int]:
    """The bytecodes and calls Python code makes while `work()` runs."""
    bytecodes = calls = 0

    def local(frame: Any, event: str, arg: Any) -> Any:
        nonlocal bytecodes
        if event == "opcode":
            bytecodes += 1
        return local

    def on_call(frame: Any, event: str, arg: Any) -> Any:
        nonlocal calls
        calls += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        work()
    finally:
        sys.settrace(None)
    return {"bytecodes": bytecodes, "calls": calls}


def main() -> None:
    sys.dont_write_bytecode = True  # leave no cache files in the tree
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import numpy  # noqa: F401  # imported lazily by payload runs: not counted
    from oppbak import sim
    from oppbak.scenario import config_from_dict
    from workloads import WORKLOADS, scenario_document

    baseline = json.loads((ROOT / "scenarios" / "baseline.json").read_text())
    counts: dict[str, dict[str, int]] = {}
    for name, workload in sorted(WORKLOADS.items()):
        seed, replications = SIZES[name]
        config = config_from_dict(scenario_document(baseline, workload, seed, smoke=False))
        if workload.entry == "batch":
            counted = count(lambda: sim.run_batch(config, replications))
        else:
            configs = [config_from_dict({**config.to_dict(), "seed": seed + r})
                       for r in range(replications)]
            counted = count(lambda: [sim.run(replica) for replica in configs])
        counts[name] = {"seed": seed, "replications": replications, **counted}
    print(json.dumps({"python": platform.python_version(), "workloads": counts}, indent=1))


if __name__ == "__main__":
    main()
