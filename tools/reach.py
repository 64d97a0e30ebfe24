"""Which source lines of `oppbak` the CLI never runs, per function.

Runs this command set under the standard library's `trace` module:

* `run` on `scenarios/baseline.json` with `--trace`;
* on each benchmark workload's smoke config at seed 7, `run` in every
  output format and a `batch` of 3 replications;
* `estimate --k 2 --probs 0.9 0.8 0.7`.

`oppbak` is imported inside the traced call, so module and class bodies
count as run. A line is executable if a code object of `src/oppbak/*.py`
maps an instruction to it; it belongs to the innermost named function
around it (comprehensions and lambdas count as part of theirs). The JSON
printed lists, per function with a line never run, those lines, and the
totals. The same tree prints the same bytes on every run.

Usage: python3 tools/reach.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
import trace
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "oppbak"
ESTIMATE = ["estimate", "--k", "2", "--probs", "0.9", "0.8", "0.7"]


def command_set(tmp: Path) -> list[list[str]]:
    """The CLI argument lists to run, smoke scenarios written under `tmp`."""
    sys.dont_write_bytecode = True  # leave no cache files in the tree
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS, scenario_document

    baseline = ROOT / "scenarios" / "baseline.json"
    commands = [["run", "--scenario", str(baseline), "--output", str(tmp / "out"),
                 "--trace", str(tmp / "run.trace")]]
    for name, workload in sorted(WORKLOADS.items()):
        doc = scenario_document(json.loads(baseline.read_text()), workload, seed=7, smoke=True)
        scenario = tmp / f"{name}.json"
        scenario.write_text(json.dumps(doc))
        for fmt in ("csv", "human", "json"):
            commands.append(["run", "--scenario", str(scenario), "--format", fmt,
                             "--output", str(tmp / "out")])
        commands.append(["batch", "--scenario", str(scenario), "--replications", "3",
                         "--output", str(tmp / "out")])
    return commands + [ESTIMATE]


def run_commands(commands: list[list[str]]) -> None:
    """Import the CLI and run each command, its stdout discarded."""
    from oppbak import cli

    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise SystemExit(f"oppbak {' '.join(argv)} exited with {status}")


def line_owners(code: CodeType, name: str, owners: dict[int, str]) -> None:
    """Map each line with an instruction to its innermost named function."""
    for _, _, line in code.co_lines():
        if line:  # None or 0: no source line
            owners[line] = name
    for inner in code.co_consts:
        if not isinstance(inner, CodeType):
            continue
        if inner.co_name.startswith("<"):  # a comprehension or lambda: part of `name`
            inner_name = name
        elif name == "<module>":
            inner_name = inner.co_name
        elif code.co_flags & inspect.CO_NEWLOCALS:  # defined in a function, not a class body
            inner_name = f"{name}.<locals>.{inner.co_name}"
        else:
            inner_name = f"{name}.{inner.co_name}"
        line_owners(inner, inner_name, owners)


def main() -> None:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        commands = command_set(Path(tmp))
        # no ignoredirs: `trace` caches its verdict per module basename, so an
        # ignored stdlib `__init__` would hide `oppbak/__init__.py` too
        tracer = trace.Trace(count=1, trace=0)
        tracer.runfunc(run_commands, commands)
    counts = tracer.results().counts
    functions: dict[str, list[int]] = {}
    executable = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owners: dict[int, str] = {}
        line_owners(compile(path.read_text(), str(path), "exec"), "<module>", owners)
        executable += len(owners)
        for line in sorted(owners):
            if (str(path), line) not in counts:
                functions.setdefault(f"{path.stem}.{owners[line]}", []).append(line)
    never_run = {name: {"count": len(lines), "lines": lines}
                 for name, lines in sorted(functions.items())}
    print(json.dumps({
        "executable_lines": executable,
        "never_run_lines": sum(entry["count"] for entry in never_run.values()),
        "never_run": never_run,
    }, indent=1))


if __name__ == "__main__":
    main()
