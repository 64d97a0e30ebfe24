"""Span tracing around oppbak's layer entry points, and the per-layer metrics.

The traced child process calls `install()`, which replaces the entry
points of each layer with wrappers that record one span per call: name,
start, end, parent span and the id of the simulator event being processed.
Nothing under ``src/`` changes. Wrappers go where ``oppbak.sim`` looks
names up (module functions) and on the classes' methods, so every caller
goes through them.

O(1) accessors (``VersionIndex.get``, ``__contains__``, ...) are not
wrapped: a span costs about a microsecond, more than the accessor, so
their time stays in the caller's self time.

Spans live in flat typed arrays (T100 makes about 600k of them) and are
written to one file at the end. `layer_metrics()` reads that file and
derives the per-layer metrics; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional
from weakref import WeakKeyDictionary

ENCOUNTER_KIND = "EncounterEvent"

# span name -> (module, attribute) and (module, class, method) to wrap
_MODULE_TARGETS = {
    "dispersal.split": ("oppbak.sim", "split"),
    "dispersal.reconstruct": ("oppbak.sim", "reconstruct"),
    "reliability.composite_success": ("oppbak.sim", "composite_success"),
    "model.propagate_priority": ("oppbak.sim", "propagate_priority"),
    "model.detect_conflict": ("oppbak.sim", "detect_conflict"),
    "sim.generate_events": ("oppbak.sim", "generate_events"),
    "scenario.config_from_dict": ("oppbak.sim", "config_from_dict"),
    "cli.main": ("oppbak.cli", "main"),
}
_METHOD_TARGETS = {
    "peer.purge": ("oppbak.peer", "ReplicaStore", "purge"),
    "peer.free_bytes": ("oppbak.peer", "ReplicaStore", "free_bytes"),
    "peer.accept": ("oppbak.peer", "ReplicaStore", "accept"),
    "peer.notify": ("oppbak.peer", "ReplicaStore", "notify"),
    "peer.replicas": ("oppbak.peer", "ReplicaStore", "replicas"),
    "scheduler.on_meeting": ("oppbak.scheduler", "Scheduler", "on_meeting"),
    "scheduler.pull": ("oppbak.scheduler", "BackupQueue", "pull"),
    "reliability.fold": ("oppbak.reliability", "ReliabilityTable", "add_batch_same_terminal"),
    "model.pinned": ("oppbak.model", "VersionIndex", "pinned"),
    "model.versions_of": ("oppbak.model", "VersionIndex", "versions_of"),
    "model.register": ("oppbak.model", "VersionIndex", "register"),
    "sim.process": ("oppbak.sim", "Simulation", "process"),
    "sim.run": ("oppbak.sim", "Simulation", "run"),
}


class Tracer:
    """In-memory span store plus the per-call counters the metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("l")
        self.events = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.event_kinds = array("B")
        self.kind_names: list[str] = []
        self.split_bytes = array("q")
        self.reconstruct_bytes = array("q")
        self.reconstruct_parity = array("B")
        self.counters: Counter[str] = Counter()
        self._closures: WeakKeyDictionary[Any, dict[Any, int]] = WeakKeyDictionary()
        self._stack = [-1]
        self._event = [-1]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, events = self.name_ids, self.parents, self.events
        starts, ends, stack, event = self.starts, self.ends, self._stack, self._event
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            events.append(event[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, return_value)
            return return_value

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- hooks: bookkeeping outside the span's timed interval ------------

    def _begin_event(self, args: tuple) -> None:
        kind = type(args[1]).__name__
        if kind not in self.kind_names:
            self.kind_names.append(kind)
        self._event[0] = len(self.event_kinds)
        self.event_kinds.append(self.kind_names.index(kind))

    def _end_event(self, args: tuple, result: Any) -> None:
        self._event[0] = -1

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def _reconstruct_args(self, args: tuple) -> None:
        fragments = args[0]
        indices = sorted({f.index for f in fragments})
        k = fragments[0].k
        self.reconstruct_bytes.append(fragments[0].original_size)
        self.reconstruct_parity.append(indices[:k] != list(range(k)))

    def _meeting_outcomes(self, args: tuple, outcomes: list) -> None:
        self.counters["scheduler.outcomes"] += len(outcomes)
        self.counters["scheduler.saved"] += sum(o.saved for o in outcomes)

    def _composite_args(self, args: tuple) -> None:
        # A version's dependency closure never changes once it is
        # registered, so one walk per version and index suffices.
        item, _tables, index = args
        sizes = self._closures.get(index)
        if sizes is None:
            sizes = self._closures[index] = {}
        size = sizes.get(item.key)
        if size is None:
            size = sizes[item.key] = 1 + len(index.transitive_deps(item.key))
        self.counters["reliability.closure_sum"] += size

    def install(self, trace_line: Callable[[str], None]) -> None:
        """Wrap every layer entry point; `trace_line` becomes each run's trace sink."""
        count = self._count
        hooks: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
            "dispersal.split": (lambda a: self.split_bytes.append(len(a[0])), None),
            "dispersal.reconstruct": (self._reconstruct_args, None),
            "reliability.composite_success": (self._composite_args, None),
            "peer.purge": (
                lambda a: count("peer.purge.scanned", len(a[0])),
                lambda a, r: count("peer.purge.deleted", len(r)),
            ),
            "peer.accept": (None, lambda a, r: count("peer.accept.refused", not r)),
            "peer.notify": (None, lambda a, r: count("peer.notify.changed_calls", r > 0)),
            "scheduler.pull": (lambda a: count("scheduler.pull.depth", len(a[0])), None),
            "scheduler.on_meeting": (None, self._meeting_outcomes),
            "sim.process": (self._begin_event, self._end_event),
            "sim.run": (lambda a: _attach_sink(a[0], trace_line), None),
        }
        for name, (module_name, attr) in _MODULE_TARGETS.items():
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), *hooks.get(name, ())))
        for name, (module_name, class_name, attr) in _METHOD_TARGETS.items():
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], *hooks.get(name, ())))

    def write(self, path: Path) -> None:
        """Write spans and counters to `path`: a JSON header line, then the arrays."""
        arrays = {
            "name_ids": self.name_ids,
            "parents": self.parents,
            "events": self.events,
            "starts": self.starts,
            "ends": self.ends,
            "event_kinds": self.event_kinds,
            "split_bytes": self.split_bytes,
            "reconstruct_bytes": self.reconstruct_bytes,
            "reconstruct_parity": self.reconstruct_parity,
        }
        header = {
            "names": self.names,
            "kind_names": self.kind_names,
            "counters": self.counters,
            "arrays": [[key, a.typecode, len(a)] for key, a in arrays.items()],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                a.tofile(handle)


def _attach_sink(simulation: Any, trace_line: Callable[[str], None]) -> None:
    if simulation.trace_sink is None:
        simulation.trace_sink = trace_line


def read(path: Path) -> tuple[dict[str, Any], dict[str, array]]:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        arrays = {}
        for key, typecode, length in header["arrays"]:
            a = array(typecode)
            a.fromfile(handle, length)
            arrays[key] = a
    return header, arrays


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p99(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def layer_metrics(path: Path) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-layer metrics from a span file, keyed by the names in BENCHMARK.json.

    Also returns the call count and total self time of every span name.
    """
    header, a = read(path)
    names = header["names"]
    c = header["counters"]
    n = len(a["starts"])
    dur = [e - s for s, e in zip(a["starts"], a["ends"])]
    children = [0.0] * n
    run_inner = [0.0] * n
    run_id = names.index("sim.run")
    inner_ids = {names.index("sim.process"), names.index("sim.generate_events")}
    name_ids, parents = a["name_ids"], a["parents"]
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children[p] += dur[i]
            if name_ids[p] == run_id and name_ids[i] in inner_ids:
                run_inner[p] += dur[i]

    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    total_s: Counter[str] = Counter()
    final_report_s = 0.0
    split_self: list[float] = []
    reconstruct_self: list[float] = []
    encounter_ms: list[float] = []
    kind_names = header["kind_names"]
    encounter_kind = kind_names.index(ENCOUNTER_KIND) if ENCOUNTER_KIND in kind_names else -1
    for i in range(n):
        name = names[name_ids[i]]
        own = dur[i] - children[i]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += dur[i]
        if name == "sim.run":
            final_report_s += dur[i] - run_inner[i]
        elif name == "dispersal.split":
            split_self.append(own)
        elif name == "dispersal.reconstruct":
            reconstruct_self.append(own)
        elif name == "sim.process" and a["event_kinds"][a["events"][i]] == encounter_kind:
            encounter_ms.append(dur[i] * 1e3)

    def mbps(sizes: list[int], seconds: list[float]) -> float:
        return _ratio(sum(sizes) / 1e6, sum(seconds))

    split_sizes = list(a["split_bytes"])
    small = [(b, s) for b, s in zip(split_sizes, split_self) if b <= 16 * 1024]
    large = [(b, s) for b, s in zip(split_sizes, split_self) if b >= 256 * 1024]
    metrics = {
        "peer.purge.calls": calls["peer.purge"],
        "peer.purge.self_s": self_s["peer.purge"],
        "peer.purge.scanned": c.get("peer.purge.scanned", 0),
        "peer.purge.yield": _ratio(c.get("peer.purge.deleted", 0), c.get("peer.purge.scanned", 0)),
        "peer.purges_per_pull": _ratio(calls["peer.purge"], calls["scheduler.pull"]),
        "peer.free_bytes.calls": calls["peer.free_bytes"],
        "peer.accept.calls": calls["peer.accept"],
        "peer.accept.refused": c.get("peer.accept.refused", 0),
        "peer.accept.self_s": self_s["peer.accept"],
        "peer.notify.calls": calls["peer.notify"],
        "peer.notify.self_s": self_s["peer.notify"],
        "peer.notify.changed_ratio": _ratio(c.get("peer.notify.changed_calls", 0), calls["peer.notify"]),
        "peer.replicas.calls": calls["peer.replicas"],
        "peer.replicas.self_s": self_s["peer.replicas"],
        "scheduler.on_meeting.calls": calls["scheduler.on_meeting"],
        "scheduler.on_meeting.self_s": self_s["scheduler.on_meeting"],
        "scheduler.pull.calls": calls["scheduler.pull"],
        "scheduler.pull.self_s": self_s["scheduler.pull"],
        "scheduler.pull.depth_mean": _ratio(c.get("scheduler.pull.depth", 0), calls["scheduler.pull"]),
        "scheduler.save_yield": _ratio(c.get("scheduler.saved", 0), c.get("scheduler.outcomes", 0)),
        "scheduler.pulls_per_save": _ratio(calls["scheduler.pull"], c.get("scheduler.saved", 0)),
        "reliability.composite_success.calls": calls["reliability.composite_success"],
        "reliability.composite_success.self_s": self_s["reliability.composite_success"],
        "reliability.composite_success.closure_mean": _ratio(
            c.get("reliability.closure_sum", 0), calls["reliability.composite_success"]
        ),
        "reliability.fold.calls": calls["reliability.fold"],
        "reliability.fold.self_s": self_s["reliability.fold"],
        "model.pinned.calls": calls["model.pinned"],
        "model.pinned.self_s": self_s["model.pinned"],
        "model.versions_of.calls": calls["model.versions_of"],
        "model.versions_of.self_s": self_s["model.versions_of"],
        "model.propagate_priority.calls": calls["model.propagate_priority"],
        "model.propagate_priority.self_s": self_s["model.propagate_priority"],
        "model.detect_conflict.calls": calls["model.detect_conflict"],
        "model.register.calls": calls["model.register"],
        "dispersal.split.calls": calls["dispersal.split"],
        "dispersal.split.self_s": self_s["dispersal.split"],
        "dispersal.split.MBps": mbps(split_sizes, split_self),
        "dispersal.split.MBps.le16k": mbps([b for b, _ in small], [s for _, s in small]),
        "dispersal.split.MBps.ge256k": mbps([b for b, _ in large], [s for _, s in large]),
        "dispersal.reconstruct.calls": calls["dispersal.reconstruct"],
        "dispersal.reconstruct.self_s": self_s["dispersal.reconstruct"],
        "dispersal.reconstruct.MBps": mbps(list(a["reconstruct_bytes"]), reconstruct_self),
        "dispersal.reconstruct.parity_share": _ratio(
            sum(a["reconstruct_parity"]), len(a["reconstruct_parity"])
        ),
        "scenario.config_from_dict.calls": calls["scenario.config_from_dict"],
        "scenario.config_from_dict.self_s": self_s["scenario.config_from_dict"],
        "sim.generate_events.s": total_s["sim.generate_events"],
        "sim.process.calls": calls["sim.process"],
        "sim.process.self_s": self_s["sim.process"],
        "sim.process.encounter.p99_ms": _p99(encounter_ms),
        "sim.final_report.s": final_report_s,
        "cli.main.self_s": self_s["cli.main"],
    }
    return {k: float(v) for k, v in metrics.items()}, dict(calls), dict(self_s)
