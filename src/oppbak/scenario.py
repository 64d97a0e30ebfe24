"""Declarative world description for simulation runs.

A scenario is a single JSON document mirroring ``ScenarioConfig``.
Unknown keys and values of the wrong type are a hard error, so a typo in
an experiment file fails loudly; `validate()` refuses NaN and infinities
in any config. Every section may be omitted to take its defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Any, Optional, Union, get_args, get_type_hints


class ConfigError(ValueError):
    """A scenario document is malformed or out of range."""


@dataclass(frozen=True)
class TerminalsSpec:
    count: int = 10
    producers: int = 2           # terminals t00..t(producers-1) generate data
    quota_bytes: int = 1 << 20
    base_reliability: float = 0.9   # estimator's per-terminal channel basis
    true_retrieval: Optional[float] = None  # actual retrieval odds; None = honest
    backup_peers: str = "all"    # "all" | "nonproducers": who accepts fragments


@dataclass(frozen=True)
class WorkloadSpec:
    items_per_hour: float = 6.0
    size_min_bytes: int = 200
    size_max_bytes: int = 20_000
    priority_min: float = 0.5
    priority_max: float = 0.95
    n: int = 4
    k: int = 2
    update_fraction: float = 0.0   # chance a production updates an earlier item
    chain_fraction: float = 0.0    # chance a new item depends on an earlier one
    lifetime_s: Optional[float] = None


@dataclass(frozen=True)
class MobilitySpec:
    encounter_rate_per_hour: float = 30.0   # global pairwise-contact process
    contact_duration_mean_s: float = 30.0
    bandwidth_bytes_per_s: float = 25_000.0


@dataclass(frozen=True)
class InfrastructureSpec:
    window_rate_per_hour: float = 0.5       # per terminal
    window_duration_mean_s: float = 60.0
    bandwidth_bytes_per_s: float = 125_000.0


@dataclass(frozen=True)
class FailureSpec:
    rate_per_hour: float = 0.0              # per targeted terminal
    targets: str = "producers"              # "producers" | "all"


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    horizon_s: float = 7200.0
    payload_mode: bool = True
    peer_backup: bool = True
    restore_delay_s: float = 0.0       # failure-to-restore-attempt gap
    terminals: TerminalsSpec = field(default_factory=TerminalsSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    infrastructure: InfrastructureSpec = field(default_factory=InfrastructureSpec)
    failures: FailureSpec = field(default_factory=FailureSpec)

    def validate(self) -> "ScenarioConfig":
        _check_finite(self)
        t, w, m, i, f = self.terminals, self.workload, self.mobility, self.infrastructure, self.failures
        checks = [
            (t.count >= 2, "terminals.count must be >= 2"),
            (0 <= t.producers <= t.count, "terminals.producers must be within terminals.count"),
            (t.quota_bytes >= 0, "terminals.quota_bytes must be >= 0"),
            (0.0 <= t.base_reliability <= 1.0, "terminals.base_reliability must be in [0, 1]"),
            (t.true_retrieval is None or 0.0 <= t.true_retrieval <= 1.0,
             "terminals.true_retrieval must be in [0, 1]"),
            (t.backup_peers in ("all", "nonproducers"),
             "terminals.backup_peers must be all|nonproducers"),
            (self.horizon_s > 0, "horizon_s must be > 0"),
            (self.restore_delay_s >= 0, "restore_delay_s must be >= 0"),
            (w.items_per_hour >= 0, "workload.items_per_hour must be >= 0"),
            (1 <= w.size_min_bytes <= w.size_max_bytes, "workload sizes must satisfy 1 <= min <= max"),
            (0.0 <= w.priority_min <= w.priority_max <= 1.0,
             "workload priorities must satisfy 0 <= min <= max <= 1"),
            (1 <= w.k <= w.n <= 255, "workload must satisfy 1 <= k <= n <= 255"),
            (0.0 <= w.update_fraction <= 1.0, "workload.update_fraction must be in [0, 1]"),
            (0.0 <= w.chain_fraction <= 1.0, "workload.chain_fraction must be in [0, 1]"),
            (w.lifetime_s is None or w.lifetime_s > 0, "workload.lifetime_s must be > 0"),
            (m.encounter_rate_per_hour >= 0, "mobility.encounter_rate_per_hour must be >= 0"),
            (m.contact_duration_mean_s > 0, "mobility.contact_duration_mean_s must be > 0"),
            (m.bandwidth_bytes_per_s > 0, "mobility.bandwidth_bytes_per_s must be > 0"),
            (i.window_rate_per_hour >= 0, "infrastructure.window_rate_per_hour must be >= 0"),
            (i.window_duration_mean_s > 0, "infrastructure.window_duration_mean_s must be > 0"),
            (i.bandwidth_bytes_per_s > 0, "infrastructure.bandwidth_bytes_per_s must be > 0"),
            (f.rate_per_hour >= 0, "failures.rate_per_hour must be >= 0"),
            (f.targets in ("producers", "all"), "failures.targets must be producers|all"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _check_finite(spec: Any, where: str = "") -> None:
    """Every float in a document class and its sections must be finite; `where` prefixes paths."""
    for f in fields(spec):
        value, path = getattr(spec, f.name), f"{where}{f.name}"
        if is_dataclass(value):
            _check_finite(value, f"{path}.")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value}")


@cache
def _field_types(cls: type) -> dict[str, Any]:
    """Field name -> annotation of a document class, resolved once per class."""
    return get_type_hints(cls)


def _type_ok(value: Any, hint: Any) -> bool:
    """JSON value against a field annotation: an int passes as a float, a bool only as a bool."""
    allowed = get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    return isinstance(value, allowed) and (bool in allowed or not isinstance(value, bool))


def _build(cls: type, data: Any, where: str) -> Any:
    """One document class from a JSON object; `where` is its dotted path."""
    label = where or "scenario root"
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected an object, got {type(data).__name__}")
    types = _field_types(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{label}: unknown key(s) {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        path = f"{where}.{name}" if where else name
        hint = types[name]
        if is_dataclass(hint):
            kwargs[name] = _build(hint, value, path)
        elif _type_ok(value, hint):
            kwargs[name] = value
        else:
            names = [t.__name__.replace("NoneType", "null") for t in get_args(hint) or (hint,)]
            raise ConfigError(f"{path}: expected {' or '.join(names)}, got {type(value).__name__}")
    return cls(**kwargs)


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    return _build(ScenarioConfig, data, "").validate()


def load_scenario(path: Union[str, Path], seed_override: Optional[int] = None) -> ScenarioConfig:
    """Read and validate a scenario file, optionally overriding its seed."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    config = config_from_dict(data)
    if seed_override is not None and not _type_ok(seed_override, int):
        raise ConfigError(f"seed: expected int, got {type(seed_override).__name__}")
    return config if seed_override is None else replace(config, seed=seed_override)
