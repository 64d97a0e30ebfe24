"""Opportunistic peer backup toolkit.

Mobile terminals replicate (n, k)-dispersed data onto whoever they meet,
steer the effort with an incremental restore-probability estimate, and
let backup peers manage replica lifetime under memory pressure. The
package is a library plus a deterministic discrete-event simulator; see
``oppbak.cli`` or the ``oppbak`` command for the scenario front end.
"""

from .dispersal import (
    HEADER_SIZE,
    FragmentSet,
    InsufficientFragments,
    fragment_wire_size,
    reconstruct,
    split,
)
from .model import (
    ConflictReport,
    DataItem,
    Fragment,
    IntegrityError,
    Location,
    UnknownItemError,
    UsageError,
    VersionIndex,
    VersionKey,
    VersionRecord,
    detect_conflict,
    propagate_priority,
)
from .peer import (
    EvictionShortfall,
    NoticeSource,
    Replica,
    ReplicaState,
    ReplicaStore,
)
from .reliability import (
    ReliabilityTable,
    composite_success,
    new_table,
)
from .scenario import ConfigError, ScenarioConfig, config_from_dict, load_scenario
from .scheduler import (
    BackupQueue,
    LinkSession,
    SaveOutcome,
    Scheduler,
)
from .sim import (
    BatchReport,
    CalibrationResult,
    DataProducedEvent,
    EncounterEvent,
    InternetWindowEvent,
    MetricsReport,
    RestoreAttemptEvent,
    Simulation,
    TerminalFailureEvent,
    calibration_check,
    generate_events,
    run,
    run_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BackupQueue",
    "BatchReport",
    "CalibrationResult",
    "ConflictReport",
    "ConfigError",
    "DataItem",
    "DataProducedEvent",
    "EncounterEvent",
    "EvictionShortfall",
    "InternetWindowEvent",
    "RestoreAttemptEvent",
    "TerminalFailureEvent",
    "Fragment",
    "FragmentSet",
    "HEADER_SIZE",
    "InsufficientFragments",
    "IntegrityError",
    "LinkSession",
    "Location",
    "MetricsReport",
    "NoticeSource",
    "Replica",
    "ReplicaState",
    "ReplicaStore",
    "ReliabilityTable",
    "SaveOutcome",
    "ScenarioConfig",
    "Scheduler",
    "Simulation",
    "UnknownItemError",
    "UsageError",
    "VersionIndex",
    "VersionKey",
    "VersionRecord",
    "calibration_check",
    "composite_success",
    "config_from_dict",
    "detect_conflict",
    "fragment_wire_size",
    "generate_events",
    "load_scenario",
    "new_table",
    "propagate_priority",
    "reconstruct",
    "run",
    "run_batch",
    "split",
]
