"""Incremental estimate of the probability that an item can be restored.

For an item split so that any k of its fragments reconstruct it, the
table tracks, for each l in 0..k, the probability of retrieving at least
l of the fragments saved so far. Saving one more fragment with retrieval
probability p folds in with k multiply-adds:

    P[l] <- (1 - p) * P[l] + p * P[l - 1]

so a running estimate is available after every save. Fragments pushed to
the same terminal in one session share the same transmission, so they
survive or vanish together; the batch update uses P[l - m] in place of
P[l - 1]. P[0] is 1 by definition and P[l] is 0 while fewer than l
fragments exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Union

from .model import IntegrityError, UsageError, VersionKey

if TYPE_CHECKING:
    from .model import DataItem, VersionIndex


@dataclass(frozen=True)
class ChannelEstimate:
    """Probability that a fragment saved on a terminal now is retrievable later."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise UsageError(f"channel probability must be in [0, 1], got {self.p}")


ProbLike = Union[float, ChannelEstimate]


def _prob(c: ProbLike) -> float:
    p = c.p if isinstance(c, ChannelEstimate) else float(c)
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"probability must be in [0, 1], got {p}")
    return p


def _bump(table: tuple[float, ...], k: int, p: float, m: int) -> tuple[float, ...]:
    # Descending l so the read of table[l - m] always sees the pre-update row.
    out = list(table)
    for l in range(k, 0, -1):
        out[l] = (1.0 - p) * table[l] + p * table[max(l - m, 0)]
    return tuple(out)


@dataclass(frozen=True)
class ReliabilityTable:
    """The k+1 running probabilities for one item version.

    Immutable value: updates return a new table, so snapshots taken before
    a tentative save stay valid if the save is abandoned.
    """

    k: int
    table: tuple[float, ...]
    fragments_saved: int = 0

    @classmethod
    def fresh(cls, k: int) -> "ReliabilityTable":
        if k < 1:
            raise UsageError(f"reconstruction threshold k must be >= 1, got {k}")
        return cls(k=k, table=(1.0,) + (0.0,) * k, fragments_saved=0)

    def add_fragment(self, c: ProbLike) -> "ReliabilityTable":
        """Fold in one fragment saved on its own independent channel."""
        return self.add_batch_same_terminal(c, 1)

    def add_batch_same_terminal(self, c: ProbLike, m: int) -> "ReliabilityTable":
        """Fold in m fragments that share one terminal and one session.

        All m are retrieved together or lost together. m=1 is exactly
        `add_fragment`.
        """
        if m < 1:
            raise UsageError(f"batch size must be >= 1, got {m}")
        p = _prob(c)
        return ReliabilityTable(
            k=self.k,
            table=_bump(self.table, self.k, p, m),
            fragments_saved=self.fragments_saved + m,
        )

    @property
    def success(self) -> float:
        """Probability that at least k saved fragments can be retrieved."""
        return self.table[self.k]


new_table = ReliabilityTable.fresh


def composite_success(
    item: "DataItem",
    tables: Mapping[VersionKey, ReliabilityTable],
    index: "VersionIndex",
) -> float:
    """Restore probability of an item including everything it depends on.

    The item is only useful if every transitive dependency is restorable
    too, so the factors multiply. Each distinct version contributes once
    no matter how many dependency paths reach it, and a version already
    on the server contributes 1. A version without dependencies reads
    its own table alone.
    """
    deps = item.temporal_deps
    keys = sorted(index.dependency_closure(deps) | {item.key}) if deps else (item.key,)
    product = 1.0
    for key in keys:
        if index.is_on_server(key):
            continue
        table = tables.get(key)
        if table is None:
            raise IntegrityError(f"no reliability table for {key} and not on server")
        product *= table.success
    return product
