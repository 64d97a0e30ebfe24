"""Owner-side backup queue and the encounter save loop.

Pending items wait in a queue ordered by deficit (target priority minus
the current estimated restore probability), largest shortfall first,
FIFO among equals. When a terminal comes into range the loop repeatedly
pulls the neediest item that fits the terminal's free space, ships its
next fragment, folds the save into the item's reliability table, and
re-queues the item only while it still falls short of its target.

Deficits are cached: whoever changes one sends the queue a notice, and
the next pull re-reads only the noticed ones. Items with every fragment
sent are parked, out of meeting pulls, for the Internet-window flush.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, MutableMapping, Optional, Protocol

from .dispersal import fragment_wire_size
from .model import DataItem, Fragment, UsageError, VersionIndex, VersionKey
from .reliability import ChannelEstimate, ReliabilityTable


class TerminalHandle(Protocol):
    """What the save loop needs from an encountered terminal.

    Within one meeting, `free_bytes` may change only through `save`.
    """

    terminal_id: str
    channel: ChannelEstimate

    def free_bytes(self) -> int: ...

    def save(self, fragment: Fragment, item: DataItem, declared_success: float) -> bool: ...


@dataclass(frozen=True)
class SaveOutcome:
    """Record of one completed fragment transfer during a meeting."""

    item_id: str
    version: int
    fragment_index: int
    bytes_transferred: int
    saved: bool


class LinkSession:
    """Byte budget of one wireless contact; transfers are all-or-drop."""

    def __init__(self, budget_bytes: int) -> None:
        self.remaining = max(int(budget_bytes), 0)
        self.dropped = False

    @property
    def reachable(self) -> bool:
        return not self.dropped and self.remaining > 0

    def try_transfer(self, nbytes: int) -> bool:
        """Consume budget for one fragment; a shortfall drops the link."""
        if self.dropped:
            return False
        if nbytes <= self.remaining:
            self.remaining -= nbytes
            return True
        self.remaining = 0
        self.dropped = True
        return False


class BackupQueue:
    """Deficit-ordered set of pending item versions.

    Live entries are (-deficit, seq, key) tuples in a heap: a meeting pull
    costs O(log n) plus the entries it rejects. A `notice` makes the next
    pull re-read that deficit, re-stamping or retiring the entry; stale
    stamps are skipped, and purged once they outnumber live ones. Parked
    entries stay out of the heap: only `pull(..., parked=True)` scans them.
    """

    def __init__(self) -> None:
        self._entries: dict[VersionKey, tuple[float, int, VersionKey]] = {}
        self._heap: list[tuple[float, int, VersionKey]] = []
        self._parked: set[VersionKey] = set()
        self._noticed: set[VersionKey] = set()
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: VersionKey) -> bool:
        return key in self._entries

    def keys(self) -> list[VersionKey]:
        """Queued keys, parked ones included, in arrival order."""
        return list(self._entries)

    def enqueue(self, key: VersionKey, deficit: float, parked: bool = False) -> bool:
        """Insert iff the item still falls short of its target (deficit > 0)."""
        if key in self._entries:
            raise UsageError(f"{key} is already queued")
        if deficit <= 0.0:
            return False
        entry = self._entries[key] = (-deficit, self._next_seq, key)
        self._next_seq += 1
        if parked:
            self._parked.add(key)
        else:
            heapq.heappush(self._heap, entry)
        return True

    def notice(self, key: VersionKey) -> None:
        """The deficit of `key` may have changed: re-read it at the next pull."""
        if key in self._entries:
            self._noticed.add(key)

    def pull(
        self,
        deficit_of: Callable[[VersionKey], float],
        eligible: Optional[Callable[[VersionKey], bool]] = None,
        parked: bool = False,
    ) -> Optional[VersionKey]:
        """Remove and return the highest-deficit eligible entry.

        Ties break FIFO by insertion sequence. Noticed entries at or above
        their target are dropped first; ineligible entries stay queued.
        """
        entries, heap = self._entries, self._heap
        for key in self._noticed:
            deficit = deficit_of(key)
            if deficit <= 0.0:
                del entries[key]
                self._parked.discard(key)
            elif -deficit != entries[key][0]:
                entry = entries[key] = (-deficit, entries[key][1], key)
                if key not in self._parked:
                    heapq.heappush(heap, entry)
        self._noticed.clear()
        if parked:  # the server flush: one scan over live and parked entries
            found = min((e for e in entries.values() if eligible is None or eligible(e[2])),
                        default=None)
        else:
            found, rejected = None, []
            while heap:
                entry = heapq.heappop(heap)
                if entries.get(entry[2]) is not entry:
                    continue  # stale stamp
                if eligible is None or eligible(entry[2]):
                    found = entry
                    break
                rejected.append(entry)
            for entry in rejected:
                heapq.heappush(heap, entry)
        if found is not None:
            del entries[found[2]]
            self._parked.discard(found[2])
        if len(heap) > 2 * (len(entries) - len(self._parked)):
            self._heap = [e for key, e in entries.items() if key not in self._parked]
            heapq.heapify(self._heap)
        return None if found is None else found[2]


@dataclass
class Scheduler:
    """Per-owner backup driver: one queue, one fragment cursor per item.

    `success_of` supplies the current composite restore estimate for a
    version (the simulator wires it to the dependency-aware product);
    `fragment_for` materializes fragment number i of a version, or is
    left None to run in metadata mode with size-only fragments.
    """

    owner: str
    index: VersionIndex
    tables: MutableMapping[VersionKey, ReliabilityTable]
    success_of: Callable[[VersionKey], float]
    fragment_for: Optional[Callable[[VersionKey, int], Fragment]] = None
    queue: BackupQueue = field(default_factory=BackupQueue)
    _next_index: dict[VersionKey, int] = field(default_factory=dict)

    def enqueue(self, item: DataItem, current_success: float) -> bool:
        """Queue an item while its success estimate falls short of its priority.

        Every requeue, the save loop's and the simulator's, goes through here.
        An item with all n fragments sent is parked until a server upload.
        """
        if item.key not in self.index:
            raise UsageError(f"{item.key} is not registered")
        exhausted = self._next_index.get(item.key, 0) >= item.n
        return self.queue.enqueue(item.key, item.priority - current_success, exhausted)

    def fragments_sent(self, key: VersionKey) -> int:
        return self._next_index.get(key, 0)

    def deficit_of(self, key: VersionKey) -> float:
        """Current shortfall below target; the queue's ordering key."""
        return self.index.get(key).priority - self.success_of(key)

    def _fragment(self, key: VersionKey, i: int) -> Fragment:
        if self.fragment_for is not None:
            return self.fragment_for(key, i)
        item = self.index.get(key)
        return Fragment(
            item_id=item.id,
            version=item.version,
            index=i,
            n=item.n,
            k=item.k,
            original_size=item.size_bytes,
        )

    def on_meeting(
        self, terminal: TerminalHandle, link: LinkSession, now: float = 0.0
    ) -> list[SaveOutcome]:
        """Run the save loop against one encountered terminal.

        Stops when the link drops, the queue empties, or nothing left in
        the queue fits the terminal. Several fragments of one item saved
        in this same session share the terminal's fate, so the estimate
        is refolded through the batch update from the session-start
        table rather than stacked as independent saves.

        `terminal.free_bytes()` is read at most once between two saves,
        lazily, at the first eligibility check that needs it: within one
        meeting only a save changes it.
        """
        outcomes: list[SaveOutcome] = []
        skips: set[VersionKey] = set()
        session_base: dict[VersionKey, ReliabilityTable] = {}
        session_count: dict[VersionKey, int] = {}
        channel = terminal.channel
        free: Optional[int] = None  # the terminal's free bytes, read since the last save

        def eligible(key: VersionKey) -> bool:
            nonlocal free
            if key in skips:
                return False
            item = self.index.get(key)
            if item.expired(now):
                return True  # pulled then retired below
            if free is None:
                free = terminal.free_bytes()
            return free >= fragment_wire_size(item.size_bytes, item.k)

        while link.reachable and len(self.queue):
            key = self.queue.pull(self.deficit_of, eligible)
            if key is None:
                break
            item = self.index.get(key)
            next_index = self._next_index.get(key, 0)
            if item.expired(now):
                continue  # no longer worth sending; silently retired
            fragment = self._fragment(key, next_index)
            size = fragment_wire_size(item.size_bytes, item.k)
            if not link.try_transfer(size):
                # dropped mid-transfer: the fragment does not count
                self.enqueue(item, self.success_of(key))
                break
            old_table = self.tables[key]
            base = session_base.setdefault(key, old_table)
            m = session_count.get(key, 0) + 1
            self.tables[key] = base.add_batch_same_terminal(channel, m)
            proba = self.success_of(key)
            if not terminal.save(fragment, item, proba):
                self.tables[key] = old_table
                skips.add(key)
                self.enqueue(item, self.success_of(key))
                outcomes.append(SaveOutcome(item.id, item.version, next_index, size, False))
                continue
            free = None
            session_count[key] = m
            self._next_index[key] = next_index + 1
            outcomes.append(SaveOutcome(item.id, item.version, next_index, size, True))
            self.enqueue(item, proba)
        return outcomes
