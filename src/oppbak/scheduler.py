"""Owner-side backup queue and the encounter save loop.

Pending items wait in a queue ordered by deficit (target priority minus
the current estimated restore probability), largest shortfall first,
FIFO among equals. When a terminal comes into range the loop repeatedly
pulls the neediest item whose next fragment fits the terminal's free space,
ships its next fragment, folds the save into the item's reliability
table, and re-queues the item only while it still falls short of its target.

Deficits are cached: whoever changes one sends the queue a notice, and
the next pull re-reads only the noticed ones. An item with every fragment
sent stays queued for the Internet-window flush; meetings pass it over.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, MutableMapping, Optional, Protocol

from .dispersal import fragment_wire_size
from .model import DataItem, Fragment, UsageError, VersionIndex, VersionKey
from .reliability import ChannelEstimate, ReliabilityTable


class TerminalHandle(Protocol):
    """What the save loop needs from an encountered terminal: `free_bytes()`,
    the space its store admits into after a purge, and `save`, which stores
    any fragment that fits. Within one meeting only `save` changes `free_bytes`.
    """

    terminal_id: str
    channel: ChannelEstimate

    def free_bytes(self) -> int: ...

    def save(self, fragment: Fragment, item: DataItem, declared_success: float) -> None: ...


@dataclass(frozen=True, slots=True)
class SaveOutcome:
    """One fragment a meeting sent and the terminal stored: `saved` is always True."""

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

    Live entries are (-deficit, seq, key) tuples in a heap: a pull costs
    O(log n) plus the entries it rejects. A `notice` makes the next pull
    re-read that deficit, re-stamping or retiring the entry; stale stamps
    are skipped, and purged once they outnumber live ones.
    """

    def __init__(self) -> None:
        self._entries: dict[VersionKey, tuple[float, int, VersionKey]] = {}
        self._heap: list[tuple[float, int, VersionKey]] = []
        self._noticed: set[VersionKey] = set()
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: VersionKey) -> bool:
        return key in self._entries

    def keys(self) -> list[VersionKey]:
        """Queued keys in arrival order."""
        return list(self._entries)

    def enqueue(self, key: VersionKey, deficit: float) -> bool:
        """Insert iff the item still falls short of its target (deficit > 0)."""
        if key in self._entries:
            raise UsageError(f"{key} is already queued")
        if deficit <= 0.0:
            return False
        entry = self._entries[key] = (-deficit, self._next_seq, key)
        self._next_seq += 1
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
            elif -deficit != entries[key][0]:
                entry = entries[key] = (-deficit, entries[key][1], key)
                heapq.heappush(heap, entry)
        self._noticed.clear()
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
        if len(heap) > 2 * len(entries):
            self._heap = list(entries.values())
            heapq.heapify(self._heap)
        return None if found is None else found[2]


@dataclass
class Scheduler:
    """Per-owner backup driver over one queue.

    Each item's table counts its fragments sent, which is also the index
    of the next one. `success_of` supplies the current composite restore
    estimate for a version (the simulator wires it to the dependency-aware
    product); `fragment_for` materializes fragment number i of a version,
    or is left None to run in metadata mode with size-only fragments.
    """

    owner: str
    index: VersionIndex
    tables: MutableMapping[VersionKey, ReliabilityTable]
    success_of: Callable[[VersionKey], float]
    fragment_for: Optional[Callable[[VersionKey, int], Fragment]] = None
    queue: BackupQueue = field(default_factory=BackupQueue)

    def enqueue(self, item: DataItem, current_success: float) -> bool:
        """Queue an item while its success estimate falls short of its priority.

        Every requeue, the save loop's and the simulator's, goes through here.
        An item with all n fragments sent stays queued until a server upload.
        """
        if item.key not in self.index:
            raise UsageError(f"{item.key} is not registered")
        return self.queue.enqueue(item.key, item.priority - current_success)

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
        the queue fits the terminal's `free_bytes()`. Several fragments of
        one item saved in this same session share the terminal's fate, so
        the estimate is refolded through the batch update from the
        session-start table rather than stacked as independent saves.

        `free_bytes()` is read at most once between two saves, lazily, at
        the first eligibility check that needs it: within one meeting only
        a save changes it. An item with all n fragments sent is passed over
        before that read, and is neither saved nor retired.
        """
        outcomes: list[SaveOutcome] = []
        session_base: dict[VersionKey, ReliabilityTable] = {}
        channel = terminal.channel
        free: Optional[int] = None  # the terminal's free space, read since the last save

        def eligible(key: VersionKey) -> bool:
            nonlocal free
            item = self.index.get(key)
            if self.tables[key].fragments_saved >= item.n:
                return False  # every fragment sent: left for the server flush
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
            if item.expired(now):
                continue  # no longer worth sending; silently retired
            next_index = self.tables[key].fragments_saved
            size = fragment_wire_size(item.size_bytes, item.k)
            if not link.try_transfer(size):
                # dropped mid-transfer: the fragment does not count, nor is it built
                self.enqueue(item, self.success_of(key))
                break
            fragment = self._fragment(key, next_index)
            base = session_base.setdefault(key, self.tables[key])
            m = next_index - base.fragments_saved + 1
            self.tables[key] = base.add_batch_same_terminal(channel, m)
            proba = self.success_of(key)
            terminal.save(fragment, item, proba)
            free = None
            outcomes.append(SaveOutcome(item.id, item.version, next_index, size, True))
            self.enqueue(item, proba)
        return outcomes
