# What happens when a terminal with pending backups meets a peer.
#
# Pending items queue by deficit (target priority minus current estimate);
# the meeting loop ships fragments of the neediest items that fit until
# the link budget runs out.
# Run: python demos/03_meeting_scheduler.py

from oppbak import (
    ChannelEstimate,
    DataItem,
    LinkSession,
    Scheduler,
    VersionIndex,
    fragment_wire_size,
    new_table,
)


class Peer:
    def __init__(self, name, p, quota):
        self.terminal_id = name
        self.channel = ChannelEstimate(p)
        self.quota = quota

    def free_bytes(self):
        return self.quota

    def save(self, fragment, item, declared_success):
        self.quota -= fragment_wire_size(item.size_bytes, item.k)
        print(f"    {self.terminal_id} stored {fragment.item_id}@{fragment.version}"
              f" frag {fragment.index} (owner now estimates {declared_success:.3f})")


index = VersionIndex()
tables = {}
scheduler = Scheduler(
    owner="me",
    index=index,
    tables=tables,
    success_of=lambda key: tables[key].success,
)

workload = [
    DataItem(id="phone-numbers", owner="me", size_bytes=2_000, priority=0.95, n=4, k=2),
    DataItem(id="meeting-note", owner="me", size_bytes=800, priority=0.9, n=3, k=1),
    DataItem(id="holiday-photo", owner="me", size_bytes=40_000, priority=0.3, n=4, k=2),
]
for item in workload:
    index.register(item)
    tables[item.key] = new_table(item.k)
    scheduler.enqueue(item, 0.0)
print(f"queued: {scheduler.queue.keys()}")

# -- a short contact with a fairly reliable peer -------------------------------
print("\nmeeting peer-A (p=0.8, link fits ~4 fragments of the small items):")
link = LinkSession(4 * fragment_wire_size(2_000, 2))
for outcome in scheduler.on_meeting(Peer("peer-A", 0.8, 10**6), link):
    print(f"  sent {outcome.item_id} frag {outcome.fragment_index}"
          f" ({outcome.bytes_transferred} B)")
print(f"still queued: {scheduler.queue.keys()}")
for key in scheduler.queue.keys():
    print(f"  {key[0]}: success so far {tables[key].success:.3f}"
          f" of target {index.get(key).priority}")

# -- a second, longer contact ---------------------------------------------------
print("\nmeeting peer-B (p=0.7, roomy link):")
for outcome in scheduler.on_meeting(Peer("peer-B", 0.7, 10**6), LinkSession(10**6)):
    print(f"  sent {outcome.item_id} frag {outcome.fragment_index}")
print(f"still queued: {scheduler.queue.keys()}")
print("(whatever remains waits for more peers, or for an internet window)")
