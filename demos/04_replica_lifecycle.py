# Life of a replica on a backup peer: admission, notices, pinning,
# and eviction under pressure.
# Run: python demos/04_replica_lifecycle.py

from oppbak import (
    Fragment,
    NoticeSource,
    ReplicaStore,
    VersionIndex,
    DataItem,
    EvictionShortfall,
)

# global version knowledge backs the store's pinning decisions
index = VersionIndex()
index.register(DataItem(id="report", owner="alice", size_bytes=500, priority=0.9))
index.register(DataItem(id="report", owner="alice", size_bytes=500, priority=0.9,
                        version=2, temporal_deps=(("report", 1),)))

store = ReplicaStore(
    "peer-7",
    quota_bytes=2_000,
    pin_check=lambda item_id, version: (item_id, version) in index
    and index.pinned((item_id, version)),
    on_delete=lambda replica, reason: print(
        f"    dropped {replica.fragment.item_id}@{replica.fragment.version} ({reason})"
    ),
)


def whole_copy(item_id, version, payload, declared_success=0.5, **fields):
    """What an owner sends a peer: the fragment, its item, and the declared success."""
    fragment = Fragment(item_id=item_id, version=version, index=0, n=1, k=1,
                        original_size=len(payload), payload=payload)
    defaults = dict(owner="alice", priority=0.9)
    defaults.update(fields)
    item = DataItem(id=item_id, version=version, size_bytes=len(payload), **defaults)
    return fragment, item, declared_success


# -- admission -----------------------------------------------------------------
saved = whole_copy("report", 1, b"q3 draft" * 40)
print(f"accept report v1: {store.accept(*saved, now=0.0) is not None} "
      f"(used {store.used_bytes}/{store.quota_bytes})")

saved = whole_copy("cat-pic", 1, b"\x89PNG" * 200, priority=0.2, declared_success=0.95)
print(f"accept cat-pic:   {store.accept(*saved, now=10.0) is not None} "
      f"(used {store.used_bytes}/{store.quota_bytes})")

# -- the owner updates the report: v1 superseded but still protecting v2 -------
store.notify(NoticeSource.OWNER_NOTICE, "alice", "report", 2)
state = store.get(("alice", "report", 1, 0)).state.value
print(f"\nowner announced v2 -> held v1 is now '{state}'")
print(f"v1 pinned while v2 is off-server: {index.pinned(('report', 1))}")

# -- memory pressure: the over-provisioned low-priority copy goes first ---------
print("\nthe peer suddenly needs 1500 bytes back:")
try:
    store.evict(1500, now=20.0)
except EvictionShortfall as short:
    print(f"    shortfall: freed only {short.freed} bytes")
print(f"report v1 still held: {('alice', 'report', 1, 0) in store}")

# -- v2 reaches the server: the pin releases and v1 is purgeable ---------------
index.mark_on_server(("report", 2))
store.notify(NoticeSource.SERVER_NOTICE, "alice", "report", 2)
print(f"\nafter v2 hits the server, v1 pinned: {index.pinned(('report', 1))}")
store.purge(now=30.0)
print(f"store now holds {len(store)} replicas, {store.used_bytes} bytes")
