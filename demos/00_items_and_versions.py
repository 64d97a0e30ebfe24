# Items, versions, and dependencies: the model everything else runs on.
# Run: python demos/00_items_and_versions.py

from oppbak import (
    DataItem,
    Location,
    VersionIndex,
    detect_conflict,
    propagate_priority,
)

# -- newer data pulls its history up with it -------------------------------------
index = VersionIndex()
index.register(DataItem(id="draft", owner="me", size_bytes=5_000, priority=0.3))
final = DataItem(id="final", owner="me", size_bytes=6_000, priority=0.95,
                 temporal_deps=(("draft", 1),))
index.register(final)
raised = propagate_priority(index, final)
print(f"registering the final report raised: {raised}")
print(f"(the draft is now worth protecting at {index.get(('draft', 1)).priority})")

# -- old versions stay pinned while newer ones depend on them --------------------
index.register(DataItem(id="final", owner="me", size_bytes=200, priority=0.95,
                        version=2, temporal_deps=(("final", 1),)))
print(f"\nfinal v2 produced; v1 pinned on peers: {index.pinned(('final', 1))}")
index.mark_on_server(("final", 2))
print(f"final v2 reaches the server;  pinned: {index.pinned(('final', 1))}")

# -- restoring stale data while newer copies exist is a conflict ------------------
index.register(DataItem(id="final", owner="me", size_bytes=250, priority=0.95,
                        version=3, temporal_deps=(("final", 2),)))
# which peers hold what is the peers' own record; the check is told v3 sits on one
holders = {("final", 3): ["stranger-42"]}
report = detect_conflict(index.records_for("final", holders), Location.SERVER, 2)
print(f"\nrestored v{report.restored_version} from the {report.restored_from.value} "
      f"while v{report.newer_version} sits on {report.newer_peers}:")
print(f"  -> conflict on {report.item_id!r} (detection only, resolution is the app's job)")
