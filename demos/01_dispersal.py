# Split a payload into n fragments so that any k of them rebuild it.
#
# k = 1 is plain replication; raising k trades storage for fragility.
# Run: python demos/01_dispersal.py

import itertools

from oppbak import reconstruct, split

payload = b"meeting notes: demo the backup service at 14:00, room B" * 20
print(f"payload: {len(payload)} bytes")

# -- carve into 5 fragments, any 3 rebuild -----------------------------------
fs = split(payload, n=5, k=3, item_id="notes-2026-08", version=1)
print(f"split (n=5, k=3): {len(fs.fragments)} fragments of {fs.chunk} payload bytes")
print(f"stored bytes total: {fs.storage_bytes} "
      f"(blow-up ~ n/k = {fs.storage_bytes / len(payload):.2f}x)")

# any 3 of the 5 reconstruct the exact original
for picks in itertools.combinations(range(5), 3):
    subset = [fs.fragments[i] for i in picks]
    assert reconstruct(subset) == payload
print("every 3-subset rebuilds the original, byte for byte")

# two fragments are never enough
try:
    reconstruct(fs.fragments[:2])
except Exception as exc:
    print(f"2 fragments refused: {type(exc).__name__}: {exc}")

# -- replication is the k=1 special case --------------------------------------
copies = split(b"tiny but precious", n=3, k=1)
assert all(f.payload == b"tiny but precious" for f in copies.fragments)
print("k=1 fragments are whole copies")
