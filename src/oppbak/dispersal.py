"""(n, k) dispersal codec: split a payload into n fragments, any k rebuild it.

Systematic maximum-distance-separable coding over GF(256): the first k
fragments are the payload chunks themselves, the remaining n - k are
parity rows of a Vandermonde-derived matrix whose every k-row submatrix
is invertible. k = 1 degenerates to plain n-way replication. A matrix
times the k data shards packs up to eight output rows into one 64-bit
word: byte i of a column's 256-entry word table is the product of row i's
coefficient with the entry's index. Each shard byte then costs one table
gather per eight rows, XORed into a word accumulator, so splitting and
rebuilding large payloads stays cheap. The GF(256) tables are built, and
numpy imported, at first use (field arithmetic, parity or a decode), so a
run that only counts sizes never loads either.

`split` makes the k data fragments at once. The n - k parity fragments
are computed together at the first request for any of them, since a
sender that stops before index k never needs them. `reconstruct` copies
the data chunks it was given and decodes only the missing ones.

Charged size (a fixed 51-byte header, then the chunk): no header bytes are
written, but every stored or sent fragment is charged for these slots:

    size  field
    32    item id, UTF-8 (`split` refuses a longer id)
    1     fragment index
    1     n
    1     k
    8     original payload size
    8     item version

Chunk size is ceil(original_size / k); the payload is zero-padded to
k * chunk, and the fragment records the true length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional

from .model import Fragment, IntegrityError, UsageError

if TYPE_CHECKING:
    import numpy as np

HEADER_SIZE = 51  # charged per fragment: id 32, index 1, n 1, k 1, size 8, version 8
MAX_FRAGMENTS = 255  # distinct nonzero-safe evaluation points in GF(256)

_PRIMITIVE_POLY = 0x11D


class InsufficientFragments(UsageError):
    """Fewer than k distinct fragment indices were supplied."""


class FragmentMismatch(IntegrityError):
    """Fragments claim inconsistent headers and cannot belong to one set."""


@lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exp, log and full product tables of GF(256), built at the first call."""
    import numpy as np

    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    exp[255:510] = exp[:255]
    # full product table: mul[a, b] = a * b in GF(256)
    idx = log[:, None] + log[None, :]
    mul = exp[idx]
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


def gf_mul(a: int, b: int) -> int:
    return int(_tables()[2][a, b])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    exp, log, _ = _tables()
    return int(exp[255 - log[a]])


def gf_pow(a: int, e: int) -> int:
    if e == 0:
        return 1
    if a == 0:
        return 0
    exp, log, _ = _tables()
    return int(exp[(log[a] * e) % 255])


def _invert(matrix: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse over GF(256), one region operation per pivot."""
    import numpy as np

    mul = _tables()[2]
    size = len(matrix)
    aug = np.concatenate([matrix, np.eye(size, dtype=np.uint8)], axis=1)
    for col in range(size):
        pivot = col + int(np.argmax(aug[col:, col] != 0))  # first nonzero at or below
        if not aug[pivot, col]:
            raise IntegrityError("singular matrix: fragments are not independent")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = mul[gf_inv(aug[col, col]), aug[col]]
        factors = aug[:, col].copy()
        factors[col] = 0  # a zero factor leaves its row, here the pivot's, as it is
        aug ^= mul[factors[:, None], aug[col]]
    return aug[:, size:].copy()


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """Mark a cached matrix read-only, since every caller shares it."""
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=None)
def _encode_matrix(n: int, k: int) -> np.ndarray:
    """n x k matrix whose top k rows are the identity and whose every
    k-row submatrix is invertible."""
    import numpy as np

    vander = np.array([[gf_pow(i, j) for j in range(k)] for i in range(n)], dtype=np.uint8)
    return _frozen(_combine(vander, _invert(vander[:k])))


@lru_cache(maxsize=1024)
def _decode_matrix(n: int, k: int, chosen: tuple[int, ...]) -> np.ndarray:
    """k x k matrix that maps the fragments `chosen` back to the data chunks."""
    return _frozen(_invert(_encode_matrix(n, k)[list(chosen)]))


def chunk_size(original_size: int, k: int) -> int:
    return -(-original_size // k)


def fragment_wire_size(original_size: int, k: int) -> int:
    """Bytes one stored fragment occupies: header plus its payload chunk."""
    return HEADER_SIZE + chunk_size(original_size, k)


@dataclass
class FragmentSet:
    """The n fragments of one split, in index order.

    `data` holds the k data fragments, made by `split`. The n - k parity
    fragments are computed together from the data fragments' bytes at the
    first `fragment(i)` with i >= k, at most once per set.
    """

    n: int
    k: int
    original_size: int
    data: tuple[Fragment, ...]
    _parity: Optional[tuple[Fragment, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def fragment(self, i: int) -> Fragment:
        """Fragment number i; the first parity index computes the whole parity block."""
        if not 0 <= i < self.n:
            raise IndexError(f"fragment index {i} outside 0..{self.n - 1}")
        if i < self.k:
            return self.data[i]
        if self._parity is None:
            import numpy as np

            shards = [np.frombuffer(f.payload, dtype=np.uint8) for f in self.data]
            rows = _combine(_encode_matrix(self.n, self.k)[self.k:], shards)
            self._parity = tuple(
                replace(self.data[0], index=self.k + j, payload=row.tobytes())
                for j, row in enumerate(rows)
            )
        return self._parity[i - self.k]

    @property
    def fragments(self) -> tuple[Fragment, ...]:
        return tuple(self.fragment(i) for i in range(self.n))

    @property
    def chunk(self) -> int:
        return chunk_size(self.original_size, self.k)

    @property
    def storage_bytes(self) -> int:
        return self.n * (HEADER_SIZE + self.chunk)


def _packed(rows: np.ndarray) -> np.ndarray:
    """(k, 256) uint64 word table of up to eight matrix rows: byte i of
    entry [j, b] is rows[i, j] * b, and bytes past the last row are zero."""
    import numpy as np

    table = np.zeros((rows.shape[1], 256, 8), dtype=np.uint8)
    table[:, :, : len(rows)] = _tables()[2][rows].transpose(1, 2, 0)
    return table.view(np.uint64)[:, :, 0]


def _combine(matrix: np.ndarray, shards: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """Matrix-times-shards over GF(256): matrix (r x k) applied to k shards of c bytes.

    Rows go in groups of eight, one word table per group. Each shard is
    widened to intp indices once, into one reused buffer, and every group
    gathers one word per shard byte and XORs it into its accumulator. Byte
    i of group g's words is output row 8g + i; reading the accumulator back
    as bytes undoes the packing on either byte order.
    """
    import numpy as np

    rows, width = matrix.shape[0], len(shards[0])
    tables = [_packed(matrix[g : g + 8]) for g in range(0, rows, 8)]
    acc = np.zeros((len(tables), width), dtype=np.uint64)
    index = np.empty(width, dtype=np.intp)
    for j, shard in enumerate(shards):
        index[:] = shard
        for words, table in zip(acc, tables):
            words ^= table[j].take(index)
    packed = acc.view(np.uint8).reshape(len(tables), width, 8)
    return packed.transpose(0, 2, 1).reshape(-1, width)[:rows]


def split(
    payload: bytes, n: int, k: int, *, item_id: str = "", version: int = 1
) -> FragmentSet:
    """Encode a payload into n fragments such that any k reconstruct it.

    Deterministic: the same inputs always yield the same fragment bytes.
    """
    if not payload:
        raise UsageError("cannot split an empty payload")
    if not 1 <= k <= n:
        raise UsageError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > MAX_FRAGMENTS:
        raise UsageError(f"n must be <= {MAX_FRAGMENTS}, got {n}")
    if len(item_id.encode("utf-8")) > 32:
        raise UsageError(f"item id {item_id!r} exceeds the 32-byte header slot")
    size = len(payload)
    chunk = chunk_size(size, k)
    data = tuple(
        Fragment(
            item_id=item_id,
            version=version,
            index=i,
            n=n,
            k=k,
            original_size=size,
            payload=bytes(payload[i * chunk : (i + 1) * chunk]).ljust(chunk, b"\x00"),
        )
        for i in range(k)
    )
    return FragmentSet(n=n, k=k, original_size=size, data=data)


def reconstruct(fragments: Iterable[Fragment]) -> bytes:
    """Rebuild the exact original payload from any k distinct fragments."""
    frags = list(fragments)
    by_index: dict[int, Fragment] = {}
    for f in frags:
        by_index.setdefault(f.index, f)
    if not by_index:
        raise InsufficientFragments("no fragments supplied")
    ref = next(iter(by_index.values()))
    for f in by_index.values():
        if (f.item_id, f.version, f.n, f.k, f.original_size) != (
            ref.item_id, ref.version, ref.n, ref.k, ref.original_size,
        ):
            raise FragmentMismatch(
                f"fragment {f.index} headers disagree with fragment {ref.index}"
            )
        if f.payload is None:
            raise UsageError(f"fragment {f.index} carries no payload bytes")
    k = ref.k
    if len(by_index) < k:
        raise InsufficientFragments(
            f"need {k} distinct fragments, got {len(by_index)}"
        )
    chunk = chunk_size(ref.original_size, k)
    for f in by_index.values():
        if len(f.payload) != chunk:  # type: ignore[arg-type]
            raise FragmentMismatch(
                f"fragment {f.index} payload is {len(f.payload)} bytes, "  # type: ignore[arg-type]
                f"expected {chunk}"
            )
    chosen = sorted(by_index)[:k]
    chunks = {i: by_index[i].payload for i in chosen if i < k}  # data chunks as given
    missing = [i for i in range(k) if i not in chunks]
    if missing:
        import numpy as np

        shards = [np.frombuffer(by_index[i].payload, dtype=np.uint8) for i in chosen]
        decoded = _combine(_decode_matrix(ref.n, k, tuple(chosen))[missing], shards)
        chunks.update(zip(missing, (row.tobytes() for row in decoded)))
    # one join of the chunks' bytes up to the original size; all-padding chunks are skipped
    size = ref.original_size
    return b"".join(
        memoryview(chunks[i])[: size - i * chunk] for i in range(k) if i * chunk < size
    )

