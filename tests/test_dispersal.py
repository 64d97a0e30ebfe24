import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppbak import dispersal
from oppbak.dispersal import (
    HEADER_SIZE,
    FragmentMismatch,
    InsufficientFragments,
    chunk_size,
    fragment_wire_size,
    gf_inv,
    gf_mul,
    reconstruct,
    split,
)
from oppbak.model import UsageError
from oppbak.peer import ReplicaStore

from conftest import make_item


class TestFieldArithmetic:
    def test_multiplicative_inverses(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_distributes_over_xor(self, rng: random.Random):
        for _ in range(500):
            a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestSplit:
    def test_k1_is_plain_replication(self):
        payload = b"important note"
        fs = split(payload, 3, 1)
        assert [f.payload for f in fs.fragments] == [payload] * 3

    def test_systematic_partition(self):
        payload = bytes(range(250))
        fs = split(payload, 5, 5)
        joined = b"".join(f.payload for f in fs.fragments)
        assert joined[: len(payload)] == payload

    def test_deterministic(self):
        payload = random.Random(1).randbytes(4096)
        first = split(payload, 5, 3, item_id="x", version=2)
        second = split(payload, 5, 3, item_id="x", version=2)
        assert [f.payload for f in first.fragments] == [
            f.payload for f in second.fragments
        ]

    def test_argument_validation(self):
        with pytest.raises(UsageError):
            split(b"", 3, 2)
        with pytest.raises(UsageError):
            split(b"x", 2, 3)
        with pytest.raises(UsageError):
            split(b"x", 256, 2)
        with pytest.raises(UsageError):
            split(b"x", 3, 2, item_id="i" * 33)

    def test_equal_chunk_sizes(self, rng: random.Random):
        for _ in range(30):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            size = rng.randint(1, 3000)
            fs = split(rng.randbytes(size), n, k)
            sizes = {len(f.payload) for f in fs.fragments}
            assert sizes == {chunk_size(size, k)}
            assert {f.index for f in fs.fragments} == set(range(n))

    def test_storage_blowup_factor(self, rng: random.Random):
        for _ in range(30):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            size = rng.randint(1, 5000)
            fs = split(rng.randbytes(size), n, k)
            payload_bytes = sum(len(f.payload) for f in fs.fragments)
            assert size * n / k <= payload_bytes < size * n / k + n  # one pad block
            assert fs.storage_bytes == payload_bytes + n * HEADER_SIZE


# (n, k): the benchmark's code, no parity (k = n) and replication (k = 1)
LAZY_SHAPES = [(16, 10), (5, 5), (4, 1)]


class TestLazyParity:
    @pytest.fixture
    def combined(self, monkeypatch):
        """Row count of every `_combine` call made while the test runs."""
        calls = []
        real = dispersal._combine
        monkeypatch.setattr(
            dispersal, "_combine", lambda m, s: calls.append(len(m)) or real(m, s)
        )
        return calls

    @pytest.mark.parametrize("n, k", LAZY_SHAPES)
    @pytest.mark.parametrize("order", ["parity first", "data first", "random"])
    def test_fragment_matches_fragments_in_any_order(self, rng: random.Random, n, k, order):
        payload = rng.randbytes(rng.randint(1, 5000))
        expected = split(payload, n, k, item_id="x", version=4).fragments
        indices = list(range(n))
        if order == "parity first":
            indices = indices[k:] + indices[:k]
        elif order == "random":
            rng.shuffle(indices)
        fs = split(payload, n, k, item_id="x", version=4)
        assert [fs.fragment(i) for i in indices] == [expected[i] for i in indices]
        assert fs.fragments == expected
        assert reconstruct(expected[n - k:]) == payload

    @pytest.mark.parametrize("n, k", LAZY_SHAPES)
    def test_parity_computed_once_and_only_when_requested(
        self, rng: random.Random, combined, n, k
    ):
        dispersal._encode_matrix(n, k)  # building the cached matrix is not parity work
        combined.clear()
        fs = split(rng.randbytes(5000), n, k)
        for i in range(k):
            fs.fragment(i)
        assert combined == []
        for i in [*range(n - 1, k - 1, -1), *range(k, n)]:
            fs.fragment(i)
        assert len(fs.fragments) == n
        assert combined == ([n - k] if n > k else [])

    def test_index_outside_the_set_rejected(self):
        fs = split(b"abcdef", 3, 2)
        for i in (-1, 3):
            with pytest.raises(IndexError):
                fs.fragment(i)


class TestReconstruct:
    def test_exhaustive_subsets(self, rng: random.Random):
        for n in range(1, 7):
            for k in range(1, n + 1):
                payload = rng.randbytes(rng.randint(1, 2048))
                fs = split(payload, n, k, item_id="s", version=1)
                for subset in itertools.combinations(fs.fragments, k):
                    assert reconstruct(subset) == payload
                for subset in itertools.combinations(fs.fragments, k - 1):
                    with pytest.raises(InsufficientFragments):
                        reconstruct(subset)

    def test_duplicates_do_not_fake_threshold(self):
        fs = split(b"hello world", 4, 2)
        one = fs.fragments[3]
        with pytest.raises(InsufficientFragments):
            reconstruct([one, one, one])

    def test_header_mismatch_detected(self):
        a = split(b"payload one", 3, 2, item_id="a").fragments
        b = split(b"payload two!", 3, 2, item_id="a").fragments
        with pytest.raises(FragmentMismatch):
            reconstruct([a[0], b[1]])

    def test_more_than_eight_missing_rows_decoded(self, rng: random.Random):
        payload = rng.randbytes(5_001)
        fragments = split(payload, 30, 12).fragments
        assert reconstruct(fragments[12:24]) == payload  # parity only: 12 rows decoded
        assert reconstruct(fragments[:3] + fragments[21:]) == payload  # 9 rows decoded

    @pytest.mark.parametrize("size", [1, 2, 5, 13])
    def test_chunks_of_padding_alone_are_left_out(self, size):
        payload = bytes(range(1, size + 1))
        fragments = split(payload, 9, 6).fragments  # size < 5 chunks: trailing chunks all pad
        for subset in (fragments[:6], fragments[3:], fragments[::2] + fragments[1:2]):
            rebuilt = reconstruct(subset)
            assert type(rebuilt) is bytes and rebuilt == payload

    def test_all_fragments_work_too(self):
        payload = b"\x00\x01\x02" * 100
        fs = split(payload, 6, 3)
        assert reconstruct(fs.fragments) == payload

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=4096),
        n=st.integers(1, 6),
        pick=st.randoms(use_true_random=False),
    )
    def test_roundtrip_random_subset(self, data, n, pick):
        k = pick.randint(1, n)
        fs = split(data, n, k)
        subset = pick.sample(fs.fragments, k)
        assert reconstruct(subset) == data


# sha256 over all n fragment payloads of split(random.Random(size).randbytes(size), n, k),
# recorded with the original per-coefficient kernel; any kernel must give the same bytes
SPLIT_DIGESTS = [
    (16, 10, 1_000_000, "799cd6d9e1f772322031a5bc3e75c523965fcf105f8b27dbf23c882dd6d80b3d"),
    (16, 10, 4_000, "898f64c5a7fe1a81b7536f2b98c242be68000d7f5f6856c88cc96331bb6d516d"),
    (4, 2, 4_096, "4f60aa6ff8221b756ed947b113255eed9bc4a95af669ab40f6b8271d0dac5bc4"),
    (255, 128, 10_000, "2c7126af09d4982ee6e8e6b4cdfa9353c248e97a6d2020da2ad88409fc595838"),
    (6, 6, 5_000, "06951e04c1ee4ab4d57aca32123126d7ed09d98bb9ba7ac8af40c768800c2767"),  # no parity
    (5, 1, 3_000, "d944ccdd643269515674036fe30d8f2df0308e2ee24f1232debfb8972c8f607d"),  # replication
]


def _combine_reference(rows, shards):
    """Scalar matrix-times-shards over GF(256), one gf_mul per byte."""
    out = [[0] * len(shards[0]) for _ in rows]
    for i, row in enumerate(rows):
        for j, coeff in enumerate(row):
            for c, byte in enumerate(shards[j]):
                out[i][c] ^= gf_mul(coeff, byte)
    return out


class TestCodecBytes:
    @pytest.mark.parametrize("n, k, size, digest", SPLIT_DIGESTS)
    def test_split_bytes_pinned(self, n, k, size, digest):
        payload = random.Random(size).randbytes(size)
        h = hashlib.sha256()
        for fragment in split(payload, n, k).fragments:
            h.update(fragment.payload)
        assert h.hexdigest() == digest

    def test_parity_reconstruct_pinned(self):
        payload = random.Random(7).randbytes(100_003)
        rebuilt = reconstruct(split(payload, 16, 10).fragments[3:])  # data 0..2 missing
        assert hashlib.sha256(rebuilt).hexdigest() == (
            "22bada7940f4fc47256300faa1da482f7b902b65fedb8eaadf27aa574395461a"
        )
        assert rebuilt == payload

    def test_decode_matrix_inverted_once_per_subset(self, monkeypatch):
        payload = random.Random(3).randbytes(5_000)
        fragments = split(payload, 16, 10).fragments
        real = dispersal._invert
        inverted = []
        monkeypatch.setattr(dispersal, "_invert", lambda m: inverted.append(m) or real(m))
        dispersal._decode_matrix.cache_clear()
        assert reconstruct(fragments[3:13]) == payload
        assert reconstruct(fragments[12:2:-1]) == payload
        assert len(inverted) == 1
        chosen = tuple(range(3, 13))
        cached = dispersal._decode_matrix(16, 10, chosen)
        assert not cached.flags.writeable
        assert (cached == dispersal._decode_matrix.__wrapped__(16, 10, chosen)).all()
        assert len(inverted) == 2  # the uncached call only

    @pytest.mark.parametrize("width", [1, 2, 7, 4096])
    def test_combine_matches_scalar_reference(self, rng: random.Random, width):
        for r, k in [(1, 1), (3, 5), (6, 10), (8, 3), (9, 4), (17, 6)]:  # 8 rows per word
            rows = [[rng.randrange(256) for _ in range(k)] for _ in range(r)]
            rows[0][0], rows[-1][-1] = 0, 1
            shards = [[rng.randrange(256) for _ in range(width)] for _ in range(k)]
            got = dispersal._combine(
                np.array(rows, dtype=np.uint8), np.array(shards, dtype=np.uint8)
            )
            assert got.tolist() == _combine_reference(rows, shards)


class TestChargedSize:
    def test_wire_size_helper(self):
        assert fragment_wire_size(100, 3) == HEADER_SIZE + 34
        assert fragment_wire_size(1, 1) == HEADER_SIZE + 1

    @pytest.mark.parametrize("n, k, size", [(1, 1, 1), (4, 2, 1000), (5, 3, 1001), (16, 10, 4000)])
    def test_store_charges_header_plus_chunk(self, n, k, size):
        # 32-byte id slot, one byte each for index, n and k, eight for size and version
        assert HEADER_SIZE == 51
        item = make_item("it", n=n, k=k, size=size)
        fs = split(bytes(i % 256 for i in range(size)), n, k, item_id="it")
        for i in range(n):
            size_only = dataclasses.replace(fs.fragment(i), payload=None)
            for fragment in (fs.fragment(i), size_only):
                store = ReplicaStore("p", 10**6)
                assert store.accept(fragment, item, 0.5, now=0.0) is not None
                assert store.used_bytes == fragment_wire_size(size, k), fragment
