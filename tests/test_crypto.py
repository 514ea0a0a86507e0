import hashlib
import hmac
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import ReferenceWatchdog, xor_bytes
from ridecrypt import crypto
from ridecrypt.codec import BlockParams
from ridecrypt.crypto import (
    KEY_BYTES,
    MESSAGE_BYTES,
    NONCE_BYTES,
    PRF_OUTPUT_BYTES,
    RECORD_BYTES,
    CollisionWatchdog,
    SystemKeys,
    encode_message,
    generate_nonce,
    issue_system_keys,
    prf_f,
    prf_f_batch,
    prf_h,
    prf_h_batch,
    session_codebook,
    session_memo,
    watchdog,
)
from ridecrypt.errors import PrfCollisionError
from ridecrypt.harness import _session_matches
from ridecrypt.protocol import RideContext, rider_encrypt

# HMAC-SHA256 test vectors from RFC 4231 (test cases 1 and 2).
RFC4231_VECTORS = [
    (
        bytes.fromhex("0b" * 20),
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
]


class TestPrfH:
    def test_deterministic(self):
        key, msg = b"k" * KEY_BYTES, b"message"
        assert prf_h(key, msg) == prf_h(key, msg)

    def test_output_width(self):
        assert len(prf_h(b"k" * KEY_BYTES, b"m")) == PRF_OUTPUT_BYTES

    @pytest.mark.parametrize("key,message,digest_hex", RFC4231_VECTORS)
    def test_rfc4231_vectors(self, key, message, digest_hex):
        full = hmac.new(key, message, hashlib.sha256).hexdigest()
        assert full == digest_hex
        assert prf_h(key, message) == bytes.fromhex(digest_hex)[:PRF_OUTPUT_BYTES]

    def test_sampled_distinctness(self):
        key = b"\x05" * KEY_BYTES
        outputs = {prf_h(key, i.to_bytes(4, "big")) for i in range(2000)}
        assert len(outputs) == 2000

    def test_one_byte_flip_changes_output(self):
        key = b"\x01" * KEY_BYTES
        base = bytearray(b"\x00" * MESSAGE_BYTES)
        reference = prf_h(key, bytes(base))
        for pos in range(MESSAGE_BYTES):
            flipped = bytearray(base)
            flipped[pos] ^= 0x80
            assert prf_h(key, bytes(flipped)) != reference


class TestPrfF:
    def test_deterministic(self):
        derived = prf_h(b"k" * KEY_BYTES, b"m")
        nonce = b"n" * NONCE_BYTES
        assert prf_f(derived, nonce) == prf_f(derived, nonce)

    def test_distinct_nonces_distinct_outputs(self):
        derived = prf_h(b"k" * KEY_BYTES, b"m")
        outputs = {prf_f(derived, i.to_bytes(NONCE_BYTES, "big")) for i in range(1000)}
        assert len(outputs) == 1000

    def test_equality_propagates_through_the_chain(self):
        # The matching condition reduces to equality of the inner outputs.
        key = b"\x07" * KEY_BYTES
        nonce = b"\x0a" * NONCE_BYTES
        m1, m2 = b"same", b"same"
        assert prf_f(prf_h(key, m1), nonce) == prf_f(prf_h(key, m2), nonce)
        assert prf_f(prf_h(key, b"one"), nonce) != prf_f(prf_h(key, b"two"), nonce)


class TestMessageEncoding:
    def test_all_zero_fields(self):
        assert encode_message(0, 0, 0, 0, 0) == b"\x00" * MESSAGE_BYTES

    def test_hand_example(self):
        assert encode_message(3, 1, 2, 7, 9) == bytes.fromhex(
            "03" + "0001" + "0002" + "00000007" + "00000009"
        )

    def test_injective_on_small_ranges(self):
        seen = set()
        for value in range(4):
            for coord in range(3):
                for block_index in range(3):
                    for zone in (0, 1):
                        for slot in (0, 1):
                            seen.add(encode_message(value, coord, block_index, zone, slot))
        assert len(seen) == 4 * 3 * 3 * 2 * 2

    @pytest.mark.parametrize(
        "fields",
        [
            (256, 0, 0, 0, 0),
            (0, 2**16, 0, 0, 0),
            (0, 0, 2**16, 0, 0),
            (0, 0, 0, 2**32, 0),
            (0, 0, 0, 0, 2**32),
            (-1, 0, 0, 0, 0),
        ],
    )
    def test_field_overflow(self, fields):
        with pytest.raises(ValueError):
            encode_message(*fields)


class TestKeyIssuance:
    def test_deterministic_per_seed(self):
        assert issue_system_keys(42) == issue_system_keys(42)

    def test_distinct_seeds_distinct_keys(self):
        keys = {issue_system_keys(seed).match_key for seed in range(50)}
        assert len(keys) == 50

    def test_match_and_mask_keys_differ(self):
        for seed in range(20):
            issued = issue_system_keys(seed)
            assert issued.match_key != issued.mask_key

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            SystemKeys(match_key=b"short", mask_key=b"x" * KEY_BYTES)
        with pytest.raises(ValueError):
            SystemKeys(match_key=b"x" * KEY_BYTES, mask_key=b"x" * KEY_BYTES)

    def test_keys_not_echoed_in_repr(self):
        issued = issue_system_keys(3)
        assert issued.match_key.hex() not in repr(issued)
        assert issued.mask_key.hex() not in repr(issued)


class TestNonce:
    def test_width_and_determinism(self):
        rng = random.Random(5)
        nonce = generate_nonce(rng)
        assert len(nonce) == NONCE_BYTES
        assert generate_nonce(random.Random(5)) == nonce


class TestXorBytes:
    # The oracles' payload unmasking; the library XORs payload integers.
    def test_round_trip(self):
        a, b = b"\x01\x02\x03", b"\xff\x00\x10"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")


def fingerprint(key, message):
    """The watchdog fingerprint the kernel gives the input (key, message)."""
    return crypto._hmac([(key, message)])[1][0]


# Keys up to 130 bytes cross the 64-byte block, beyond which HMAC hashes
# the key first.
KEYS_ANY_LENGTH = st.binary(max_size=130)
MESSAGES = st.binary(max_size=100)


class TestKernel:
    @given(
        st.lists(
            st.tuples(KEYS_ANY_LENGTH, st.lists(MESSAGES, min_size=1, max_size=4)),
            max_size=4,
        )
    )
    def test_equals_stdlib_hmac(self, runs):
        # Runs of one key take the copied-state path after their first pair.
        pairs = [(key, message) for key, messages in runs for message in messages]
        outputs, fingerprints = crypto._hmac(pairs)
        assert outputs == [
            hmac.new(key, message, hashlib.sha256).digest()[:PRF_OUTPUT_BYTES]
            for key, message in pairs
        ]
        assert len(fingerprints) == len(pairs)
        assert all(len(f) == 8 for f in fingerprints)

    @given(KEYS_ANY_LENGTH, MESSAGES)
    def test_fingerprint_names_the_input(self, key, message):
        # Equal inputs, in one call or two, on either path: equal prints.
        _, prints = crypto._hmac([(key, message), (key, message)])
        assert prints == [fingerprint(key, message)] * 2
        # HMAC pads a key with zero bytes, so k and k + 0x00 give one output;
        # they are still two inputs.
        padded = key + b"\x00"
        assert fingerprint(padded, message) != fingerprint(key, message)
        if len(key) > 64:
            # A long key and its hash also give one output.
            hashed = hashlib.sha256(key).digest()
            assert fingerprint(hashed, message) != fingerprint(key, message)


class TestCollisionWatchdog:
    def test_distinct_inputs_same_output_is_fatal(self):
        local = CollisionWatchdog()
        local.observe(b"H", fingerprint(b"key-one", b"msg-one"), b"o" * 16)
        with pytest.raises(PrfCollisionError):
            local.observe(b"H", fingerprint(b"key-two", b"msg-two"), b"o" * 16)
        assert local.collisions == 1

    def test_repeated_identical_input_is_fine(self):
        local = CollisionWatchdog()
        for _ in range(5):
            local.observe(b"F", fingerprint(b"key", b"msg"), b"o" * 16)
        assert local.collisions == 0
        assert local.evaluations == 5
        assert local.tracked == 1

    @pytest.mark.parametrize("path", ["observe", "file"])
    def test_counts_every_output_it_stops_certifying(self, monkeypatch, path):
        monkeypatch.setattr(CollisionWatchdog, "CAPACITY", 5)
        local = CollisionWatchdog()
        outputs = [bytes([i]) * 16 for i in range(12)]
        fingerprints = [bytes([i]) * 8 for i in range(12)]
        if path == "observe":
            for output, fp in zip(outputs, fingerprints):
                local.observe(b"H", fp, output)
        else:
            # One batch that fits, one that straddles the capacity, one after.
            for part in (slice(0, 3), slice(3, 8), slice(8, 12)):
                local.file(b"H", outputs[part], fingerprints[part])
        assert local.evaluations == 12
        assert local.tracked == CollisionWatchdog.CAPACITY == 5
        assert local.untracked == 12 - 5
        local.enabled = False
        local.file(b"F", [b"x" * 16], [b"y" * 8])
        assert (local.tracked, local.untracked) == (5, 8)

    def test_h_and_f_on_one_input_are_one_hmac(self, fresh_watchdog):
        # Both PRFs are plain HMAC-SHA256, so the same (key, message) under
        # H and F is one input with one output, not a collision.
        key = b"k" * KEY_BYTES
        assert prf_h(key, b"msg") == prf_f(key, b"msg")
        assert fresh_watchdog.evaluations == 2
        assert fresh_watchdog.tracked == 1
        assert fresh_watchdog.collisions == 0

    def test_global_watchdog_sees_library_evaluations(self):
        before = watchdog.evaluations
        prf_h(b"k" * KEY_BYTES, b"watchdog-probe")
        assert watchdog.evaluations == before + 1


@pytest.fixture
def fresh_watchdog(monkeypatch):
    """A clean watchdog in place of the global one, so counts are exact
    whatever ran before and a provoked collision stays out of the suite's."""
    local = CollisionWatchdog()
    monkeypatch.setattr(crypto, "watchdog", local)
    return local


class TestSessionMemo:
    # n=3, m=2, l=2, D=5: the rider's 4*n*m*2^l inputs cover every other one.
    PARAMS = BlockParams(2, 2)
    FLOOR = 4 * 3 * 2 * 2**2

    def session(self, slot, seed=4):
        rng = random.Random(seed)
        rider, *drivers = (
            tuple(rng.randrange(self.PARAMS.capacity) for _ in range(3))
            for _ in range(6)
        )
        ctx = RideContext(9, slot, self.PARAMS, 3)
        return _session_matches(
            ctx, issue_system_keys(seed), rider, drivers, seed, ("session", slot)
        )

    def test_session_computes_each_distinct_input_once(self, fresh_watchdog):
        matched = self.session(slot=1)
        assert len(matched) == 5
        assert fresh_watchdog.evaluations == self.FLOOR
        assert fresh_watchdog.tracked == self.FLOOR

    def test_no_output_is_reused_across_sessions(self, fresh_watchdog):
        self.session(slot=1)
        self.session(slot=2)
        assert fresh_watchdog.evaluations == 2 * self.FLOOR
        assert fresh_watchdog.tracked == 2 * self.FLOOR

    def test_outside_a_session_every_call_computes(self, fresh_watchdog):
        key = b"k" * KEY_BYTES
        for _ in range(3):
            prf_h(key, b"repeat")
        assert fresh_watchdog.evaluations == 3
        assert fresh_watchdog.tracked == 1

    def test_repeat_within_a_session_is_observed_once(self, fresh_watchdog):
        key = b"k" * KEY_BYTES
        with session_memo():
            first = prf_h(key, b"repeat")
            assert prf_h(key, b"repeat") == first
            prf_f(first, b"n" * NONCE_BYTES)
            prf_f(first, b"n" * NONCE_BYTES)
        assert fresh_watchdog.evaluations == 2
        assert fresh_watchdog.tracked == 2
        assert fresh_watchdog.collisions == 0

    def test_collision_is_still_fatal_inside_a_session(
        self, fresh_watchdog, monkeypatch
    ):
        # Every output forced equal; the fingerprints stay those of the inputs.
        kernel = crypto._hmac

        def constant(pairs):
            outputs, fingerprints = kernel(pairs)
            return [b"\x00" * PRF_OUTPUT_BYTES] * len(outputs), fingerprints

        monkeypatch.setattr(crypto, "_hmac", constant)
        key = b"k" * KEY_BYTES
        with session_memo():
            prf_h(key, b"one")
            prf_h(key, b"one")  # identical input: observed once, no collision
            with pytest.raises(PrfCollisionError):
                prf_h(key, b"two")
        assert fresh_watchdog.collisions == 1
        assert fresh_watchdog.evaluations == 2

    def test_scope_is_reset_after_the_body_raises(self, fresh_watchdog):
        key = b"k" * KEY_BYTES
        with pytest.raises(RuntimeError):
            with session_memo():
                prf_h(key, b"probe")
                raise RuntimeError("session failed")
        prf_h(key, b"probe")
        assert fresh_watchdog.evaluations == 2

    def test_other_threads_do_not_share_the_scope(self, fresh_watchdog):
        key = b"k" * KEY_BYTES

        def evaluate_twice():
            prf_h(key, b"probe")
            prf_h(key, b"probe")

        with session_memo():
            thread = threading.Thread(target=evaluate_twice)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert fresh_watchdog.evaluations == 2
            evaluate_twice()
        assert fresh_watchdog.evaluations == 3

    def test_codebooks_live_for_the_scope_only(self):
        session_codebook("owner")["pair"] = 1
        assert session_codebook("owner") == {}  # outside: a new one each time
        with pytest.raises(RuntimeError):
            with session_memo():
                book = session_codebook("owner")
                book["pair"] = 1
                assert session_codebook("owner") is book
                assert session_codebook("other") == {}
                with session_memo():
                    assert session_codebook("owner") == {}
                assert session_codebook("owner") is book
                raise RuntimeError("session failed")
        assert session_codebook("owner") == {}


class TestBatchFiling:
    KEY = b"k" * KEY_BYTES

    def test_batches_equal_single_calls(self, fresh_watchdog):
        messages = [i.to_bytes(2, "big") for i in range(6)]
        nonces = [b"n" * NONCE_BYTES] * 3 + [b"m" * NONCE_BYTES] * 3
        inner = prf_h_batch(self.KEY, messages)
        assert inner == [prf_h(self.KEY, m) for m in messages]
        assert prf_f_batch(inner, nonces) == list(map(prf_f, inner, nonces))
        assert fresh_watchdog.tracked == 12
        assert prf_h_batch(self.KEY, []) == []

    def test_identical_inputs_outside_a_scope_are_no_collision(self, fresh_watchdog):
        # Each batch computes its distinct inputs once; a second batch, with
        # no scope to remember the first, computes them again.
        first = prf_h_batch(self.KEY, [b"one", b"two", b"one"])
        assert first[0] == first[2] != first[1]
        assert prf_h_batch(self.KEY, [b"two", b"one"]) == first[1::-1]
        assert fresh_watchdog.evaluations == 4
        assert fresh_watchdog.tracked == 2
        assert fresh_watchdog.collisions == 0

    def test_inside_a_scope_a_batch_computes_only_what_is_missing(self, fresh_watchdog):
        with session_memo():
            single = prf_h(self.KEY, b"one")
            assert prf_h_batch(self.KEY, [b"two", b"one", b"two"])[1] == single
            prf_h_batch(self.KEY, [b"one", b"two"])
        assert fresh_watchdog.evaluations == 2
        assert fresh_watchdog.tracked == 2

    def test_rider_collision_is_fatal_and_files_nothing(
        self, fresh_watchdog, monkeypatch
    ):
        ctx = RideContext(9, 1, BlockParams(2, 2), 3)
        forced = {encode_message(q, 1, 0, 9, 1) for q in (0, 3)}
        kernel = crypto._hmac

        def colliding(pairs):
            outputs, fingerprints = kernel(pairs)
            outputs = [
                b"\x00" * PRF_OUTPUT_BYTES if message in forced else output
                for (_, message), output in zip(pairs, outputs)
            ]
            return outputs, fingerprints

        monkeypatch.setattr(crypto, "_hmac", colliding)
        with pytest.raises(PrfCollisionError):
            with session_memo():
                memo = crypto._memo.get()
                rider_encrypt((1, 2, 3), issue_system_keys(4), ctx, random.Random(4))
        assert fresh_watchdog.collisions == 1
        assert memo == {}
        assert crypto._memo.get() is None

    def test_filing_touches_only_its_own_buckets(self, monkeypatch):
        # Each filing reads only the buckets its outputs pick; only a growth
        # step, which swaps in a new table, may walk the old one.
        class Recording(list):
            def __init__(self, buckets):
                super().__init__(buckets)
                self.read, self.walked = set(), False

            def __getitem__(self, index):
                if isinstance(index, int):
                    self.read.add(index)
                else:
                    self.walked = True
                return super().__getitem__(index)

            def __iter__(self):
                self.walked = True
                return super().__iter__()

        monkeypatch.setattr(CollisionWatchdog, "_START_BUCKETS", 16)
        local = CollisionWatchdog()
        monkeypatch.setattr(crypto, "watchdog", local)
        file = CollisionWatchdog.file
        steps = []

        def checked(watchdog, domain, outputs, fingerprints):
            recording = watchdog._buckets = Recording(watchdog._buckets)
            own = [int.from_bytes(o[:4], sys.byteorder) & (len(recording) - 1) for o in outputs]
            file(watchdog, domain, outputs, fingerprints)
            grew = watchdog._buckets is not recording
            if not grew:
                assert not recording.walked and recording.read <= set(own)
                watchdog._buckets = list.copy(recording)
            steps.append(grew)

        monkeypatch.setattr(CollisionWatchdog, "file", checked)
        # A session's batches file into a certificate both smaller and
        # larger than themselves; a long batch grows it; a repeated batch
        # overlaps it.
        TestSessionMemo().session(slot=1)
        prf_h_batch(self.KEY, [i.to_bytes(2, "big") for i in range(600)])
        prf_h_batch(self.KEY, [b"one", b"two"])
        prf_h_batch(self.KEY, [b"one", b"two"])
        assert local.tracked == TestSessionMemo.FLOOR + 602
        assert local.collisions == 0
        assert steps.count(True) == 1 and steps.count(False) > 4


def one_hot(size):
    """``size`` zero bytes, at most one of them 1: equal outputs, and an
    output that straddles two records of its bucket, turn up often."""
    return st.integers(0, size).map(lambda k: (bytes(k) + b"\x01").ljust(size, b"\0")[:size])


#: One watchdog call: observe or file pairs of the drawn outputs and
#: prints, file ``n`` fresh outputs (enough to grow the table), or switch
#: the watchdog on or off.
WATCHDOG_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(0, 5), st.integers(0, 2)),
        st.tuples(
            st.just("file"),
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=8),
        ),
        st.tuples(st.just("fresh"), st.integers(0, 16) | st.integers(0, 600)),
        st.tuples(st.just("enabled"), st.booleans()),
    ),
    max_size=25,
)


class TestPackedCertificate:
    """The packed certificate against the ``dict`` one in ``oracles``."""

    @given(
        st.lists(one_hot(PRF_OUTPUT_BYTES), min_size=6, max_size=6),
        st.lists(one_hot(8), min_size=3, max_size=3),
        st.integers(1, 24) | st.just(CollisionWatchdog.CAPACITY),
        WATCHDOG_CALLS,
    )
    def test_equals_the_reference(self, outputs, prints, capacity, calls):
        class Packed(CollisionWatchdog):
            CAPACITY = capacity
            _START_BUCKETS = 16

        class Reference(ReferenceWatchdog):
            CAPACITY = capacity

        fresh = random.Random(capacity)
        watchdogs = Packed(), Reference()
        for call in calls:
            kind, *args = call
            if kind == "fresh":
                batch = [fresh.randbytes(PRF_OUTPUT_BYTES) for _ in range(args[0])]
                args = (batch, [fresh.randbytes(8) for _ in batch])
            elif kind == "file":
                args = ([outputs[o] for o, _ in args[0]], [prints[f] for _, f in args[0]])
            elif kind == "observe":
                args = (prints[args[1]], outputs[args[0]])
            results = []
            for watchdog in watchdogs:
                if kind == "enabled":
                    watchdog.enabled = args[0]
                    results.append(None)
                    continue
                method = watchdog.observe if kind == "observe" else watchdog.file
                try:
                    method(b"H", *args)
                    results.append(None)
                except PrfCollisionError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            packed, reference = (
                (w.evaluations, w.collisions, w.untracked, w.tracked) for w in watchdogs
            )
            assert packed == reference

    def test_growth_keeps_every_record(self, monkeypatch):
        monkeypatch.setattr(CollisionWatchdog, "_START_BUCKETS", 16)
        rng = random.Random(7)
        outputs = [rng.randbytes(PRF_OUTPUT_BYTES) for _ in range(3000)]
        prints = [rng.randbytes(8) for _ in outputs]
        local = CollisionWatchdog()
        for start in range(0, len(outputs), 100):
            local.file(b"H", outputs[start : start + 100], prints[start : start + 100])
        assert len(local._buckets) == 16 << 2 * CollisionWatchdog._GROWTH_BITS
        for output, fp in zip(outputs, prints):
            local.observe(b"F", fp, output)
            with pytest.raises(PrfCollisionError, match=output.hex()):
                local.observe(b"F", bytes(8), output)
        assert (local.tracked, local.collisions) == (3000, 3000)

    @pytest.mark.parametrize("path", ["batch", "single", "growth"])
    @pytest.mark.parametrize("bits", [10, 12, 14])
    def test_each_record_sits_in_the_bucket_its_first_word_picks(
        self, monkeypatch, bits, path
    ):
        # A batch reads its outputs at a 24-byte stride, a single output at
        # 16, and a growth step the old records at 24. The reference
        # comparison above cannot see a skewed or misaligned lookup; this can.
        rng = random.Random(bits)
        start = 1 << bits - 2 if path == "growth" else 1 << bits
        monkeypatch.setattr(CollisionWatchdog, "_START_BUCKETS", start)
        monkeypatch.setattr(CollisionWatchdog, "_MAX_LOAD", 1)
        local = CollisionWatchdog()
        # One record a bucket fills the table; a growth step needs one more.
        count = start + 200 if path == "growth" else start
        outputs = [rng.randbytes(PRF_OUTPUT_BYTES) for _ in range(count)]
        prints = [rng.randbytes(8) for _ in outputs]
        if path == "single":
            for output, fp in zip(outputs, prints):
                local.observe(b"H", fp, output)
        else:
            for at in range(0, len(outputs), 128):
                local.file(b"H", outputs[at : at + 128], prints[at : at + 128])
        assert len(local._buckets) == 1 << bits
        filed = []
        for index, bucket in enumerate(local._buckets):
            for at in range(0, len(bucket), RECORD_BYTES):
                output = bytes(bucket[at : at + PRF_OUTPUT_BYTES])
                assert int.from_bytes(output[:4], sys.byteorder) & (2**bits - 1) == index
                filed.append(output)
        assert sorted(filed) == sorted(outputs) and local.tracked == count

    def test_hmac_outputs_spread_evenly(self):
        # A sessions_grid run's worth of outputs in a fresh table: 30 records
        # a bucket on average, and none anywhere near a skewed table's load.
        local = CollisionWatchdog()
        outputs = [
            hashlib.sha256(i.to_bytes(4, "big")).digest()[:PRF_OUTPUT_BYTES]
            for i in range(30_720)
        ]
        for at in range(0, len(outputs), 128):
            local.file(b"H", outputs[at : at + 128], [bytes(8)] * 128)
        assert len(local._buckets) == CollisionWatchdog._START_BUCKETS
        assert max(map(len, local._buckets)) <= 64 * RECORD_BYTES

    def test_mismatched_batch_is_refused(self):
        local = CollisionWatchdog()
        with pytest.raises(ValueError, match="2 PRF outputs but 1 fingerprints"):
            local.file(b"H", [b"a" * 16, b"b" * 16], [b"f" * 8])
        assert (local.evaluations, local.tracked) == (0, 0)

    def test_retains_at_most_40_bytes_per_output(self):
        # 100,000 fresh outputs filed 128 at a time, each batch dropped
        # after filing: what stays is the certificate (a dict: about 150 B).
        rng = random.Random(25)
        total = 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            local = CollisionWatchdog()
            for start in range(0, total, 128):
                size = min(128, total - start)
                outputs = [rng.randbytes(PRF_OUTPUT_BYTES) for _ in range(size)]
                local.file(b"H", outputs, [rng.randbytes(8) for _ in outputs])
                del outputs
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert local.tracked == total
        assert retained <= 40 * total
