"""PRF layer: the two keyed functions, key issuance, and nonce handling.

Both PRFs are HMAC-SHA256 (RFC 2104) truncated to 128 bits, computed by one
kernel on ``hashlib.sha256``. The inner function keys on a long-term shared
secret and a structured message; the outer function keys on an inner output
and is applied to a per-block-group nonce. A global collision watchdog
certifies that no two distinct inputs produced equal outputs during a run,
which is the assumption the matching step leans on. An input is the (key,
message) pair the HMAC computes, under either PRF, and its fingerprint
comes from the kernel's own inner digest, so certifying costs no extra hash.

Within one matching session every driver's inner input and every outer
input of the matching party is one the rider already evaluated. Inside a
``session_memo()`` scope each distinct input is therefore computed, and
shown to the watchdog, once; repeats are answered from the scope's memo,
which is discarded when the scope exits. The watchdog already treats a
repeated identical input as a no-op, so it certifies the same distinct
inputs as without the memo. The batch forms :func:`prf_h_batch` and
:func:`prf_f_batch` compute a list of inputs in one kernel call and file
the results into the memo and the watchdog in one step each. The scope
also holds codebooks of whole protocol values built from PRF outputs: a
driver's ciphertext pair for one (coordinate, block, value) is filed in
``session_codebook((keys, ctx))``, in the row of its position at the slot
of its value, and read back on a repeat with no message encoded and no
memo consulted, which pays off on the benchmark's fleet_synthetic and
sessions_grid workloads, with 1,000 and 34 drivers a session.
"""

from __future__ import annotations

import random
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Hashable, Iterator, Sequence

from .errors import PrfCollisionError

PRF_OUTPUT_BYTES = 16
KEY_BYTES = 32
NONCE_BYTES = 16
MESSAGE_BYTES = 13  # 1 + 2 + 2 + 4 + 4
#: Coordinates the message's 2-byte coordinate field can name.
MAX_DIM = 1 << 16

#: Recorded in experiment reports so runs are reproducible elsewhere.
PRF_CONSTRUCTION = "HMAC-SHA256/128"


class CollisionWatchdog:
    """Tracks PRF evaluations and aborts the run on an output collision.

    Each observed output is stored against an 8-byte fingerprint of its
    HMAC input, the (key, message) pair; a repeated output with a different
    fingerprint is a genuine collision (fingerprints are deterministic).
    The kernel supplies the fingerprint: seven bytes of its inner digest,
    which fix the zero-padded key and the message, then the key length,
    which tells ``k`` from ``k + b"\\x00"``. Both PRFs are the same HMAC,
    so one (key, message) pair under H and under F is one input, not a
    collision; ``domain`` only names the PRF in the fault. Tracking stops
    after ``CAPACITY`` distinct outputs so memory stays bounded; the
    evaluation counter keeps running regardless, and ``untracked`` counts
    each computed output left unchecked because the certificate was full
    or the watchdog disabled, so a run is certified over ``tracked``
    outputs and says how many it was not.

    ``evaluations`` counts the HMACs actually computed: inside a
    ``session_memo()`` scope an input is observed only the first time it
    is evaluated, which leaves ``tracked`` and the certificate unchanged
    because an identical repeat never adds or checks anything.
    """

    CAPACITY = 10_000_000

    __slots__ = ("evaluations", "collisions", "untracked", "enabled", "_seen")

    def __init__(self) -> None:
        self.evaluations = 0
        self.collisions = 0
        self.untracked = 0
        self.enabled = True
        self._seen: dict[bytes, bytes] = {}

    @property
    def tracked(self) -> int:
        return len(self._seen)

    def observe(self, domain: bytes, fingerprint: bytes, output: bytes) -> None:
        self.evaluations += 1
        if not self.enabled or len(self._seen) >= self.CAPACITY:
            self.untracked += 1
            return
        previous = self._seen.setdefault(output, fingerprint)
        if previous != fingerprint:
            self.collisions += 1
            raise PrfCollisionError(
                f"distinct PRF inputs produced equal output {output.hex()} "
                f"under {domain.decode()} after {self.evaluations} evaluations"
            )

    def file(
        self, domain: bytes, outputs: Sequence[bytes], fingerprints: Sequence[bytes]
    ) -> None:
        """:meth:`observe` each (fingerprint, output) pair of distinct
        inputs, in one step when every output is new and fits, as in the
        rider batches that sessions_grid and city_merge are made of.

        The membership test runs over ``seen.keys()``, a set-like view, so
        it walks the batch, never the certificate."""
        seen = self._seen
        new = dict(zip(outputs, fingerprints))
        if (
            self.enabled
            and len(new) == len(outputs)
            and len(seen) + len(new) <= self.CAPACITY
            and new.keys().isdisjoint(seen.keys())
        ):
            self.evaluations += len(new)
            seen.update(new)
            return
        for output, fingerprint in zip(outputs, fingerprints):
            self.observe(domain, fingerprint, output)


#: Process-wide watchdog shared by both PRFs.
watchdog = CollisionWatchdog()


#: Outputs of the open session scope by (key, message), the HMAC input, or
#: None outside one. A context variable, so every thread has its own scope.
_memo: ContextVar[dict[tuple[bytes, bytes], bytes] | None] = ContextVar(
    "prf_session_memo", default=None
)


#: Codebooks of the open session scope by owner key, or None outside one.
_codebooks: ContextVar[dict[Hashable, dict] | None] = ContextVar(
    "prf_session_codebooks", default=None
)


@contextmanager
def session_memo() -> Iterator[None]:
    """Scope in which each distinct PRF input is computed and observed once.

    The memo and the codebooks hold long-term-key outputs, so they live
    only for the scope and are discarded on exit, also when the body raises.
    """
    token = _memo.set({})
    books = _codebooks.set({})
    try:
        yield
    finally:
        _codebooks.reset(books)
        _memo.reset(token)


def session_codebook(key: Hashable) -> dict:
    """The open scope's codebook for ``key``, created empty on first use;
    outside a scope, a new empty one that nothing else sees. ``key`` names
    everything the filed values depend on, so callers that differ in any
    of it never share an entry."""
    books = _codebooks.get()
    if books is None:
        return {}
    book = books.get(key)
    if book is None:
        book = books[key] = {}
    return book


#: HMAC's inner and outer pads (RFC 2104) as ``bytes.translate`` tables.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_BLOCK = 64  # SHA-256 block size
#: Fingerprint tails by key length; every key longer than a block is hashed
#: first, so all of them share the last tag.
_LENGTH_TAGS = [bytes([n]) for n in range(_BLOCK + 2)]


def _hmac(pairs: Sequence[tuple[bytes, bytes]]) -> tuple[list[bytes], list[bytes]]:
    """HMAC-SHA256/128 of each (key, message) pair and the watchdog
    fingerprint of each input, in order.

    A key's first message is hashed in one shot; a key repeated by the next
    pairs, as in a rider's H batches (sessions_grid), builds its inner and
    outer states once and copies them."""
    outputs, fingerprints = [], []
    last = inner = None
    for key, message in pairs:
        if key != last:
            last, inner = key, None
            size = len(key)
            if size > _BLOCK:
                key, size = sha256(key).digest(), _BLOCK + 1
            key = key.ljust(_BLOCK, b"\0")
            ipad, opad = key.translate(_IPAD), key.translate(_OPAD)
            tag = _LENGTH_TAGS[size]
            digest = sha256(ipad + message).digest()
            output = sha256(opad + digest).digest()
        else:
            if inner is None:
                inner, outer = sha256(ipad), sha256(opad)
            h = inner.copy()
            h.update(message)
            digest = h.digest()
            h = outer.copy()
            h.update(digest)
            output = h.digest()
        outputs.append(output[:PRF_OUTPUT_BYTES])
        fingerprints.append(digest[:7] + tag)
    return outputs, fingerprints


def _prf(domain: bytes, key: bytes, message: bytes) -> bytes:
    """One input: the open scope's memo hit, or :func:`_prf_batch` of one."""
    memo = _memo.get()
    if memo is not None:
        output = memo.get((key, message))
        if output is not None:
            return output
    return _prf_batch(domain, [(key, message)])[0]


def _prf_batch(domain: bytes, pairs: list[tuple[bytes, bytes]]) -> list[bytes]:
    """The PRF over a list of inputs: each distinct one missing from
    the memo is computed once, then filed into the watchdog and the memo in
    one step each. Outside a scope a throwaway memo serves the batch."""
    memo = _memo.get()
    if memo is None:
        memo = {}
    todo = [pair for pair in dict.fromkeys(pairs) if pair not in memo]
    outputs, fingerprints = _hmac(todo)
    watchdog.file(domain, outputs, fingerprints)
    memo.update(zip(todo, outputs))
    return [memo[pair] for pair in pairs]


def prf_h(key: bytes, message: bytes) -> bytes:
    """Inner PRF: keyed on a long-term secret, applied to an encoded message."""
    return _prf(b"H", key, message)


def prf_f(derived_key: bytes, nonce: bytes) -> bytes:
    """Outer PRF: keyed on an inner-PRF output, applied to a group nonce."""
    return _prf(b"F", derived_key, nonce)


def prf_h_batch(key: bytes, messages: Sequence[bytes]) -> list[bytes]:
    """:func:`prf_h` under one key of each message, in order."""
    return _prf_batch(b"H", [(key, message) for message in messages])


def prf_f_batch(derived_keys: Sequence[bytes], nonces: Sequence[bytes]) -> list[bytes]:
    """:func:`prf_f` of each (derived key, nonce) pair, in order."""
    return _prf_batch(b"F", list(zip(derived_keys, nonces)))


def encode_message(
    value: int, coord: int, block_index: int, zone_id: int, time_slot: int
) -> bytes:
    """Fixed-width encoding of (block value, coordinate, block index, zone,
    slot); injective by construction, no delimiters needed."""
    try:
        return struct.pack(">BHHII", value, coord, block_index, zone_id, time_slot)
    except struct.error as exc:
        raise ValueError(f"message field out of range: {exc}") from None


@dataclass(frozen=True)
class SystemKeys:
    """The two shared secrets issued to riders and drivers.

    ``match_key`` feeds the equality-token chain, ``mask_key`` the payload
    masking chain. The matching party never receives either.
    """

    match_key: bytes = field(repr=False)
    mask_key: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.match_key) != KEY_BYTES or len(self.mask_key) != KEY_BYTES:
            raise ValueError(f"keys must be {KEY_BYTES} bytes")
        if self.match_key == self.mask_key:
            raise ValueError("match and mask keys must differ")


def issue_system_keys(seed: int) -> SystemKeys:
    """One-shot trusted-dealer key issuance, deterministic per seed."""
    rng = random.Random(seed)
    return SystemKeys(match_key=rng.randbytes(KEY_BYTES), mask_key=rng.randbytes(KEY_BYTES))


def generate_nonce(rng: random.Random) -> bytes:
    """Fresh 16-byte nonce, one per block group per request."""
    return rng.randbytes(NONCE_BYTES)
