"""PRF layer: the two keyed functions, key issuance, and nonce handling.

Both PRFs are HMAC-SHA256 truncated to 128 bits. The inner function keys on
a long-term shared secret and a structured message; the outer function keys
on an inner output and is applied to a per-block-group nonce. A global
collision watchdog certifies that no two distinct inputs produced equal
outputs during a run, which is the assumption the matching step leans on.
An input is the (key, message) pair the HMAC computes, under either PRF.

Within one matching session every driver's inner input and every outer
input of the matching party is one the rider already evaluated. Inside a
``session_memo()`` scope each distinct input is therefore computed, and
shown to the watchdog, once; repeats are answered from the scope's memo,
which is discarded when the scope exits. The watchdog already treats a
repeated identical input as a no-op, so it certifies the same distinct
inputs as without the memo. The scope also holds codebooks of whole
protocol values built from PRF outputs: a driver's ciphertext pair for one
(coordinate, block, value) is filed in ``session_codebook((keys, ctx))``
and looked up on a repeat, with no message encoded and no memo consulted.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Hashable, Iterator

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
    Both PRFs are the same HMAC, so one (key, message) pair under H and
    under F is one input, not a collision; ``domain`` only names the PRF in
    the fault. Tracking stops after ``capacity`` distinct outputs so memory
    stays bounded; the evaluation counter keeps running regardless.

    ``evaluations`` counts the HMACs actually computed: inside a
    ``session_memo()`` scope an input is observed only the first time it
    is evaluated, which leaves ``tracked`` and the certificate unchanged
    because an identical repeat never adds or checks anything.
    """

    CAPACITY = 10_000_000

    __slots__ = ("evaluations", "collisions", "enabled", "_seen")

    def __init__(self) -> None:
        self.evaluations = 0
        self.collisions = 0
        self.enabled = True
        self._seen: dict[bytes, bytes] = {}

    @property
    def tracked(self) -> int:
        return len(self._seen)

    def observe(self, domain: bytes, key: bytes, message: bytes, output: bytes) -> None:
        self.evaluations += 1
        if not self.enabled or len(self._seen) >= self.CAPACITY:
            return
        h = hashlib.blake2b(digest_size=8)
        h.update(len(key).to_bytes(4, "big"))
        h.update(key)
        h.update(message)
        fingerprint = h.digest()
        previous = self._seen.setdefault(output, fingerprint)
        if previous != fingerprint:
            self.collisions += 1
            raise PrfCollisionError(
                f"distinct PRF inputs produced equal output {output.hex()} "
                f"under {domain.decode()} after {self.evaluations} evaluations"
            )


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


def _prf(domain: bytes, key: bytes, message: bytes) -> bytes:
    memo = _memo.get()
    if memo is not None:
        output = memo.get((key, message))
        if output is not None:
            return output
    output = hmac.new(key, message, hashlib.sha256).digest()[:PRF_OUTPUT_BYTES]
    watchdog.observe(domain, key, message, output)
    if memo is not None:
        memo[key, message] = output
    return output


def prf_h(key: bytes, message: bytes) -> bytes:
    """Inner PRF: keyed on a long-term secret, applied to an encoded message."""
    return _prf(b"H", key, message)


def prf_f(derived_key: bytes, nonce: bytes) -> bytes:
    """Outer PRF: keyed on an inner-PRF output, applied to a group nonce."""
    return _prf(b"F", derived_key, nonce)


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


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )
