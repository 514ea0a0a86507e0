"""The honest matching protocol.

A rider encrypts, for every (coordinate, block) position and every possible
block value, the weighted difference between that value and its own block;
a responding driver encrypts only its actual block. The matching party can
test equality of a driver block against each rider candidate through the
PRF chain and, on the unique hit, unmask the signed difference. Summing
those per coordinate and taking the maximum magnitude reproduces the
embedding distance without either party revealing its vector.

Everything the matching party receives lives in the request/response types
below: ciphertext bytes, group nonces, and clear (coordinate, block index)
labels. No plaintext block or coordinate value ever appears in them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .codec import PAYLOAD_BYTES, BlockParams
from .crypto import (
    PRF_OUTPUT_BYTES,
    SystemKeys,
    encode_message,
    generate_nonce,
    prf_f,
    prf_f_batch,
    prf_h,
    prf_h_batch,
    session_codebook,
)
from .errors import ProtocolFault, PrfCollisionError

# The payload pad is a slice of a PRF output.
assert PRF_OUTPUT_BYTES >= PAYLOAD_BYTES
_PAYLOAD_MASK = (1 << 8 * PAYLOAD_BYTES) - 1
_PAYLOAD_SIGN = 1 << 8 * PAYLOAD_BYTES - 1


@dataclass(frozen=True)
class RideContext:
    """Session scope shared by all parties of one matching round."""

    zone_id: int
    time_slot: int
    params: BlockParams
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not 0 <= self.zone_id < 2**32:
            raise ValueError("zone_id must fit 32 bits")
        if not 0 <= self.time_slot < 2**32:
            raise ValueError("time_slot must fit 32 bits")

    @property
    def total_blocks(self) -> int:
        return self.dim * self.params.num_blocks

    @cached_property
    def labels(self) -> tuple[tuple[int, int], ...]:
        """Every (coordinate, block index) label, in that order: the order
        of a driver's entries and of an honest match."""
        return self.params.positions(self.dim)


class RiderEntry(NamedTuple):
    """One candidate ciphertext: equality token, which also identifies the
    entry, and masked signed difference."""

    c1: bytes
    c2: bytes


@dataclass(frozen=True)
class RiderBlockGroup:
    """All candidate ciphertexts for one (coordinate, block) position,
    in hidden order, under one shared nonce."""

    coord: int
    block_index: int
    nonce: bytes
    entries: tuple[RiderEntry, ...]


@dataclass(frozen=True)
class RiderRequest:
    context: RideContext
    groups: tuple[RiderBlockGroup, ...]

    @cached_property
    def _match_index(self) -> _MatchIndex:
        """The matching party's index of this request, built on first use
        and dropped with the request. A repeated group label, and then a
        label outside the context's positions, is a fault, raised again on
        every use."""
        groups = {(g.coord, g.block_index): g for g in self.groups}
        if len(groups) != len(self.groups):
            raise ProtocolFault("rider request repeats a (coord, block) group")
        positions = set(self.context.labels)
        for label in groups:
            if label not in positions:
                raise ProtocolFault(
                    f"rider group at {label} is outside the session's positions"
                )
        return _MatchIndex(
            {label: (g, _token_table(g)) for label, g in groups.items()}, {}
        )


class DriverEntry(NamedTuple):
    """One driver ciphertext: PRF keys from which the rider's equality token
    and payload pad re-derive under the group nonce."""

    coord: int
    block_index: int
    c1: bytes
    c2: bytes


@dataclass(frozen=True)
class DriverResponse:
    driver_id: int
    context: RideContext
    entries: tuple[DriverEntry, ...]


def _check_location(location: Sequence[int], ctx: RideContext) -> None:
    if len(location) != ctx.dim:
        raise ValueError(
            f"location has dimension {len(location)}, context expects {ctx.dim}"
        )


def rider_encrypt(
    location: Sequence[int],
    keys: SystemKeys,
    ctx: RideContext,
    rng: random.Random,
) -> RiderRequest:
    """Build the rider's request for ``location``.

    Per (coordinate, block) position, in that order: a fresh nonce and one
    entry per possible block value, in rng-permuted order. Only that order
    is permuted: it hides the block value, while a group's label is clear.
    Raises :class:`CapacityError` if a coordinate does not fit the block
    parameters.

    Each group draws its nonce, then its permutation. The 4*n*m*2^l HMACs
    are four batch calls: H over every message under each key, then F over
    each set of outputs under their groups' nonces.
    """
    _check_location(location, ctx)
    params = ctx.params
    base, weights = params.base, params.weights
    zone_id, time_slot = ctx.zone_id, ctx.time_slot
    labels, messages, nonces = [], [], []
    for (i, j), block in zip(ctx.labels, params.split(location)):
        nonce = generate_nonce(rng)
        order = list(range(base))
        rng.shuffle(order)
        labels.append((i, j, block, nonce, order))
        messages += [encode_message(q, i, j, zone_id, time_slot) for q in range(base)]
        nonces += [nonce] * base
    tokens = prf_f_batch(prf_h_batch(keys.match_key, messages), nonces)
    pads = prf_f_batch(prf_h_batch(keys.mask_key, messages), nonces)
    groups = []
    starts = range(0, len(messages), base)
    for start, (i, j, block, nonce, order) in zip(starts, labels):
        weight = weights[j]
        entries = []
        for q in order:
            # The pad is the output's first 8 bytes, the low 64 bits of its
            # little-endian value: XOR the signed payload (q - block) * w_j
            # and keep those bits, which XORs its two's complement.
            masked = int.from_bytes(pads[start + q], "little") ^ (q - block) * weight
            entries.append(
                RiderEntry(
                    tokens[start + q],
                    (masked & _PAYLOAD_MASK).to_bytes(PAYLOAD_BYTES, "little"),
                )
            )
        groups.append(
            RiderBlockGroup(coord=i, block_index=j, nonce=nonce, entries=tuple(entries))
        )
    return RiderRequest(context=ctx, groups=tuple(groups))


def driver_encrypt(
    driver_id: int,
    location: Sequence[int],
    keys: SystemKeys,
    ctx: RideContext,
) -> DriverResponse:
    """Build a driver's response: a single ciphertext pair per
    (coordinate, block) position, in that order. Entries name their
    position in the clear, so the response needs no randomness.

    A pair depends only on the keys, the context and (coordinate, block,
    value), so each one is built once per ``session_memo`` scope. The
    scope's codebook for ``(keys, ctx)`` holds, per position in label
    order, a row of ``2**l`` slots by block value: a response is one read
    of a slot per row, and only empty slots are filled, in position order.
    That pays off on fleet_synthetic and sessions_grid, where many drivers
    share a context.
    """
    _check_location(location, ctx)
    params = ctx.params
    blocks = params.split(location)
    book = session_codebook((keys, ctx))
    if not book:
        book.update((label, [None] * params.base) for label in ctx.labels)
    entries = list(map(list.__getitem__, book.values(), blocks))
    if None in entries:
        match_key, mask_key = keys.match_key, keys.mask_key
        zone_id, time_slot = ctx.zone_id, ctx.time_slot
        for pos, ((i, j), row) in enumerate(book.items()):
            block = blocks[pos]
            if row[block] is None:
                message = encode_message(block, i, j, zone_id, time_slot)
                row[block] = DriverEntry(
                    i, j, prf_h(match_key, message), prf_h(mask_key, message)
                )
                entries[pos] = row[block]
    return DriverResponse(driver_id=driver_id, context=ctx, entries=tuple(entries))


class _MatchIndex(NamedTuple):
    """What the matching party keeps per request: each label's rider group
    with its token table, and every payload unmasked so far by driver pair,
    as the ``(label, payload)`` item of a match. An honest pair is
    deterministic, so drivers sharing a block value at a position send the
    same pair; the cache key is the whole pair, label, ``c1`` and ``c2``,
    so a forged pair never gets another pair's payload."""

    groups: dict[tuple[int, int], tuple[RiderBlockGroup, dict[bytes, tuple[bytes, ...]]]]
    payloads: dict[DriverEntry, tuple[tuple[int, int], int]]


def _token_table(group: RiderBlockGroup) -> dict[bytes, tuple[bytes, ...]]:
    """The group's masked payloads by equality token. A token that several
    entries share maps to all of their payloads."""
    table: dict[bytes, tuple[bytes, ...]] = {}
    for c1, c2 in group.entries:
        table[c1] = table.get(c1, ()) + (c2,)
    return table


def _unmask(
    group: RiderBlockGroup, table: dict[bytes, tuple[bytes, ...]], entry: DriverEntry
) -> int | None:
    """:func:`sp_match_block` against the group's token table."""
    hits = table.get(prf_f(entry.c1, group.nonce))
    if hits is None:
        return None
    if len(hits) > 1:
        raise PrfCollisionError(
            f"{len(hits)} rider entries matched one driver ciphertext at "
            f"position ({group.coord}, {group.block_index})"
        )
    masked = hits[0]
    if len(masked) != PAYLOAD_BYTES:
        raise ProtocolFault(
            f"rider entry at ({group.coord}, {group.block_index}) has a "
            f"{len(masked)}-byte payload, not {PAYLOAD_BYTES}"
        )
    pad = prf_f(entry.c2, group.nonce)
    # As in rider_encrypt, the pad is the low 64 bits of the output's
    # little-endian value; the payload is their XOR in two's complement.
    value = int.from_bytes(masked, "little") ^ int.from_bytes(pad, "little")
    return ((value & _PAYLOAD_MASK) ^ _PAYLOAD_SIGN) - _PAYLOAD_SIGN


def sp_match_block(group: RiderBlockGroup, entry: DriverEntry) -> int | None:
    """Try a driver pair against one rider group.

    Returns the unmasked signed payload on the unique equality-token hit,
    ``None`` if nothing matches (the pair belongs to another position),
    raises :class:`PrfCollisionError` on more than one hit and
    :class:`ProtocolFault` on a hit whose masked payload is malformed.
    """
    return _unmask(group, _token_table(group), entry)


def sp_compute_distance(
    diffs: Mapping[tuple[int, int], int], ctx: RideContext
) -> int:
    """Aggregate matched payloads into the embedding distance: sum the
    signed payloads per coordinate, take the maximum magnitude.

    The map must hold exactly the ``dim * num_blocks`` positions: as its
    keys are distinct, the right count and a hit for every in-range
    position leave no room for a missing, extra or out-of-range one.
    """
    if len(diffs) == len(ctx.labels):
        try:
            payloads = [diffs[pos] for pos in ctx.labels]
        except KeyError:
            pass
        else:
            return max(map(abs, map(sum, ctx.params.runs(payloads))))
    raise ValueError("difference map does not cover every (coord, block) position")


class ServiceProvider:
    """The matching party. Holds session context and nothing else; the
    slots declaration makes it impossible to hand it key material."""

    __slots__ = ("context",)

    def __init__(self, context: RideContext) -> None:
        self.context = context

    def match_response(
        self, request: RiderRequest, response: DriverResponse
    ) -> dict[tuple[int, int], int]:
        """Match every driver pair to its rider group and unmask all payloads.

        Returns the complete map (coordinate, block index) -> signed payload.
        A request or response from another session, and an unmatched or
        duplicated pair, are protocol faults.

        The request is indexed on its first match, and each distinct driver
        pair is unmasked once per request. A response whose pairs were all
        unmasked before, at distinct labels covering every position, is
        answered from the cache in one step, as most of fleet_synthetic's
        thousand are; anything new or wrong goes through the per-entry
        loop, which alone fills the cache and raises.
        """
        ctx = self.context
        # Parties of one session share the context object; identity spares
        # the dataclass comparison.
        if request.context is not ctx and request.context != ctx:
            raise ProtocolFault("request belongs to a different session")
        if response.context is not ctx and response.context != ctx:
            raise ProtocolFault("response belongs to a different session")
        groups, payloads = request._match_index
        entries = response.entries
        try:
            cached = list(map(payloads.get, entries))
        except TypeError:  # an unhashable entry: the loop raises in order
            cached = [None]
        if None not in cached:
            diffs = dict(cached)
            if len(diffs) == len(entries) == ctx.total_blocks:
                return diffs
        diffs = {}
        for entry in entries:
            label = entry[:2]
            # A label reaches diffs only through its group, so testing for a
            # duplicate before the group raises the same fault as after it.
            if label in diffs:
                raise ProtocolFault(f"duplicate driver ciphertext at {label}")
            item = payloads.get(entry)
            if item is None:
                found = groups.get(label)
                if found is None:
                    raise ProtocolFault(
                        f"driver ciphertext at {label} has no rider group"
                    )
                payload = _unmask(*found, entry)
                if payload is None:
                    raise ProtocolFault(
                        f"driver ciphertext at {label} matched no rider entry"
                    )
                item = payloads[entry] = (label, payload)
            diffs[label] = item[1]
        if len(diffs) != ctx.total_blocks:
            raise ProtocolFault(f"matched {len(diffs)} of {ctx.total_blocks} positions")
        return diffs

    def select_driver(
        self, request: RiderRequest, responses: Sequence[DriverResponse]
    ) -> int:
        """Pick the responding driver with minimum distance, lowest id on ties."""
        if not responses:
            raise ValueError("no drivers responded")
        return min(
            (
                sp_compute_distance(self.match_response(request, r), self.context),
                r.driver_id,
            )
            for r in responses
        )[1]
