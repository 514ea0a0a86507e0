"""Independent reference implementations used to check the library.

Everything here is deliberately naive and built from primitives one layer
below whatever it checks: all-pairs relaxation instead of Dijkstra, direct
PRF-chain decryption with both keys instead of the matching pipeline, plain
feasibility scans instead of interval arithmetic, and a ``dict`` in place
of the packed PRF certificate.
"""

from __future__ import annotations

from ridecrypt.codec import PAYLOAD_BYTES, decode_signed
from ridecrypt.crypto import CollisionWatchdog, encode_message, prf_f, prf_h
from ridecrypt.errors import LedgerFault, PrfCollisionError, ProtocolFault
from ridecrypt.protocol import DriverEntry


class ReferenceWatchdog:
    """``crypto.CollisionWatchdog`` as a ``dict`` from output to fingerprint,
    one observation at a time: the same counters, the same fault at the
    same call, about 150 B per tracked output."""

    CAPACITY = CollisionWatchdog.CAPACITY

    def __init__(self):
        self.evaluations = self.collisions = self.untracked = 0
        self.enabled = True
        self.seen = {}

    @property
    def tracked(self):
        return len(self.seen)

    def observe(self, domain, fingerprint, output):
        self.evaluations += 1
        if not self.enabled or len(self.seen) >= self.CAPACITY:
            self.untracked += 1
            return
        previous = self.seen.setdefault(output, fingerprint)
        if previous != fingerprint:
            self.collisions += 1
            raise PrfCollisionError(
                f"distinct PRF inputs produced equal output {output.hex()} "
                f"under {domain.decode()} after {self.evaluations} evaluations"
            )

    def file(self, domain, outputs, fingerprints):
        if len(outputs) != len(fingerprints):
            raise ValueError(
                f"{len(outputs)} PRF outputs but {len(fingerprints)} fingerprints"
            )
        for output, fingerprint in zip(outputs, fingerprints):
            self.observe(domain, fingerprint, output)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings: the payload unmasking step."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


def floyd_warshall(net) -> list[list[int]]:
    """All-pairs shortest paths by exhaustive relaxation."""
    n = net.num_nodes
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v, w in net.edges:
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return dist


def decrypt_request(request, keys) -> dict[tuple[int, int], int]:
    """Reference decryption with both shared keys.

    For every group, re-derives each candidate's equality token, finds the
    matching entry, unmasks its payload, and solves for the rider block.
    All candidates must agree on the block; returns (coord, block index)
    -> block value.
    """
    ctx = request.context
    params = ctx.params
    blocks: dict[tuple[int, int], int] = {}
    for group in request.groups:
        weight = params.base ** group.block_index
        seen = set()
        for q in range(params.base):
            message = encode_message(
                q, group.coord, group.block_index, ctx.zone_id, ctx.time_slot
            )
            token = prf_f(prf_h(keys.match_key, message), group.nonce)
            hits = [e for e in group.entries if e.c1 == token]
            assert len(hits) == 1, "reference decryption expects a unique token hit"
            pad = prf_f(prf_h(keys.mask_key, message), group.nonce)[:PAYLOAD_BYTES]
            payload = decode_signed(xor_bytes(hits[0].c2, pad))
            assert payload % weight == 0
            seen.add(q - payload // weight)
        assert len(seen) == 1, "candidates disagree on the rider block"
        blocks[(group.coord, group.block_index)] = seen.pop()
    return blocks


def malformed_entry(entry) -> ProtocolFault:
    """The fault ``match_response`` raises for an entry that is not a
    ``DriverEntry`` of hashable fields and two byte strings."""
    if isinstance(entry, (tuple, list)):
        return ProtocolFault(
            f"driver ciphertext at {tuple(entry[:2])} is not a DriverEntry "
            "of two byte strings"
        )
    return ProtocolFault(
        f"driver ciphertext of type {type(entry).__name__} is not a DriverEntry"
    )


def reference_match(request, response, context) -> dict[tuple[int, int], int]:
    """``ServiceProvider.match_response`` one entry at a time, with no index
    and no cache: each driver pair is tried against every entry of its
    rider group and unmasked with ``xor_bytes``. Raises the same faults, in
    the same order: a malformed entry first, then a hashable one with
    fields that are not byte strings after the duplicate check."""
    if request.context != context:
        raise ProtocolFault("request belongs to a different session")
    if response.context != context:
        raise ProtocolFault("response belongs to a different session")
    groups = {}
    for group in request.groups:
        label = (group.coord, group.block_index)
        if label in groups:
            raise ProtocolFault("rider request repeats a (coord, block) group")
        groups[label] = group
    coords, blocks = range(context.dim), range(context.params.num_blocks)
    for coord, block_index in groups:
        if coord not in coords or block_index not in blocks:
            raise ProtocolFault(
                f"rider group at {(coord, block_index)} is outside the session's positions"
            )
    diffs = {}
    for entry in response.entries:
        if type(entry) is not DriverEntry:
            raise malformed_entry(entry)
        try:
            hash(entry)
        except TypeError:
            raise malformed_entry(entry) from None
        label = (entry.coord, entry.block_index)
        if label in diffs:
            raise ProtocolFault(f"duplicate driver ciphertext at {label}")
        if not isinstance(entry.c1, bytes) or not isinstance(entry.c2, bytes):
            raise malformed_entry(entry)
        group = groups.get(label)
        if group is None:
            raise ProtocolFault(f"driver ciphertext at {label} has no rider group")
        token = prf_f(entry.c1, group.nonce)
        hits = [e.c2 for e in group.entries if e.c1 == token]
        if len(hits) > 1:
            raise PrfCollisionError(
                f"{len(hits)} rider entries matched one driver ciphertext at "
                f"position ({group.coord}, {group.block_index})"
            )
        if not hits:
            raise ProtocolFault(f"driver ciphertext at {label} matched no rider entry")
        if len(hits[0]) != PAYLOAD_BYTES:
            raise ProtocolFault(
                f"rider entry at {label} has a {len(hits[0])}-byte payload, "
                f"not {PAYLOAD_BYTES}"
            )
        pad = prf_f(entry.c2, group.nonce)[:PAYLOAD_BYTES]
        diffs[label] = decode_signed(xor_bytes(hits[0], pad))
    total = context.dim * context.params.num_blocks
    if len(diffs) != total:
        raise ProtocolFault(f"matched {len(diffs)} of {total} positions")
    return diffs


def reference_distance(diffs, ctx) -> int:
    """``sp_compute_distance`` by lookups: the map must cover exactly the
    (coord, block) positions, in any order."""
    m = ctx.params.num_blocks
    if set(diffs) != {(i, j) for i in range(ctx.dim) for j in range(m)}:
        raise ValueError("difference map does not cover every (coord, block) position")
    return max(abs(sum(diffs[(i, j)] for j in range(m))) for i in range(ctx.dim))


class ReferenceLedger:
    """``DifferenceLedger`` filing as a plain list of differences per
    position: every entry is checked and filed, in map order, with no
    memory of what was filed before, and bounds are recomputed by scans."""

    def __init__(self, params, dim):
        self.params, self.dim = params, dim
        self.top = params.base - 1
        self.positions = [(i, j) for i in range(dim) for j in range(params.num_blocks)]
        self.diffs = {pos: [] for pos in self.positions}
        self.unique_at = {pos: None for pos in self.positions}
        self.responses = 0

    def file(self, matches) -> None:
        for (coord, block_index), payload in matches.items():
            if not 0 <= coord < self.dim:
                raise ValueError(f"coordinate {coord} out of range")
            if not 0 <= block_index < self.params.num_blocks:
                raise ValueError(f"block index {block_index} out of range")
            weight = self.params.base**block_index
            if payload % weight:
                raise LedgerFault(
                    f"payload {payload} at ({coord}, {block_index}) is not a "
                    f"multiple of weight {weight}"
                )
            d = payload // weight
            if not -self.top <= d <= self.top:
                raise LedgerFault(
                    f"difference {d} at ({coord}, {block_index}) exceeds block range"
                )
            self.diffs[(coord, block_index)].append(d)

    def bounds(self, pos) -> tuple[int, int]:
        """The running interval's ends; ``lo > hi`` when it is empty."""
        diffs = self.diffs[pos]
        lo = max([0] + [-d for d in diffs])
        return lo, min([self.top] + [self.top - d for d in diffs])

    def feed(self, matches, strict: bool) -> None:
        """``DifferenceLedger.record_matches`` under a rule: file, then test
        every position not yet unique, in position order."""
        self.file(matches)
        self.responses += 1
        for pos in self.positions:
            if self.unique_at[pos] is not None:
                continue
            if strict:
                unique = len(set(self.diffs[pos])) == self.params.base
            else:
                lo, hi = self.bounds(pos)
                if lo > hi:
                    raise LedgerFault(f"no block value is consistent at {pos}")
                unique = lo == hi
            if unique:
                self.unique_at[pos] = self.responses


def feasible_blocks(diffs, block_bits: int) -> list[int]:
    """All block values consistent with the observed differences, by scan."""
    top = (1 << block_bits) - 1
    return [
        x for x in range(top + 1) if all(0 <= x + d <= top for d in diffs)
    ]


def best_driver(rider_vector, driver_vectors: dict[int, tuple]) -> int:
    """Plaintext argmin with the lowest-id tie-break."""
    def chebyshev(a, b):
        return max(abs(x - y) for x, y in zip(a, b))

    return min(
        driver_vectors,
        key=lambda k: (chebyshev(rider_vector, driver_vectors[k]), k),
    )


def reference_attack(params, dim, feed, strict=False):
    """Recovery recomputed from scratch with plain lists and scans.

    Returns ``(unique_at, candidates, rider_vector, driver_vectors)`` with
    the meanings of :class:`ridecrypt.attack.RecoveryReport`. Uniqueness is
    re-derived for every prefix of ``feed``, each position's interval is a
    feasibility scan, a driver's latest response wins, and coordinates are
    rebuilt block by block.
    """
    base = params.base
    positions = [(i, j) for i in range(dim) for j in range(params.num_blocks)]

    def per_position(prefix):
        diffs = {pos: [] for pos in positions}
        for _, matches in prefix:
            for (i, j), payload in matches.items():
                diffs[(i, j)].append(payload // base**j)
        return diffs

    def unique(diffs):
        if not diffs:
            return False
        if strict:
            return len(set(diffs)) == base
        return len(feasible_blocks(diffs, params.block_bits)) == 1

    unique_at = {}
    for pos in positions:
        unique_at[pos] = next(
            (k for k in range(1, len(feed) + 1) if unique(per_position(feed[:k])[pos])),
            None,
        )
    diffs = per_position(feed)
    candidates = {}
    for pos in positions:
        values = feasible_blocks(diffs[pos], params.block_bits)
        candidates[pos] = (values[0], values[-1])
    if not all(unique(diffs[pos]) for pos in positions):
        return unique_at, candidates, None, {}

    def rebuild(blocks):
        return tuple(
            sum(
                blocks[(i, j)] * base**j for j in range(params.num_blocks)
            )
            for i in range(dim)
        )

    rider_blocks = {pos: candidates[pos][0] for pos in positions}
    latest = {}
    for driver_id, matches in feed:
        row = latest.setdefault(driver_id, {})
        for (i, j), payload in matches.items():
            row[(i, j)] = payload // base**j
    driver_vectors = {
        driver_id: rebuild({pos: rider_blocks[pos] + row[pos] for pos in positions})
        for driver_id, row in sorted(latest.items())
    }
    return unique_at, candidates, rebuild(rider_blocks), driver_vectors
