"""Independent reference implementations used to check the library.

Everything here is deliberately naive and built from primitives one layer
below whatever it checks: all-pairs relaxation instead of Dijkstra, direct
PRF-chain decryption with both keys instead of the matching pipeline, and
plain feasibility scans instead of interval arithmetic.
"""

from __future__ import annotations

from ridecrypt.codec import PAYLOAD_BYTES, decode_signed
from ridecrypt.crypto import encode_message, prf_f, prf_h, xor_bytes


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
