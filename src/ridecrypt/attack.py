"""Passive location recovery from the matching party's own transcript.

The matching step hands the service provider a signed, weight-scaled block
difference for every (coordinate, block) position and every responding
driver. Dividing out the public weight gives the raw difference
``driver_block - rider_block``. Collected across drivers, each position's
differences confine the rider's block to an integer interval; once the
interval collapses to a point the block is known, and each driver's block
follows from that driver's own response by adding its difference back. No
extra protocol messages are needed; the input here is exactly the output of
honest matching.

The ledger is what the provider learns about the rider, and nothing per
driver. Per position it keeps the running candidate interval, narrowed by
each difference ``d`` to ``[max(lo, -d), min(hi, top - d)]``, and a count
of the (position, payload) pairs accepted there; a payload is one-to-one
with its difference at a position, so that is the number of distinct
differences. They answer "is the rider block pinned?" in O(1). Each pair
is filed once, and honest drivers send at most ``2**(l+1) - 1`` distinct
payloads per position, so the ledger's size is bounded by the position
count, however many responses were fed. A response whose pairs were all
filed before costs one subset test, and only the positions a response
changed are re-checked; feeding a response costs at most O(positions),
and recovering the drivers O(drivers * positions), one pass over each
driver's matches, so an attack is linear in what it is fed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, floordiv
from typing import Iterable, Mapping, Sequence

from .codec import BlockParams, decompose, recompose
from .errors import LedgerFault
from .roadnet import RneVector

def recover_block(diffs: Iterable[int], block_bits: int) -> tuple[int, int]:
    """Interval of block values consistent with the observed differences.

    A block ``x`` is feasible iff ``x + d`` stays inside ``[0, 2**bits - 1]``
    for every observed difference ``d``, so the interval is
    ``[max(0, -min(diffs)), min(top, top - max(diffs))]``. It collapses to a
    point in particular when all ``2**bits`` shifted values were observed
    (then the point is ``-min(diffs)``), and more generally whenever the
    difference spread reaches ``2**bits - 1``.
    """
    diffs = list(diffs)
    if not diffs:
        raise ValueError("need at least one difference")
    smallest, largest = min(diffs), max(diffs)
    top = (1 << block_bits) - 1
    if smallest < -top or largest > top:
        raise ValueError(f"difference out of range for {block_bits}-bit blocks")
    lo, hi = max(0, -smallest), min(top, top - largest)
    if lo > hi:
        raise LedgerFault(f"no block value is consistent with differences {diffs}")
    return lo, hi


class DifferenceLedger:
    """The service provider's collection of signed block differences across
    responding drivers, by position. Single writer per session; recovery
    functions only read it."""

    def __init__(self, params: BlockParams, dim: int) -> None:
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.params = params
        self.dim = dim
        self._base = params.base
        self._weights = tuple(params.weight(j) for j in range(params.num_blocks))
        size = dim * params.num_blocks
        self._lo = [0] * size
        self._hi = [self._base - 1] * size
        # Pairs accepted per position; a payload is one-to-one with its
        # difference there, so this counts the distinct differences.
        self._count = [0] * size
        # Every ((coord, block), payload) pair filed so far.
        self._accepted: set[tuple[tuple[int, int], int]] = set()
        self._positions = tuple(
            (i, j) for i in range(dim) for j in range(params.num_blocks)
        )

    def positions(self) -> tuple[tuple[int, int], ...]:
        """Every (coord, block) position, in row-index order."""
        return self._positions

    def _slot(self, coord: int, block_index: int) -> int:
        """Row index of a position; rejects positions outside the ledger."""
        if not 0 <= coord < self.dim:
            raise ValueError(f"coordinate {coord} out of range")
        if not 0 <= block_index < self.params.num_blocks:
            raise ValueError(f"block index {block_index} out of range")
        return coord * self.params.num_blocks + block_index

    def record_matches(
        self, driver_id: int, matches: Mapping[tuple[int, int], int]
    ) -> list[int]:
        """File a whole ``ServiceProvider.match_response`` output, in the
        map's order. Each payload must be an exact multiple of its position
        weight and normalize to an in-range difference; the first entry
        that fails raises, after the entries before it were filed. A
        position's interval narrows by, and its count counts, every new
        pair filed there, a repeated driver's too; ``driver_id`` names the
        responder and is not stored.

        Filing a (label, payload) pair is idempotent and its checks depend
        on nothing else, so a pair accepted before is skipped: a response
        whose pairs were all seen costs one subset test, and the pairs
        kept number at most ``2**(l+1) - 1`` per position. Returns the row
        indexes of the positions that a new pair reached, in map order."""
        accepted = self._accepted
        if accepted.issuperset(matches.items()):
            return []
        dim, num_blocks, weights = self.dim, self.params.num_blocks, self._weights
        top = self._base - 1
        lo, hi, count = self._lo, self._hi, self._count
        changed = []
        for pair in matches.items():
            if pair in accepted:
                continue
            (coord, block_index), payload = pair
            if not 0 <= coord < dim:
                raise ValueError(f"coordinate {coord} out of range")
            if not 0 <= block_index < num_blocks:
                raise ValueError(f"block index {block_index} out of range")
            weight = weights[block_index]
            d, rest = divmod(payload, weight)
            if rest:
                raise LedgerFault(
                    f"payload {payload} at ({coord}, {block_index}) is not a "
                    f"multiple of weight {weight}"
                )
            if not -top <= d <= top:
                raise LedgerFault(
                    f"difference {d} at ({coord}, {block_index}) exceeds block range"
                )
            pos = coord * num_blocks + block_index
            if lo[pos] < -d:
                lo[pos] = -d
            if hi[pos] > top - d:
                hi[pos] = top - d
            count[pos] += 1
            accepted.add(pair)
            changed.append(pos)
        return changed

    def _interval_at(self, slot: int) -> tuple[int, int]:
        """Candidate interval at a row index; raises :class:`LedgerFault`
        when no block value is consistent there."""
        lo, hi = self._lo[slot], self._hi[slot]
        if lo > hi:
            i, j = divmod(slot, self.params.num_blocks)
            raise LedgerFault(f"no block value is consistent at ({i}, {j})")
        return lo, hi

    def slot_is_unique(self, slot: int, strict: bool = False) -> bool:
        """Whether the rider block at a row index is pinned down: the one
        uniqueness rule.

        Strict mode requires differences to all ``2**bits`` values, the
        criterion under which the expected-responder counts are computed,
        and never reads the interval; the default accepts any interval
        that closed to a point.
        """
        if strict:
            return self._count[slot] == self._base
        lo, hi = self._interval_at(slot)
        return lo == hi

    def interval(self, coord: int, block_index: int) -> tuple[int, int]:
        """Current candidate interval; the full range if nothing was seen."""
        return self._interval_at(self._slot(coord, block_index))

    def is_unique(self, coord: int, block_index: int, strict: bool = False) -> bool:
        """Whether this position's rider block is pinned down, by
        :meth:`slot_is_unique`."""
        return self.slot_is_unique(self._slot(coord, block_index), strict)


def recover_rider_vector(
    ledger: DifferenceLedger, strict: bool = False
) -> tuple[RneVector | None, dict[tuple[int, int], tuple[int, int]]]:
    """Recover the rider's embedding vector if every position is unique.

    Returns ``(vector, candidates)``; the vector is ``None`` while any
    position is still ambiguous, the candidate intervals are always
    reported.
    """
    # Every interval is read, in position order, before any uniqueness
    # test, so the first inconsistent position is the one that faults. A
    # unique position's interval is the single point ``(block, block)``.
    candidates = {pos: ledger.interval(*pos) for pos in ledger.positions()}
    if not all(ledger.is_unique(*pos, strict=strict) for pos in candidates):
        return None, candidates
    vector = tuple(
        recompose(
            [candidates[(i, j)][0] for j in range(ledger.params.num_blocks)],
            ledger.params,
        )
        for i in range(ledger.dim)
    )
    return vector, candidates


def recover_driver_vectors(
    params: BlockParams,
    rider_vector: Sequence[int],
    matched_responses: Iterable[tuple[int, Mapping[tuple[int, int], int]]],
) -> dict[int, RneVector]:
    """Given the recovered rider vector, rebuild each responding driver's
    vector from its own matched response: a driver block is the rider block
    plus the driver's difference there, so a driver coordinate is the
    rider's plus the sum of the driver's payloads over its blocks.

    ``matched_responses`` holds ``(driver_id, matches)`` pairs whose
    payloads :meth:`DifferenceLedger.record_matches` accepted; a repeated
    driver's later payload wins, position by position. Drivers are handled
    in id order, each in one pass over its matches. A driver that misses a
    position, or whose block leaves the block range, raises
    :class:`LedgerFault`; of several, the lowest driver id is reported, and
    within it the first position.
    """
    num_blocks, top = params.num_blocks, params.base - 1
    positions = [(i, j) for i in range(len(rider_vector)) for j in range(num_blocks)]
    rider_blocks = [
        block for coordinate in rider_vector for block in decompose(coordinate, params)
    ]
    weights = [params.weight(j) for j in range(num_blocks)] * len(rider_vector)
    latest: dict[int, Mapping[tuple[int, int], int]] = {}
    for driver_id, matches in matched_responses:
        earlier = latest.get(driver_id)
        latest[driver_id] = matches if earlier is None else {**earlier, **matches}
    vectors: dict[int, RneVector] = {}
    for driver_id in sorted(latest):
        matches = latest[driver_id]
        if list(matches) == positions:  # honest matching's own order
            payloads = list(matches.values())
        else:
            payloads = [matches.get(pos) for pos in positions]
            if None in payloads:
                raise LedgerFault(f"driver {driver_id} has an incomplete difference set")
        blocks = list(map(add, map(floordiv, payloads, weights), rider_blocks))
        if min(blocks) < 0 or max(blocks) > top:
            pos, block = next((p, b) for p, b in enumerate(blocks) if not 0 <= b <= top)
            i, j = positions[pos]
            raise LedgerFault(
                f"driver {driver_id} block {block} at ({i}, {j}) is out of range"
            )
        runs = zip(*[iter(payloads)] * num_blocks)  # one coordinate's payloads each
        vectors[driver_id] = tuple(map(add, rider_vector, map(sum, runs)))
    return vectors


def embedding_index(table: Sequence[RneVector]) -> dict[RneVector, tuple[int, int]]:
    """Map each distinct embedding in ``table`` to ``(lowest node, nodes
    sharing it)``, the answer :func:`deanonymize` gives for it."""
    index: dict[RneVector, tuple[int, int]] = {}
    for node, vector in enumerate(table):
        key = tuple(vector)
        hit = index.get(key)
        index[key] = (node, 1) if hit is None else (hit[0], hit[1] + 1)
    return index


def deanonymize(
    vector: Sequence[int], index: Mapping[RneVector, tuple[int, int]]
) -> tuple[int, int]:
    """Map a recovered vector back to the node it embeds.

    ``index`` comes from :func:`embedding_index` over the network's
    embedding table. Returns ``(node, ambiguity)``: the lowest node whose
    embedding equals ``vector`` and how many nodes share that embedding.
    A sound ledger only yields true embeddings, so a vector that is no
    node's embedding raises :class:`LedgerFault`.
    """
    hit = index.get(tuple(vector))
    if hit is None:
        raise LedgerFault(f"recovered vector {tuple(vector)} embeds no node")
    return hit


@dataclass
class RecoveryReport:
    """Outcome of one attack run over a session's matched responses."""

    blocks_total: int
    blocks_recovered: int
    candidates: dict[tuple[int, int], tuple[int, int]]
    unique_at: dict[tuple[int, int], int | None]
    rider_vector: RneVector | None
    driver_vectors: dict[int, RneVector] = field(default_factory=dict)
    rider_node: int | None = None
    rider_ambiguity: int | None = None
    driver_nodes: dict[int, tuple[int, int]] = field(default_factory=dict)


class IncrementalAttack:
    """The rider's recovery as responses arrive: :meth:`feed` files one
    matched response, :meth:`report` recovers the rider as far as the
    responses so far reveal it.

    ``unique_at`` records, per position, after how many responses the rider
    block became unique under the chosen mode. Uniqueness never reverts as
    differences accumulate, so each response re-checks only the positions
    still open. With ``index``, the :func:`embedding_index` of the
    network's embedding table, a report that recovers the rider also names
    the rider's node through :func:`deanonymize`. Drivers are
    not tracked: :func:`run_attack` recovers them from their responses.
    """

    def __init__(
        self,
        params: BlockParams,
        dim: int,
        strict: bool = False,
        index: Mapping[RneVector, tuple[int, int]] | None = None,
    ) -> None:
        self.ledger = DifferenceLedger(params, dim)
        self.strict = strict
        self.responses = 0
        self.unique_at: dict[tuple[int, int], int | None] = dict.fromkeys(
            self.ledger.positions()
        )
        # Row indexes of the positions not yet unique.
        self._open = set(range(len(self.unique_at)))
        self._index = index

    def feed(self, driver_id: int, matches: Mapping[tuple[int, int], int]) -> None:
        """File one driver's ``ServiceProvider.match_response`` output and
        re-check, in position order, the open positions it changed, by
        :meth:`DifferenceLedger.slot_is_unique`; in the default mode the
        first empty interval faults. A position the response left alone
        keeps the answer it had. A fault ends the attack: a position that
        the faulting response changed may stay unchecked."""
        changed = self.ledger.record_matches(driver_id, matches)
        self.responses += 1
        unique, strict = self.ledger.slot_is_unique, self.strict
        positions = self.ledger.positions()
        for slot in sorted(self._open.intersection(changed)):
            if unique(slot, strict):
                self.unique_at[positions[slot]] = self.responses
                self._open.remove(slot)

    def report(self) -> RecoveryReport:
        """The rider's recovery from the responses fed so far."""
        rider_vector, candidates = recover_rider_vector(self.ledger, strict=self.strict)
        report = RecoveryReport(
            blocks_total=len(self.unique_at),
            blocks_recovered=len(self.unique_at) - len(self._open),
            candidates=candidates,
            unique_at=dict(self.unique_at),
            rider_vector=rider_vector,
        )
        if rider_vector is not None and self._index is not None:
            report.rider_node, report.rider_ambiguity = deanonymize(
                rider_vector, self._index
            )
        return report


def run_attack(
    params: BlockParams,
    dim: int,
    matched_responses: Sequence[tuple[int, Mapping[tuple[int, int], int]]],
    strict: bool = False,
    index: Mapping[RneVector, tuple[int, int]] | None = None,
) -> RecoveryReport:
    """Run the full recovery over matched responses, in arrival order: the
    rider by :class:`IncrementalAttack`, then, once the rider is known,
    every driver by :func:`recover_driver_vectors` and, with ``index``
    from :func:`embedding_index`, each driver's node.

    ``matched_responses`` holds ``(driver_id, matches)`` pairs, ``matches``
    being the output of ``ServiceProvider.match_response``: precisely the
    data the matching party produces while doing its legitimate job.
    """
    attack = IncrementalAttack(params, dim, strict, index)
    for driver_id, matches in matched_responses:
        attack.feed(driver_id, matches)
    report = attack.report()
    if report.rider_vector is not None:
        report.driver_vectors = recover_driver_vectors(
            params, report.rider_vector, matched_responses
        )
        if index is not None:
            report.driver_nodes = {
                k: deanonymize(vec, index) for k, vec in report.driver_vectors.items()
            }
    return report
