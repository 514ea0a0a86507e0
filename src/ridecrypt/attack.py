"""Passive location recovery from the matching party's own transcript.

The matching step hands the service provider a signed, weight-scaled block
difference for every (coordinate, block) position and every responding
driver. Dividing out the public weight gives the raw difference
``driver_block - rider_block``. Collected across drivers, each position's
differences confine the rider's block to an integer interval; once the
interval collapses to a point the block is known. No extra protocol
messages are needed; the input here is exactly the output of honest
matching.

One tracker, :class:`DifferenceLedger`, holds what the provider learns
about the rider, and nothing per driver. Keyed by (coordinate, block)
position, it keeps the running candidate interval, narrowed by each
difference ``d`` to ``[max(lo, -d), min(hi, top - d)]``, and a count of
the (position, payload) pairs accepted there; a payload is one-to-one with
its difference at a position, so that is the number of distinct
differences. Each pair is filed once, and honest drivers send at most
``2**(l+1) - 1`` distinct payloads per position, so the ledger's size is
bounded by the position count, however many responses were filed. Filing
a response costs at most O(positions), and recovering the drivers
O(drivers * positions), one pass over each driver's matches, so an attack
is linear in what it is fed.

The interval is also what recovers the drivers. Every filed difference
``d`` at a position satisfies ``lo <= hi`` only if ``0 <= lo + d <= top``,
so once the rider's block ``lo`` is known, every driver block ``lo + d``
that the ledger filed is in range. A driver's block is the rider's plus
its difference, so its coordinate is the rider's plus the sum of its
payloads over the coordinate's blocks: :func:`run_attack` recovers each
driver as exactly that, and only :func:`recover_driver_vectors`, which
takes pairs no ledger filed, checks each block's range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, floordiv, mod
from typing import Iterable, Iterator, Mapping, Sequence

from .codec import BlockParams, recompose
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
    """The service provider's knowledge of the rider, built up from the
    signed block differences of every matched response, by position.

    The uniqueness rule is fixed when the ledger is built: ``strict``
    requires differences to all ``2**bits`` values, the criterion under
    which the expected-responder counts are computed, and never reads the
    interval; the default accepts any interval that closed to a point.
    ``unique_at`` records, per position, after how many responses the
    rider block became unique under that rule. Uniqueness never reverts
    as differences accumulate, so each response re-checks only the
    positions it changed whose ``unique_at`` is still ``None``. Single
    writer per session."""

    def __init__(self, params: BlockParams, dim: int, strict: bool = False) -> None:
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.params = params
        self.dim = dim
        self.strict = strict
        self.responses = 0
        positions = params.positions(dim)
        self._lo = dict.fromkeys(positions, 0)
        self._hi = dict.fromkeys(positions, params.base - 1)
        # Pairs accepted per position; a payload is one-to-one with its
        # difference there, so this counts the distinct differences.
        self._count = dict.fromkeys(positions, 0)
        # Every ((coord, block), payload) pair filed so far.
        self._accepted: set[tuple[tuple[int, int], int]] = set()
        self.unique_at: dict[tuple[int, int], int | None] = dict.fromkeys(positions)

    def _check(self, coord: int, block_index: int) -> None:
        """Reject a position outside the ledger."""
        if not 0 <= coord < self.dim:
            raise ValueError(f"coordinate {coord} out of range")
        if not 0 <= block_index < self.params.num_blocks:
            raise ValueError(f"block index {block_index} out of range")

    def record_matches(
        self, driver_id: int, matches: Mapping[tuple[int, int], int]
    ) -> None:
        """File one driver's ``ServiceProvider.match_response`` output, in
        the map's order, count the response, then re-check in position
        order, through :meth:`is_unique`, the positions it changed that
        are not yet unique.

        Each payload must be an exact multiple of its position weight and
        normalize to an in-range difference; the first entry that fails
        raises, after the entries before it were filed, and the response
        is not counted. In the default mode the first empty interval
        among the re-checked positions faults. A fault ends the attack: a
        position that the faulting response changed may stay unchecked.
        A position's interval narrows by, and its count counts, every new
        pair filed there, a repeated driver's too; ``driver_id`` names the
        responder and is not stored.

        Filing a (label, payload) pair is idempotent and its checks depend
        on nothing else, so a pair accepted before is skipped: a response
        whose pairs were all seen costs one subset test and changes no
        position, as most of fleet_synthetic's thousand do, and the pairs
        kept number at most ``2**(l+1) - 1`` per position."""
        accepted = self._accepted
        if accepted.issuperset(matches.items()):
            self.responses += 1
            return
        weights, top = self.params.weights, self.params.base - 1
        lo, hi, count = self._lo, self._hi, self._count
        changed = []
        for pair in matches.items():
            if pair in accepted:
                continue
            pos, payload = pair
            coord, block_index = pos
            self._check(coord, block_index)
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
            if lo[pos] < -d:
                lo[pos] = -d
            if hi[pos] > top - d:
                hi[pos] = top - d
            count[pos] += 1
            accepted.add(pair)
            changed.append(pos)
        self.responses += 1
        for pos in sorted(changed):
            if self.unique_at[pos] is None and self.is_unique(*pos):
                self.unique_at[pos] = self.responses

    def interval(self, coord: int, block_index: int) -> tuple[int, int]:
        """Current candidate interval; the full range if nothing was seen.
        Raises :class:`LedgerFault` when no block value is consistent."""
        self._check(coord, block_index)
        lo, hi = self._lo[coord, block_index], self._hi[coord, block_index]
        if lo > hi:
            raise LedgerFault(
                f"no block value is consistent at ({coord}, {block_index})"
            )
        return lo, hi

    def is_unique(self, coord: int, block_index: int) -> bool:
        """Whether this position's rider block is pinned down under the
        ledger's rule: the one uniqueness test."""
        if self.strict:
            self._check(coord, block_index)
            return self._count[coord, block_index] == self.params.base
        lo, hi = self.interval(coord, block_index)
        return lo == hi

    def report(
        self, index: Mapping[RneVector, tuple[int, int]] | None = None
    ) -> RecoveryReport:
        """The rider's recovery from the responses filed so far. With
        ``index``, the :func:`embedding_index` of the network's embedding
        table, a report that recovers the rider also names the rider's
        node through :func:`deanonymize`. Drivers are not tracked:
        :func:`run_attack` recovers them from their responses."""
        rider_vector, candidates = recover_rider_vector(self)
        report = RecoveryReport(candidates, dict(self.unique_at), rider_vector)
        if rider_vector is not None and index is not None:
            report.rider_node, report.rider_ambiguity = deanonymize(rider_vector, index)
        return report


def recover_rider_vector(
    ledger: DifferenceLedger,
) -> tuple[RneVector | None, dict[tuple[int, int], tuple[int, int]]]:
    """Recover the rider's embedding vector once every position is unique
    under the ledger's rule.

    Returns ``(vector, candidates)``; the vector is ``None`` while any
    position is still open, the candidate intervals are always reported.
    """
    # Every interval is read, in position order, before the vector is
    # built, so the first inconsistent position is the one that faults. A
    # unique position's interval is the single point ``(block, block)``.
    candidates = {pos: ledger.interval(*pos) for pos in ledger.unique_at}
    if None in ledger.unique_at.values():
        return None, candidates
    runs = ledger.params.runs([lo for lo, _ in candidates.values()])
    return tuple(recompose(run, ledger.params) for run in runs), candidates


def _driver_rows(
    params: BlockParams,
    rider_vector: Sequence[int],
    matched_responses: Iterable[tuple[int, Mapping[tuple[int, int], int]]],
) -> Iterator[tuple[int, list[int], RneVector]]:
    """``(driver_id, payloads, vector)`` for each responding driver, in id
    order: its payloads in position order and its vector, the rider's plus
    the sum of its payloads per coordinate. Nothing is range-checked.

    A repeated driver's later payload wins, position by position. A map in
    position order, as matching returns it, is read as it stands
    (fleet_synthetic's thousand drivers), any other by a lookup per
    position; a driver that misses a position raises :class:`LedgerFault`
    when it is reached.
    """
    positions = params.positions(len(rider_vector))
    latest: dict[int, Mapping[tuple[int, int], int]] = {}
    for driver_id, matches in matched_responses:
        earlier = latest.get(driver_id)
        latest[driver_id] = matches if earlier is None else {**earlier, **matches}
    for driver_id in sorted(latest):
        matches = latest[driver_id]
        if tuple(matches) == positions:  # honest matching's own order
            payloads = list(matches.values())
        else:
            payloads = [matches.get(pos) for pos in positions]
            if None in payloads:
                raise LedgerFault(f"driver {driver_id} has an incomplete difference set")
        yield driver_id, payloads, tuple(map(add, rider_vector, map(sum, params.runs(payloads))))


def recover_driver_vectors(
    params: BlockParams,
    rider_vector: Sequence[int],
    matched_responses: Iterable[tuple[int, Mapping[tuple[int, int], int]]],
) -> dict[int, RneVector]:
    """Given the recovered rider vector, rebuild each responding driver's
    vector from its own matched response: a driver block is the rider block
    plus the driver's difference there, so a driver coordinate is the
    rider's plus the sum of the driver's payloads over its blocks.

    ``matched_responses`` holds ``(driver_id, matches)`` pairs; a repeated
    driver's later payload wins, position by position. Drivers are handled
    in id order, each in one pass over its matches; a map in position order,
    as matching returns it, is read as it stands, any other by a lookup per
    position. A driver that misses a position, whose payload is not a
    multiple of its position's weight, or whose block leaves the block
    range, raises :class:`LedgerFault`; of several, the lowest driver id is
    reported, and within it the first position, a missing one before any.
    """
    top = params.base - 1
    positions = params.positions(len(rider_vector))
    rider_blocks = params.split(rider_vector)
    weights = params.weights * len(rider_vector)
    vectors: dict[int, RneVector] = {}
    for driver_id, payloads, vector in _driver_rows(params, rider_vector, matched_responses):
        blocks = list(map(add, map(floordiv, payloads, weights), rider_blocks))
        if any(map(mod, payloads, weights)) or min(blocks) < 0 or max(blocks) > top:
            for (i, j), payload, weight, block in zip(positions, payloads, weights, blocks):
                if payload % weight:
                    raise LedgerFault(
                        f"driver {driver_id} payload {payload} at ({i}, {j}) is not "
                        f"a multiple of weight {weight}"
                    )
                if not 0 <= block <= top:
                    raise LedgerFault(
                        f"driver {driver_id} block {block} at ({i}, {j}) is out of range"
                    )
        vectors[driver_id] = vector
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

    candidates: dict[tuple[int, int], tuple[int, int]]
    unique_at: dict[tuple[int, int], int | None]
    rider_vector: RneVector | None
    driver_vectors: dict[int, RneVector] = field(default_factory=dict)
    rider_node: int | None = None
    rider_ambiguity: int | None = None
    driver_nodes: dict[int, tuple[int, int]] = field(default_factory=dict)


def run_attack(
    params: BlockParams,
    dim: int,
    matched_responses: Iterable[tuple[int, Mapping[tuple[int, int], int]]],
    strict: bool = False,
    index: Mapping[RneVector, tuple[int, int]] | None = None,
) -> RecoveryReport:
    """Run the full recovery over matched responses, in arrival order: the
    rider by one :class:`DifferenceLedger`, then, once the rider is known,
    every driver as the rider plus its per-coordinate payload sums and,
    with ``index`` from :func:`embedding_index`, each driver's node.

    ``matched_responses`` holds ``(driver_id, matches)`` pairs, ``matches``
    being the output of ``ServiceProvider.match_response``: precisely the
    data the matching party produces while doing its legitimate job. The
    pairs are read once, so any iterable will do.

    The drivers are recovered as :func:`recover_driver_vectors` recovers
    them, faults included, less its per-block range check, which the
    ledger has already proved. The ledger filed every pair of the feed,
    for a fault while filing ends the attack, and it refuses a payload
    that is not a multiple of its weight ``w``, so each ``d = payload / w``
    is exact. Filing ``d`` at position ``p`` leaves ``lo_p >= -d`` and
    ``hi_p <= top - d``, and both bounds only tighten afterwards. The
    rider is recovered only once :func:`recover_rider_vector` has read
    every interval, which faults if ``lo_p > hi_p``, and its block is
    ``r_p = lo_p <= hi_p``. So ``0 <= r_p + d <= top`` for every payload,
    a repeated driver's included, under either uniqueness rule.
    """
    matched_responses = list(matched_responses)
    ledger = DifferenceLedger(params, dim, strict)
    for driver_id, matches in matched_responses:
        ledger.record_matches(driver_id, matches)
    report = ledger.report(index)
    if report.rider_vector is not None:
        report.driver_vectors = {
            k: vector for k, _, vector in _driver_rows(params, report.rider_vector, matched_responses)
        }
        if index is not None:
            report.driver_nodes = {
                k: deanonymize(vec, index) for k, vec in report.driver_vectors.items()
            }
    return report
