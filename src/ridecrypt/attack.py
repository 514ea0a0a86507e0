"""Passive location recovery from the matching party's own transcript.

The matching step hands the service provider a signed, weight-scaled block
difference for every (coordinate, block) position and every responding
driver. Dividing out the public weight gives the raw difference
``driver_block - rider_block``. Collected across drivers, each position's
differences confine the rider's block to an integer interval; once the
interval collapses to a point the block is known, and every driver's block
follows by adding its difference back. No extra protocol messages are
needed; the input here is exactly the output of honest matching.

The ledger holds the differences in two shapes, one per question the
attack asks. Per position it keeps the running candidate interval, narrowed by each
difference ``d`` to ``[max(lo, -d), min(hi, top - d)]``, and the set of
distinct differences; together they answer "is the rider block pinned?"
in O(1). Per driver it keeps one row of ``dim * num_blocks`` differences,
where position ``(coord, block)`` sits at index ``coord * num_blocks +
block`` and a position the driver never answered holds the int16 minimum,
outside every difference range (at most ``2**8 - 1`` in magnitude).
Stacking the rows gives a drivers x positions integer matrix, so all
driver vectors come back in one vectorised pass. Feeding a response costs
O(positions) and recovery O(drivers * positions), so an attack is linear
in what it is fed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .codec import BlockParams, decompose, recompose
from .errors import LedgerFault
from .roadnet import RneVector, rne_distance

# Fills a driver row where no difference was recorded. Differences are at
# most 2**8 - 1 in magnitude (block widths up to 8 bits), so every one fits
# int16 and this sentinel, the int16 minimum, collides with none.
_MISSING = -(2**15)


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
    top = (1 << block_bits) - 1
    smallest = min(diffs)
    largest = max(diffs)
    if smallest < -top or largest > top:
        raise ValueError(f"difference out of range for {block_bits}-bit blocks")
    lo = max(0, -smallest)
    hi = min(top, top - largest)
    if lo > hi:
        raise LedgerFault(f"no block value is consistent with differences {diffs}")
    return lo, hi


class DifferenceLedger:
    """The service provider's collection of signed block differences across
    responding drivers, by position and by driver. Single writer per
    session; recovery functions only read it."""

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
        self._distinct: list[set[int]] = [set() for _ in range(size)]
        self._rows: dict[int, list[int]] = {}

    def positions(self) -> list[tuple[int, int]]:
        """Every (coord, block) position, in row-index order."""
        return [
            (i, j) for i in range(self.dim) for j in range(self.params.num_blocks)
        ]

    def _slot(self, coord: int, block_index: int) -> int:
        """Row index of a position; rejects positions outside the ledger."""
        if not 0 <= coord < self.dim:
            raise ValueError(f"coordinate {coord} out of range")
        if not 0 <= block_index < self.params.num_blocks:
            raise ValueError(f"block index {block_index} out of range")
        return coord * self.params.num_blocks + block_index

    def record(self, coord: int, block_index: int, driver_id: int, payload: int) -> None:
        """File one matched payload. The payload must be an exact multiple
        of the position weight and normalize to an in-range difference.
        A driver's later payload for the same position replaces its row
        entry; the position's interval and distinct set keep both
        differences."""
        pos = self._slot(coord, block_index)
        weight = self._weights[block_index]
        if payload % weight != 0:
            raise LedgerFault(
                f"payload {payload} at ({coord}, {block_index}) is not a "
                f"multiple of weight {weight}"
            )
        d = payload // weight
        if abs(d) >= self._base:
            raise LedgerFault(
                f"difference {d} at ({coord}, {block_index}) exceeds block range"
            )
        row = self._rows.get(driver_id)
        if row is None:
            row = self._rows[driver_id] = [_MISSING] * len(self._lo)
        row[pos] = d
        self._lo[pos] = max(self._lo[pos], -d)
        self._hi[pos] = min(self._hi[pos], self._base - 1 - d)
        self._distinct[pos].add(d)

    def record_matches(
        self, driver_id: int, matches: Mapping[tuple[int, int], int]
    ) -> None:
        """File a whole ``ServiceProvider.match_response`` output."""
        for (coord, block_index), payload in matches.items():
            self.record(coord, block_index, driver_id, payload)

    def drivers(self) -> list[int]:
        return sorted(self._rows)

    def driver_diffs(self, driver_id: int) -> dict[tuple[int, int], int]:
        """This driver's difference per position (latest entry if repeated)."""
        row = self._rows.get(driver_id)
        if row is None:
            return {}
        return {
            divmod(pos, self.params.num_blocks): d
            for pos, d in enumerate(row)
            if d != _MISSING
        }

    def driver_rows(self, driver_ids: Sequence[int]) -> list[list[int]]:
        """The given drivers' rows, in the given order; a position a driver
        never answered holds the sentinel ``-2**15``. Read only."""
        return [self._rows[driver_id] for driver_id in driver_ids]

    def interval(self, coord: int, block_index: int) -> tuple[int, int]:
        """Current candidate interval; the full range if nothing was seen."""
        pos = self._slot(coord, block_index)
        lo, hi = self._lo[pos], self._hi[pos]
        if lo > hi:
            raise LedgerFault(
                f"no block value is consistent at ({coord}, {block_index})"
            )
        return lo, hi

    def is_unique(self, coord: int, block_index: int, strict: bool = False) -> bool:
        """Whether this position's rider block is pinned down.

        Strict mode requires differences to all ``2**bits`` values, the
        criterion under which the expected-responder counts are computed;
        the default accepts any interval that closed to a point.
        """
        if strict:
            return len(self._distinct[self._slot(coord, block_index)]) == self._base
        lo, hi = self.interval(coord, block_index)
        return lo == hi


def recover_rider_vector(
    ledger: DifferenceLedger, strict: bool = False
) -> tuple[RneVector | None, dict[tuple[int, int], tuple[int, int]]]:
    """Recover the rider's embedding vector if every position is unique.

    Returns ``(vector, candidates)``; the vector is ``None`` while any
    position is still ambiguous, the candidate intervals are always
    reported.
    """
    candidates: dict[tuple[int, int], tuple[int, int]] = {}
    blocks: dict[tuple[int, int], int] = {}
    complete = True
    for pos in ledger.positions():
        interval = ledger.interval(*pos)
        candidates[pos] = interval
        if ledger.is_unique(*pos, strict=strict):
            blocks[pos] = interval[0]
        else:
            complete = False
    if not complete:
        return None, candidates
    vector = tuple(
        recompose(
            [blocks[(i, j)] for j in range(ledger.params.num_blocks)], ledger.params
        )
        for i in range(ledger.dim)
    )
    return vector, candidates


def recover_driver_vectors(
    ledger: DifferenceLedger, rider_vector: Sequence[int]
) -> dict[int, RneVector]:
    """Given the recovered rider vector, rebuild every responding driver's
    vector by adding its recorded differences back onto the rider blocks.

    All drivers are handled in one pass over the stacked ledger rows. A
    driver that misses a position, or whose block leaves the block range,
    raises :class:`LedgerFault`; of several, the lowest driver id is
    reported, and within it the first position.
    """
    # numpy is imported here rather than at the top: loading it ahead of
    # the package's other modules raised the peak RSS of a 60-session grid
    # run by about 0.3 MB, and only this function needs it.
    import numpy as np

    if len(rider_vector) != ledger.dim:
        raise ValueError("rider vector dimension does not match ledger")
    params = ledger.params
    ids = ledger.drivers()
    diffs = np.array(ledger.driver_rows(ids), dtype=np.int64).reshape(
        len(ids), ledger.dim * params.num_blocks
    )
    rider_blocks = np.array(
        [block for coordinate in rider_vector for block in decompose(coordinate, params)],
        dtype=np.int64,
    )
    blocks = diffs + rider_blocks
    incomplete = (diffs == _MISSING).any(axis=1)
    out_of_range = (blocks < 0) | (blocks >= params.base)
    faulty = incomplete | out_of_range.any(axis=1)
    if faulty.any():
        row = int(faulty.argmax())
        driver_id = ids[row]
        if incomplete[row]:
            raise LedgerFault(f"driver {driver_id} has an incomplete difference set")
        pos = int(out_of_range[row].argmax())
        i, j = divmod(pos, params.num_blocks)
        raise LedgerFault(
            f"driver {driver_id} block {int(blocks[row, pos])} at ({i}, {j}) "
            f"is out of range"
        )
    shifts = np.arange(params.num_blocks, dtype=np.int64) * params.block_bits
    coords = (blocks.reshape(len(ids), ledger.dim, params.num_blocks) << shifts).sum(
        axis=2
    )
    return {driver_id: tuple(row) for driver_id, row in zip(ids, coords.tolist())}


def embedding_index(table: Sequence[RneVector]) -> dict[RneVector, tuple[int, int]]:
    """Map each distinct embedding to ``(lowest node, nodes sharing it)``:
    the answer :func:`deanonymize` gives for an exact match."""
    index: dict[RneVector, tuple[int, int]] = {}
    for node, vector in enumerate(table):
        key = tuple(vector)
        hit = index.get(key)
        index[key] = (node, 1) if hit is None else (hit[0], hit[1] + 1)
    return index


def deanonymize(
    vector: Sequence[int],
    table: Sequence[RneVector],
    index: Mapping[RneVector, tuple[int, int]] | None = None,
) -> tuple[int, int]:
    """Map a recovered vector back to a node of the embedded network.

    Returns ``(node, ambiguity)`` where the node's embedding is at minimal
    Chebyshev distance from ``vector`` (distance zero for an exact match),
    the lowest such node id wins, and ``ambiguity`` counts how many nodes
    tie at that distance. With ``index`` (from :func:`embedding_index` over
    the same table), an exact match is a lookup; the scan covers the rest.
    """
    if not table:
        raise ValueError("embedding table is empty")
    if index is not None:
        hit = index.get(tuple(vector))
        if hit is not None:
            return hit
    best_node = 0
    best_dist = rne_distance(vector, table[0])
    count = 1
    for node in range(1, len(table)):
        d = rne_distance(vector, table[node])
        if d < best_dist:
            best_node, best_dist, count = node, d, 1
        elif d == best_dist:
            count += 1
    return best_node, count


@dataclass
class RecoveryReport:
    """Outcome of one attack run over a session's matched responses."""

    strict: bool
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
    """The recovery run as responses arrive: :meth:`feed` files one matched
    response, :meth:`report` recovers what the responses so far reveal.

    ``unique_at`` records, per position, after how many responses the rider
    block became unique under the chosen mode. Uniqueness never reverts as
    differences accumulate, so each response re-checks only the positions
    still open.
    """

    def __init__(
        self,
        params: BlockParams,
        dim: int,
        strict: bool = False,
        embedding_table: Sequence[RneVector] | None = None,
    ) -> None:
        self.ledger = DifferenceLedger(params, dim)
        self.strict = strict
        self.embedding_table = embedding_table
        self.responses = 0
        self.unique_at: dict[tuple[int, int], int | None] = {
            pos: None for pos in self.ledger.positions()
        }
        self._open = list(self.unique_at)
        self._index: dict[RneVector, tuple[int, int]] | None = None

    def feed(self, driver_id: int, matches: Mapping[tuple[int, int], int]) -> None:
        """File one driver's ``ServiceProvider.match_response`` output."""
        self.ledger.record_matches(driver_id, matches)
        self.responses += 1
        still_open = []
        for pos in self._open:
            if self.ledger.is_unique(*pos, strict=self.strict):
                self.unique_at[pos] = self.responses
            else:
                still_open.append(pos)
        self._open = still_open

    def report(self) -> RecoveryReport:
        """Everything recoverable from the responses fed so far."""
        rider_vector, candidates = recover_rider_vector(self.ledger, strict=self.strict)
        report = RecoveryReport(
            strict=self.strict,
            blocks_total=len(self.unique_at),
            blocks_recovered=len(self.unique_at) - len(self._open),
            candidates=candidates,
            unique_at=dict(self.unique_at),
            rider_vector=rider_vector,
        )
        if rider_vector is not None:
            report.driver_vectors = recover_driver_vectors(self.ledger, rider_vector)
            table = self.embedding_table
            if table is not None:
                if self._index is None:
                    self._index = embedding_index(table)
                report.rider_node, report.rider_ambiguity = deanonymize(
                    rider_vector, table, self._index
                )
                report.driver_nodes = {
                    driver_id: deanonymize(vec, table, self._index)
                    for driver_id, vec in report.driver_vectors.items()
                }
        return report


def run_attack(
    params: BlockParams,
    dim: int,
    matched_responses: Sequence[tuple[int, Mapping[tuple[int, int], int]]],
    strict: bool = False,
    embedding_table: Sequence[RneVector] | None = None,
) -> RecoveryReport:
    """Run the full recovery over matched responses, in arrival order.

    ``matched_responses`` holds ``(driver_id, matches)`` pairs, ``matches``
    being the output of ``ServiceProvider.match_response``: precisely the
    data the matching party produces while doing its legitimate job.
    """
    attack = IncrementalAttack(params, dim, strict, embedding_table)
    for driver_id, matches in matched_responses:
        attack.feed(driver_id, matches)
    return attack.report()
