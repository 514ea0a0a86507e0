import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceLedger, feasible_blocks, reference_attack
from ridecrypt.attack import (
    DifferenceLedger,
    deanonymize,
    embedding_index,
    recover_block,
    recover_driver_vectors,
    recover_rider_vector,
    run_attack,
)
from ridecrypt.codec import BlockParams, decompose, recompose, weighted_difference
from ridecrypt.errors import LedgerFault
from ridecrypt.roadnet import RoadNetwork, generate_grid_network


def random_vectors(params, dim, count, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(params.capacity) for _ in range(dim)) for _ in range(count)
    ]


def honest_matches(params, dim, rider_vector, driver_vector):
    """The (coord, block index) -> payload map honest matching produces,
    computed straight from the plaintexts."""
    out = {}
    for i in range(dim):
        rb = decompose(rider_vector[i], params)
        db = decompose(driver_vector[i], params)
        for j in range(params.num_blocks):
            out[(i, j)] = weighted_difference(db[j], rb[j], j, params)
    return out


def differences(ledger):
    """Each position's set of differences, in position order, read back
    from the ledger's accepted pairs."""
    seen = {pos: set() for pos in ledger.unique_at}
    for pos, payload in ledger._accepted:
        seen[pos].add(payload // ledger.params.weight(pos[1]))
    return list(seen.values())


class TestLedgerRecord:
    def test_normalizes_by_weight(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        ledger.record_matches(0, {(0, 1): 8})
        assert differences(ledger) == [set(), {2}]
        assert ledger.interval(0, 1) == (0, 1)

    def test_zero_payload(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        ledger.record_matches(0, {(0, 0): 0})
        assert differences(ledger) == [{0}, set()]
        assert ledger.interval(0, 0) == (0, 3)

    def test_non_divisible_payload_faults(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(LedgerFault):
            ledger.record_matches(0, {(0, 1): 6})

    def test_out_of_range_difference_faults(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(LedgerFault):
            ledger.record_matches(0, {(0, 0): 4})

    def test_unknown_coordinate(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(ValueError):
            ledger.record_matches(0, {(1, 0): 0})

    def test_unknown_block_index(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(ValueError):
            ledger.record_matches(0, {(0, 2): 0})
        with pytest.raises(ValueError):
            ledger.interval(0, 2)

    def test_repeated_driver_keeps_every_difference(self):
        ledger = DifferenceLedger(BlockParams(2, 1), 1)
        ledger.record_matches(4, {(0, 0): 1})
        ledger.record_matches(2, {(0, 0): -1})
        # The position keeps every difference: 1, -1 and 3 leave no block
        # value for 2-bit blocks, and the re-check after filing says so.
        with pytest.raises(LedgerFault, match=re.escape("consistent at (0, 0)")):
            ledger.record_matches(4, {(0, 0): 3})
        with pytest.raises(LedgerFault):
            ledger.interval(0, 0)
        assert differences(ledger) == [{1, -1, 3}]

    def test_holds_nothing_per_driver(self):
        params, dim = BlockParams(2, 3), 4
        ledger = DifferenceLedger(params, dim)

        def sizes():
            return {
                name: len(value)
                for name, value in vars(ledger).items()
                if isinstance(value, (list, tuple, dict, set))
            }

        before = sizes()
        rider, *drivers = random_vectors(params, dim, 1001, seed=3)
        for k, vec in enumerate(drivers):
            ledger.record_matches(k, honest_matches(params, dim, rider, vec))
        # 1,000 driver ids later, no container has appeared, and only the
        # accepted pairs grew, one per distinct difference at a position.
        after = sizes()
        assert set(after) == {"_lo", "_hi", "_count", "_accepted", "unique_at"}
        accepted = after.pop("_accepted")
        del before["_accepted"]
        assert after == before
        positions = dim * params.num_blocks
        counts = list(ledger._count.values())
        assert accepted == sum(counts)
        assert counts == [len(seen) for seen in differences(ledger)]
        assert accepted <= positions * (2 * params.base - 1)
        for container in (ledger._lo, ledger._hi, ledger._count, ledger.unique_at):
            assert len(container) == positions
            assert list(container) == list(params.positions(dim))
        assert all(count < 2 * params.base for count in counts)


def _file(ledger, method, driver_id, matches):
    """File ``matches`` whole or one entry per call, and return the fault
    raised, as (type, message)."""
    try:
        if method == "matches":
            ledger.record_matches(driver_id, matches)
        else:
            for pos, payload in matches.items():
                ledger.record_matches(driver_id, {pos: payload})
    except (ValueError, LedgerFault) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def payload_maps(draw, params, dim):
    """Payload maps mixing valid entries with a non-multiple of the weight,
    an out-of-range difference and out-of-range coordinates or blocks."""
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(-1, dim),
                st.integers(-1, params.num_blocks),
                st.integers(-params.base, params.base),
                st.sampled_from([0, 0, 0, 1]),
            ),
            max_size=2 * dim * params.num_blocks,
        )
    )
    matches = {}
    for coord, block_index, d, rest in entries:
        weight = params.base ** max(block_index, 0)
        matches[(coord, block_index)] = d * weight + rest
    return matches


@st.composite
def attack_feeds(draw):
    """``(params, dim, strict, feed)``: honest matches of one rider, from
    few driver ids, so that ids repeat and the latest response must win."""
    params = BlockParams(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dim = draw(st.integers(1, 3))
    strict = draw(st.booleans())
    vector = st.tuples(*[st.integers(0, params.capacity - 1)] * dim)
    rider = draw(vector)
    responses = draw(st.lists(st.tuples(st.integers(0, 4), vector), max_size=12))
    feed = [(k, honest_matches(params, dim, rider, vec)) for k, vec in responses]
    return params, dim, strict, feed


class TestRecordMatchesEqualsRecord:
    """A whole map filed in one call against its entries filed one by one.
    Strict ledgers never read the interval, so only a bad entry faults."""

    @given(st.data())
    def test_same_state_and_faults(self, data):
        params = BlockParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        dim = data.draw(st.integers(1, 3))
        batched = DifferenceLedger(params, dim, strict=True)
        single = DifferenceLedger(params, dim, strict=True)
        for _ in range(data.draw(st.integers(1, 4))):
            driver_id = data.draw(st.integers(0, 2))
            matches = data.draw(payload_maps(params, dim))
            assert _file(batched, "matches", driver_id, matches) == _file(
                single, "entries", driver_id, matches
            )
            assert batched._lo == single._lo
            assert batched._hi == single._hi
            assert batched._count == single._count
            assert differences(batched) == differences(single)

    def test_each_fault_matches(self):
        params = BlockParams(2, 2)
        cases = [
            ({(0, 0): 1, (0, 1): 6}, LedgerFault, "not a multiple of weight 4"),
            ({(0, 0): 1, (0, 1): 16}, LedgerFault, "difference 4 at (0, 1) exceeds"),
            ({(0, 0): 1, (2, 0): 0}, ValueError, "coordinate 2 out of range"),
            ({(0, 0): 1, (0, 2): 0}, ValueError, "block index 2 out of range"),
        ]
        for matches, kind, message in cases:
            ledgers = [DifferenceLedger(params, 2) for _ in range(2)]
            faults = [
                _file(ledger, method, 5, matches)
                for ledger, method in zip(ledgers, ("matches", "entries"))
            ]
            assert faults[0] == faults[1]
            assert faults[0][0] is kind and message in faults[0][1]
            # The entry before the fault was filed by both.
            expected = [{1}] + [set()] * 3
            assert differences(ledgers[0]) == differences(ledgers[1]) == expected


def _fault(call, *args):
    """Call and return the fault raised, as (type, message), or None."""
    try:
        call(*args)
    except (ValueError, LedgerFault) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def repeating_feeds(draw):
    """``(params, dim, strict, feed)``: responses from a few driver vectors
    that repeat whole or with one block changed, from a few driver ids;
    now and then from another rider, or with a payload that is not a
    multiple of its weight or out of range at some position."""
    params = BlockParams(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dim = draw(st.integers(1, 3))
    strict = draw(st.booleans())
    vector = st.tuples(*[st.integers(0, params.capacity - 1)] * dim)
    rider, other = draw(vector), draw(vector)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    feed = []
    for k in range(draw(st.integers(0, 12))):
        driver = list(draw(st.sampled_from(pool)))
        if draw(st.booleans()):
            i = draw(st.integers(0, dim - 1))
            blocks = list(decompose(driver[i], params))
            blocks[draw(st.integers(0, params.num_blocks - 1))] = draw(
                st.integers(0, params.base - 1)
            )
            driver[i] = recompose(blocks, params)
        kind = draw(
            st.sampled_from(
                ["honest"] * 6 + ["other rider", "not a multiple", "out of range"]
            )
        )
        matches = honest_matches(
            params, dim, other if kind == "other rider" else rider, driver
        )
        if kind in ("not a multiple", "out of range"):
            pos = draw(st.sampled_from(sorted(matches)))
            weight = params.weight(pos[1])
            if kind == "not a multiple" and weight > 1:
                matches[pos] += 1
            else:
                matches[pos] = params.base * weight
        feed.append((k % 3, matches))
    return params, dim, strict, feed


class TestWholeResponseSteps:
    """Filing skips what was seen and re-checks only the open positions a
    response changed; the per-entry references in ``oracles`` check and
    file every entry of every response and re-check every open position."""

    @given(repeating_feeds())
    def test_filing_equals_the_reference(self, case):
        # Strict, so that the re-check never faults and filing goes on
        # past a bad entry.
        params, dim, _, feed = case
        ledger = DifferenceLedger(params, dim, strict=True)
        reference = ReferenceLedger(params, dim)
        for driver_id, matches in feed:
            fault = _fault(ledger.record_matches, driver_id, matches)
            assert fault == _fault(reference.file, matches)
            filed = differences(ledger)
            for pos, seen in zip(reference.positions, filed, strict=True):
                assert (ledger._lo[pos], ledger._hi[pos]) == reference.bounds(pos)
                assert seen == set(reference.diffs[pos])
                assert ledger._count[pos] == len(seen)

    @given(repeating_feeds())
    def test_feed_equals_the_reference_on_every_prefix(self, case):
        params, dim, strict, feed = case
        ledger = DifferenceLedger(params, dim, strict)
        reference = ReferenceLedger(params, dim)
        for driver_id, matches in feed:
            fault = _fault(ledger.record_matches, driver_id, matches)
            assert fault == _fault(reference.feed, matches, strict)
            if fault is not None:
                break  # a fault ends the attack
            assert ledger.unique_at == reference.unique_at
            assert ledger.responses == reference.responses


class TestRecoverBlock:
    def test_full_negative_run_pins_the_top_value(self):
        assert recover_block([-3, -2, -1, 0], 2) == (3, 3)

    def test_full_positive_run_pins_zero(self):
        assert recover_block([0, 1, 2, 3], 2) == (0, 0)

    def test_spread_without_full_coverage_still_unique(self):
        assert recover_block([-1, 2], 2) == (1, 1)

    def test_single_zero_difference_leaves_full_range(self):
        assert recover_block([0], 2) == (0, 3)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            recover_block([], 2)

    def test_out_of_range_difference(self):
        with pytest.raises(ValueError):
            recover_block([4], 2)

    def test_range_error_outranks_an_empty_interval(self):
        # [-3, 3] alone leaves no block value; the 4 after it is out of range.
        with pytest.raises(ValueError, match="out of range"):
            recover_block([-3, 3, 4], 2)

    @pytest.mark.parametrize("kind", [list, tuple, iter])
    def test_any_iterable_gives_the_same_answer_and_fault(self, kind):
        assert recover_block(kind([-1, 2]), 2) == (1, 1)
        with pytest.raises(LedgerFault, match=re.escape("differences [-3, 3]")):
            recover_block(kind([-3, 3]), 2)
        with pytest.raises(ValueError, match="at least one"):
            recover_block(kind([]), 2)

    @given(st.data())
    def test_equals_feasibility_scan(self, data):
        bits = data.draw(st.integers(1, 4))
        top = (1 << bits) - 1
        x = data.draw(st.integers(0, top))
        zs = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
        diffs = [z - x for z in zs]
        lo, hi = recover_block(diffs, bits)
        assert feasible_blocks(diffs, bits) == list(range(lo, hi + 1))
        assert lo <= x <= hi

    @given(st.data())
    def test_narrowing_is_monotone(self, data):
        bits = data.draw(st.integers(1, 4))
        top = (1 << bits) - 1
        x = data.draw(st.integers(0, top))
        zs = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=8))
        extra = data.draw(st.integers(0, top))
        lo, hi = recover_block([z - x for z in zs], bits)
        lo2, hi2 = recover_block([z - x for z in zs + [extra]], bits)
        assert lo <= lo2 and hi2 <= hi

    @given(st.data())
    def test_ledger_position_equals_recover_block(self, data):
        params = BlockParams(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))
        top = params.base - 1
        j = data.draw(st.integers(0, params.num_blocks - 1))
        # Arbitrary in-range differences, consistent or not, from few
        # driver ids so that ids repeat.
        feed = data.draw(
            st.lists(st.tuples(st.integers(0, 3), st.integers(-top, top)), max_size=20)
        )
        strict = DifferenceLedger(params, 1, strict=True)
        relaxed = DifferenceLedger(params, 1)
        assert relaxed.interval(0, j) == (0, top)
        assert not strict.is_unique(0, j)
        diffs = []
        for driver_id, d in feed:
            matches = {(0, j): d * params.weight(j)}
            strict.record_matches(driver_id, matches)
            fault = _fault(relaxed.record_matches, driver_id, matches)
            diffs.append(d)
            assert strict.is_unique(0, j) == (len(set(diffs)) == params.base)
            try:
                expected = recover_block(diffs, params.block_bits)
            except LedgerFault:
                for ledger in (strict, relaxed):
                    with pytest.raises(LedgerFault):
                        ledger.interval(0, j)
                continue
            assert fault is None
            assert strict.interval(0, j) == relaxed.interval(0, j) == expected
            assert relaxed.is_unique(0, j) == (expected[0] == expected[1])


class TestRecoverRiderVector:
    def test_single_driver_at_same_spot_reveals_nothing(self):
        params = BlockParams(2, 2)
        ledger = DifferenceLedger(params, 2)
        ledger.record_matches(0, honest_matches(params, 2, (5, 9), (5, 9)))
        vector, candidates = recover_rider_vector(ledger)
        assert vector is None
        assert all(interval == (0, 3) for interval in candidates.values())

    def test_full_coverage_recovers_exactly(self):
        # Drivers at every coordinate value cover all blocks at every
        # position, so recovery must return the exact rider vector.
        params = BlockParams(2, 2)
        rider = (11, 6)
        ledger = DifferenceLedger(params, 2, strict=True)
        for v in range(params.capacity):
            ledger.record_matches(v, honest_matches(params, 2, rider, (v, v)))
        vector, _ = recover_rider_vector(ledger)
        assert vector == rider

    def test_one_bit_blocks_need_both_values(self):
        params = BlockParams(1, 1)
        rider = (1,)
        ledger = DifferenceLedger(params, 1, strict=True)
        ledger.record_matches(0, honest_matches(params, 1, rider, (1,)))
        assert recover_rider_vector(ledger)[0] is None
        ledger.record_matches(1, honest_matches(params, 1, rider, (0,)))
        vector, _ = recover_rider_vector(ledger)
        assert vector == rider

    def test_strict_mode_demands_full_coverage(self):
        params = BlockParams(2, 1)
        # Differences -1 and 2 pin the block to 1 by interval arithmetic,
        # but only two of four values were observed.
        recovered = []
        for strict in (False, True):
            ledger = DifferenceLedger(params, 1, strict)
            ledger.record_matches(0, {(0, 0): -1})
            ledger.record_matches(1, {(0, 0): 2})
            recovered.append(recover_rider_vector(ledger)[0])
        assert recovered == [(1,), None]


class TestRecoverDriverVectors:
    def test_zero_differences_copy_the_rider(self):
        params = BlockParams(2, 2)
        matches = honest_matches(params, 2, (7, 12), (7, 12))
        assert recover_driver_vectors(params, (7, 12), [(4, matches), (6, matches)]) == {
            4: (7, 12),
            6: (7, 12),
        }

    def test_difference_shifts_block(self):
        params = BlockParams(2, 1)
        assert recover_driver_vectors(params, (1,), [(0, {(0, 0): 2})]) == {0: (3,)}

    def test_inconsistent_rider_vector_faults(self):
        params = BlockParams(2, 1)
        with pytest.raises(LedgerFault):
            # 3 + 2 exceeds the block range
            recover_driver_vectors(params, (3,), [(0, {(0, 0): 2})])

    def test_incomplete_driver_faults(self):
        params = BlockParams(2, 2)
        with pytest.raises(LedgerFault):
            recover_driver_vectors(params, (5,), [(0, {(0, 0): 1})])

    def test_fault_names_lowest_driver_then_first_position(self):
        params = BlockParams(2, 1)
        matched = [
            (9, {(0, 0): 3, (1, 0): 0}),  # 1 + 3 leaves the range
            (5, {(0, 0): -2, (1, 0): 3}),  # 1 - 2 leaves the range
            (3, {(0, 0): 0}),
        ]
        with pytest.raises(LedgerFault, match="driver 3 has an incomplete"):
            recover_driver_vectors(params, (1, 1), matched)
        # Fed in another order, still in id order.
        with pytest.raises(LedgerFault, match=r"driver 5 block -1 at \(0, 0\)"):
            recover_driver_vectors(params, (1, 1), matched[:2])
        # A repeated driver's responses complete each other.
        matched.append((3, {(1, 0): 0}))
        with pytest.raises(LedgerFault, match=r"driver 5 block -1 at \(0, 0\)"):
            recover_driver_vectors(params, (1, 1), matched)

    def test_incomplete_row_outranks_an_out_of_range_block(self):
        params = BlockParams(2, 1)
        with pytest.raises(LedgerFault, match="driver 4 has an incomplete"):
            # 1 + 3 leaves the range
            recover_driver_vectors(params, (1, 1), [(4, {(0, 0): 3})])

    def test_later_payload_wins_position_by_position(self):
        params = BlockParams(2, 2)
        matched = [
            (1, {(0, 0): 1, (0, 1): 4}),
            (1, {(0, 1): -4}),
        ]
        # Rider blocks (1, 1): block 0 takes +1 from the first response,
        # block 1 takes -1 from the second.
        assert recover_driver_vectors(params, (5,), matched) == {1: (2,)}

    def test_full_width_differences(self):
        # 8-bit blocks give differences of +-255.
        params = BlockParams(8, 1)
        for rider in (0, 255):
            matched = [
                (k, honest_matches(params, 1, (rider,), (driver,)))
                for k, driver in enumerate((0, 255))
            ]
            assert recover_driver_vectors(params, (rider,), matched) == {
                0: (0,),
                1: (255,),
            }

    def test_random_instances_match_ground_truth(self):
        rng = random.Random(31)
        params = BlockParams(2, 3)
        dim = 3
        for _ in range(20):
            rider = tuple(rng.randrange(params.capacity) for _ in range(dim))
            drivers = {
                k: tuple(rng.randrange(params.capacity) for _ in range(dim))
                for k in range(6)
            }
            matched = [
                (k, honest_matches(params, dim, rider, vec)) for k, vec in drivers.items()
            ]
            assert recover_driver_vectors(params, rider, matched) == drivers

    @given(
        params=st.builds(BlockParams, st.integers(1, 4), st.integers(1, 3)),
        dim=st.integers(2, 3),
        count=st.integers(1, 5),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_maps_out_of_label_order(self, params, dim, count, seed, data):
        # Matching returns label order; any other order takes the lookup
        # per position and must agree with it, faults included.
        rider, *drivers = random_vectors(params, dim, count + 1, seed)
        ordered = [
            (k, honest_matches(params, dim, rider, vec)) for k, vec in enumerate(drivers)
        ]
        permuted = [
            (k, dict(data.draw(st.permutations(list(m.items()))))) for k, m in ordered
        ]
        reversed_ = [(k, dict(reversed(m.items()))) for k, m in ordered]
        expected = recover_driver_vectors(params, rider, ordered)
        assert expected == dict(enumerate(drivers))
        assert recover_driver_vectors(params, rider, permuted) == expected
        assert recover_driver_vectors(params, rider, reversed_) == expected

        k = data.draw(st.integers(0, count - 1))
        items = list(permuted[k][1].items())
        del items[data.draw(st.integers(0, len(items) - 1))]
        permuted[k] = (k, dict(items))
        incomplete = f"driver {k} has an incomplete difference set"
        with pytest.raises(LedgerFault, match=incomplete):
            recover_driver_vectors(params, rider, permuted)

    def test_payload_off_its_weight_faults(self):
        # Blocks 5 = (1, 1); the range check alone would pass (2, 1), which
        # recomposes to 6, while the payloads sum to 8.
        params = BlockParams(2, 2)
        off = re.escape("driver 0 payload 2 at (0, 1) is not a multiple of weight 4")
        with pytest.raises(LedgerFault, match=off):
            recover_driver_vectors(params, (5,), [(0, {(0, 0): 1, (0, 1): 2})])
        # The ledger refuses the same payload.
        with pytest.raises(LedgerFault, match="payload 2 at .0, 1. is not a multiple"):
            DifferenceLedger(params, 1).record_matches(0, {(0, 0): 1, (0, 1): 2})
        # Faults keep their order: the lowest driver first, within it the
        # first position, and a missing position before any.
        matched = [(3, {(0, 0): 1, (0, 1): 9}), (1, {(0, 0): 1, (0, 1): 12})]
        with pytest.raises(LedgerFault, match=r"driver 1 block 4 at \(0, 1\)"):
            recover_driver_vectors(params, (5,), matched)
        with pytest.raises(LedgerFault, match=r"driver 3 payload 9 at \(0, 1\)"):
            recover_driver_vectors(params, (5,), matched[:1])
        with pytest.raises(LedgerFault, match=r"driver 3 block 6 at \(0, 0\)"):
            recover_driver_vectors(params, (5,), [(3, {(0, 0): 5, (0, 1): 2})])
        with pytest.raises(LedgerFault, match="driver 3 has an incomplete"):
            recover_driver_vectors(params, (5,), [(3, {(0, 1): 2})])


@st.composite
def recovered_feeds(draw):
    """``(params, dim, strict, feed)``: one rider's feed of honest maps and
    forged ones, whose payloads are any multiples ``d * w_j`` with ``d`` in
    ``[-top, top]``, some maps out of position order and driver ids
    repeated."""
    params = BlockParams(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    dim = draw(st.integers(1, 2))
    strict = draw(st.booleans())
    top = params.base - 1
    vector = st.tuples(*[st.integers(0, params.capacity - 1)] * dim)
    rider = draw(vector)
    feed = []
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.booleans()):
            matches = honest_matches(params, dim, rider, draw(vector))
        else:
            matches = {
                (i, j): draw(st.integers(-top, top)) * params.weights[j]
                for i, j in params.positions(dim)
            }
        if draw(st.booleans()):
            matches = dict(draw(st.permutations(list(matches.items()))))
        feed.append((draw(st.integers(0, 4)), matches))
    return params, dim, strict, feed


class TestRunAttackSkipsTheProvedCheck:
    """run_attack recovers drivers without the per-block range check of
    recover_driver_vectors, because its ledger proves every block in range."""

    @settings(max_examples=300)  # about one feed in ten recovers its rider
    @given(recovered_feeds(), st.data())
    def test_checked_recovery_agrees_whenever_the_rider_is_recovered(self, feed_args, data):
        params, dim, strict, feed = feed_args
        try:
            report = run_attack(params, dim, feed, strict=strict)
        except LedgerFault:
            return  # the forged maps left no rider block consistent
        if report.rider_vector is None:
            assert report.driver_vectors == {}
            return
        checked = recover_driver_vectors(params, report.rider_vector, feed)
        assert checked == report.driver_vectors
        assert set(checked) == {k for k, _ in feed}
        # A driver that misses a position still faults: its pairs were all
        # filed before, so the rider is recovered as before.
        k, matches = feed[data.draw(st.integers(0, len(feed) - 1))]
        items = list(matches.items())
        del items[data.draw(st.integers(0, len(items) - 1))]
        with pytest.raises(LedgerFault, match="driver 99 has an incomplete difference set"):
            run_attack(params, dim, feed + [(99, dict(items))], strict=strict)

    def test_forged_maps_alone_recover_the_rider_and_drivers(self):
        # Differences -1 and 2 pin every 2-bit block at 1, and 0 and 1
        # complete the four values the strict rule needs.
        params, dim = BlockParams(2, 2), 2
        feed = [
            (k, {(i, j): d * params.weights[j] for i, j in params.positions(dim)})
            for k, d in enumerate((-1, 2, 0, 1))
        ]
        drivers = {0: (0, 0), 1: (15, 15), 2: (5, 5), 3: (10, 10)}
        for strict in (False, True):
            report = run_attack(params, dim, feed, strict=strict)
            assert report.rider_vector == (5, 5)
            assert report.driver_vectors == drivers
            assert recover_driver_vectors(params, (5, 5), feed) == drivers


class TestDeanonymize:
    def test_exact_unique_match(self):
        net = generate_grid_network(3, 3, (1, 10), seed=42)
        table = net.embedding_table()
        assert len(set(table)) == len(table), "seed chosen for unique embeddings"
        for node in range(net.num_nodes):
            assert deanonymize(table[node], embedding_index(table)) == (node, 1)

    def test_tied_embeddings_take_lowest_id(self):
        # A symmetric path: nodes 0 and 2 sit at distance 2 from the only
        # landmark, so they share an embedding.
        net = RoadNetwork(3, [(0, 1, 2), (1, 2, 2)], [[1]])
        table = net.embedding_table()
        assert table[0] == table[2]
        assert deanonymize(table[0], embedding_index(table)) == (0, 2)

    def test_empty_table(self):
        with pytest.raises(LedgerFault):
            deanonymize((1, 2), embedding_index([]))

    def test_vector_of_no_node_faults_and_names_it(self):
        net = generate_grid_network(4, 4, (1, 10), seed=9)
        table = net.embedding_table()
        probe = tuple(c + 1 for c in table[5])
        assert probe not in table
        with pytest.raises(LedgerFault, match=re.escape(str(probe))):
            deanonymize(probe, embedding_index(table))


class TestRunAttack:
    @given(st.data())
    def test_every_prefix_matches_the_reference(self, data):
        params, dim, strict, feed = data.draw(attack_feeds())
        for upto in range(len(feed) + 1):
            report = run_attack(params, dim, feed[:upto], strict=strict)
            expected = reference_attack(params, dim, feed[:upto], strict)
            assert (
                report.unique_at,
                report.candidates,
                report.rider_vector,
                report.driver_vectors,
            ) == expected

    def test_unique_at_counts_and_monotone_recovery(self):
        params = BlockParams(1, 2)
        dim = 2
        rider = (2, 1)
        rng = random.Random(17)
        feed = []
        for k in range(12):
            driver = tuple(rng.randrange(params.capacity) for _ in range(dim))
            feed.append((k, honest_matches(params, dim, rider, driver)))
        recovered_counts = []
        for upto in range(1, len(feed) + 1):
            unique_at = run_attack(params, dim, feed[:upto]).unique_at
            recovered_counts.append(sum(at is not None for at in unique_at.values()))
        assert recovered_counts == sorted(recovered_counts)
        report = run_attack(params, dim, feed)
        for pos, at in report.unique_at.items():
            if at is not None:
                partial = run_attack(params, dim, feed[:at])
                assert partial.candidates[pos][0] == partial.candidates[pos][1]
                if at > 1:
                    earlier = run_attack(params, dim, feed[: at - 1])
                    assert earlier.candidates[pos][0] != earlier.candidates[pos][1]

    def test_recovers_everything_with_enough_drivers(self):
        params = BlockParams(2, 2)
        dim = 3
        rng = random.Random(5)
        rider = tuple(rng.randrange(params.capacity) for _ in range(dim))
        drivers = {
            k: tuple(rng.randrange(params.capacity) for _ in range(dim))
            for k in range(40)
        }
        feed = [
            (k, honest_matches(params, dim, rider, vec)) for k, vec in drivers.items()
        ]
        report = run_attack(params, dim, feed, strict=True)
        assert report.rider_vector is not None
        assert report.rider_vector == rider
        assert report.driver_vectors == drivers
        assert len(report.unique_at) == dim * 2
        assert None not in report.unique_at.values()

    def test_attack_with_embedding_table_names_nodes(self):
        # Random vectors rather than a grid: on grids the rider's blocks
        # rarely reach both ends of their range, so the rider stays unknown.
        params = BlockParams(2, 2)
        dim = 3
        table = random_vectors(params, dim, 40, seed=5)
        rider_node = 5
        feed = [
            (k, honest_matches(params, dim, table[rider_node], vec))
            for k, vec in enumerate(table)
        ]
        report = run_attack(params, dim, feed, index=embedding_index(table))
        assert report.rider_vector == table[rider_node]
        assert table[report.rider_node] == table[rider_node]
        assert len(report.driver_nodes) == len(table)
        for k, (node, ambiguity) in report.driver_nodes.items():
            assert table[node] == table[k]
            assert ambiguity == table.count(table[k])

    def test_one_pass_iterables_give_the_list_report(self):
        # The attack reads its feed for the rider and again for the
        # drivers, so a one-pass iterable must recover the drivers too.
        params, dim = BlockParams(2, 2), 3
        table = random_vectors(params, dim, 40, seed=5)
        ids = list(range(len(table)))
        maps = [honest_matches(params, dim, table[5], vec) for vec in table]
        index = embedding_index(table)
        expected = run_attack(params, dim, list(zip(ids, maps)), index=index)
        assert len(expected.driver_vectors) == len(table)
        feeds = (iter(list(zip(ids, maps))), zip(ids, maps), (p for p in zip(ids, maps)))
        for feed in feeds:
            assert run_attack(params, dim, feed, index=index) == expected


class TestIncrementalAttack:
    """One ledger filed a response at a time and reported on after each."""

    @given(st.data())
    def test_every_prefix_matches_from_scratch(self, data):
        params, dim, strict, feed = data.draw(attack_feeds())
        ledger = DifferenceLedger(params, dim, strict)
        for upto in range(len(feed) + 1):
            if upto:
                ledger.record_matches(*feed[upto - 1])
            # record_matches and is_unique apply the same rule everywhere.
            for pos, at in ledger.unique_at.items():
                assert (at is not None) == ledger.is_unique(*pos)
            expected = reference_attack(params, dim, feed[:upto], strict)
            report = ledger.report()
            rider = (report.unique_at, report.candidates, report.rider_vector)
            assert rider == expected[:3]
            assert report.driver_vectors == {}
            assert ledger.responses == upto

    def test_empty_interval_faults_at_its_position(self):
        params = BlockParams(2, 1)
        ledger = DifferenceLedger(params, 2)
        ledger.record_matches(0, {(0, 0): 2, (1, 0): 0})
        with pytest.raises(LedgerFault, match=re.escape("consistent at (0, 0)")):
            ledger.record_matches(1, {(0, 0): -2, (1, 0): 0})
        # Strict mode never reads the interval; it counts distinct values.
        strict = DifferenceLedger(params, 2, strict=True)
        for driver_id, d in enumerate((2, -2, 1)):
            strict.record_matches(driver_id, {(0, 0): d, (1, 0): 0})
        assert strict.unique_at == {(0, 0): None, (1, 0): None}
        strict.record_matches(3, {(0, 0): 0, (1, 0): 0})
        assert strict.unique_at == {(0, 0): 4, (1, 0): None}

    def test_rider_missing_from_the_table_faults(self):
        params = BlockParams(2, 2)
        dim = 3
        rider, *drivers = random_vectors(params, dim, 41, seed=5)
        table = [vec for vec in drivers if vec != rider]
        ledger = DifferenceLedger(params, dim)
        for k, vec in enumerate(drivers):
            ledger.record_matches(k, honest_matches(params, dim, rider, vec))
        assert ledger.report().rider_vector == rider
        with pytest.raises(LedgerFault, match="embeds no node"):
            ledger.report(embedding_index(table))


class TestSoundness:
    @given(st.data())
    def test_true_block_always_inside_reported_interval(self, data):
        bits = data.draw(st.integers(1, 3))
        blocks = data.draw(st.integers(1, 3))
        params = BlockParams(bits, blocks)
        dim = data.draw(st.integers(1, 3))
        rider = tuple(
            data.draw(st.integers(0, params.capacity - 1)) for _ in range(dim)
        )
        num_drivers = data.draw(st.integers(1, 6))
        ledger = DifferenceLedger(params, dim)
        for k in range(num_drivers):
            driver = tuple(
                data.draw(st.integers(0, params.capacity - 1)) for _ in range(dim)
            )
            ledger.record_matches(k, honest_matches(params, dim, rider, driver))
        _, candidates = recover_rider_vector(ledger)
        for i in range(dim):
            true_blocks = decompose(rider[i], params)
            for j in range(params.num_blocks):
                lo, hi = candidates[(i, j)]
                assert lo <= true_blocks[j] <= hi
