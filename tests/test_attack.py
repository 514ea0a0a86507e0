import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import feasible_blocks, reference_attack
from ridecrypt.attack import (
    DifferenceLedger,
    IncrementalAttack,
    deanonymize,
    embedding_index,
    recover_block,
    recover_driver_vectors,
    recover_rider_vector,
    run_attack,
)
from ridecrypt.codec import BlockParams, decompose, weighted_difference
from ridecrypt.errors import LedgerFault
from ridecrypt.harness import blocks_needed
from ridecrypt.roadnet import RoadNetwork, generate_grid_network, rne_distance


def rng_nodes(net, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(net.num_nodes) for _ in range(count)]


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


class TestLedgerRecord:
    def test_normalizes_by_weight(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        ledger.record(0, 1, driver_id=0, payload=8)
        assert ledger.driver_diffs(0) == {(0, 1): 2}

    def test_zero_payload(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        ledger.record(0, 0, driver_id=0, payload=0)
        assert ledger.driver_diffs(0) == {(0, 0): 0}

    def test_non_divisible_payload_faults(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(LedgerFault):
            ledger.record(0, 1, driver_id=0, payload=6)

    def test_out_of_range_difference_faults(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(LedgerFault):
            ledger.record(0, 0, driver_id=0, payload=4)

    def test_unknown_coordinate(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(ValueError):
            ledger.record(1, 0, driver_id=0, payload=0)

    def test_unknown_block_index(self):
        ledger = DifferenceLedger(BlockParams(2, 2), 1)
        with pytest.raises(ValueError):
            ledger.record(0, 2, driver_id=0, payload=0)
        with pytest.raises(ValueError):
            ledger.interval(0, 2)

    def test_repeated_driver_keeps_latest_row_entry(self):
        ledger = DifferenceLedger(BlockParams(2, 1), 1)
        ledger.record(0, 0, driver_id=4, payload=1)
        ledger.record(0, 0, driver_id=2, payload=-1)
        ledger.record(0, 0, driver_id=4, payload=3)
        # The position keeps every difference: 1, -1 and 3 leave no block
        # value for 2-bit blocks.
        with pytest.raises(LedgerFault):
            ledger.interval(0, 0)
        assert ledger.driver_diffs(4) == {(0, 0): 3}
        assert ledger.drivers() == [2, 4]


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
        ledger = DifferenceLedger(params, 1)
        assert ledger.interval(0, j) == (0, top)
        assert not ledger.is_unique(0, j, strict=True)
        diffs = []
        for driver_id, d in feed:
            ledger.record(0, j, driver_id, d * params.weight(j))
            diffs.append(d)
            assert ledger.is_unique(0, j, strict=True) == (
                len(set(diffs)) == params.base
            )
            try:
                expected = recover_block(diffs, params.block_bits)
            except LedgerFault:
                with pytest.raises(LedgerFault):
                    ledger.interval(0, j)
                continue
            assert ledger.interval(0, j) == expected
            assert ledger.is_unique(0, j) == (expected[0] == expected[1])


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
        ledger = DifferenceLedger(params, 2)
        for v in range(params.capacity):
            ledger.record_matches(v, honest_matches(params, 2, rider, (v, v)))
        vector, _ = recover_rider_vector(ledger, strict=True)
        assert vector == rider

    def test_one_bit_blocks_need_both_values(self):
        params = BlockParams(1, 1)
        rider = (1,)
        ledger = DifferenceLedger(params, 1)
        ledger.record_matches(0, honest_matches(params, 1, rider, (1,)))
        assert recover_rider_vector(ledger, strict=True)[0] is None
        ledger.record_matches(1, honest_matches(params, 1, rider, (0,)))
        vector, _ = recover_rider_vector(ledger, strict=True)
        assert vector == rider

    def test_strict_mode_demands_full_coverage(self):
        params = BlockParams(2, 1)
        ledger = DifferenceLedger(params, 1)
        # Differences -1 and 2 pin the block to 1 by interval arithmetic,
        # but only two of four values were observed.
        ledger.record(0, 0, driver_id=0, payload=-1)
        ledger.record(0, 0, driver_id=1, payload=2)
        relaxed, _ = recover_rider_vector(ledger, strict=False)
        strict, _ = recover_rider_vector(ledger, strict=True)
        assert relaxed == (1,)
        assert strict is None


class TestRecoverDriverVectors:
    def test_zero_differences_copy_the_rider(self):
        params = BlockParams(2, 2)
        ledger = DifferenceLedger(params, 2)
        ledger.record_matches(4, honest_matches(params, 2, (7, 12), (7, 12)))
        assert recover_driver_vectors(ledger, (7, 12)) == {4: (7, 12)}

    def test_difference_shifts_block(self):
        params = BlockParams(2, 1)
        ledger = DifferenceLedger(params, 1)
        ledger.record(0, 0, driver_id=0, payload=2)
        assert recover_driver_vectors(ledger, (1,)) == {0: (3,)}

    def test_inconsistent_rider_vector_faults(self):
        params = BlockParams(2, 1)
        ledger = DifferenceLedger(params, 1)
        ledger.record(0, 0, driver_id=0, payload=2)
        with pytest.raises(LedgerFault):
            recover_driver_vectors(ledger, (3,))  # 3 + 2 exceeds the block range

    def test_incomplete_driver_faults(self):
        params = BlockParams(2, 2)
        ledger = DifferenceLedger(params, 1)
        ledger.record(0, 0, driver_id=0, payload=1)
        with pytest.raises(LedgerFault):
            recover_driver_vectors(ledger, (5,))

    def test_fault_names_lowest_driver_then_first_position(self):
        params = BlockParams(2, 1)
        ledger = DifferenceLedger(params, 2)
        ledger.record(0, 0, driver_id=9, payload=3)  # 1 + 3 leaves the range
        ledger.record(1, 0, driver_id=9, payload=0)
        ledger.record(0, 0, driver_id=5, payload=-2)  # 1 - 2 leaves the range
        ledger.record(1, 0, driver_id=5, payload=3)
        ledger.record(0, 0, driver_id=3, payload=0)
        with pytest.raises(LedgerFault, match="driver 3 has an incomplete"):
            recover_driver_vectors(ledger, (1, 1))
        ledger.record(1, 0, driver_id=3, payload=0)
        with pytest.raises(LedgerFault, match=r"driver 5 block -1 at \(0, 0\)"):
            recover_driver_vectors(ledger, (1, 1))

    def test_full_width_differences(self):
        # 8-bit blocks give differences of +-255, beyond an int8 row.
        params = BlockParams(8, 1)
        for rider in (0, 255):
            ledger = DifferenceLedger(params, 1)
            for k, driver in enumerate((0, 255)):
                ledger.record_matches(k, honest_matches(params, 1, (rider,), (driver,)))
            assert recover_driver_vectors(ledger, (rider,)) == {0: (0,), 1: (255,)}

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
            ledger = DifferenceLedger(params, dim)
            for k, vec in drivers.items():
                ledger.record_matches(k, honest_matches(params, dim, rider, vec))
            assert recover_driver_vectors(ledger, rider) == drivers


class TestDeanonymize:
    def test_exact_unique_match(self):
        net = generate_grid_network(3, 3, (1, 10), seed=42)
        table = net.embedding_table()
        assert len(set(table)) == len(table), "seed chosen for unique embeddings"
        for node in range(net.num_nodes):
            assert deanonymize(table[node], table) == (node, 1)

    def test_tied_embeddings_take_lowest_id(self):
        # A symmetric path: nodes 0 and 2 sit at distance 2 from the only
        # landmark, so they share an embedding.
        net = RoadNetwork(3, [(0, 1, 2), (1, 2, 2)], [[1]])
        table = net.embedding_table()
        assert table[0] == table[2]
        assert deanonymize(table[0], table) == (0, 2)

    def test_nearest_fallback_minimizes_distance(self):
        net = generate_grid_network(4, 4, (1, 10), seed=9)
        table = net.embedding_table()
        probe = tuple(c + 1 for c in table[5])
        node, _ = deanonymize(probe, table)
        best = min(rne_distance(probe, vec) for vec in table)
        assert rne_distance(probe, table[node]) == best

    def test_empty_table(self):
        with pytest.raises(ValueError):
            deanonymize((1, 2), [])
        with pytest.raises(ValueError):
            deanonymize((1, 2), [], {})

    def test_index_lookup_equals_scan(self):
        for net in (
            RoadNetwork(3, [(0, 1, 2), (1, 2, 2)], [[1]]),
            generate_grid_network(4, 4, (1, 3), seed=9, landmarks=2),
        ):
            table = net.embedding_table()
            index = embedding_index(table)
            probes = set(table) | {tuple(c + 1 for c in vec) for vec in table}
            for probe in sorted(probes):
                assert deanonymize(probe, table, index) == deanonymize(probe, table)


class TestRunAttack:
    def test_unique_at_counts_and_monotone_recovery(self):
        params = BlockParams(1, 2)
        dim = 2
        rider = (2, 1)
        rng = random.Random(17)
        feed = []
        for k in range(12):
            driver = tuple(rng.randrange(params.capacity) for _ in range(dim))
            feed.append((k, honest_matches(params, dim, rider, driver)))
        recovered_counts = [
            run_attack(params, dim, feed[:upto]).blocks_recovered
            for upto in range(1, len(feed) + 1)
        ]
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
        assert report.blocks_recovered == report.blocks_total == dim * 2

    def test_attack_with_embedding_table_names_nodes(self):
        net = generate_grid_network(4, 4, (1, 5), seed=3, landmarks=6)
        table = net.embedding_table()
        params = BlockParams(2, blocks_needed(net.diameter(), 2))
        rider_node = 5
        feed = [
            (k, honest_matches(params, net.dim, table[rider_node], table[node]))
            for k, node in enumerate(rng_nodes(net, 40, seed=8))
        ]
        report = run_attack(params, net.dim, feed, embedding_table=table)
        if report.rider_vector is not None:
            assert report.rider_vector == table[rider_node]
            assert report.rider_node is not None
            assert table[report.rider_node] == table[rider_node]


class TestIncrementalAttack:
    @given(st.data())
    def test_every_prefix_matches_from_scratch(self, data):
        params = BlockParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        dim = data.draw(st.integers(1, 3))
        strict = data.draw(st.booleans())
        vector = st.tuples(*[st.integers(0, params.capacity - 1)] * dim)
        rider = data.draw(vector)
        # Few driver ids, so ids repeat and the latest response must win.
        responses = data.draw(
            st.lists(st.tuples(st.integers(0, 4), vector), max_size=12)
        )
        feed = [(k, honest_matches(params, dim, rider, vec)) for k, vec in responses]

        attack = IncrementalAttack(params, dim, strict)
        for upto in range(len(feed) + 1):
            if upto:
                attack.feed(*feed[upto - 1])
            expected = reference_attack(params, dim, feed[:upto], strict)
            for report in (
                attack.report(),
                run_attack(params, dim, feed[:upto], strict=strict),
            ):
                assert (
                    report.unique_at,
                    report.candidates,
                    report.rider_vector,
                    report.driver_vectors,
                ) == expected
                assert report.blocks_recovered == sum(
                    at is not None for at in expected[0].values()
                )


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
