"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible with ``pytest -s`` or ``-v``). Tolerances are fixed here, not
tuned elsewhere.
"""

import math
import random
import time

import numpy as np
import pytest

from oracles import feasible_blocks, floyd_warshall
from ridecrypt.attack import recover_block
from ridecrypt.cli import main as cli_main
from ridecrypt.codec import BlockParams, decompose, recompose
from ridecrypt.crypto import issue_system_keys, watchdog
from ridecrypt.harness import (
    EXPECTED_DRIVERS,
    ExperimentConfig,
    expected_coverage_draws,
    run_sessions,
    run_synthetic_sessions,
    run_table1,
)
from ridecrypt.protocol import (
    RideContext,
    RiderBlockGroup,
    driver_encrypt,
    rider_encrypt,
    sp_match_block,
)
from ridecrypt.roadnet import generate_grid_network, rne_distance

SEED = 20_240_817


def check(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_expected_driver_counts():
    """Monte Carlo mean within 1% of the analytic coupon-collector value for
    every supported block width; ceilings equal the published counts."""
    started = time.perf_counter()
    reference = {1: 3.0, 2: 8.333, 3: 21.743, 4: 54.092}
    worst_rel = 0.0
    for bits in (1, 2, 3, 4):
        row = run_table1(bits, trials=100_000, seed=SEED)
        assert abs(row.analytic - reference[bits]) < 5e-4 * reference[bits]
        rel = abs(row.mean - row.analytic) / row.analytic
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.01, f"l={bits}: mean {row.mean} vs analytic {row.analytic}"
        assert row.analytic_ceiling == EXPECTED_DRIVERS[bits] == row.expected_drivers
    elapsed = time.perf_counter() - started
    check(
        "criterion 1 (driver-count table)",
        worst_rel <= 0.01 and elapsed < 10.0,
        f"worst relative error {worst_rel:.4%}, ceilings {EXPECTED_DRIVERS}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_protocol_oracle_equivalence():
    """Across >=1000 sessions on grids up to 10x10 and widths {1, 2, 4}, the
    encrypted distance equals the plaintext embedding distance and the
    selected driver equals the plaintext argmin, every single time."""
    grids = [(3, 3), (5, 4), (6, 6), (8, 5), (10, 10)]
    sessions_per_config = 67
    total = matched_distances = matched_selection = 0
    config_index = 0
    for bits in (1, 2, 4):
        for rows, cols in grids:
            config = ExperimentConfig(
                mode="protocol_only",
                block_bits=bits,
                dim=8,
                rows=rows,
                cols=cols,
                weight_range=(1, 9),
                num_drivers=config_index % 6 + 1,
                trials=sessions_per_config,
                seed=SEED + config_index,
            )
            config_index += 1
            _, aggregate = run_sessions(config)
            total += aggregate["sessions"]
            matched_distances += aggregate["distances_match"]
            matched_selection += aggregate["selection_matches"]
    check(
        "criterion 2 (oracle equivalence)",
        total >= 1000 and matched_distances == total and matched_selection == total,
        f"{total} sessions, {matched_distances} distance matches, "
        f"{matched_selection} selection matches",
    )


def test_criterion_3_attack_completeness():
    """With four times the expected responder count and uniform blocks, the
    strict-mode attack fully recovers >=99% of sessions; recovery is exact
    in every completed session and intervals are sound in all of them."""
    cases = [(1, 40), (2, 80), (4, 180)]  # (block width, sessions)
    total = complete_and_exact = 0
    sound = completed_exactly = completed = 0
    for bits, sessions in cases:
        drivers = math.ceil(4 * expected_coverage_draws(bits))
        records, _ = run_synthetic_sessions(
            block_bits=bits,
            num_blocks=2,
            dim=4,
            num_drivers=drivers,
            sessions=sessions,
            seed=SEED + bits,
            strict=True,
        )
        for record in records:
            total += 1
            sound += record["intervals_sound"]
            if record["rider_vector_recovered"]:
                completed += 1
                if record["rider_vector_exact"] and record["all_drivers_exact"]:
                    completed_exactly += 1
                    complete_and_exact += 1
    assert sound == total, "an interval excluded the true block"
    assert completed_exactly == completed, "a completed session disagreed with truth"
    rate = complete_and_exact / total
    check(
        "criterion 3 (attack completeness)",
        total >= 200 and rate >= 0.99,
        f"{complete_and_exact}/{total} sessions bit-exact ({rate:.2%}), "
        f"soundness {sound}/{total}, completed sessions all exact",
    )


def test_criterion_4_block_recovery_properties():
    """Exhaustive over widths <=4, every block value, every set of observed
    values: the true block lies in the interval, full coverage collapses it
    to -min(diffs), and adding observations never widens it."""
    started = time.perf_counter()

    # Widths 1..3: every subset, checked against the naive feasibility scan,
    # including one-step monotonicity for every possible extra observation.
    for bits in (1, 2, 3):
        k = 1 << bits
        early_unique_without_coverage = 0
        for x in range(k):
            for mask in range(1, 1 << k):
                zs = [z for z in range(k) if mask >> z & 1]
                diffs = [z - x for z in zs]
                lo, hi = recover_block(diffs, bits)
                assert feasible_blocks(diffs, bits) == list(range(lo, hi + 1))
                assert lo <= x <= hi
                if len(zs) == k:
                    assert lo == hi == -min(diffs) == x
                if max(diffs) - min(diffs) == k - 1:
                    assert lo == hi  # point whenever the spread is maximal
                if lo == hi and len(set(diffs)) < k:
                    early_unique_without_coverage += 1
                for extra in range(k):
                    lo2, hi2 = recover_block(diffs + [extra - x], bits)
                    assert lo <= lo2 <= hi2 <= hi
        if bits >= 2:
            # Interval uniqueness strictly contains the full-coverage rule.
            assert early_unique_without_coverage > 0

    # One width-4 witness of the same strict containment; the exhaustive
    # equality against the oracle below covers the general statement.
    assert recover_block([-1, 14], 4) == (1, 1)

    # Width 4: still exhaustive (16 values x 65535 subsets). The oracle is a
    # vectorized feasibility scan; monotonicity is then exhaustive over all
    # (subset, added value) pairs via the verified per-subset intervals.
    k = 16
    masks = np.arange(1, 1 << k, dtype=np.int64)
    zs_by_mask = [()] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        zs_by_mask[mask] = zs_by_mask[mask ^ low] + (low.bit_length() - 1,)
    for x in range(k):
        los = np.empty(masks.size, dtype=np.int64)
        his = np.empty(masks.size, dtype=np.int64)
        for idx in range(masks.size):
            lo, hi = recover_block([z - x for z in zs_by_mask[idx + 1]], 4)
            los[idx] = lo
            his[idx] = hi

        # Independent oracle: candidate x' is feasible iff the subset avoids
        # every z that would push x' + (z - x) outside [0, 15].
        feasible = np.empty((masks.size, k), dtype=bool)
        for candidate in range(k):
            violating = 0
            for z in range(k):
                if not 0 <= candidate + z - x <= k - 1:
                    violating |= 1 << z
            feasible[:, candidate] = (masks & violating) == 0
        oracle_lo = feasible.argmax(axis=1)
        oracle_hi = k - 1 - feasible[:, ::-1].argmax(axis=1)
        assert (feasible.sum(axis=1) == oracle_hi - oracle_lo + 1).all()
        assert (los == oracle_lo).all() and (his == oracle_hi).all()
        assert ((oracle_lo <= x) & (x <= oracle_hi)).all()

        # Full coverage pins the exact value.
        assert los[-1] == his[-1] == x

        # Adding any single observation never widens any subset's interval.
        for z in range(k):
            grown = (masks | (1 << z)) - 1
            assert (los[grown] >= los).all()
            assert (his[grown] <= his).all()

    elapsed = time.perf_counter() - started
    check(
        "criterion 4 (block recovery properties)",
        elapsed < 5.0,
        f"exhaustive over widths 1..4, {elapsed:.1f}s",
    )


def test_criterion_5_match_iff_equal_block():
    """Exhaustive over widths <=4 and all (candidate, driver block) pairs:
    exactly the candidate equal to the driver's block matches; the global
    PRF watchdog saw no collision."""
    keys = issue_system_keys(SEED)
    rng = random.Random(SEED)
    pairs = 0
    for bits in (1, 2, 3, 4):
        ctx = RideContext(33, 44, BlockParams(bits, 1), 1)
        for rider_block in range(1 << bits):
            request = rider_encrypt((rider_block,), keys, ctx, rng)
            group = request.groups[0]
            for driver_block in range(1 << bits):
                response = driver_encrypt(0, (driver_block,), keys, ctx)
                entry = response.entries[0]
                hits = []
                for candidate_entry in group.entries:
                    single = RiderBlockGroup(
                        group.coord, group.block_index, group.nonce, (candidate_entry,)
                    )
                    payload = sp_match_block(single, entry)
                    if payload is not None:
                        hits.append(payload)
                assert len(hits) == 1, "exactly one candidate must match"
                # The payload identifies which candidate fired: q = payload + block.
                assert hits[0] + rider_block == driver_block
                pairs += 1
    assert watchdog.enabled
    assert watchdog.CAPACITY == 10_000_000
    assert watchdog.evaluations <= watchdog.CAPACITY
    check(
        "criterion 5 (match-iff-equal-block)",
        watchdog.collisions == 0,
        f"{pairs} (candidate, block) pairs exhaustive, "
        f"{watchdog.evaluations} PRF evaluations, 0 collisions",
    )


def test_criterion_6_codec_and_embedding_invariants():
    """Round-trip the block codec on 10^4 random values per parameter set;
    on every graph up to 36 nodes, Dijkstra agrees with all-pairs relaxation
    and the embedding never overestimates the road distance."""
    rng = random.Random(SEED)
    parameter_sets = [
        BlockParams(1, 8),
        BlockParams(2, 4),
        BlockParams(2, 8),
        BlockParams(3, 4),
        BlockParams(4, 2),
        BlockParams(4, 8),
    ]
    for params in parameter_sets:
        for _ in range(10_000):
            value = rng.randrange(params.capacity)
            assert recompose(decompose(value, params), params) == value

    pair_checks = 0
    for rows, cols in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (6, 6)]:
        for seed in (1, 2):
            net = generate_grid_network(rows, cols, (1, 9), seed=SEED + seed)
            oracle = floyd_warshall(net)
            table = net.embedding_table()
            for u in range(net.num_nodes):
                dijkstra_row = net.distances_from([u])
                for v in range(net.num_nodes):
                    assert dijkstra_row[v] == oracle[u][v]
                    assert rne_distance(table[u], table[v]) <= oracle[u][v]
                    pair_checks += 1
    check(
        "criterion 6 (codec and embedding invariants)",
        True,
        f"6 codec parameter sets x 10^4 values, {pair_checks} node pairs "
        f"on graphs up to 36 nodes",
    )


def test_criterion_7_deterministic_reports(tmp_path):
    """Identical (config, seed) gives byte-identical machine-readable
    reports, rerun or parallel."""
    table_argv = ["--mode", "table1", "--l", "3", "--trials", "20000", "--seed", "9"]
    paths = [tmp_path / name for name in ("t1.jsonl", "t2.jsonl")]
    for path in paths:
        assert cli_main(table_argv + ["--out", str(path)]) == 0
    table_stable = paths[0].read_bytes() == paths[1].read_bytes()

    e2e_argv = [
        "--mode", "end_to_end", "--l", "2", "--rows", "4", "--cols", "4",
        "--n", "6", "--trials", "5", "--drivers", "10", "--seed", "13",
    ]
    outs = [tmp_path / name for name in ("e1.jsonl", "e2.jsonl", "e3.jsonl")]
    assert cli_main(e2e_argv + ["--out", str(outs[0])]) == 0
    assert cli_main(e2e_argv + ["--out", str(outs[1])]) == 0
    assert cli_main(e2e_argv + ["--workers", "4", "--out", str(outs[2])]) == 0
    e2e_rerun_stable = outs[0].read_bytes() == outs[1].read_bytes()
    e2e_parallel_stable = outs[0].read_bytes() == outs[2].read_bytes()

    check(
        "criterion 7 (deterministic reports)",
        table_stable and e2e_rerun_stable and e2e_parallel_stable,
        f"table1 rerun identical: {table_stable}, sessions rerun identical: "
        f"{e2e_rerun_stable}, serial == parallel: {e2e_parallel_stable}",
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
