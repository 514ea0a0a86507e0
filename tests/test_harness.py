import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridecrypt.errors import CapacityError, LedgerFault, PrfCollisionError, ProtocolFault
from ridecrypt.harness import (
    EXPECTED_DRIVERS,
    ExperimentConfig,
    blocks_needed,
    config_record,
    default_report_path,
    derive_seed,
    dump_records,
    expected_coverage_draws,
    harmonic,
    run_experiment,
    run_sessions,
    run_synthetic_sessions,
    run_table1,
    simulate_coverage_draws,
)
from ridecrypt.protocol import ServiceProvider
from ridecrypt.roadnet import generate_grid_network, save_network


class TestSeeding:
    def test_stable_and_path_sensitive(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)

    def test_result_is_unsigned_64_bit(self):
        value = derive_seed(123456789, "session", 7, "driver-node", 3)
        assert 0 <= value < 2**64


class TestAnalytics:
    def test_harmonic_exact(self):
        assert harmonic(1) == 1
        assert harmonic(4) == Fraction(25, 12)

    def test_expected_coverage_draws(self):
        assert expected_coverage_draws(1) == 3
        assert expected_coverage_draws(2) == Fraction(25, 3)
        assert expected_coverage_draws(3) == Fraction(761, 35)

    def test_ceilings_match_expected_driver_counts(self):
        for bits, expected in EXPECTED_DRIVERS.items():
            assert math.ceil(expected_coverage_draws(bits)) == expected

    @pytest.mark.parametrize(
        "max_value,bits,count",
        [(0, 2, 1), (3, 2, 1), (4, 2, 2), (162, 2, 4), (255, 2, 4), (256, 2, 5), (1, 1, 1)],
    )
    def test_blocks_needed(self, max_value, bits, count):
        assert blocks_needed(max_value, bits) == count
        assert (1 << (count * bits)) - 1 >= max_value

    @given(st.integers(0, 2**62 - 1), st.integers(1, 8))
    def test_blocks_needed_covers_and_is_minimal(self, max_value, bits):
        count = blocks_needed(max_value, bits)
        assert count >= 1
        assert (1 << (count * bits)) - 1 >= max_value
        if count > 1:
            assert (1 << ((count - 1) * bits)) - 1 < max_value


class TestCoverageSimulation:
    def test_deterministic(self):
        a = simulate_coverage_draws(2, 5000, seed=3)
        b = simulate_coverage_draws(2, 5000, seed=3)
        assert (a == b).all()

    def test_spans_chunks(self):
        counts = simulate_coverage_draws(1, 20_000, seed=4)
        assert len(counts) == 20_000
        assert counts.min() >= 2  # both values cannot appear in fewer draws

    def test_worker_count_does_not_change_results(self):
        serial = simulate_coverage_draws(3, 40_000, seed=5, workers=1)
        parallel = simulate_coverage_draws(3, 40_000, seed=5, workers=4)
        assert (serial == parallel).all()

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            simulate_coverage_draws(2, 0, seed=1)


class TestTable1:
    def test_row_fields_and_rough_mean(self):
        row = run_table1(2, trials=20_000, seed=1)
        assert row.expected_drivers == 9
        assert row.analytic_ceiling == 9
        assert row.analytic == pytest.approx(25 / 3)
        assert row.mean == pytest.approx(25 / 3, rel=0.05)
        assert row.stderr > 0

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            run_table1(5, trials=10, seed=1)

    def test_record_shape(self):
        record = run_table1(1, trials=100, seed=2).to_record()
        assert record["record"] == "table1_row"
        assert set(record) >= {"l", "trials", "mean", "analytic", "expected_drivers"}


class TestConfigValidation:
    def test_mode_required(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="bogus").validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_bits": 7},
            {"num_blocks": 0},
            {"dim": 0},
            {"rows": 0},
            {"weight_range": (5, 2)},
            {"weight_range": (-1, 5)},
            {"block_bits": 4, "num_blocks": 16},
            {"num_drivers": 0},
            {"trials": 0},
            {"workers": 0},
        ],
    )
    def test_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="end_to_end", **kwargs).validate()

    def test_defaults_resolve(self):
        config = ExperimentConfig(mode="end_to_end", block_bits=2)
        assert config.resolved_trials == 25
        assert config.resolved_drivers == math.ceil(4 * 25 / 3)
        assert ExperimentConfig(mode="table1").resolved_trials == 100_000


def small_config(**overrides):
    base = dict(
        mode="protocol_only",
        block_bits=2,
        dim=4,
        rows=3,
        cols=3,
        weight_range=(1, 6),
        num_drivers=3,
        trials=4,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSessionRuns:
    def test_protocol_only_matches_plaintext(self):
        records, aggregate = run_sessions(small_config())
        assert aggregate["sessions"] == 4
        assert aggregate["selection_matches"] == 4
        assert aggregate["distances_match"] == 4
        assert all(r["record"] == "session" for r in records)
        assert "blocks_recovered" not in records[0]

    def test_end_to_end_produces_recovery_fields(self):
        records, aggregate = run_sessions(
            small_config(mode="end_to_end", num_drivers=30, trials=3)
        )
        assert aggregate["sessions_sound"] == 3
        for record in records:
            assert record["intervals_sound"]
            assert record["blocks_total"] == 4 * aggregate["m"]
            if record["rider_vector_recovered"]:
                assert record["rider_vector_exact"]
                assert record["driver_vectors_exact"] == 30

    def test_rerun_is_byte_identical(self):
        config = small_config(mode="end_to_end", num_drivers=8, trials=3)
        first = dump_records(run_experiment(config))
        second = dump_records(run_experiment(config))
        assert first == second

    def test_workers_do_not_change_records(self):
        base = small_config(mode="end_to_end", num_drivers=8, trials=4)
        parallel = small_config(mode="end_to_end", num_drivers=8, trials=4, workers=3)
        assert dump_records(run_experiment(base)) == dump_records(
            run_experiment(parallel)
        )

    def test_recovery_monotone_in_driver_count(self):
        """With coupled per-driver seeds, adding responders can only narrow
        intervals, so per-session recovered-block counts never decrease."""
        sweeps = {}
        for drivers in (1, 2, 4, 8, 16):
            records, _ = run_sessions(
                small_config(mode="end_to_end", num_drivers=drivers, trials=3)
            )
            sweeps[drivers] = [r["blocks_recovered"] for r in records]
        counts = list(sweeps.values())
        for before, after in zip(counts, counts[1:]):
            assert all(b <= a for b, a in zip(before, after))

    def test_driver_at_riders_node_reveals_nothing(self):
        # On a one-node network the single responder necessarily stands at
        # the rider: every difference is zero, so no block becomes unique.
        config = small_config(
            mode="end_to_end", rows=1, cols=1, num_drivers=1, trials=2
        )
        records, _ = run_sessions(config)
        for record in records:
            assert record["driver_nodes"] == [record["rider_node"]]
            assert record["blocks_recovered"] == 0
            assert not record["rider_vector_recovered"]

    def test_explicit_num_blocks_too_small(self):
        with pytest.raises(CapacityError):
            run_sessions(small_config(num_blocks=1, weight_range=(9, 9)))

    def test_network_file_round(self, tmp_path):
        net = generate_grid_network(3, 3, (1, 4), seed=2, landmarks=4)
        path = tmp_path / "net.txt"
        save_network(net, path)
        records, aggregate = run_sessions(
            small_config(network_file=str(path), trials=2)
        )
        assert aggregate["network_nodes"] == 9
        assert aggregate["selection_matches"] == 2

    def test_merge_requests_accumulates(self):
        config = small_config(
            mode="end_to_end", num_drivers=2, trials=6, merge_requests=True
        )
        records, _ = run_sessions(config)
        counts = [r["blocks_recovered"] for r in records]
        assert counts == sorted(counts)
        assert all(
            r["rider_node"] == records[0]["rider_node"] for r in records
        )

    @pytest.mark.parametrize("fault", [ProtocolFault, PrfCollisionError, LedgerFault])
    def test_session_fault_keeps_its_type(self, fault, monkeypatch):
        honest = ServiceProvider.match_response

        def faulty(sp, request, response):
            if sp.context.time_slot == 1:
                raise fault("injected")
            return honest(sp, request, response)

        monkeypatch.setattr(ServiceProvider, "match_response", faulty)
        with pytest.raises(fault, match="^session 1: injected$") as excinfo:
            run_sessions(small_config())
        assert type(excinfo.value) is fault


class TestSyntheticSessions:
    def test_sound_and_exact_when_complete(self):
        records, aggregate = run_synthetic_sessions(
            block_bits=2,
            num_blocks=2,
            dim=3,
            num_drivers=34,
            sessions=6,
            seed=11,
            strict=True,
        )
        assert aggregate["sessions_sound"] == 6
        for record in records:
            if record["rider_vector_recovered"]:
                assert record["rider_vector_exact"]
                assert record["all_drivers_exact"]

    def test_single_driver_rarely_recovers(self):
        records, aggregate = run_synthetic_sessions(
            block_bits=2, num_blocks=2, dim=2, num_drivers=1, sessions=4, seed=3
        )
        assert aggregate["sessions_fully_recovered"] == 0

    @pytest.mark.parametrize("fault", [ProtocolFault, PrfCollisionError, LedgerFault])
    def test_session_fault_keeps_its_type(self, fault, monkeypatch):
        honest = ServiceProvider.match_response

        def faulty(sp, request, response):
            if sp.context.time_slot == 1:
                raise fault("injected")
            return honest(sp, request, response)

        monkeypatch.setattr(ServiceProvider, "match_response", faulty)
        with pytest.raises(fault, match="^session 1: injected$") as excinfo:
            run_synthetic_sessions(
                block_bits=1, num_blocks=1, dim=1, num_drivers=2, sessions=3
            )
        assert type(excinfo.value) is fault


class TestReports:
    def test_dump_records_is_sorted_compact_jsonl(self):
        text = dump_records([{"b": 1, "a": [1, 2]}, {"z": None}])
        lines = text.splitlines()
        assert lines[0] == '{"a":[1,2],"b":1}'
        assert json.loads(lines[1]) == {"z": None}
        assert text.endswith("\n")

    def test_config_record_roundtrips_through_json(self):
        record = config_record(small_config())
        assert json.loads(dump_records([record]))["mode"] == "protocol_only"

    def test_default_report_path_env_override(self, monkeypatch):
        monkeypatch.setenv("RIDECRYPT_REPORT_DIR", "/tmp/ridecrypt-out")
        assert default_report_path("table1") == "/tmp/ridecrypt-out/table1_report.jsonl"
        monkeypatch.delenv("RIDECRYPT_REPORT_DIR")
        assert default_report_path("table1") == "./table1_report.jsonl"

    def test_run_experiment_table1_all_widths(self):
        records = run_experiment(
            ExperimentConfig(mode="table1", trials=200, seed=1)
        )
        rows = [r for r in records if r["record"] == "table1_row"]
        assert [r["l"] for r in rows] == [1, 2, 3, 4]
        assert records[0]["record"] == "config"
