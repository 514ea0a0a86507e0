import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridecrypt import harness
from ridecrypt.errors import CapacityError, LedgerFault, PrfCollisionError, ProtocolFault
from ridecrypt.harness import (
    EXPECTED_DRIVERS,
    MAX_WORKERS,
    REPORT_KEYS,
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
from ridecrypt.attack import DifferenceLedger, RecoveryReport
from ridecrypt.codec import BlockParams
from ridecrypt.crypto import issue_system_keys
from ridecrypt.protocol import RideContext, ServiceProvider
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

    @pytest.mark.parametrize(
        "max_value,bits,message",
        [(-1, 2, "max_value must be non-negative"), (5, 0, "block_bits"), (5, -1, "block_bits")],
    )
    def test_blocks_needed_rejects(self, max_value, bits, message):
        with pytest.raises(ValueError, match=message):
            blocks_needed(max_value, bits)

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
        assert a == b

    def test_spans_chunks(self):
        counts = simulate_coverage_draws(1, 20_000, seed=4)
        assert len(counts) == 20_000
        assert min(counts) >= 2  # both values cannot appear in fewer draws

    def test_worker_count_does_not_change_results(self):
        # Three chunks; --workers is range-checked, and every run is serial.
        serial = ExperimentConfig(mode="table1", block_bits=3, trials=40_000, seed=5)
        parallel = dataclasses.replace(serial, workers=4)
        assert dump_records(run_experiment(serial)) == dump_records(run_experiment(parallel))

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            simulate_coverage_draws(2, 0, seed=1)

    @pytest.mark.parametrize("bits", [0, 6])
    def test_rejects_widths_beyond_the_mask(self, bits):
        # The harness runs only the widths EXPECTED_DRIVERS lists.
        with pytest.raises(ValueError):
            simulate_coverage_draws(bits, 10, seed=1)


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
        assert set(record) == {
            "record", "schema", "l", "trials", "mean", "stderr", "analytic",
            "analytic_ceiling", "expected_drivers",
        }


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
            {"dim": 65537},
            {"mode": "table1", "num_drivers": 3},
            {"mode": "table1", "num_blocks": 2},
            {"mode": "table1", "network_file": "city.txt"},
            {"mode": "table1", "dim": 8},
            {"mode": "table1", "rows": 6},
            {"mode": "table1", "cols": 6},
            {"mode": "table1", "weight_range": (1, 9)},
            {"network_file": "city.txt", "dim": 8},
            {"network_file": "city.txt", "rows": 6},
            {"network_file": "city.txt", "cols": 6},
            {"network_file": "city.txt", "weight_range": (1, 9)},
        ],
    )
    def test_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**{"mode": "end_to_end", **kwargs}).validate()

    def test_checked_when_built(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(mode="end_to_end", workers=0)

    @pytest.mark.parametrize(
        "rows,cols,weight_range",
        [(0, 6, (1, 9)), (6, 0, (1, 9)), (6, 6, (5, 2)), (6, 6, (-1, 5))],
    )
    def test_grid_rule_is_the_generators(self, rows, cols, weight_range):
        # A config that builds is a grid the generator can build: both
        # reject the same arguments with the same message.
        with pytest.raises(ValueError) as generated:
            generate_grid_network(rows, cols, weight_range)
        with pytest.raises(ValueError) as configured:
            ExperimentConfig(
                mode="end_to_end", rows=rows, cols=cols, weight_range=weight_range
            )
        assert str(configured.value) == str(generated.value)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"rows": 2.5, "cols": 3}, "rows 2.5 is not an integer"),
            ({"rows": 2, "cols": "3"}, "cols '3' is not an integer"),
            ({"weight_range": (1, 9.5)}, "weight_range bound 9.5 is not an integer"),
            ({"weight_range": ("1", 9)}, "weight_range bound '1' is not an integer"),
        ],
    )
    def test_non_integer_grid_input_names_its_field(self, grid, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(mode="protocol_only", trials=1, **grid)
        grid = {"rows": 3, "cols": 3, "weight_range": (1, 9), **grid}
        with pytest.raises(ValueError, match=message):
            generate_grid_network(grid["rows"], grid["cols"], grid["weight_range"])

    def test_workers_bounded_by_a_fixed_constant(self):
        # Building a config starts no thread; only its bound is checked.
        assert ExperimentConfig(mode="end_to_end", workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(ValueError, match=f"1..{MAX_WORKERS}"):
            ExperimentConfig(mode="end_to_end", workers=MAX_WORKERS + 1)

    def test_frozen(self):
        config = ExperimentConfig(mode="end_to_end")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 0

    def test_defaults_resolve(self):
        config = ExperimentConfig(mode="end_to_end", block_bits=2)
        assert config.resolved_trials == 25
        assert config.resolved_drivers == math.ceil(4 * 25 / 3)
        assert ExperimentConfig(mode="table1").resolved_trials == 100_000
        assert ExperimentConfig(mode="protocol_only").weight_range == (1, 9)
        assert ExperimentConfig(mode="table1").weight_range is None


#: Config overrides of each session mode: its attack step is none,
#: run_attack per session, or one ledger across sessions.
SESSION_MODES = {
    "protocol_only": {},
    "end_to_end": dict(mode="end_to_end"),
    "merged": dict(mode="end_to_end", merge_requests=True),
}

FAULTS = [ProtocolFault, PrfCollisionError, LedgerFault]


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
        serial_records = dump_records(run_experiment(base))

        assert serial_records == dump_records(run_experiment(parallel))

    def test_one_seed_per_session_whatever_the_driver_count(self, monkeypatch):
        # Only the rider draws randomness, so the seeds a round derives do
        # not grow with its drivers.
        calls = []

        def counting(*args):
            calls.append(args)
            return derive_seed(*args)

        monkeypatch.setattr(harness, "derive_seed", counting)
        ctx = RideContext(1, 0, BlockParams(2, 2), 2)
        keys = issue_system_keys(5)
        counts = []
        for drivers in (1, 6):
            calls.clear()
            harness._session_matches(
                ctx, keys, (3, 9), [(k, 15 - k) for k in range(drivers)], 1, ("s", 0)
            )
            counts.append(len(calls))
        assert counts[0] == counts[1] == 1

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
        # The file replaces the grid, so the grid options stay unset.
        grid = dict.fromkeys(("dim", "rows", "cols", "weight_range"))
        records, aggregate = run_sessions(
            small_config(network_file=str(path), trials=2, **grid)
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

    @pytest.mark.parametrize(
        "mode, fault",
        [(mode, fault) for mode in SESSION_MODES for fault in FAULTS],
        # small_config runs protocol_only, so its ids name the fault alone.
        ids=[
            fault.__name__ if mode == "protocol_only" else f"{mode}-{fault.__name__}"
            for mode in SESSION_MODES
            for fault in FAULTS
        ],
    )
    def test_session_fault_keeps_its_type(self, mode, fault, monkeypatch):
        honest = ServiceProvider.match_response

        def faulty(sp, request, response):
            if sp.context.time_slot == 1:
                raise fault("injected")
            return honest(sp, request, response)

        monkeypatch.setattr(ServiceProvider, "match_response", faulty)
        with pytest.raises(fault, match="^session 1: injected$") as excinfo:
            run_sessions(small_config(**SESSION_MODES[mode]))
        assert type(excinfo.value) is fault

    @pytest.mark.parametrize("mode", ["end_to_end", "merged"])
    def test_attack_step_fault_names_its_session(self, mode, monkeypatch):
        # Three drivers a session: the fourth response filed is session 1's
        # first, whether each session builds its ledger or all share one.
        honest = DifferenceLedger.record_matches
        filed = []

        def faulty(ledger, driver_id, matches):
            filed.append(driver_id)
            if len(filed) == 4:
                raise LedgerFault("injected")
            return honest(ledger, driver_id, matches)

        monkeypatch.setattr(DifferenceLedger, "record_matches", faulty)
        with pytest.raises(LedgerFault, match="^session 1: injected$"):
            run_sessions(small_config(**SESSION_MODES[mode]))


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

    @pytest.mark.parametrize("fault", FAULTS)
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


class TestAttackStep:
    """The session loop runs whatever attack step a run chose. A step
    defined here, standing in for ``run_attack``, goes through both
    location sources with the loop unchanged."""

    # One position, pinned after 7 responses: fields no real session of
    # these runs reports.
    REPORT = RecoveryReport(candidates={}, unique_at={(0, 0): 7}, rider_vector=None)

    RUNS = {
        "network": lambda: run_sessions(small_config(mode="end_to_end", trials=3)),
        "synthetic": lambda: run_synthetic_sessions(
            block_bits=1, num_blocks=2, dim=2, num_drivers=3, sessions=3
        ),
    }

    @pytest.mark.parametrize("source", RUNS)
    def test_a_new_step_sees_each_session_once(self, source, monkeypatch):
        produced, fed = [], []
        session_matches = harness._session_matches

        def recording(*args):
            produced.append(session_matches(*args))
            return produced[-1]

        def step(params, dim, matched, strict=False, index=None):
            # Called once per session, on the matches that session made.
            fed.append((len(produced), matched is produced[-1], len(matched)))
            return self.REPORT

        monkeypatch.setattr(harness, "_session_matches", recording)
        monkeypatch.setattr(harness, "run_attack", step)
        records, aggregate = self.RUNS[source]()
        assert aggregate["sessions"] == 3
        assert fed == [(1, True, 3), (2, True, 3), (3, True, 3)]
        # The loop empties each session's matches when the next one starts.
        assert produced == [[], [], []]
        for record in records:
            assert record["blocks_total"] == record["blocks_recovered"] == 1
            assert record["rider_vector_recovered"] is False
            assert record["driver_vectors_exact"] is None
        if source == "network":
            assert all(r["unique_at"] == {"0,0": 7} for r in records)


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

    def test_config_record_keys_derive_from_fields(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"workers"}
        assert set(config_record(small_config(workers=3))) == {
            REPORT_KEYS.get(name, name) for name in fields
        } | {"record", "schema", "prf"}

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
