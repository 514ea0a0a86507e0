import dataclasses
import json

import pytest

from ridecrypt import cli, crypto, harness
from ridecrypt.cli import build_parser, main
from ridecrypt.crypto import MAX_DIM, CollisionWatchdog
from ridecrypt.errors import LedgerFault, PrfCollisionError, ProtocolFault
from ridecrypt.harness import ExperimentConfig
from ridecrypt.protocol import ServiceProvider
from ridecrypt.roadnet import RoadNetwork, generate_grid_network, save_network


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "table1", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_mode_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_invalid_block_width_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "table1", "--l", "7"])
        assert excinfo.value.code == 2
        assert "1..4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["--weights", "-1", "5"], ["--l", "4", "--m", "16"], ["--n", "65537"]],
    )
    def test_invalid_weights_or_block_count_exits_2(self, args, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "protocol_only", "--out", str(tmp_path / "r.jsonl"), *args])
        assert excinfo.value.code == 2

    def test_invalid_trials_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "table1", "--trials", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("mode", ["table1", "end_to_end"])
    def test_oversized_workers_exits_2_before_any_thread(
        self, mode, monkeypatch, capsys
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", mode, "--workers", str(harness.MAX_WORKERS + 1)])
        assert excinfo.value.code == 2
        assert f"1..{harness.MAX_WORKERS}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["table1", "protocol_only"])
    @pytest.mark.parametrize("flag", ["--strict-lemma", "--merge-requests"])
    def test_attack_flags_outside_end_to_end_exit_2(self, mode, flag, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", mode, flag, "--out", str(tmp_path / "r.jsonl")])
        assert excinfo.value.code == 2

    def test_every_flag_fills_a_config_field(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        dests = {action.dest for action in build_parser()._actions}
        assert dests - {"help", "out"} <= fields
        # Defaults live in ExperimentConfig alone: an omitted flag sets nothing.
        assert vars(build_parser().parse_args(["--mode", "table1"])) == {"mode": "table1"}


class TestTable1Mode:
    def test_run_writes_report_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["--mode", "table1", "--l", "2", "--trials", "2000", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        records = read_records(out)
        assert records[0]["record"] == "config"
        rows = [r for r in records if r["record"] == "table1_row"]
        assert len(rows) == 1 and rows[0]["l"] == 2
        stdout = capsys.readouterr().out
        assert "l=2" in stdout and "expected 9" in stdout

    def test_same_argv_twice_is_byte_identical(self, tmp_path):
        argv = ["--mode", "table1", "--l", "1", "--trials", "3000", "--seed", "5"]
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_documented_invocation_lands_in_tolerance(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = main(
            ["--mode", "table1", "--l", "2", "--trials", "100000", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        row = next(r for r in read_records(out) if r["record"] == "table1_row")
        assert 8.25 <= row["mean"] <= 8.42

    def test_all_widths_when_l_omitted(self, tmp_path):
        out = tmp_path / "t.jsonl"
        assert main(["--mode", "table1", "--trials", "300", "--out", str(out)]) == 0
        rows = [r for r in read_records(out) if r["record"] == "table1_row"]
        assert [r["l"] for r in rows] == [1, 2, 3, 4]


class TestSessionModes:
    SMALL = [
        "--rows", "3", "--cols", "3", "--n", "4", "--l", "1",
        "--trials", "2", "--drivers", "6", "--seed", "3",
    ]

    def test_end_to_end_smoke(self, tmp_path, capsys):
        out = tmp_path / "e.jsonl"
        code = main(["--mode", "end_to_end", *self.SMALL, "--out", str(out)])
        assert code == 0
        records = read_records(out)
        aggregate = records[-1]
        assert aggregate["record"] == "aggregate"
        assert aggregate["selection_matches"] == 2
        assert "recovery:" in capsys.readouterr().out

    def test_protocol_only_smoke(self, tmp_path):
        out = tmp_path / "p.jsonl"
        assert main(["--mode", "protocol_only", *self.SMALL, "--out", str(out)]) == 0
        aggregate = read_records(out)[-1]
        assert "sessions_fully_recovered" not in aggregate

    def test_workers_flag_keeps_report_stable(self, tmp_path):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["--mode", "end_to_end", *self.SMALL]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--workers", "3", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_strict_lemma_flag_recorded(self, tmp_path):
        out = tmp_path / "s.jsonl"
        argv = ["--mode", "end_to_end", *self.SMALL, "--strict-lemma", "--out", str(out)]
        assert main(argv) == 0
        assert read_records(out)[0]["strict_lemma"] is True

    def test_network_file(self, tmp_path):
        net = generate_grid_network(3, 2, (1, 5), seed=1, landmarks=4)
        net_path = tmp_path / "net.txt"
        save_network(net, net_path)
        out = tmp_path / "n.jsonl"
        code = main(
            ["--mode", "protocol_only", "--network-file", str(net_path),
             "--l", "2", "--trials", "2", "--drivers", "2", "--out", str(out)]
        )
        assert code == 0
        records = read_records(out)
        assert records[-1]["network_nodes"] == 6
        # The file fixes the network: no grid option is recorded.
        assert all(records[0][key] is None for key in ("n", "rows", "cols", "weight_range"))

    @pytest.mark.parametrize("flags", [["--n", "5", "--rows", "40"], ["--weights", "1", "9"]])
    def test_grid_flags_with_network_file_exit_2(self, flags, tmp_path, capsys):
        net_path = tmp_path / "net.txt"
        save_network(generate_grid_network(3, 3, (1, 5), seed=1, landmarks=2), net_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["--mode", "protocol_only", "--network-file", str(net_path),
                 "--trials", "1", "--drivers", "2", "--out", str(tmp_path / "x.jsonl"),
                 *flags]
            )
        assert excinfo.value.code == 2
        assert "network_file does not take" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_summary_says_what_was_certified(self, tmp_path, monkeypatch, capsys):
        local = CollisionWatchdog()
        monkeypatch.setattr(crypto, "watchdog", local)
        out = tmp_path / "e.jsonl"
        assert main(["--mode", "end_to_end", *self.SMALL, "--out", str(out)]) == 0
        aggregate = read_records(out)[-1]
        # The rider's 4*n*m*2^l inputs cover every other party's, per session.
        per_session = 4 * aggregate["n"] * aggregate["m"] * 2 ** aggregate["l"]
        certified = aggregate["sessions"] * per_session
        assert local.tracked == certified
        stdout = capsys.readouterr().out
        assert f"PRF certificate: {certified} outputs certified, 0 unchecked\n" in stdout

    def test_summary_counts_what_a_full_certificate_left_unchecked(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(CollisionWatchdog, "CAPACITY", 50)
        local = CollisionWatchdog()
        monkeypatch.setattr(crypto, "watchdog", local)
        out = tmp_path / "p.jsonl"
        assert main(["--mode", "protocol_only", *self.SMALL, "--out", str(out)]) == 0
        assert local.untracked > 0
        assert (
            f"PRF certificate: 50 outputs certified, {local.untracked} unchecked"
            in capsys.readouterr().out
        )

    def test_table1_prints_no_certificate(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        argv = ["--mode", "table1", "--l", "1", "--trials", "100", "--out", str(out)]
        assert main(argv) == 0
        assert "PRF certificate" not in capsys.readouterr().out

    @pytest.mark.parametrize("fault", [ProtocolFault, PrfCollisionError, LedgerFault])
    def test_typed_fault_is_runtime_error(self, fault, tmp_path, monkeypatch, capsys):
        def raise_fault(config):
            raise fault("injected")

        monkeypatch.setattr(cli, "run_experiment", raise_fault)
        code = main(
            ["--mode", "end_to_end", *self.SMALL, "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: injected")
        assert "mode end_to_end" in err and "seed 3" in err
        assert not (tmp_path / "x.jsonl").exists()

    def test_session_fault_names_session(self, tmp_path, monkeypatch, capsys):
        honest = ServiceProvider.match_response

        def faulty(sp, request, response):
            if sp.context.time_slot == 2:
                raise PrfCollisionError("injected")
            return honest(sp, request, response)

        monkeypatch.setattr(ServiceProvider, "match_response", faulty)
        code = main(
            ["--mode", "end_to_end", *self.SMALL, "--trials", "4",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: session 2: injected")
        assert "mode end_to_end" in err and "seed 3" in err

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(
            ["--mode", "table1", "--l", "1", "--trials", "100", "--seed", "4",
             "--out", str(blocker / "r.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "mode table1" in err and "seed 4" in err
        assert blocker.read_text() == ""

    def test_too_many_landmark_subsets_fail_before_any_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("swept a network whose embedding no message can carry")

        monkeypatch.setattr(RoadNetwork, "distances_from", refuse)
        net_path = tmp_path / "wide.txt"
        net_path.write_text("2 1\n0 1 1\n" + "0\n" * (MAX_DIM + 1))
        code = main(
            ["--mode", "protocol_only", "--network-file", str(net_path),
             "--l", "1", "--m", "1", "--trials", "1", "--drivers", "1",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{MAX_DIM + 1} landmark subsets" in err and str(MAX_DIM) in err

    def test_missing_network_file_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["--mode", "protocol_only", "--network-file", str(tmp_path / "nope.txt"),
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDefaultOutput:
    def test_env_var_directs_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIDECRYPT_REPORT_DIR", str(tmp_path / "reports"))
        code = main(["--mode", "table1", "--l", "1", "--trials", "100"])
        assert code == 0
        assert (tmp_path / "reports" / "table1_report.jsonl").exists()

    def test_end_to_end_with_all_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIDECRYPT_REPORT_DIR", str(tmp_path))
        assert main(["--mode", "end_to_end"]) == 0
        records = read_records(tmp_path / "end_to_end_report.jsonl")
        aggregate = records[-1]
        assert {"sessions_fully_recovered", "sessions_rider_exact", "sessions_sound"} \
            <= set(aggregate)
        assert aggregate["sessions_sound"] == aggregate["sessions"]
