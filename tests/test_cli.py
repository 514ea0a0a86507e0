import json

import pytest

from ridecrypt import cli
from ridecrypt.cli import main
from ridecrypt.errors import LedgerFault, PrfCollisionError, ProtocolFault
from ridecrypt.protocol import ServiceProvider
from ridecrypt.roadnet import generate_grid_network, save_network


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
        [["--weights", "-1", "5"], ["--l", "4", "--m", "16"]],
    )
    def test_invalid_weights_or_block_count_exits_2(self, args, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "protocol_only", "--out", str(tmp_path / "r.jsonl"), *args])
        assert excinfo.value.code == 2

    def test_invalid_trials_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "table1", "--trials", "0"])
        assert excinfo.value.code == 2


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
        assert read_records(out)[-1]["network_nodes"] == 6

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
