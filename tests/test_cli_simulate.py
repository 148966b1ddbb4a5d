"""Tests for the ``simulate`` CLI command."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.workloads import Trace, TraceInfo, save_npz


class TestSimulate:
    def test_generated_workload(self, capsys):
        code = main(
            ["simulate", "--scheme", "ulc", "--levels", "50", "50",
             "--workload", "zipf", "--refs", "5000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulation result" in out
        assert "T_ave (ms)" in out

    def test_three_level_default(self, capsys):
        code = main(
            ["simulate", "--scheme", "unilru", "--levels", "20", "20", "20",
             "--workload", "tpcc1", "--refs", "4000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "B2 demotion rate" in out

    def test_text_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("".join(f"{i % 7}\n" for i in range(200)))
        code = main(
            ["simulate", "--scheme", "indlru", "--levels", "4", "4",
             "--trace", str(path), "--warmup", "0"]
        )
        assert code == 0
        assert "total hit rate" in capsys.readouterr().out

    def test_npz_trace_multi_client(self, tmp_path, capsys):
        trace = Trace(
            list(range(50)) * 4,
            clients=[i % 2 for i in range(200)],
            info=TraceInfo(name="mc"),
        )
        path = tmp_path / "trace.npz"
        save_npz(trace, path)
        code = main(
            ["simulate", "--scheme", "ulc", "--levels", "8", "32",
             "--trace", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 client(s)" in out

    def test_four_levels_custom_costs(self, capsys):
        code = main(
            ["simulate", "--scheme", "indlru",
             "--levels", "10", "10", "10", "10",
             "--workload", "random", "--refs", "3000"]
        )
        assert code == 0
        assert "L4 hit rate" in capsys.readouterr().out

    def test_classify_generated(self, capsys):
        code = main(["classify", "--workload", "tpcc1", "--refs", "8000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pattern" in out
        assert "reuse_fraction" in out

    def test_classify_trace_file(self, tmp_path, capsys):
        path = tmp_path / "loop.txt"
        path.write_text("".join(f"{i % 30}\n" for i in range(3000)))
        code = main(["classify", "--trace", str(path)])
        assert code == 0
        assert "looping" in capsys.readouterr().out

    def test_unknown_scheme_reports_error(self, capsys):
        code = main(
            ["simulate", "--scheme", "wishful", "--levels", "4", "4",
             "--workload", "zipf", "--refs", "1000"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(
            ["simulate", "--scheme", "ulc", "--levels", "4", "4",
             "--trace", str(path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "T_ave" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: no references to measure")
        assert "empty" in err[0]

    def test_warmup_covering_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("".join(f"{i % 7}\n" for i in range(50)))
        code = main(
            ["simulate", "--scheme", "ulc", "--levels", "4", "4",
             "--trace", str(path), "--warmup", "1.0"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "T_ave" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert "warm-up fraction 1.0 covers all 50 references" in err[0]

    @pytest.mark.parametrize("suffix", [".csv", ".txt"])
    def test_non_utf8_trace_exits_two(self, tmp_path, capsys, suffix):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(b"\xff\xfe1\x002\x00\n")
        code = main(
            ["simulate", "--scheme", "ulc", "--levels", "4", "4",
             "--trace", str(path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "T_ave" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot read trace")

    @pytest.mark.parametrize("refs", ["-5", "0"])
    def test_non_positive_refs_exits_two(self, capsys, refs):
        code = main(
            ["simulate", "--scheme", "ulc", "--levels", "4", "4",
             "--workload", "zipf", "--refs", refs]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "T_ave" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0] == f"error: --refs must be at least 1, got {refs}"

    def test_batch_size_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "--scheme", "ulc", "--levels", "4", "4",
                 "--workload", "zipf", "--refs", "1000", "--batch-size", "8"]
            )
        assert excinfo.value.code == 2
        assert "--batch-size" in capsys.readouterr().err
