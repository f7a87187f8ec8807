import hashlib
import json
import os
import re
import threading

import numpy as np
import pytest

from rankci import bootstrap
from rankci.bootstrap import BootstrapConfig, zhang_simultaneous
from rankci.cli import IngestError, _run_methods, ingest_estimates, main
from rankci.core import KNOWN_METHODS, CenterSample
from rankci.mcquantile import make_mc_pool, studentized_range_quantile
from rankci.seqtukey import sequential_tukey
from rankci.simharness import _TAG_BOOT, _child_seed


@pytest.fixture
def estimates_file(tmp_path):
    path = tmp_path / "centers.csv"
    path.write_text(
        "id,estimate,std_error\n"
        "west,10.0,1.0\n"
        "east,0.0,1.0\n"
        "north,20.0,1.0\n"
    )
    return str(path)


class TestIngest:
    def test_well_formed(self, estimates_file):
        sample = ingest_estimates(estimates_file)
        assert sample.n == 3
        # sorted ascending internally
        assert sample.ids == ("east", "west", "north")
        assert sample.y.tolist() == [0.0, 10.0, 20.0]

    def test_round_trip_to_input_order(self, estimates_file):
        sample = ingest_estimates(estimates_file)
        assert sample.to_input_order(sample.ids) == ["west", "east", "north"]
        assert sample.to_input_order(sample.y.tolist()) == [10.0, 0.0, 20.0]

    def test_tab_delimited_autodetected(self, tmp_path):
        path = tmp_path / "centers.tsv"
        path.write_text("id\testimate\tstd_error\na\t1.0\t0.5\nb\t2.0\t0.5\n")
        sample = ingest_estimates(str(path))
        assert sample.n == 2

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("region,id,estimate,std_error\nx,a,1.0,0.5\ny,b,2.0,0.5\n")
        assert ingest_estimates(str(path)).n == 2

    def test_zero_sigma_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,estimate,std_error\na,1.0,1.0\nb,2.0,0.0\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_estimates(str(path))

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,estimate,std_error\na,1.0,1.0\nb,oops,1.0\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_estimates(str(path))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,estimate\na,1.0\n")
        with pytest.raises(IngestError, match="std_error"):
            ingest_estimates(str(path))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,estimate,std_error\na,1.0,1.0\na,2.0,1.0\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_estimates(str(path))

    def test_utf8_bom_header(self, tmp_path, capsys):
        # spreadsheet exports prepend a byte-order mark to the first column name
        path = tmp_path / "excel.csv"
        path.write_bytes("id,estimate,std_error\nlow,0.0,1.0\nhigh,10.0,1.0\n".encode("utf-8-sig"))
        assert ingest_estimates(str(path)).ids == ("low", "high")
        rc = main(["rank", "--input", str(path), "--method", "tukey",
                   "--mc-samples", "5000", "--seed", "7"])
        assert rc == 0
        assert "low" in capsys.readouterr().out

    @pytest.mark.parametrize("name, text", [
        ("quoted.csv", 'id,estimate,std_error\n"x, inc",1.0,0.5\ny,2.0,0.5\n'),
        ("quoted.tsv", 'id\testimate\tstd_error\n"x, inc"\t1.0\t0.5\ny\t2.0\t0.5\n'),
    ], ids=["csv", "tsv"])
    def test_quoted_id_with_comma(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert ingest_estimates(str(path)).ids == ("x, inc", "y")
        out_file = tmp_path / "res.json"
        rc = main(["rank", "--input", str(path), "--method", "tukey", "--mc-samples", "2000",
                   "--out", "json", "--out-file", str(out_file)])
        assert rc == 0
        centers = json.loads(out_file.read_text())["centers"]
        assert [c["id"] for c in centers] == ["x, inc", "y"]

    def test_not_utf8_names_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,estimate,std_error\nZürich,1.0,0.5\nb,2.0,0.5\n".encode("latin-1"))
        with pytest.raises(IngestError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
            ingest_estimates(str(path))
        assert main(["rank", "--input", str(path), "--mc-samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}:") and err.count("\n") == 1

    def test_required_column_named_twice(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("id,estimate,std_error,estimate\na,1.0,0.5,9.0\nb,2.0,0.5,8.0\n")
        with pytest.raises(IngestError, match="column 'estimate' is named more than once"):
            ingest_estimates(str(path))
        assert main(["rank", "--input", str(path), "--mc-samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'estimate'" in err and err.count("\n") == 1

    def test_cell_past_the_header_refused(self, tmp_path, capsys):
        # an unquoted comma splits an id; its second half must not be dropped unseen
        path = tmp_path / "split.csv"
        path.write_text("estimate,std_error,id\n1.0,0.5,x, inc\n2.0,0.5,y\n")
        with pytest.raises(IngestError, match="row 1: expected 3 columns, got 4"):
            ingest_estimates(str(path))
        assert main(["rank", "--input", str(path), "--mc-samples", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: row 1: expected 3 columns, got 4\n"

    def test_semicolon_header_named(self, tmp_path, capsys):
        # spreadsheets in decimal-comma locales write semicolons; the reason must say so
        path = tmp_path / "semi.csv"
        path.write_text("id;estimate;std_error\na;1,5;0,2\nb;2,5;0,2\n")
        assert main(["rank", "--input", str(path), "--mc-samples", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: the header looks semicolon-delimited; "
                                "use comma or tab\n")

    @pytest.mark.parametrize("se", ["1e-170", "1e200"])
    def test_sigma_whose_square_is_not_normal_names_row(self, tmp_path, capsys, se):
        # with sigma^2 = 0 for a and b the parent printed q=inf, ranked all three
        # centers [1, 3] and exited 0
        path = tmp_path / "edge.csv"
        path.write_text(f"id,estimate,std_error\nc,3,1\na,1,{se}\nb,1.0000000001,{se}\n")
        assert main(["rank", "--input", str(path), "--method", "seqtukey", "--trace",
                     "--mc-samples", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: row 2: std_error must lie in "
                                "[1.4917e-154, 9.4808e+153], so that its square and a sum "
                                "of two squares are normal floats\n")

    def test_trailing_empty_cells_accepted(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("estimate,std_error,id\n1.0,0.5,x,\n2.0,0.5,y, ,\n")
        assert ingest_estimates(str(path)).ids == ("x", "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_estimates(str(tmp_path / "nope.csv"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            ingest_estimates(str(path))


class TestCmdRank:
    def test_two_center_table(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("id,estimate,std_error\nlow,0.0,1.0\nhigh,10.0,1.0\n")
        rc = main(["rank", "--input", str(path), "--method", "tukey",
                   "--mc-samples", "100000", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        # clear separation: ranks pinned to singletons, input order preserved
        lines = [ln for ln in out.splitlines() if ln.startswith(("low", "high"))]
        assert lines[0].split()[0] == "low"
        assert lines[0].split()[-2:] == ["1", "1"]
        assert lines[1].split()[-2:] == ["2", "2"]

    def test_method_all_emits_nested_intervals(self, estimates_file, tmp_path, capsys):
        out_file = tmp_path / "res.json"
        rc = main(["rank", "--input", estimates_file, "--method", "all",
                   "--mc-samples", "5000", "--boot-samples", "1000",
                   "--seed", "3", "--out", "json", "--out-file", str(out_file)])
        assert rc == 0
        data = json.loads(out_file.read_text())
        tuk = {d["id"]: (d["lower"], d["upper"]) for d in data["results"]["tukey"]["intervals"]}
        seq = {d["id"]: (d["lower"], d["upper"]) for d in data["results"]["seqtukey"]["intervals"]}
        for ident in tuk:
            assert tuk[ident][0] <= seq[ident][0] and seq[ident][1] <= tuk[ident][1]
        assert set(data["results"]) == {"tukey", "seqtukey", "zhang"}
        assert data["manifest"]["seed"] == 3
        assert "timestamp" not in data["manifest"]

    def test_fixed_seed_byte_identical_outputs(self, estimates_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["rank", "--input", estimates_file, "--method", "all",
                "--mc-samples", "5000", "--boot-samples", "1000", "--seed", "11",
                "--out", "json"]
        assert main(args + ["--out-file", str(a)]) == 0
        assert main(args + ["--out-file", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tsv_output_and_plot_data(self, estimates_file, tmp_path, capsys):
        out_file = tmp_path / "res.tsv"
        plot_file = tmp_path / "plot.tsv"
        rc = main(["rank", "--input", estimates_file, "--method", "seqtukey",
                   "--mc-samples", "5000", "--seed", "3",
                   "--out", "tsv", "--out-file", str(out_file),
                   "--plot-data", str(plot_file)])
        assert rc == 0
        tsv = out_file.read_text().splitlines()
        assert any(ln.startswith("# seed\t3") for ln in tsv)
        assert not any(ln.startswith("# timestamp") for ln in tsv)
        header_idx = next(i for i, ln in enumerate(tsv) if not ln.startswith("#"))
        assert tsv[header_idx].split("\t") == [
            "id", "estimate", "std_error", "rank", "method", "lower", "upper"
        ]
        assert len(tsv) - header_idx - 1 == 3  # one row per center
        plot = plot_file.read_text().splitlines()
        assert plot[0].split("\t") == [
            "position", "id", "estimate", "std_error", "method", "lower", "upper"
        ]
        assert len(plot) == 4

    def test_trace_flag(self, estimates_file, capsys):
        rc = main(["rank", "--input", estimates_file, "--method", "seqtukey",
                   "--mc-samples", "5000", "--seed", "3", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sequential trace" in out
        assert "iter 1: q=" in out

    def test_rankability_line_with_midlevel(self, estimates_file, capsys):
        rc = main(["rank", "--input", estimates_file, "--method", "tukey",
                   "--mc-samples", "5000", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rankability:" in out
        assert "point estimate at level 0.5" in out

    def test_out_json_requires_out_file(self, estimates_file, capsys):
        rc = main(["rank", "--input", estimates_file, "--out", "json",
                   "--mc-samples", "5000"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rank", "--input", "unread.csv", "--method", "all", "--out", "json"],
        ["rank", "--input", "unread.csv", "--out", "tsv"],
        ["simulate", "--scenario", "paper2", "--out", "json"],
        ["simulate", "--scenario", "paper2", "--out", "tsv"],
        # an --out-file that --out table would leave unwritten
        ["rank", "--input", "unread.csv", "--out-file", "res.json"],
        ["rank", "--input", "unread.csv", "--out", "table", "--out-file", "res.json"],
        ["simulate", "--scenario", "paper2", "--out-file", "res.json"],
    ], ids=["rank-json", "rank-tsv", "simulate-json", "simulate-tsv", "rank-out-file-alone",
            "rank-out-file-with-table", "simulate-out-file-alone"])
    def test_missing_out_file_fails_before_any_work(self, argv, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started before --out-file was checked")

        monkeypatch.setattr("rankci.cli.ingest_estimates", no_work)
        monkeypatch.setattr("rankci.cli._run_methods", no_work)
        monkeypatch.setattr("rankci.cli.run_coverage", no_work)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("case", ["plot-data-is-out-file", "out-file-is-input",
                                      "out-file-is-scenario"])
    def test_output_path_naming_another_fails_before_any_work(self, case, estimates_file,
                                                              tmp_path, monkeypatch, capsys):
        # unchecked, each run exits 0 having replaced the JSON by the plot
        # rows, or the input or the scenario file by the JSON
        def no_work(*args, **kwargs):
            raise AssertionError("the run started before the paths were compared")

        monkeypatch.setattr("rankci.cli.ingest_estimates", no_work)
        monkeypatch.setattr("rankci.cli._run_methods", no_work)
        monkeypatch.setattr("rankci.cli.run_coverage", no_work)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"mu": [1, 2, 3]}))
        out = tmp_path / "out.json"
        # each clash is spelled as a different path to the same file
        argv, kept = {
            "plot-data-is-out-file": (
                ["rank", "--input", estimates_file, "--out", "json", "--out-file", str(out),
                 "--plot-data", os.path.join(tmp_path, ".", "out.json")], out),
            "out-file-is-input": (
                ["rank", "--input", estimates_file, "--out", "json",
                 "--out-file", os.path.join(tmp_path, "sub", "..", "centers.csv")],
                tmp_path / "centers.csv"),
            "out-file-is-scenario": (
                ["simulate", "--scenario", f"file:{scenario}", "--out", "json",
                 "--out-file", os.path.relpath(scenario)], scenario),
        }[case]
        before = kept.read_bytes() if kept.exists() else None
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --") and "same file" in err[0]
        assert (kept.read_bytes() if kept.exists() else None) == before

    @pytest.mark.parametrize("method", ["tukey", "zhang"])
    def test_trace_without_seqtukey_fails_before_any_work(self, method, monkeypatch, capsys):
        # the parent printed no trace and exited 0
        def no_work(*args, **kwargs):
            raise AssertionError("the run started before --trace was checked")

        monkeypatch.setattr("rankci.cli.ingest_estimates", no_work)
        monkeypatch.setattr("rankci.cli._run_methods", no_work)
        assert main(["rank", "--input", "unread.csv", "--method", method, "--trace"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --trace")

    def test_alpha_above_half_fails_before_any_work(self, monkeypatch, capsys):
        # the parent printed "1% CI [1.0000, 1]; point estimate at level 0.5: 0.3333", exit 0
        def no_work(*args, **kwargs):
            raise AssertionError("the run started before --alpha was checked")

        monkeypatch.setattr("rankci.cli.ingest_estimates", no_work)
        monkeypatch.setattr("rankci.cli._run_methods", no_work)
        assert main(["rank", "--input", "unread.csv", "--method", "all", "--alpha", "0.99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: rank's --alpha must be at most 0.5")

    @pytest.mark.parametrize("alpha", ["0", "-0.1", "nan"])
    def test_alpha_not_above_zero_fails_before_any_work(self, alpha, monkeypatch, capsys):
        # unchecked, the run reads the input, draws the pool and the whole
        # bootstrap, and only then refuses the level with this message
        def no_work(*args, **kwargs):
            raise AssertionError("the run started before --alpha was checked")

        monkeypatch.setattr("rankci.cli.ingest_estimates", no_work)
        monkeypatch.setattr("rankci.cli._run_methods", no_work)
        assert main(["rank", "--input", "unread.csv", "--method", "all", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: alpha must be in (0, 1), got {float(alpha)}\n"

    def test_alpha_half_gives_a_ci_from_the_point_estimate(self, tmp_path, capsys):
        path = tmp_path / "close.csv"
        path.write_text("id,estimate,std_error\na,1.0,1.0\nb,2.0,1.0\nc,3.0,1.0\n")
        assert main(["rank", "--input", str(path), "--method", "all", "--alpha", "0.5",
                     "--mc-samples", "2000", "--boot-samples", "300"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("rankability:")]
        assert len(lines) == 3
        for line in lines:
            lower = line.split("CI [")[1].split(",")[0]
            assert line.endswith(f"point estimate at level 0.5: {lower}")

    def test_trace_flag_with_all_methods(self, estimates_file, capsys):
        rc = main(["rank", "--input", estimates_file, "--method", "all",
                   "--mc-samples", "5000", "--boot-samples", "200", "--seed", "3", "--trace"])
        assert rc == 0
        assert "iter 1: q=" in capsys.readouterr().out

    def test_bad_input_exits_nonzero_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,estimate,std_error\na,1.0,-2.0\n")
        rc = main(["rank", "--input", str(path)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")

    @pytest.mark.parametrize("flags", [["--out", "json", "--out-file"], ["--plot-data"]],
                             ids=["out-file", "plot-data"])
    def test_unwritable_output_exits_with_one_line(self, estimates_file, tmp_path, capsys,
                                                   flags):
        path = str(tmp_path / "missing" / "out")
        rc = main(["rank", "--input", estimates_file, "--method", "tukey",
                   "--mc-samples", "2000", *flags, path])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {path}: ")

    def test_negative_seed_named_in_one_line(self, estimates_file, capsys):
        assert main(["rank", "--input", estimates_file, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    def test_pool_larger_than_memory_exits_with_one_line(self, estimates_file, capsys):
        rc = main(["rank", "--input", estimates_file, "--method", "tukey",
                   "--mc-samples", str(10**13)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "--mc-samples" in err[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtremeButValidInputs:
    """Estimates whose difference, or standardized difference, passes the float range."""

    @pytest.mark.parametrize("rows", [
        "a,-1.7e308,1\nb,1.7e308,1\nc,0,1\n",
        "a,0,1.5e-154\nb,1e200,1.5e-154\nc,2e200,1\n",
        "a,-1.7e308,1\nb,1.7e308,1\n",
    ], ids=["subtract", "divide", "two-centers"])
    def test_rank_all_gives_singletons(self, rows, tmp_path, capsys):
        path, out_file = tmp_path / "extreme.csv", tmp_path / "res.json"
        path.write_text("id,estimate,std_error\n" + rows)
        assert main(["rank", "--input", str(path), "--method", "all",
                     "--mc-samples", "1000", "--boot-samples", "200",
                     "--out", "json", "--out-file", str(out_file)]) == 0
        results = json.loads(out_file.read_text())["results"]
        assert set(results) == {"tukey", "seqtukey", "zhang"}
        for block in results.values():
            assert all(ci["lower"] == ci["upper"] for ci in block["intervals"])


class TestCountFlags:
    """--mc-samples and --boot-samples are checked before any work, whatever the methods."""

    @pytest.mark.parametrize("argv, message", [
        (["rank", "--method", "tukey", "--boot-samples", "0"], "--boot-samples must be at least 1"),
        (["rank", "--method", "zhang", "--mc-samples", "3"], "--mc-samples must be at least 1000"),
        (["rank", "--method", "tukey", "--mc-samples", "3"], "--mc-samples must be at least 1000"),
        (["simulate", "--scenario", "paper4", "--methods", "zhang", "--mc-samples", "999"],
         "--mc-samples must be at least 1000"),
        (["simulate", "--scenario", "paper4", "--methods", "tukey", "--boot-samples", "0"],
         "--boot-samples must be at least 1"),
    ], ids=["rank-tukey-boot", "rank-zhang-mc", "rank-tukey-mc", "simulate-zhang-mc",
            "simulate-tukey-boot"])
    def test_refused_in_one_line(self, estimates_file, argv, message, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started before the count flags were checked")

        monkeypatch.setattr("rankci.cli.ingest_estimates", no_work)
        monkeypatch.setattr("rankci.cli._run_methods", no_work)
        monkeypatch.setattr("rankci.cli.run_coverage", no_work)
        if argv[0] == "rank":
            argv = argv + ["--input", estimates_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ({"mc_samples": 3, "methods": ["zhang"]}, "mc_samples must be at least 1000"),
        ({"n_boot": 0, "methods": ["tukey"]}, "n_boot must be at least 1"),
    ], ids=["mc_samples", "n_boot"])
    def test_scenario_file_counts_refused(self, tmp_path, spec, message, monkeypatch, capsys):
        monkeypatch.setattr("rankci.cli.run_coverage", None)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"mu": [1, 2, 3], **spec}))
        assert main(["simulate", "--scenario", f"file:{path}"]) == 2
        assert capsys.readouterr().err == f"error: scenario file {path}: {message}\n"

    def test_floor_values_run(self, estimates_file, tmp_path):
        out_file = tmp_path / "res.json"
        assert main(["rank", "--input", estimates_file, "--method", "zhang",
                     "--mc-samples", "1000", "--boot-samples", "1",
                     "--out", "json", "--out-file", str(out_file)]) == 0
        manifest = json.loads(out_file.read_text())["manifest"]
        assert (manifest["mc_samples"], manifest["boot_samples"]) == (1000, 1)


class TestUnresolvedLevel:
    """A level whose order statistic is the pool maximum is refused, not printed."""

    @pytest.mark.parametrize("argv", [
        ["rank", "--alpha", "1e-5", "--method", "all"],
        ["simulate", "--scenario", "paper2", "--reps", "2", "--alpha", "1e-4"],
    ], ids=["rank", "simulate"])
    def test_exits_with_one_line(self, estimates_file, argv, capsys):
        if argv[0] == "rank":
            argv = argv + ["--input", estimates_file]
        threads_before = threading.active_count()
        assert main(argv + ["--mc-samples", "1000", "--boot-samples", "500"]) == 2
        assert threading.active_count() == threads_before
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "N=1000" in err[0] and "--mc-samples" in err[0]

    def test_alpha_times_n_of_one_runs(self, estimates_file, capsys):
        assert main(["rank", "--input", estimates_file, "--alpha", "0.001",
                     "--mc-samples", "1000"]) == 0
        assert "99.9% CI" in capsys.readouterr().out


class TestBootstrapBesidePool:
    """``rank --method all`` runs the bootstrap in a thread beside the pool work."""

    def _one_error_line(self, argv, capsys):
        threads_before = threading.active_count()
        assert main(argv) == 2
        assert threading.active_count() == threads_before
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        return err[0]

    def test_bootstrap_failure_exits_with_one_line(self, estimates_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("bootstrap broke")

        monkeypatch.setattr("rankci.cli.zhang_simultaneous", broken)
        line = self._one_error_line(["rank", "--input", estimates_file, "--method", "all",
                                     "--mc-samples", "2000", "--boot-samples", "500"], capsys)
        assert "bootstrap broke" in line

    def test_pool_refused_while_bootstrap_runs(self, estimates_file, monkeypatch, capsys):
        finished = threading.Event()

        def recorded(*args, **kwargs):
            result = zhang_simultaneous(*args, **kwargs)
            finished.set()
            return result

        monkeypatch.setattr("rankci.cli.zhang_simultaneous", recorded)
        line = self._one_error_line(["rank", "--input", estimates_file, "--method", "all",
                                     "--mc-samples", str(10**13)], capsys)
        assert "--mc-samples" in line
        # the refusal waited for the bootstrap thread before main returned
        assert finished.is_set()

    @pytest.mark.parametrize("route", ["rank", "simulate"])
    def test_oversized_bootstrap_exits_with_one_line(self, estimates_file, tmp_path, route,
                                                      capsys):
        if route == "rank":
            argv = ["rank", "--input", estimates_file, "--method", "zhang",
                    "--boot-samples", str(10**13)]
        else:
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps({"mu": [1, 2, 3], "n_boot": 10**13}))
            argv = ["simulate", "--scenario", f"file:{scenario}", "--reps", "1",
                    "--mc-samples", "1000"]
        assert "--boot-samples" in self._one_error_line(argv, capsys)

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="physical memory unknown")
    def test_oversized_bootstrap_refused_before_allocating(self, estimates_file, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("rank matrix allocated before the memory check")

        sample = ingest_estimates(estimates_file)
        monkeypatch.setattr(bootstrap.np, "empty", no_allocation)
        monkeypatch.setattr(bootstrap.np.random, "default_rng", no_allocation)
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="--boot-samples"):
            _run_methods(sample, ("zhang",), 0.05, 1000, 10**13, seed=0)
        assert threading.active_count() == threads_before

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="physical memory unknown")
    def test_simulate_checks_that_two_bootstraps_fit(self, estimates_file, tmp_path, monkeypatch,
                                                       capsys):
        n_boot, needs = 100_000, []
        check = bootstrap._check_fits_memory
        monkeypatch.setattr(bootstrap, "_check_fits_memory",
                            lambda need, *args: (needs.append(need), check(need, *args)))
        bootstrap._check_bootstraps_fit(3, n_boot)
        # physical memory that holds one bootstrap of 3 centers, but not two
        sysconf, fake = os.sysconf, {"SC_PHYS_PAGES": needs[0] * 3 // 2, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"mu": [1, 2, 3], "n_boot": n_boot}))
        line = self._one_error_line(["simulate", "--scenario", f"file:{scenario}", "--reps", "2",
                                     "--mc-samples", "1000"], capsys)
        assert "running 2 bootstraps of" in line and "--boot-samples" in line
        assert started == []
        monkeypatch.undo()
        # rank holds one bootstrap at a time
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        assert main(["rank", "--input", estimates_file, "--method", "zhang",
                     "--boot-samples", str(n_boot)]) == 0

    def test_rank_all_ranks_the_bootstrap_once(self, estimates_file, monkeypatch):
        drawn, bisected = [], []
        draw = bootstrap._draw_chunks

        def counted(*args):
            drawn.append(args)
            return draw(*args)

        def recorded(*args):
            bisected.append((args, zhang_simultaneous(*args)))
            return bisected[-1][1]

        monkeypatch.setattr(bootstrap, "_draw_chunks", counted)
        monkeypatch.setattr("rankci.cli.zhang_simultaneous", recorded)
        sample = ingest_estimates(estimates_file)
        _run_methods(sample, KNOWN_METHODS, 0.05, 2000, 700, seed=4)
        assert len(drawn) == 1
        monkeypatch.undo()
        cfg = BootstrapConfig(n_boot=700, seed=_child_seed(4, _TAG_BOOT))
        assert [args[1:3] for args, _ in bisected] == [(0.05, cfg), (0.5, cfg)]
        # each level equals a zhang_simultaneous call that ranks its own draw
        for args, result in bisected:
            assert result == zhang_simultaneous(sample, args[1], cfg)

    def test_alpha_out_of_range_raises_on_both_threads(self, estimates_file):
        # main refuses such a level before any work; the runner still raises
        # one of the two threads' errors, once both have finished
        sample = ingest_estimates(estimates_file)
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got 0.0"):
            _run_methods(sample, KNOWN_METHODS, 0.0, 2000, 500, seed=0)
        assert threading.active_count() == threads_before


class TestCmdSimulate:
    def test_single_replicate_coverage_binary(self, capsys):
        rc = main(["simulate", "--scenario", "paper4", "--reps", "1",
                   "--methods", "tukey", "--mc-samples", "2000", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario paper4" in out
        row = next(ln for ln in out.splitlines() if ln.startswith("tukey"))
        assert row.split()[1] in ("0.0", "100.0")

    def test_unknown_scenario(self, capsys):
        rc = main(["simulate", "--scenario", "paper9"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_file(self, tmp_path, capsys):
        spec = {"mu": [0.0, 8.0], "sigma": 1.0, "reps": 2,
                "methods": ["tukey", "seqtukey"], "mc_samples": 2000, "name": "mini"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        rc = main(["simulate", "--scenario", f"file:{path}", "--seed", "1"])
        assert rc == 0
        assert "scenario mini" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", [
        {"mu": 5}, {"mu": [1, 2], "sigma": None}, "mu",
        {"mu": [1, 2], "alpha": None}, {"mu": [1, 2], "methods": 5},
        {"mu": [0, 1, 2], "reps": 3, "mc_sample": 5, "maxiter": 1},
    ], ids=["scalar-mu", "null-sigma", "top-level-string", "null-alpha", "scalar-methods",
            "unknown-key"])
    def test_malformed_scenario_file_exits_with_one_line(self, tmp_path, capsys, spec):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        rc = main(["simulate", "--scenario", f"file:{path}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file ") and err.count("\n") == 1
        if "mc_sample" in spec:
            assert err == f"error: scenario file {path}: unknown key 'mc_sample'\n"

    @pytest.mark.parametrize("key, value", [
        ("reps", 2.9), ("reps", True), ("seed", True), ("seed", 0.5), ("seed", None),
        ("mc_samples", 1000.7), ("mc_samples", "2000"), ("n_boot", False), ("n_boot", 200.5),
    ])
    def test_scenario_count_must_be_whole_number(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mu": [1, 2, 3], key: value}))
        assert main(["simulate", "--scenario", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file ") and err.count("\n") == 1
        assert f"'{key}' must be a whole number, got {json.dumps(value)}" in err

    @pytest.mark.parametrize("methods", ["tukey", ["tukey", 1], {"tukey": 1}])
    def test_scenario_methods_must_be_a_list_of_names(self, tmp_path, capsys, methods):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mu": [1, 2, 3], "methods": methods}))
        assert main(["simulate", "--scenario", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith("'methods' must be a list of method names\n")

    @pytest.mark.parametrize("scenario", ["paper1", "file"])
    def test_empty_methods_exits_with_one_line(self, tmp_path, capsys, monkeypatch, scenario):
        def no_run(cfg):
            raise AssertionError(f"ran methods {cfg.methods}")

        monkeypatch.setattr("rankci.cli.run_coverage", no_run)
        prefix = ""
        if scenario == "file":
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"mu": [1, 2, 3]}))
            scenario, prefix = f"file:{path}", f"scenario file {path}: "
        assert main(["simulate", "--scenario", scenario, "--methods", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}methods must be a nonempty subset")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", [None, ["a", "b"], 7, {"a": 1}],
                             ids=["null", "list", "number", "object"])
    def test_scenario_name_must_be_a_string(self, tmp_path, capsys, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mu": [1, 2, 3], "name": name}))
        out_file = tmp_path / "sim.tsv"
        assert main(["simulate", "--scenario", f"file:{path}",
                     "--out", "tsv", "--out-file", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file ") and err.count("\n") == 1
        assert err.endswith(f"'name' must be a string, got {json.dumps(name)}\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("sigma", [1e-170, [1.0, 1e200, 1.0]], ids=["scalar", "list"])
    def test_scenario_sigma_whose_square_is_not_normal_refused(self, tmp_path, capsys, sigma):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"mu": [1, 2, 3], "sigma": sigma}))
        assert main(["simulate", "--scenario", f"file:{path}", "--methods", "tukey",
                     "--reps", "1", "--mc-samples", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: scenario file {path}: sigma must lie in ")
        assert captured.err.count("\n") == 1

    def test_unwritable_out_file_exits_with_one_line(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "sim.json")
        rc = main(["simulate", "--scenario", "paper4", "--reps", "1", "--methods", "tukey",
                   "--mc-samples", "2000", "--out", "json", "--out-file", path])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("route", ["flag", "scenario-file"])
    def test_negative_seed_named_in_one_line(self, tmp_path, capsys, route):
        if route == "flag":
            argv, value = ["simulate", "--scenario", "paper4", "--seed", "-3"], -3
        else:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"mu": [1, 2, 3], "seed": -1}))
            argv, value = ["simulate", "--scenario", f"file:{path}"], -1
        assert main(argv + ["--reps", "1", "--mc-samples", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be a non-negative integer, got {value}\n"

    def test_scenario_whole_floats_accepted(self, tmp_path, capsys):
        spec = {"mu": [0.0, 8.0], "reps": 2.0, "seed": 3.0, "mc_samples": 2000.0,
                "n_boot": 200.0, "methods": ["tukey"]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        out_file = tmp_path / "sim.json"
        assert main(["simulate", "--scenario", f"file:{path}",
                     "--out", "json", "--out-file", str(out_file)]) == 0
        scenario = json.loads(out_file.read_text())["report"]["scenario"]
        counts = {key: scenario[key] for key in ("reps", "seed", "mc_samples", "n_boot")}
        assert counts == {"reps": 2, "seed": 3, "mc_samples": 2000, "n_boot": 200}
        assert all(type(v) is int for v in counts.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_center_json_is_strict(self, tmp_path, capsys):
        # one center: every replicate's rankability is NaN
        spec = {"mu": [0.0], "sigma": 1.0, "reps": 2, "mc_samples": 2000,
                "n_boot": 200, "name": "one"}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(spec))
        argv = ["simulate", "--scenario", f"file:{path}", "--seed", "1"]

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        assert main(argv + ["--out", "json", "--out-file", str(tmp_path / "o.json")]) == 0
        report = json.loads((tmp_path / "o.json").read_text(), parse_constant=reject)["report"]
        assert [s["mean_rankability"] for s in report["methods"].values()] == [None] * 3
        assert main(argv + ["--out", "tsv", "--out-file", str(tmp_path / "o.tsv")]) == 0
        rows = (tmp_path / "o.tsv").read_text().splitlines()[-3:]
        assert [row.split("\t")[-1] for row in rows] == ["nan"] * 3
        table = capsys.readouterr().out.splitlines()
        assert [row.split()[4] for row in table if row.startswith("tukey")] == ["nan", "nan"]

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "sim.json"
        rc = main(["simulate", "--scenario", "paper4", "--reps", "2",
                   "--methods", "tukey,seqtukey", "--mc-samples", "2000",
                   "--seed", "5", "--out", "json", "--out-file", str(out_file)])
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert data["report"]["criterion"] == "set-rank"
        assert data["manifest"]["input"] == "paper4"
        assert "timestamp" not in data["manifest"]

    def test_tsv_output_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["simulate", "--scenario", "paper4", "--reps", "2",
                "--methods", "tukey", "--mc-samples", "2000", "--seed", "5",
                "--out", "tsv"]
        assert main(args + ["--out-file", str(a)]) == 0
        assert main(args + ["--out-file", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# n=12 with unequal standard errors, so the full-range pair kernel is exercised
GOLDEN_ROWS = [(f"c{i:02d}", round(0.6 * i + 0.25 * (i % 3), 3), round(0.5 + 0.08 * i, 2))
               for i in range(12)]
GOLDEN_RANK_ARGS = ["rank", "--input", "centers12.csv", "--method", "all",
                    "--mc-samples", "2000", "--boot-samples", "500", "--seed", "7"]
GOLDEN_SIMULATE_ARGS = ["simulate", "--scenario", "paper2", "--reps", "3"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked_stdout(capsys) -> bytes:
    # the run timestamp is the one part of stdout that differs between reruns
    return re.sub(r"run at \S+", "run at -", capsys.readouterr().out).encode()


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    # relative paths keep the manifest's input field independent of tmp_path
    monkeypatch.chdir(tmp_path)
    lines = [f"{ident},{est:.3f},{se:.2f}" for ident, est, se in GOLDEN_ROWS]
    (tmp_path / "centers12.csv").write_text("id,estimate,std_error\n" + "\n".join(lines) + "\n")
    (tmp_path / "centers1.csv").write_text("id,estimate,std_error\n" + lines[0] + "\n")
    return tmp_path


class TestGoldenBytes:
    """Output digests recorded at a known-good commit; any change to output bytes fails here."""

    RANK_SHA256 = "1a8c72ea11a70190780d66e05cfdd9c9fba3e1c84a087e0edd3d9f1a2dc02b77"
    RANK_TSV_SHA256 = "d5eeac4bcdefc48b145fca8048dae98b5c402ae77abd3e46cd5a13d12a19da78"
    RANK_PLOT_SHA256 = "6d51fa174d7f784bed53be72cbf44630fb6053f4df4ecc40cca28eeb267c3de9"
    RANK_TABLE_SHA256 = "55457788d0027d34b64d6878e80e68b6180ef492c59148098ac135dd06b002e8"
    SIMULATE_SHA256 = "91af6b0850adebdf71f42e2d5a270f2005f7235e632df0b2028e678461df21d4"
    SIMULATE_TSV_SHA256 = "fd4152d690e86aa20bebb53f87449705ce310cbe3abfd6ed3eac74ab52bf1546"
    SIMULATE_TABLE_SHA256 = "533babca78f9c51a8dfd2449a4865d32d5dc8025cb734bcb031c7128cb65d8b6"
    SIMULATE_PAPER3_SHA256 = "a544de71a4e926d5e935ee77c6374a25fb389ce7cfec66933e005288883d70ee"
    RANK_WIDE_ZHANG_SHA256 = "dc6b219182650a1f32f65b0127816c76f0c692f978c111ab0e9d9a6aea09281e"

    def test_rank_all_json(self, golden_dir, capsys):
        rc = main(GOLDEN_RANK_ARGS + ["--out", "json", "--out-file", "rank.json"])
        assert rc == 0
        assert _sha256((golden_dir / "rank.json").read_bytes()) == self.RANK_SHA256

    @pytest.mark.parametrize("flags, expected", [
        (["--method", "tukey"],
         "b9502233b6163236867fe8bc4cb468c28547655ef114490ffe623e8bc094354e"),
        (["--method", "seqtukey"],
         "b613f82b57a686164a580994e53147df75cad419d21cf4c9c35b2b0c975ba4ec"),
        (["--method", "zhang"],
         "2fc62bfadd94d1614bb4cb37186d4c2a3bffd137b94ecf301460ad77ef208dbd"),
        # one center: seqtukey takes no round, so Tukey's rejections are its own
        (["--input", "centers1.csv"],
         "d7eb1c1f8edf230350390b9cc4bbeea39eff99e8d9b09b249739b727c867caa0"),
    ], ids=["tukey", "seqtukey", "zhang", "one-center-all"])
    def test_rank_json_per_method_and_one_center(self, golden_dir, capsys, flags, expected):
        rc = main(GOLDEN_RANK_ARGS + flags + ["--out", "json", "--out-file", "rank.json"])
        assert rc == 0
        assert _sha256((golden_dir / "rank.json").read_bytes()) == expected

    def test_rank_zhang_json_at_wide_n(self, golden_dir, capsys):
        # n = 300: each replicate's sort order is stored as uint16, not uint8
        rng = np.random.default_rng(300)
        sigma = rng.uniform(0.5, 1.5, 300)
        y = 0.1 * np.arange(300) + sigma * rng.standard_normal(300)
        lines = [f"w{i:03d},{float(y[i])!r},{float(sigma[i])!r}" for i in range(300)]
        (golden_dir / "centers300.csv").write_text("id,estimate,std_error\n" + "\n".join(lines)
                                                   + "\n")
        rc = main(["rank", "--input", "centers300.csv", "--method", "zhang", "--boot-samples",
                   "2000", "--seed", "7", "--out", "json", "--out-file", "rank.json"])
        assert rc == 0
        assert _sha256((golden_dir / "rank.json").read_bytes()) == self.RANK_WIDE_ZHANG_SHA256

    def test_rank_all_tsv_plot_data_and_table(self, golden_dir, capsys):
        rc = main(GOLDEN_RANK_ARGS + ["--out", "tsv", "--out-file", "rank.tsv",
                                      "--plot-data", "plot.tsv", "--trace"])
        assert rc == 0
        assert _sha256(_masked_stdout(capsys)) == self.RANK_TABLE_SHA256
        assert _sha256((golden_dir / "rank.tsv").read_bytes()) == self.RANK_TSV_SHA256
        assert _sha256((golden_dir / "plot.tsv").read_bytes()) == self.RANK_PLOT_SHA256

    def test_simulate_paper2_json(self, tmp_path, capsys):
        out_file = tmp_path / "sim.json"
        rc = main(GOLDEN_SIMULATE_ARGS + ["--out", "json", "--out-file", str(out_file)])
        assert rc == 0
        assert _sha256(out_file.read_bytes()) == self.SIMULATE_SHA256

    def test_simulate_paper2_tsv_and_table(self, tmp_path, capsys):
        out_file = tmp_path / "sim.tsv"
        rc = main(GOLDEN_SIMULATE_ARGS + ["--out", "tsv", "--out-file", str(out_file)])
        assert rc == 0
        assert _sha256(_masked_stdout(capsys)) == self.SIMULATE_TABLE_SHA256
        assert _sha256(out_file.read_bytes()) == self.SIMULATE_TSV_SHA256

    def test_simulate_paper3_json_one_pool_per_call(self, tmp_path, capsys):
        # 20 replicates on the one pool of the call: Tukey's widths differ
        # from those on a pool drawn per replicate
        out_file = tmp_path / "sim.json"
        rc = main(["simulate", "--scenario", "paper3", "--reps", "20", "--seed", "0",
                   "--out", "json", "--out-file", str(out_file)])
        assert rc == 0
        assert _sha256(out_file.read_bytes()) == self.SIMULATE_PAPER3_SHA256

    @pytest.mark.parametrize("methods, expected", [
        # tukey alone scores false rejections through tukey_rejected_pairs
        ("tukey", "cc2b94d23aaa8f0c8a2b99d837da52c7ad88f8e6b96748402736980610dd2059"),
        ("seqtukey", "3d25ece2c19b31797d61e1be0d6417f20803ae07267f6e40b55d175ab59e2123"),
        ("zhang", "c03570c1f1b57e8fb80cd18bd52203f3c35453da6cc165f740489ec8c7b74d94"),
        ("tukey,zhang", "216711d4b8be2a4648a87b33669c66e88fa2aa16023814e793ef291a017b3492"),
    ])
    def test_simulate_paper2_json_method_subsets(self, tmp_path, capsys, methods, expected):
        out_file = tmp_path / "sim.json"
        rc = main(GOLDEN_SIMULATE_ARGS + ["--methods", methods,
                                          "--out", "json", "--out-file", str(out_file)])
        assert rc == 0
        assert _sha256(out_file.read_bytes()) == expected


class TestCriticalValueBits:
    """Critical values as exact float bits; the golden outputs print no critical value.

    The pools here are float32, so each value is a float32 order statistic.
    """

    POOL_SEED = _child_seed(7, 2)  # the pool seed `rank --seed 7` uses

    @pytest.fixture(scope="class")
    def golden_pool(self):
        ids, y, sigma = zip(*GOLDEN_ROWS)
        sample = CenterSample.from_observations(y, sigma, ids=ids)
        return sample, make_mc_pool(sample.sigma, 2000, seed=self.POOL_SEED)

    @pytest.mark.parametrize("alpha, expected", [
        (0.05, "0x1.a175fa0000000p+1"),
        (0.5, "0x1.1d48d00000000p+1"),
    ])
    def test_full_range_quantile(self, golden_pool, alpha, expected):
        _, pool = golden_pool
        assert studentized_range_quantile(pool, alpha).hex() == expected

    @pytest.mark.parametrize("alpha, expected", [
        (0.05, ["0x1.a175fa0000000p+1", "0x1.9f80480000000p+1"]),
        (0.5, ["0x1.1d48d00000000p+1", "0x1.18ff1e0000000p+1", "0x1.18e8e20000000p+1"]),
    ])
    def test_sequential_critical_values(self, golden_pool, alpha, expected):
        sample, pool = golden_pool
        _, trace = sequential_tukey(sample, alpha, pool)
        assert [q.hex() for q in trace.critical_values] == expected

    def test_equal_sigma_full_range_quantile(self):
        pool = make_mc_pool([1.0] * 10, 2000, seed=self.POOL_SEED)
        assert studentized_range_quantile(pool, 0.05).hex() == "0x1.8fb7060000000p+1"
