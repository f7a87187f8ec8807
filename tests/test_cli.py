import hashlib
import json

import pytest

from rankci.cli import IngestError, ingest_estimates, main


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

    def test_bad_input_exits_nonzero_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,estimate,std_error\na,1.0,-2.0\n")
        rc = main(["rank", "--input", str(path)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")


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


class TestGoldenBytes:
    """Output digests recorded before the row-maxima cache; any change to result bits fails here."""

    RANK_SHA256 = "1a8c72ea11a70190780d66e05cfdd9c9fba3e1c84a087e0edd3d9f1a2dc02b77"
    SIMULATE_SHA256 = "91af6b0850adebdf71f42e2d5a270f2005f7235e632df0b2028e678461df21d4"

    @staticmethod
    def _sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_rank_all_json(self, tmp_path, monkeypatch, capsys):
        # unequal standard errors, so the full-range pair kernel is exercised;
        # relative paths keep the manifest's input field independent of tmp_path
        monkeypatch.chdir(tmp_path)
        rows = [f"c{i:02d},{0.6 * i + 0.25 * (i % 3):.3f},{0.5 + 0.08 * i:.2f}" for i in range(12)]
        (tmp_path / "centers12.csv").write_text("id,estimate,std_error\n" + "\n".join(rows) + "\n")
        rc = main(["rank", "--input", "centers12.csv", "--method", "all",
                   "--mc-samples", "2000", "--boot-samples", "500", "--seed", "7",
                   "--out", "json", "--out-file", "rank.json"])
        assert rc == 0
        assert self._sha256(tmp_path / "rank.json") == self.RANK_SHA256

    def test_simulate_paper2_json(self, tmp_path, capsys):
        out_file = tmp_path / "sim.json"
        rc = main(["simulate", "--scenario", "paper2", "--reps", "3",
                   "--out", "json", "--out-file", str(out_file)])
        assert rc == 0
        assert self._sha256(out_file) == self.SIMULATE_SHA256
