import hashlib
import json
import re

import pytest

from rankci.cli import IngestError, ingest_estimates, main
from rankci.core import CenterSample
from rankci.mcquantile import make_mc_pool, studentized_range_quantile
from rankci.seqtukey import sequential_tukey
from rankci.simharness import _child_seed


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
    ], ids=["rank-json", "rank-tsv", "simulate-json", "simulate-tsv"])
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

    def test_rank_all_json(self, golden_dir, capsys):
        rc = main(GOLDEN_RANK_ARGS + ["--out", "json", "--out-file", "rank.json"])
        assert rc == 0
        assert _sha256((golden_dir / "rank.json").read_bytes()) == self.RANK_SHA256

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


class TestCriticalValueBits:
    """Critical values as exact float bits; the golden outputs print no critical value."""

    POOL_SEED = _child_seed(7, 2)  # the pool seed `rank --seed 7` uses

    @pytest.fixture(scope="class")
    def golden_pool(self):
        ids, y, sigma = zip(*GOLDEN_ROWS)
        sample = CenterSample.from_observations(y, sigma, ids=ids)
        return sample, make_mc_pool(sample.sigma, 2000, seed=self.POOL_SEED)

    @pytest.mark.parametrize("alpha, expected", [
        (0.05, "0x1.a175fae46ef21p+1"),
        (0.5, "0x1.1d48cedce12ddp+1"),
    ])
    def test_full_range_quantile(self, golden_pool, alpha, expected):
        _, pool = golden_pool
        assert studentized_range_quantile(pool, alpha).hex() == expected

    @pytest.mark.parametrize("alpha, expected", [
        (0.05, ["0x1.a175fae46ef21p+1", "0x1.9f804775ea325p+1"]),
        (0.5, ["0x1.1d48cedce12ddp+1", "0x1.18ff1d1e807f9p+1", "0x1.18e8e23cb2178p+1"]),
    ])
    def test_sequential_critical_values(self, golden_pool, alpha, expected):
        sample, pool = golden_pool
        _, trace = sequential_tukey(sample, alpha, pool)
        assert [q.hex() for q in trace.critical_values] == expected

    def test_equal_sigma_full_range_quantile(self):
        pool = make_mc_pool([1.0] * 10, 2000, seed=self.POOL_SEED)
        assert studentized_range_quantile(pool, 0.05).hex() == "0x1.8fb706a607a80p+1"
