"""Command-line interface: pipelines, exit codes, reports."""

import io
import json

from hampack import analysis, constructions, search
from hampack.cli import main
from hampack.core import parse_code


def run(capsys, argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestVerify:
    def test_pipe_from_construct(self, capsys, tmp_path):
        code_file = tmp_path / "c4.code"
        rc, out, _ = run(capsys, ["construct", "p96a", "--out", str(code_file)])
        assert rc == 0
        rc, out, _ = run(capsys, ["verify", str(code_file), "--lambda", "2", "--r", "1"])
        assert rc == 0
        assert "max coverage 2" in out and "|C|=96" in out

    def test_failed_verification_exit_code(self, capsys, tmp_path):
        f = tmp_path / "bad.code"
        f.write_text("2 3\n000\n001\n")
        rc, out, _ = run(capsys, ["verify", str(f), "--lambda", "1"])
        assert rc == 1
        assert "NOT" in out

    def test_stdin_default(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["verify", "--lambda", "1"], stdin="2 3\n000\n111\n", monkeypatch=monkeypatch)
        assert rc == 0

    def test_empty_file_is_trivial_packing(self, capsys, tmp_path):
        f = tmp_path / "empty.code"
        f.write_text("2 5\n")
        rc, out, _ = run(capsys, ["verify", str(f), "--lambda", "1", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["max_coverage"] == 0 and payload["is_lambda_fold"]

    def test_witness_reported(self, capsys, tmp_path):
        f = tmp_path / "dup.code"
        f.write_text("2 3\n000\n000\n")
        rc, out, _ = run(capsys, ["verify", str(f), "--lambda", "1", "--json"])
        assert rc == 1
        payload = json.loads(out)
        assert payload["witness"] == "000"
        assert payload["duplicate_words"] == ["000"]

    def test_usage_error_exit_2(self, capsys):
        rc, _, err = run(capsys, ["verify", "/nonexistent/file.code"])
        assert rc == 2
        assert "error" in err


class TestBound:
    def test_table(self, capsys):
        rc, out, _ = run(capsys, ["bound", "--n", "9", "--q", "2", "--lambda", "2", "--r", "1"])
        assert rc == 0
        assert "102" in out and "96" in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, ["bound", "--n", "9", "--q", "2", "--lambda", "2", "--json"])
        payload = json.loads(out)
        values = {row["formula_id"]: row["value"] for row in payload["bounds"]}
        assert values["sphere_packing"] == 102
        assert values["lp(b)"] == 96

    def test_even_weight(self, capsys):
        rc, out, _ = run(capsys, ["bound", "--n", "10", "--lambda", "2", "--even-weight", "--json"])
        payload = json.loads(out)
        values = {row["formula_id"]: row["value"] for row in payload["bounds"]}
        assert values["lp_even(b)"] == 96

    def test_mds_conjecture_flag(self, capsys):
        rc, out, _ = run(capsys, ["bound", "--n", "3", "--q", "3", "--lambda", "3", "--json"])
        payload = json.loads(out)
        ids = {row["formula_id"] for row in payload["bounds"]}
        assert "mds_conjectured" in ids
        rc, out, _ = run(capsys, ["bound", "--n", "3", "--q", "6", "--lambda", "3", "--json"])
        payload = json.loads(out)
        ids = {row["formula_id"]: row for row in payload["bounds"]}
        assert "mds_optimal" in ids and ids["mds_optimal"]["value"] == 36

    def test_k2_leaves_out_the_spectral_row(self, capsys):
        # H(1, 2) = K2: alpha reaches the degree, and every other bound applies
        rc, out, err = run(capsys, ["bound", "--n", "1", "--lambda", "1", "--json"])
        assert rc == 0 and err == ""
        values = {row["formula_id"]: row["value"] for row in json.loads(out)["bounds"]}
        assert values == {"sphere_packing": 1, "mds_interval": 1, "mds_optimal": 1}


class TestConstruct:
    def test_every_simple_family(self, capsys, tmp_path):
        cases = [
            (["construct", "mds", "--n", "3", "--q", "3"], 9),
            (["construct", "hamming", "--q", "3"], 9),
            (["construct", "hamming", "--q", "3", "--lambda", "4"], 36),
            (["construct", "lstar", "--n", "6"], 10),
            (["construct", "diag", "--n", "6"], 8),
            (["construct", "p96a"], 96),
            (["construct", "p96b"], 96),
            (["construct", "p96c"], 96),
            (["construct", "p96a", "--cell", "c0"], 32),
            (["construct", "p96a", "--puncture"], 96),
            (["construct", "display96"], 96),
        ]
        for argv, size in cases:
            rc, out, _ = run(capsys, argv)
            assert rc == 0
            assert len(parse_code(out)) == size

    def test_concat_files(self, capsys, tmp_path):
        left = tmp_path / "l.code"
        right = tmp_path / "r.code"
        rc, out, _ = run(capsys, ["construct", "diag", "--n", "4", "--out", str(left)])
        rc, out, _ = run(capsys, ["construct", "diag", "--n", "2", "--out", str(right)])
        rc, out, _ = run(capsys, ["construct", "concat", str(left), str(right)])
        assert rc == 0
        assert len(parse_code(out)) == 8

    def test_round_trip_matches_in_memory(self, capsys, tmp_path):
        _, c4 = constructions.packing96_linear()
        f = tmp_path / "c4.code"
        rc, out, _ = run(capsys, ["construct", "p96a", "--out", str(f)])
        assert parse_code(f.read_text()) == c4
        on_disk = parse_code(f.read_text())
        in_memory = analysis.verify_packing(c4, 2, 1)
        reread = analysis.verify_packing(on_disk, 2, 1)
        assert (in_memory.max_coverage, in_memory.witness) == (reread.max_coverage, reread.witness)


class TestAnalyze:
    def test_unitrade_report(self, capsys, tmp_path):
        f = tmp_path / "l.code"
        run(capsys, ["construct", "lstar", "--n", "6", "--out", str(f)])
        rc, out, _ = run(capsys, ["analyze", str(f), "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["unitrade"]["extended"]["ok"] is True
        assert payload["bipartite"] is False
        assert payload["antipodal"] is False
        assert payload["inner_radius"] > 3
        assert payload["packing"]["is_lambda_fold"] is True
        assert payload["distributions"]["dual_nonnegative"] is True


class TestAnalyzeTernary:
    def test_qary_report_skips_binary_only_sections(self, capsys, tmp_path):
        f = tmp_path / "mds.code"
        run(capsys, ["construct", "mds", "--n", "3", "--q", "3", "--out", str(f)])
        rc, out, _ = run(capsys, ["analyze", str(f), "--lambda", "3", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["packing"]["is_lambda_fold"] is True
        assert payload["unitrade"]["extended"] is None
        assert payload["antipodal"] is None
        assert payload["distributions"]["B_dual"] is None


class TestClassify:
    def test_manifest_and_files(self, capsys, tmp_path):
        out_dir = tmp_path / "classes"
        rc, out, _ = run(
            capsys,
            ["classify", "--n", "6", "--nonbipartite", "--out", str(out_dir), "--json"],
        )
        assert rc == 0
        manifest = json.loads(out)
        assert manifest["class_count"] == 1
        assert manifest["cardinalities"] == [10]
        on_disk = json.loads((out_dir / "manifest.json").read_text())
        assert on_disk["class_count"] == 1
        rep = parse_code((out_dir / "class_000.code").read_text())
        assert len(rep) == 10

    def test_threads_flag(self, capsys):
        rc, out, _ = run(capsys, ["classify", "--n", "6", "--threads", "2", "--json"])
        assert rc == 0
        assert json.loads(out)["class_count"] == 2

    def test_bad_checkpoint_exit_2(self, capsys, tmp_path):
        # a stored solution that is not a unitrade is refused at load
        path = tmp_path / "bad.ckpt"
        header = {"version": search._CHECKPOINT_VERSION,
                  "filters": search.SearchConfig(n=8).filter_key(), "unit_count": 9}
        data = json.dumps(header) + "\n" + json.dumps([0, [[0, 3, 5]]]) + "\n"
        path.write_text(data)
        rc, out, err = run(capsys, ["classify", "--n", "8", "--checkpoint", str(path)])
        assert rc == 2 and out == ""
        assert str(path) in err and "extended unitrade" in err
        assert path.read_text() == data


class TestPartition:
    def test_distance_partition_report(self, capsys, tmp_path):
        f = tmp_path / "c0.code"
        run(capsys, ["construct", "p96a", "--cell", "c0", "--out", str(f)])
        rc, out, _ = run(capsys, ["partition", str(f), "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["completely_regular"] is True
        assert payload["intersection_array"] == {"b": [10, 9, 4], "c": [1, 6, 10]}
        assert payload["cell_sizes"] == [32, 320, 480, 192]

    def test_from_unitrade(self, capsys, tmp_path):
        f = tmp_path / "c4.code"
        run(capsys, ["construct", "p96b", "--out", str(f)])
        rc, out, _ = run(capsys, ["partition", str(f), "--from-unitrade", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["reconstructed"] is True
        assert payload["cell_sizes"] == [32, 320, 480, 96, 96]
        assert payload["matrix"] == [list(r) for r in (
            (0, 10, 0, 0, 0), (1, 0, 9, 0, 0), (0, 6, 0, 2, 2), (0, 0, 10, 0, 0), (0, 0, 10, 0, 0))]

    def test_split(self, capsys, tmp_path):
        c0 = tmp_path / "c0.code"
        c4 = tmp_path / "c4.code"
        run(capsys, ["construct", "p96a", "--cell", "c0", "--out", str(c0)])
        run(capsys, ["construct", "p96a", "--out", str(c4)])
        rc, out, _ = run(capsys, ["partition", str(c0), "--split", str(c4), "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["cell_sizes"] == [32, 320, 480, 96, 96]
        assert payload["equitable"] is True

    def test_reconstruction_failure_exit_1(self, capsys, tmp_path):
        f = tmp_path / "t.code"
        # a 96-word odd-parity set that is not a unitrade fails early with
        # exit 2 (usage); a valid unitrade of the wrong shape exits 1
        run(capsys, ["construct", "diag", "--n", "10", "--out", str(f)])
        rc, _, err = run(capsys, ["partition", str(f), "--from-unitrade"])
        assert rc == 2


class TestWordListLimit:
    def test_large_cells_are_digested(self, capsys, tmp_path):
        f = tmp_path / "c0.code"
        run(capsys, ["construct", "p96a", "--cell", "c0", "--out", str(f)])
        rc, out, _ = run(capsys, ["partition", str(f), "--json"])
        payload = json.loads(out)
        big = payload["cells"][2]
        assert big["size"] == 480 and "sha256" in big and "words" not in big
        small = payload["cells"][0]
        assert small["words"][0] == "0000000000"
