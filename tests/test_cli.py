"""Command-line interface: pipelines, exit codes, reports."""

import argparse
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hampack import analysis, constructions, search
from hampack.cli import build_parser, main
from hampack.core import parse_code

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_repeated_words_line(self, capsys, tmp_path):
        f = tmp_path / "dup.code"
        f.write_text("2 3\n000\n000\n011\n")
        rc, out, _ = run(capsys, ["verify", str(f), "--lambda", "1"])
        assert rc == 1
        assert out.splitlines() == [
            "|C|=3 in H(3,2): max coverage 3 at radius 1, witness vertex 001",
            "the code is NOT a 1-fold 1-packing",
            "repeated words: 000",
        ]

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


class TestAnalyzeEmpty:
    @pytest.mark.parametrize("q, n", [(2, 4), (3, 2)])
    def test_empty_code_report(self, capsys, monkeypatch, q, n):
        rc, out, err = run(capsys, ["analyze", "--json"], stdin=f"{q} {n}\n", monkeypatch=monkeypatch)
        assert rc == 0 and err == ""
        binary = q == 2
        assert json.loads(out) == {
            "space": {"n": n, "q": q},
            "size": 0,
            "packing": {"lambda": 2, "r": 1, "max_coverage": 0, "witness": None,
                        "is_lambda_fold": True, "duplicate_words": []},
            "unitrade": {"plain": {"ok": True, "witness": None},
                         "extended": {"ok": True, "witness": None} if binary else None},
            "bipartite": True if binary else None,
            "antipodal": True if binary else None,
            "inner_radius": None,
            "distributions": None,
        }


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

    def test_from_unitrade_and_split_exclude_each_other(self, capsys, tmp_path):
        f = tmp_path / "c4.code"
        run(capsys, ["construct", "p96a", "--out", str(f)])
        with pytest.raises(SystemExit) as stop:
            main(["partition", str(f), "--from-unitrade", "--split", str(tmp_path / "absent.code")])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "--split: not allowed with argument --from-unitrade" in err


class TestClosedPipe:
    # the reader of stdout leaves early: exit 0 with nothing on stderr, for
    # a write cut off midway (a 7^6-word code) and for one at the last flush
    @pytest.mark.parametrize("argv, keep", [
        (["construct", "mds", "--n", "7", "--q", "7"], 10),
        (["bound", "--n", "9", "--lambda", "2"], 0),
    ])
    def test_exit_0_and_quiet(self, argv, keep):
        # without PYTHONUNBUFFERED: an unbuffered stdout drops a cut write silently
        env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.Popen([sys.executable, "-m", "hampack.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(keep)) == keep
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")


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


# every action of every (sub)parser: option strings, dest, default, type,
# nargs, required, choices; help actions left out
JSON = ("--json", "json", False, None, 0, False, None)
OUT = ("--out", "out", None, None, None, False, None)
R = ("--r", "r", 1, "int", None, False, None)
FILE = ("", "file", None, None, "?", False, None)
N = ("--n", "n", None, "int", None, True, None)
Q = ("--q", "q", None, "int", None, True, None)
CELL = ("--cell", "cell", "c4", None, None, False, ("c0", "c4"))
PUNCTURE = ("--puncture", "puncture", False, None, 0, False, None)
SURFACE = {
    "": [("", "command", None, None, "A...", True,
          ("verify", "analyze", "bound", "construct", "classify", "partition"))],
    "verify": [FILE, ("--lambda", "lam", 1, "int", None, False, None), R, JSON],
    "analyze": [FILE, ("--lambda", "lam", 2, "int", None, False, None), R, JSON],
    "bound": [N, ("--q", "q", 2, "int", None, False, None), ("--lambda", "lam", None, "int", None, True, None),
              R, ("--even-weight", "even_weight", False, None, 0, False, None), JSON],
    "construct": [("", "name", None, None, "A...", True,
                   ("mds", "hamming", "lstar", "diag", "concat", "p96a", "p96b", "p96c", "display96"))],
    "construct mds": [N, Q, OUT],
    "construct hamming": [Q, ("--lambda", "lam", 1, "int", None, False, None), OUT],
    "construct lstar": [N, OUT],
    "construct diag": [N, OUT],
    "construct concat": [("", "left", None, None, None, True, None),
                         ("", "right", None, None, None, True, None), OUT],
    "construct p96a": [CELL, PUNCTURE, OUT],
    "construct p96b": [CELL, PUNCTURE, OUT],
    "construct p96c": [CELL, PUNCTURE, OUT],
    "construct display96": [PUNCTURE, OUT],
    "classify": [N, ("--nonbipartite", "nonbipartite", False, None, 0, False, None),
                 ("--antipodal", "antipodal", False, None, 0, False, None),
                 ("--max-cardinality", "max_cardinality", None, "int", None, False, None),
                 ("--threads", "threads", 1, "int", None, False, None),
                 ("--checkpoint", "checkpoint", None, None, None, False, None), OUT, JSON],
    "partition": [FILE, ("--from-unitrade", "from_unitrade", False, None, 0, False, None),
                  ("--split", "split", None, None, None, False, None), JSON],
}


def in_order(rows: list) -> list:
    """Positionals in the order given, then options sorted: only the former is meaningful."""
    return [r for r in rows if not r[0]] + sorted(r for r in rows if r[0])


def surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    table, rows = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.append((" ".join(action.option_strings), action.dest, action.default,
                     getattr(action.type, "__name__", action.type), action.nargs, action.required,
                     None if action.choices is None else tuple(action.choices)))
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(surface(sub, f"{path} {name}".strip()))
    table[path] = in_order(rows)
    return table


def test_parser_surface_is_pinned():
    assert surface(build_parser()) == {path: in_order(rows) for path, rows in SURFACE.items()}
