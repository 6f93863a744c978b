"""Tests of the benchmark itself: generator, corruptions, checks, output names.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import gen, jobs, run, speed, tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _max_coverage(words, q: int, n: int) -> int:
    """Reference maximum ball coverage over every vertex of H(n, q)."""
    counts = Counter(words)
    if q == 2:
        return max(sum(counts[v] for v in gen.binary_ball(u, n)) for u in range(1 << n))
    return max(sum(counts[v] for v in gen.qary_ball(u, q)) for u in gen._all_words(n, q))


def _is_extended_unitrade(keys, n: int) -> bool:
    """Reference: constant parity, opposite-parity balls meet the set in 0 or 2."""
    if len({k.bit_count() % 2 for k in keys}) != 1:
        return False
    counts = Counter(k ^ (1 << b) for k in keys for b in range(n))
    return all(c == 2 for c in counts.values())


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_rounds_are_deterministic_per_seed(workload):
    assert gen.make_round(workload, 7, 0) == gen.make_round(workload, 7, 0)
    assert gen.make_round(workload, 7, 1) == gen.make_round(workload, 7, 1)


@pytest.mark.parametrize("workload", ("certify", "identify"))
def test_seeds_give_different_inputs(workload):
    texts = lambda seed: [j.texts for j in gen.make_round(workload, seed, 0)]  # noqa: E731
    assert texts(1) != texts(2)


def test_exact_seed_only_orders_the_jobs():
    key = lambda j: (j.kind, j.family)  # noqa: E731
    a, b = gen.make_round("exact", 1, 0), gen.make_round("exact", 2, 0)
    assert sorted(map(key, a)) == sorted(map(key, b))


def test_round_composition_is_fixed():
    kinds = lambda seed: Counter((j.kind, j.corruption, j.qary) for j in gen.make_round("certify", seed, 0))  # noqa: E731
    assert kinds(1) == kinds(2)
    jobs_ = gen.make_round("certify", 1, 0)
    corrupted = sum(1 for j in jobs_ if j.corruption) / len(jobs_)
    assert 0.2 <= corrupted <= 0.3
    ident = gen.make_round("identify", 1, 0)
    assert sum(j.repeat for j in ident) == gen.IDENTIFY_REPEATS


def test_repeats_follow_their_original():
    order = gen.make_round("identify", 3, 0)
    for i, job in enumerate(order):
        if job.repeat:
            assert any(not o.repeat and o.texts == job.texts for o in order[:i])


def test_qary_sizes_stay_desk_scale():
    for job in gen.make_round("certify", 1, 0):
        if job.qary:
            assert job.params["q"] ** job.params["n"] <= 2500


# ---------------------------------------------------------------------------
# isometric images keep their class and verdict
# ---------------------------------------------------------------------------

def test_identify_images_keep_distance_profile():
    for name in set(gen.IDENTIFY_CANON) | set(gen.IDENTIFY_SAME):
        n, keys = gen.binary_source(name)
        image = gen.binary_image(keys, n, gen.random.Random(name))
        assert gen.distance_profile(sorted(image)) == gen.distance_profile(sorted(keys))


@pytest.mark.parametrize("seed", (1, 2))
def test_valid_packings_keep_their_coverage(seed):
    for job in gen.make_round("certify", seed, 0):
        if job.kind == "verify" and not job.corruption:
            assert _max_coverage(job.words, job.params["q"], job.params["n"]) == job.truth["max_coverage"]


def test_valid_unitrades_stay_unitrades():
    for job in gen.make_round("certify", 4, 0):
        if job.kind in ("analyze", "five_cell") and not job.corruption and not job.qary:
            assert _is_extended_unitrade(job.words, len(job.texts[0].splitlines()[1]))


def test_certify_round_passes_its_checks(lib):
    for job in gen.make_round("certify", 5, 0):
        answer = jobs.run_job(lib, tracing.NULL_TRACER, job)
        assert jobs.check_job(job, answer, lib), (job.kind, job.family, job.corruption)


def test_length8_identify_jobs_pass_their_checks(lib):
    small = [j for j in gen.make_round("identify", 5, 0) if j.texts[0].startswith("2 8\n")]
    assert small
    for job in small:
        answer = jobs.run_job(lib, tracing.NULL_TRACER, job)
        assert jobs.check_job(job, answer, lib), (job.kind, job.family)


def test_pinned_classes_match_the_library(lib):
    """Class representatives recorded at the seed are the library's canonical forms."""
    for n in (4, 6, 8):
        reps = [tuple(w.key for w in c.representative.words)
                for c in lib.search.classify_extended_unitrades(lib.search.SearchConfig(n))]
        assert reps == [tuple(gen.pinned()["sets"][name]["keys"]) for name in gen.pinned()["classes"][str(n)]]
    assert gen.binary_source("L8")[1] == [w.key for w in lib.search.canonical_form(lib.constructions.l_star(8)).words]


def test_wrong_answers_fail_their_checks(lib):
    job = next(j for j in gen.make_round("certify", 1, 0) if j.kind == "five_cell")
    answer = jobs.run_job(lib, tracing.NULL_TRACER, job)
    answer["sizes"] = (32, 320, 480, 192)
    assert not jobs.check_job(job, answer, lib)
    job = next(j for j in gen.make_round("identify", 1, 0) if j.kind == "equiv")
    assert not jobs.check_job(job, {"equivalent": not job.truth["equivalent"]}, lib)


# ---------------------------------------------------------------------------
# corruptions really break the property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(1, 6))
def test_every_corruption_breaks_the_property(seed):
    for job in gen.make_round("certify", seed, 0):
        if not job.corruption:
            continue
        if job.kind == "verify":
            assert _max_coverage(job.words, job.params["q"], job.params["n"]) > job.params["lam"]
        elif job.kind == "analyze":
            assert not _is_extended_unitrade(job.words, job.params["n"])
        else:
            assert job.kind == "partition"
            assert not gen.distance_partition_equitable(list(job.words), 10)


def test_corrupted_partitions_are_not_equitable_in_the_library(lib):
    for seed in range(1, 6):
        for job in gen.make_round("certify", seed, 0):
            if job.kind == "partition" and job.corruption:
                code = lib.core.parse_code(job.texts[0])
                matrix, witness = lib.partitions.is_equitable(code.space, lib.partitions.distance_cells(code))
                assert matrix is None and witness is not None


def test_near_misses_change_the_distance_profile():
    for job in gen.make_round("identify", 2, 0):
        if job.family.endswith("|near"):
            assert job.profile_reject and job.truth["equivalent"] is False


# ---------------------------------------------------------------------------
# tracing and output
# ---------------------------------------------------------------------------

def test_self_time_excludes_children():
    tr = tracing.Tracer()
    with tr.job(0):
        with tr.span("core.parse_code", bytes=5):
            pass
    table = tr.layer_table()
    job, child = tr.spans
    assert child["parent"] == 0 and child["job"] == 0
    expected = (job["end"] - job["start"]) - (child["end"] - child["start"])
    assert table["job"]["self_s"] == pytest.approx(expected)
    assert table["core.parse_code"]["counts"] == {"bytes": 5}


def test_speed_factor_uses_samples_during_the_job():
    sp = speed.Speed()
    sp.times = [0.0, 1.0, 1.5, 2.0, 10.0]
    sp.kernel_s = [0.004, 0.001, 0.002, 0.002, 0.004]
    # the samples within PAD_S of the job, averaged as speeds
    expected = speed.REF_KERNEL_S * (1 / 0.001 + 1 / 0.002 + 1 / 0.002) / 3
    assert sp.factor(1.0 + speed.PAD_S / 2, 2.0 - speed.PAD_S / 2) == pytest.approx(expected)


def test_timer_samples_are_kept_out_of_the_clock():
    sp = speed.Speed()
    with sp:
        start = sp.clock()
        wall = time.perf_counter()
        while time.perf_counter() - wall < 3 * speed.INTERVAL_S:
            pass
        own = sp.clock() - start
        wall = time.perf_counter() - wall
    assert len(sp.kernel_s) >= 2
    assert own == pytest.approx(wall - sum(sp.kernel_s), abs=0.002)


def test_scaled_times_follow_the_kernel():
    result = run.Pass()
    result.speed.times = [0.0, 0.5, 1.0, 1.5, 2.0]
    result.speed.kernel_s = [2 * speed.REF_KERNEL_S] * 5
    result.records = [run.Record(gen.Job("canon", "L8"), 0.5, 1.0, 1.5, True)]
    assert result.latencies() == [pytest.approx(0.25)]
    assert result.latencies(scaled=False) == [pytest.approx(0.5)]
    assert result.jobs_per_s() == pytest.approx(2.0)


def _last_json(argv, monkeypatch) -> tuple[int, dict]:
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def test_printed_names_match_benchmark_json(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
    code, result = _last_json(["--workload", "certify", "--seed", "1", "--seconds", "0.01", "--trace", "0"], monkeypatch)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    code, result = _last_json(["--workload", "certify", "--seed", "1", "--seconds", "0.01", "--trace", "1"], monkeypatch)
    assert code == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["analysis.corrupt_rejected_ratio"]["value"] == 1.0
    assert (tmp_path / "trace-certify-1.json").is_file()


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
