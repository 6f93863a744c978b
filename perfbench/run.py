"""The hampack benchmark: one seeded workload, run in-process as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client, one process, no threads: each job starts when the previous
one has been checked.  Jobs come in rounds of fixed composition (see
gen.py); a run measures whole rounds, as many as bring the measured time
nearest to ``--seconds``, and at least MIN_JOBS jobs.

Every time reported is scaled to a reference host speed (speed.py): a
fixed kernel is timed before each job and every 0.1 s while one runs,
and a job's seconds are multiplied by the reference kernel time over the
kernel's times during it.  The unscaled figures are printed above the
result line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced pass for half the time, re-imports the library so that its
caches start cold again, runs the same rounds traced, prints the
per-layer metrics and writes every span to perfbench/out/.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 1 when any job gave a wrong answer, and 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT))

from perfbench import gen, jobs, speed, tracing  # noqa: E402

MODULES = ("core", "linalg", "bounds", "analysis", "constructions", "partitions", "search")
SETUP_REPEATS = 25
# the 90th percentile needs at least ten jobs beyond it
MIN_JOBS = 110


def load_library() -> SimpleNamespace:
    """Import hampack afresh and finish its lazy set-up."""
    for name in [m for m in sys.modules if m == "hampack" or m.startswith("hampack.")]:
        del sys.modules[name]
    importlib.import_module("hampack")
    lib = SimpleNamespace(**{m: importlib.import_module(f"hampack.{m}") for m in MODULES})
    lib.constructions.embedded_data()
    return lib


def measure_setup() -> tuple[SimpleNamespace, float, float]:
    """Set up SETUP_REPEATS times; return the library and the median set-up
    seconds, scaled and unscaled."""
    sp = speed.Speed()
    scaled, raw = [], []
    with sp:
        for _ in range(SETUP_REPEATS):
            sp.sample()
            start = sp.clock()
            lib = load_library()
            end = sp.clock()
            raw.append(end - start)
            scaled.append((end - start) * sp.factor(start, end))
        sp.sample()
    return lib, statistics.median(scaled), statistics.median(raw)


@dataclass
class Record:
    """One job: ``Speed.clock`` readings at its start, its answer and its check."""

    job: gen.Job
    start: float
    done: float
    checked: float
    ok: bool


class Pass:
    """Outcome of running a sequence of rounds, with the kernel samples
    taken before and during its jobs."""

    def __init__(self) -> None:
        self.rounds: list[list[gen.Job]] = []
        self.records: list[Record] = []
        self.speed = speed.Speed()
        self.wall = 0.0  # unscaled seconds from job starts to checks

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def factors(self) -> list[float]:
        return [self.speed.factor(r.start, r.checked) for r in self.records]

    def latencies(self, scaled: bool = True) -> list[float]:
        """Per-job seconds from start to answer."""
        factors = self.factors() if scaled else [1.0] * len(self.records)
        return [(r.done - r.start) * f for r, f in zip(self.records, factors)]

    def jobs_per_s(self, scaled: bool = True) -> float:
        """Jobs over the seconds from their starts to their checks."""
        factors = self.factors() if scaled else [1.0] * len(self.records)
        return len(self.records) / sum((r.checked - r.start) * f for r, f in zip(self.records, factors))


def run_round(lib, tr, round_jobs: list[gen.Job], result: Pass) -> None:
    """Run one round with the speed sampler on; the caller holds it open."""
    gc.collect()
    clock = result.speed.clock
    for job in round_jobs:
        result.speed.sample()
        job_id = len(result.records)
        done = None
        t0 = clock()
        try:
            with tr.job(job_id):
                answer = jobs.run_job(lib, tr, job)
            done = clock()
            ok = jobs.check_job(job, answer, lib)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        checked = clock()
        if not ok:
            print(f"FAILED job {job_id}: {job.kind} {job.family} corruption={job.corruption}", file=sys.stderr)
        result.records.append(Record(job, t0, done or checked, checked, ok))
        result.wall += checked - t0
    result.speed.sample()
    result.rounds.append(round_jobs)


def timed_pass(lib, workload: str, seed: int, seconds: float, min_jobs: int) -> Pass:
    """Whole rounds, as many as bring the measured time nearest to
    ``seconds``, and at least ``min_jobs`` jobs; generating a round is
    not timed."""
    result = Pass()
    index = 0
    with result.speed:
        while index == 0 or len(result.records) < min_jobs or result.wall + result.wall / index / 2 < seconds:
            run_round(lib, tracing.NULL_TRACER, gen.make_round(workload, seed, index), result)
            index += 1
    return result


def composition(result: Pass) -> dict:
    """Job-kind shares and the input properties the workloads vary."""
    recs = [(r.job, lat) for r, lat in zip(result.records, result.latencies())]
    total = len(recs)
    kinds: dict[str, int] = {}
    for job, _ in recs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    job_time = sum(lat for _, lat in recs)
    return {
        "jobs": total,
        "rounds": len(result.rounds),
        "kind_share": {k: v / total for k, v in sorted(kinds.items())},
        "corrupted_share": sum(1 for j, _ in recs if j.corruption) / total,
        "qary_share": sum(1 for j, _ in recs if j.qary) / total,
        "qary_time_share": sum(lat for j, lat in recs if j.qary) / job_time,
        "repeat_share": sum(1 for j, _ in recs if j.repeat) / total,
        "profile_reject_share": sum(1 for j, _ in recs if j.profile_reject) / total,
    }


def corrupt_rejected_ratio(result: Pass) -> float:
    """Corrupted inputs rejected with a witness over corrupted inputs
    (a corrupted job passes its check only when so rejected); 1.0 when
    the workload submits none."""
    corrupt = [r.ok for r in result.records if r.job.corruption]
    return sum(corrupt) / len(corrupt) if corrupt else 1.0


def end_to_end_metrics(setup_s: float, result: Pass) -> dict:
    latencies = result.latencies()
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (result.jobs_per_s(), "1/s"),
        "job_s.p50": (statistics.median(latencies), "s"),
        "job_s.p90": (statistics.quantiles(latencies, n=10)[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(table: dict, untraced: Pass, traced: Pass) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        row = table.get(layer, {"calls": 0, "s": 0.0})
        metrics[f"{layer}.s"] = (row["s"], "s")
        metrics[f"{layer}.calls"] = (row["calls"], "count")

    def count(layer: str, key: str) -> int:
        return table.get(layer, {}).get("counts", {}).get(key, 0)

    metrics["core.parse_code.bytes"] = (count("core.parse_code", "bytes"), "bytes")
    for key in ("codewords", "vertices"):
        metrics[f"analysis.verify_packing.{key}"] = (
            count("analysis.verify_packing.q2", key) + count("analysis.verify_packing.qary", key), "count")
    metrics["analysis.corrupt_rejected_ratio"] = (corrupt_rejected_ratio(traced), "ratio")
    metrics["search.are_equivalent.profile_rejects"] = (
        count("search.are_equivalent", "profile_rejects"), "count")
    metrics["search.classify_extended_unitrades.classes"] = (
        count("search.classify_extended_unitrades", "classes"), "count")
    metrics["bench.self.s"] = (table.get(tracing.JOB, {"self_s": 0.0})["self_s"], "s")
    metrics["trace.overhead"] = (traced.jobs_per_s() / untraced.jobs_per_s(), "ratio")
    return metrics


def print_report(workload: str, seed: int, metrics: dict, result: Pass, table: dict | None,
                 raw_setup_s: float) -> None:
    comp = composition(result)
    print(f"workload {workload}  seed {seed}  rounds {comp['rounds']}  jobs {comp['jobs']}  "
          f"measured {result.wall:.3f} s")
    print(f"failed_frac {result.failed / comp['jobs']:.6g} (failed {result.failed} of {comp['jobs']})")
    latencies = sorted(result.latencies())
    p90 = statistics.quantiles(latencies, n=10)[8]
    print(f"latency samples {len(latencies)}, beyond p90 {sum(1 for x in latencies if x > p90)}")
    raw = result.latencies(scaled=False)
    print(f"speed kernel median {result.speed.median_kernel_s():.6g} s, reference {speed.REF_KERNEL_S} s; "
          f"unscaled setup_s {raw_setup_s:.6g} jobs_per_s {result.jobs_per_s(scaled=False):.6g} "
          f"job_s.p50 {statistics.median(raw):.6g} job_s.p90 {statistics.quantiles(raw, n=10)[8]:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print("composition " + json.dumps(comp, sort_keys=True))
    if table is not None:
        job_time = table.get(tracing.JOB, {"s": 0.0})["s"] or 1.0
        print(f"  {'span':40s} {'calls':>8s} {'busy s':>10s} {'self s':>10s} {'self share':>10s}")
        for name in (tracing.JOB, *tracing.LAYERS):
            row = table.get(name)
            if row:
                print(f"  {name:40s} {row['calls']:8d} {row['s']:10.4f} {row['self_s']:10.4f} "
                      f"{row['self_s'] / job_time:10.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hampack" / "__init__.py").is_file():
        print(f"error: hampack sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    lib, setup_s, raw_setup_s = measure_setup()

    if args.trace == 0:
        result = timed_pass(lib, args.workload, args.seed, args.seconds, MIN_JOBS)
        attempted, failed = len(result.records), result.failed
        metrics = end_to_end_metrics(setup_s, result)
        print_report(args.workload, args.seed, metrics, result, None, raw_setup_s)
    else:
        untraced = timed_pass(lib, args.workload, args.seed, args.seconds / 2, 1)
        lib = load_library()
        traced = Pass()
        tracer = tracing.Tracer(traced.speed.clock)
        with traced.speed:
            for round_jobs in untraced.rounds:
                run_round(lib, tracer, round_jobs, traced)
        table = tracer.layer_table(dict(enumerate(traced.factors())))
        attempted = len(untraced.records) + len(traced.records)
        failed = untraced.failed + traced.failed
        metrics = per_layer_metrics(table, untraced, traced)
        print_report(args.workload, args.seed, metrics, traced, table, raw_setup_s)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json", table,
                     {"workload": args.workload, "seed": args.seed, "composition": composition(traced),
                      "metrics": {k: v for k, (v, _) in metrics.items()}})

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
