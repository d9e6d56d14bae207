"""Time-to-table benchmark for fracwave.

    python3 bench/run.py --workload ex1_levels --seed 1 --seconds 60 --trace 0

Runs one study workload from bench/workloads.json through the library's
CLI entry point (``fracwave.cli.main``), each table in a fresh worker
process, and checks every row it writes against the committed reference
in bench/reference/ (made from the seed code).  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted and failed count study rows; a CLI failure fails every row of
its table.  The line before the result holds the sample values and
quartiles, sum(N*M), the seed and the environment.

The run repeats rounds for about ``--seconds``, and at least MIN_ROUNDS
times.  With ``--trace 0`` a round is SETUP_PER_ROUND set-up processes
and one table, and the result holds the end-to-end metrics: table_s
(median wall time of the cli.main call), setup_s (median time of
``import fracwave`` plus mesh and solver set-up for every case) and
peak_rss_mb (median ru_maxrss of the table processes).  If a set-up
process fails, setup_s is left out, the error goes into the detail line
and the tables still run.  With ``--trace 1`` a round is one untraced and
one traced table, and the result holds the per-layer metrics of
bench/tracer.py.

The study inputs are manufactured and deterministic: the seed is
accepted and recorded but does not change them.  Exits 2 without a
result when the checkout has no fracwave sources.
"""

import argparse
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = BENCH / "workloads.json"
SETUP_PER_ROUND = 3
# every run gets MIN_ROUNDS tables (pairs when traced) unless that would
# pass START_LIMIT_S: no round starts that would end past it, and a stuck
# worker is killed at WORKER_LIMIT_S, inside the 180 s a run may take
MIN_ROUNDS = 3
START_LIMIT_S = 120.0
WORKER_LIMIT_S = 170.0
OC_TOL = 1e-6
END_TO_END = {"table_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DIMENSION = {"ex1": 1, "ex2": 2}


class BenchError(RuntimeError):
    pass


def _key(row):
    return row.get("alpha"), row.get("N"), row.get("Ms")


def _row_matches(ref, got):
    """error equal at %.2E; oc within OC_TOL (both empty on a finest row)."""
    if got.get("error") != ref["error"]:
        return False
    if ref["oc"] == "" or got.get("oc") in ("", None):
        return ref["oc"] == got.get("oc")
    try:
        return abs(float(got["oc"]) - float(ref["oc"])) <= OC_TOL
    except ValueError:
        return False


def check_rows(reference_text, output_text):
    """(attempted, failed) rows of a study CSV against its reference.

    Rows are matched on (alpha, N, Ms); a missing row fails.  The seconds
    and cg_iters columns are not compared.
    """
    reference = list(csv.DictReader(io.StringIO(reference_text)))
    got = {_key(row): row for row in csv.DictReader(io.StringIO(output_text))}
    failed = sum(
        1 for ref in reference
        if _key(ref) not in got or not _row_matches(ref, got[_key(ref)])
    )
    return len(reference), failed


def spread(values):
    """Median, quartiles and sample count of a list of measurements."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _worker_env():
    env = dict(os.environ)
    env.pop("FRACWAVE_THREADS", None)  # the workloads are serial
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, env, started):
    timeout = started + WORKER_LIMIT_S - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run(workload, seed, seconds, trace):
    spec = json.loads(WORKLOADS.read_text())[workload]
    reference = (BENCH / spec["reference"]).read_text()
    ref_rows = list(csv.DictReader(io.StringIO(reference)))
    example = next(t.split("=", 1)[1] for t in spec["argv"] if t.startswith("example="))
    cases = [[float(r["alpha"]), int(r["N"]), int(r["Ms"])] for r in ref_rows]
    sum_nm = sum(N * (Ms - 1) ** DIMENSION[example] for _, N, Ms in cases)

    OUT.mkdir(exist_ok=True)
    env = _worker_env()
    setup_args = ["setup", example, json.dumps(cases)]
    csv_path = OUT / f"{workload}-{os.getpid()}.csv"
    samples = {"plain": [], "traced": []}
    setup = []
    setup_error = None
    attempted = failed = 0
    started = time.monotonic()
    longest_round = 0.0
    # Rounds repeat while the next one, predicted to last as long as the
    # longest so far, still ends within the measuring time, or fewer than
    # MIN_ROUNDS have run.  Set-up samples are spread over the run like the
    # tables, so both see the same changes in machine load.
    while True:
        round_start = time.monotonic()
        if not trace and setup_error is None:
            try:
                for _ in range(SETUP_PER_ROUND):
                    setup.append(_worker(setup_args, env, started))
            except BenchError as exc:
                setup_error = str(exc)
        for kind in ("plain", "traced") if trace else ("plain",):
            spans = OUT / f"spans-{workload}-{len(samples['traced'])}.jsonl"
            res = _worker(
                ["table", str(csv_path), str(spans) if kind == "traced" else "-", *spec["argv"]],
                env, started,
            )
            text = csv_path.read_text() if res["rc"] == 0 and csv_path.exists() else ""
            csv_path.unlink(missing_ok=True)
            a, f = check_rows(reference, text)
            attempted += a
            failed += f
            samples[kind].append(res)
        now = time.monotonic()
        longest_round = max(longest_round, now - round_start)
        limit = seconds if len(samples["plain"]) >= MIN_ROUNDS else START_LIMIT_S
        if now + longest_round - started > min(limit, START_LIMIT_S):
            break

    plain = samples["plain"]
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "argv": spec["argv"],
        "sum_NM": sum_nm,
        "rows_failed": failed / attempted,
        "table_s": spread([s["table_s"] for s in plain]),
        "peak_rss_mb": spread([s["peak_rss_mb"] for s in plain]),
        "env": plain[0]["env"],
    }
    detail["NM_per_s"] = sum_nm / detail["table_s"]["median"]
    if trace:
        metrics, layers = _layer_results(plain, samples["traced"])
        detail["layers"] = layers
    else:
        if setup:
            detail["setup_s"] = spread([s["setup_s"] for s in setup])
        if setup_error is not None:
            detail["setup_error"] = setup_error
        metrics = {name: {"value": detail[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items() if name in detail}
    print(json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_results(plain, traced):
    """Median per-layer metrics over the traced samples, and a summary.

    trace.overhead_frac is the median over rounds of the traced table's
    time over the untraced one's that ran just before it.
    """
    values = defaultdict(list)
    for sample in traced:
        for name, value in sample["layers"].items():
            values[name].append(value)
    # counts repeat exactly, so any sample gives them
    medians = {name: v[0] if name in tracer.COUNTS else statistics.median(v)
               for name, v in values.items()}
    medians["trace.overhead_frac"] = statistics.median(
        t["table_s"] / p["table_s"] for p, t in zip(plain, traced)
    )
    metrics = {name: {"value": medians[name], "unit": unit}
               for name, unit in tracer.METRICS.items() if name in medians}
    summary = {
        "samples": len(traced),
        "absent_targets": traced[0]["absent_targets"],
        "absent_metrics": [name for name in tracer.METRICS if name not in medians],
        "counts_repeat": all(len(set(values[name])) == 1 for name in tracer.COUNTS
                             if name in values),
    }
    return metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracwave" / "__init__.py").is_file():
        print(f"error: no fracwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = json.loads(WORKLOADS.read_text())
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(names)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
