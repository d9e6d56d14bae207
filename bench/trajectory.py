"""Repeat the benchmark over seeds and record one trajectory entry.

    python3 bench/trajectory.py --label seed

Runs every workload of bench/workloads.json RUNS times with --trace 0,
with seeds 1..RUNS and the workloads interleaved, then once each with
--trace 1, at the run_seconds of BENCHMARK.json.  Writes bench/results/BENCH_<label>.json with every run's
result and detail line, and for each end-to-end metric its median,
quartiles and spread: the distance between the quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  The file
is rewritten after every run, so an interrupted trajectory keeps what it
measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr}")
    return {"seed": seed, "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def summarize(runs, names):
    return {name: _stats([r["result"]["metrics"][name]["value"] for r in runs])
            for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = list(json.loads((BENCH / "workloads.json").read_text()))
    names = [m["name"] for m in spec["end_to_end"]]
    path = BENCH / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    record = {"label": args.label, "run_seconds": spec["run_seconds"],
              "workloads": {w: {"runs": [], "traced": None} for w in workloads}}

    def save():
        path.write_text(json.dumps(record, indent=1) + "\n")

    for seed in range(1, RUNS + 1):
        for w in workloads:
            entry = record["workloads"][w]
            entry["runs"].append(_run(w, seed, spec["run_seconds"], 0))
            entry["summary"] = summarize(entry["runs"], names)
            record["env"] = entry["runs"][0]["detail"]["env"]
            save()
            print(w, json.dumps({k: round(v["spread"], 4) for k, v in entry["summary"].items()}),
                  flush=True)
    for w in workloads:
        record["workloads"][w]["traced"] = _run(w, 1, spec["run_seconds"], 1)
        save()
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
