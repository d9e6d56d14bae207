"""Tests of the benchmark itself: the reference check, the traced run's
counts and self-time accounting, robustness to missing targets, and the
refusal to run without library sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import worker
from fracwave import coupled_ms
from fracwave import kirchhoff_solver

BENCH = Path(__file__).resolve().parent
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
TINY = {
    "1d": ["command=temporal-study", "example=ex1", "alpha=1.5", "N=8,16", "threads=1"],
    "2d": ["command=temporal-study", "example=ex2", "alpha=1.5", "N=4,8", "threads=1"],
}


def _reference(name):
    return (BENCH / WORKLOADS[name]["reference"]).read_text()


def _edit(text, row, column, value):
    """Replace one field of a CSV text; row 0 is the first data row."""
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_passes_its_own_check(name):
    ref = _reference(name)
    assert run.check_rows(ref, ref) == (3, 0)


@pytest.mark.parametrize("row", [0, 1, 2])
def test_altered_error_string_fails_the_row(row):
    ref = _reference("ex1_wide")
    error = ref.splitlines()[row + 1].split(",")[4]
    altered = _edit(ref, row, "error", error[:3] + str((int(error[3]) + 1) % 10) + error[4:])
    assert run.check_rows(ref, altered) == (3, 1)


def test_oc_is_compared_within_tolerance_and_timing_columns_are_ignored():
    ref = _reference("ex2_solve")
    oc = float(ref.splitlines()[1].split(",")[5])
    near = _edit(ref, 0, "oc", f"{oc + 5e-7:.7f}")
    near = _edit(near, 0, "seconds", "12.345")
    near = _edit(near, 2, "cg_iters", "4")
    assert run.check_rows(ref, near) == (3, 0)
    assert run.check_rows(ref, _edit(ref, 0, "oc", f"{oc + 2e-6:.6f}")) == (3, 1)
    assert run.check_rows(ref, _edit(ref, 2, "oc", "0.5")) == (3, 1)


def test_missing_rows_fail():
    ref = _reference("ex1_levels")
    assert run.check_rows(ref, "\n".join(ref.splitlines()[:3]) + "\n") == (3, 1)
    assert run.check_rows(ref, "") == (3, 3)


def test_self_times_and_eval_split_on_synthetic_spans():
    spans = [
        ["cli.main", 0.0, 10.0, None, None, None],
        ["mms_harness.run_single_case", 1.0, 9.0, 0, 1, None],
        ["kirchhoff_solver.solve_all", 2.0, 6.0, 1, 1, None],
        ["kirchhoff_solver.step", 3.0, 4.0, 2, 1, {"n": 2, "read_bytes": 32}],
        ["fem_space.h1_seminorm_error", 7.0, 8.0, 1, 1, None],
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["mms_harness.self_s"] == 3.0
    assert m["kirchhoff_solver.self_s"] == 4.0
    assert m["fem_space.self_s"] == 1.0
    assert m["mms_harness.solve_s"] == 4.0
    assert m["mms_harness.eval_s"] == 3.0
    assert m["kirchhoff_solver.step_self_s"] == 1.0
    assert m["kirchhoff_solver.history_read_bytes"] == 32
    assert "fem_space.spd_solve_s" not in m


def _traced(tmp_path, tokens, tag, targets=None):
    return worker.run_table(
        tokens + [f"output={tmp_path / (tag + '.csv')}"], str(tmp_path / (tag + ".jsonl")), targets
    )


@pytest.mark.parametrize("dim", sorted(TINY))
def test_traced_counts_repeat_and_self_times_add_up(tmp_path, dim):
    first = _traced(tmp_path, TINY[dim], "a")
    second = _traced(tmp_path, TINY[dim], "b")
    assert first["rc"] == second["rc"] == 0
    assert first["absent_targets"] == []
    layers = first["layers"]
    assert set(layers) == set(tracer.METRICS) - {"trace.overhead_frac"}
    assert {k: layers[k] for k in tracer.COUNTS} == {k: second["layers"][k] for k in tracer.COUNTS}

    selves = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert selves == pytest.approx(layers["trace.wall_s"], rel=1e-9)

    ns = [int(n) for n in TINY[dim][3].split("=")[1].split(",")]
    width = {"1d": lambda ms: ms - 1, "2d": lambda ms: (ms - 1) ** 2}[dim]
    ms = [width(coupled_ms(n, 0.75)) for n in ns]
    assert layers["kirchhoff_solver.levels"] == sum(n - 1 for n in ns)
    assert layers["caputo_l1.l1_row_calls"] == sum(ns)  # N - 1 steps and 1 initialize per case
    assert layers["kirchhoff_solver.history_bytes"] == 16 * (ns[-1] + 1) * ms[-1]
    assert layers["kirchhoff_solver.history_read_bytes"] == sum(
        16 * n * m for N, m in zip(ns, ms) for n in range(2, N + 1)
    )
    spans = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert spans[0]["name"] == tracer.ROOT_SPAN and spans[0]["parent"] is None
    assert {s["case"] for s in spans[1:]} == {1, 2}
    # the wrappers are gone once the run ends
    assert not hasattr(kirchhoff_solver.step, "__wrapped__")


def test_missing_target_or_changed_state_marks_metrics_absent(tmp_path, monkeypatch):
    targets = [t for t in tracer.TARGETS if t[1] != "spd_solve"]
    targets.append(("fracwave.kirchhoff_solver", "dst_solve"))
    monkeypatch.setitem(
        tracer.EXTRACTORS, "kirchhoff_solver.initialize", lambda args, result: result.history
    )
    out = _traced(tmp_path, TINY["1d"], "c", targets)
    assert out["rc"] == 0
    assert out["absent_targets"] == ["fracwave.kirchhoff_solver.dst_solve"]
    gone = {"fem_space.spd_solve_s", "fem_space.cg_iters_total", "fem_space.cg_iters_max",
            "kirchhoff_solver.history_bytes"}
    assert set(out["layers"]) == set(tracer.METRICS) - {"trace.overhead_frac"} - gone


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ex1_levels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_overhead_is_the_median_of_per_round_ratios():
    plain = [{"table_s": t} for t in (1.0, 2.0, 4.0)]
    traced = [{"table_s": t, "layers": {"trace.wall_s": t, "fem_space.cg_iters_total": 5},
               "absent_targets": []} for t in (1.1, 2.0, 4.8)]
    metrics, summary = run._layer_results(plain, traced)
    assert metrics["trace.overhead_frac"]["value"] == pytest.approx(1.1)
    assert metrics["trace.wall_s"]["value"] == 2.0
    assert summary["samples"] == 3 and summary["counts_repeat"]


def test_failed_setup_leaves_setup_out_and_keeps_the_tables(tmp_path, monkeypatch, capsys):
    reference = tmp_path / "tiny.csv"
    assert worker.run_table(TINY["1d"] + [f"output={reference}"])["rc"] == 0
    (tmp_path / "workloads.json").write_text(
        json.dumps({"tiny": {"argv": TINY["1d"], "reference": str(reference)}})
    )
    monkeypatch.setattr(run, "WORKLOADS", tmp_path / "workloads.json")
    real_worker = run._worker

    def missing_case(args, env, started):
        if args[0] == "setup":
            args = ["setup", "no_such_example", *args[2:]]
        return real_worker(args, env, started)

    monkeypatch.setattr(run, "_worker", missing_case)
    result = run.run("tiny", 1, 0.1, 0)
    detail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(run.END_TO_END) - {"setup_s"}
    assert "no_such_example" in detail["setup_error"]
    assert detail["table_s"]["n"] == run.MIN_ROUNDS
    assert result["correct"] and result["attempted"] == 2 * run.MIN_ROUNDS
