"""Config parsing, report formats, and end-to-end command runs at toy sizes."""

import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import fracwave
import fracwave.cli as cli_module

from fracwave import coupled_ms
from fracwave.cli import (
    COMMAND_NEEDS,
    CSV_HEADER,
    RUN_KEYS,
    TRAJECTORY_HEADER,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run,
)


def _recording_pool(sizes):
    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size in sizes, runs in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return RecordingPool


def test_parse_full_study_line():
    cfg = parse_config("command=temporal-study example=ex1 alpha=1.4,1.5,1.8 N=128,256,512,1024")
    assert cfg.command == "temporal-study"
    assert cfg.alpha == [1.4, 1.5, 1.8]
    assert cfg.N == [128, 256, 512, 1024]
    assert cfg.threads == 1
    assert cfg.timing == "fixed"


def test_parse_requires_command():
    with pytest.raises(ConfigError, match="command"):
        parse_config("")


@pytest.mark.parametrize(
    "line,key",
    [
        ("command=temporal-study alpha=2.5 N=8,16", "alpha"),
        ("command=temporal-study alpha=1.5 N=1,16", "N"),
        ("command=spatial-study alpha=1.5 Ms=1,8", "Ms"),
        ("command=temporal-study alpha=1.5 N=8,16 r=0.5", "r"),
        ("command=temporal-study alpha=1.5 N=8,16 threads=0", "threads"),
        ("command=caputo-check beta=1.5 sigma=1 N=8,16", "beta"),
        ("command=temporal-study alpha=1.5 N=8,16 timing=cpu", "timing"),
        ("command=fit alpha=1.5 N=8,16", "command"),
        ("command=temporal-study example=ex9 alpha=1.5 N=8,16", "ex"),
        ("command=temporal-study alpha=1.5 N=8,16 r=inf", "r"),
        ("command=caputo-check beta=0.7 sigma=inf N=8,16", "sigma"),
    ],
)
def test_parse_rejects_and_names_offender(line, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(line)


def test_an_unknown_example_names_every_available_one():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("command=solve example=ex3 alpha=1.5 N=4")
    assert str(excinfo.value) == "example must be one of ex1, ex2, got 'ex3'"


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="mesh"):
        parse_config("command=solve alpha=1.5 N=4 mesh=fine")
    # the solve always uses the fem_space quadrature rule and CG tolerance
    for line, key in [
        ("command=temporal-study alpha=1.5 N=8,16 quadrature=9", "quadrature"),
        ("command=temporal-study example=ex2 alpha=1.5 N=8,16 quadrature=2", "quadrature"),
        ("command=temporal-study alpha=1.5 N=8,16 tol=0", "tol"),
        ("command=temporal-study alpha=1.5 N=8,16 tol=1e-300", "tol"),
        ("command=temporal-study alpha=1.5 N=8,16 tol=inf", "tol"),
    ]:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(line)
        assert str(excinfo.value) == f"unknown key {key!r}"
        assert main(line.split()) == 2
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("command=solve alpha=1.5 alpha=1.6 N=4")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("temporal-study")


def test_every_config_field_is_a_key():
    keys = RUN_KEYS.union(*COMMAND_NEEDS.values())
    assert {f.name for f in dataclasses.fields(RunConfig)} == keys


def test_parse_command_specific_requirements():
    for line, message in [
        (
            "command=temporal-study N=8,16",
            "temporal-study needs alpha with at least 1 entry, got 0",
        ),
        (
            "command=temporal-study alpha=1.5 N=8",
            "temporal-study needs N with at least 2 entries, got 1",
        ),
        ("command=caputo-check N=8,16", "caputo-check needs beta with exactly 1 entry, got 0"),
        ("command=solve alpha=1.5 N=4,8", "solve needs N with exactly 1 entry, got 2"),
    ]:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(line)
        assert str(excinfo.value) == message


def test_solve_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    cfg = parse_config(f"command=solve example=ex1 alpha=1.5 N=2 Ms=4 output={out}")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("0,0,")
    assert "step condition" in capsys.readouterr().out


def test_temporal_study_csv_shape(tmp_path):
    out = tmp_path / "report.csv"
    cfg = parse_config(f"command=temporal-study example=ex1 alpha=1.5 N=8,16 output={out}")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1.5"
    assert first[1] == "8"
    assert first[2] == "14"  # round_even(8 ** 1.25)
    assert first[3] == "1.666667"
    assert "E" in first[4]
    assert len(first[5].split(".")[1]) == 6
    assert first[6] == "0.000"
    assert 0.6 < float(first[5]) < 1.9
    last = lines[2].split(",")
    assert last[5] == ""  # no order on the finest level


def test_plan_couples_caps_and_orders_the_tasks(monkeypatch):
    import fracwave.cli as cli_module

    monkeypatch.setattr(cli_module, "DEFAULT_N_CAP", 16)
    # coupled_n(4, 0.75) = 10, coupled_n(8, 0.75) = 28 > 16
    spatial = cli_module._plan(parse_config("command=spatial-study alpha=1.5 Ms=8,4"))
    assert spatial == [(1.5, 10, 4, 5.0 / 3.0, False), (1.5, 16, 8, 5.0 / 3.0, True)]
    temporal = cli_module._plan(parse_config("command=temporal-study alpha=1.8,1.4 N=16,8 r=2"))
    assert temporal == [
        (1.4, 8, coupled_ms(8, 0.7), 2.0, False),
        (1.4, 16, coupled_ms(16, 0.7), 2.0, False),
        (1.8, 8, coupled_ms(8, 0.9), 2.0, False),
        (1.8, 16, coupled_ms(16, 0.9), 2.0, False),
    ]
    solve = cli_module._plan(parse_config("command=solve alpha=1.5 N=8"))
    assert solve == [(1.5, 8, coupled_ms(8, 0.75), 5.0 / 3.0, False)]
    solve = cli_module._plan(parse_config("command=solve alpha=1.5 N=8 Ms=6"))
    assert solve == [(1.5, 8, 6, 5.0 / 3.0, False)]


def test_serial_reruns_are_byte_identical(tmp_path):
    text = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = parse_config(
            f"command=temporal-study example=ex1 alpha=1.5 N=8,16 output={out}"
        )
        assert run(cfg) == 0
        text.append(out.read_bytes())
    assert text[0] == text[1]


def test_wall_timing_opt_in(tmp_path):
    out = tmp_path / "walled.csv"
    cfg = parse_config(
        f"command=temporal-study example=ex1 alpha=1.5 N=8,16 timing=wall output={out}"
    )
    assert run(cfg) == 0
    for line in out.read_text().splitlines()[1:]:
        seconds = float(line.split(",")[6])
        assert seconds >= 0.0


def test_threaded_run_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    base = "command=temporal-study example=ex1 alpha=1.4,1.8 N=8,16"
    assert run(parse_config(f"{base} output={serial}")) == 0
    assert run(parse_config(f"{base} threads=2 output={threaded}")) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_caputo_check_rates(tmp_path):
    out = tmp_path / "caputo.csv"
    cfg = parse_config(f"command=caputo-check beta=0.7 sigma=0.7 N=32,64,128 output={out}")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in rows] == ["32", "64", "128"]
    assert all(row[0] == "1.4" and row[2] == "0" for row in rows)
    assert float(rows[1][5]) == pytest.approx(1.3, abs=0.15)


def test_bound_report_runs(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    cfg = parse_config(f"command=bound-report example=ex1 alpha=1.5 N=8,16 output={out}")
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    bounds = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(b > 0 for b in bounds)
    assert "step condition" in capsys.readouterr().out


def test_threaded_bound_report_uses_the_pool_and_matches_serial(tmp_path, monkeypatch):
    import fracwave.cli as cli_module

    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    base = "command=bound-report example=ex1 alpha=1.4,1.8 N=8,16"
    assert run(parse_config(f"{base} output={serial}")) == 0
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _recording_pool(sizes))
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 8)
    assert run(parse_config(f"{base} threads=2 output={threaded}")) == 0
    assert sizes == [2]
    assert serial.read_bytes() == threaded.read_bytes()


def test_spatial_study_prints_cap_note(tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    monkeypatch.setattr(cli_module, "DEFAULT_N_CAP", 16)
    out = tmp_path / "spatial.csv"
    cfg = parse_config(f"command=spatial-study example=ex1 alpha=1.5 Ms=4,8 output={out}")
    assert run(cfg) == 0
    captured = capsys.readouterr().out
    assert "capped" in captured
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_main_accepts_config_file(tmp_path):
    out = tmp_path / "from_file.csv"
    config = tmp_path / "study.cfg"
    config.write_text(f"command=solve example=ex1 alpha=1.5 N=2 Ms=4\noutput={out}\n")
    assert main([str(config)]) == 0
    assert out.exists()


def test_main_reports_config_errors(capsys):
    assert main(["command=unknown-thing"]) == 2
    assert "config error" in capsys.readouterr().err


def test_parse_rejects_missing_output_directory(tmp_path):
    with pytest.raises(ConfigError, match="output"):
        parse_config(f"command=solve alpha=1.5 N=4 output={tmp_path / 'nodir' / 'x.csv'}")


def test_output_naming_a_directory_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    for name in ("run_single_case", "truncation_study"):
        monkeypatch.setattr(cli_module, name, must_not_run)
    line = "command=temporal-study example=ex2 alpha=1.5 N=4,8"
    assert main(line.split() + [f"output={tmp_path}"]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_run_reports_a_failed_write_as_an_error(tmp_path, capsys):
    out = tmp_path / "report.csv"
    cfg = parse_config(f"command=caputo-check beta=0.7 sigma=0.7 N=8,16 output={out}")
    out.mkdir()
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err


def test_main_reports_runtime_failure(tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def failing_case(*args, **kwargs):
        raise RuntimeError("CG did not converge")

    monkeypatch.setattr(cli_module, "run_single_case", failing_case)
    out = tmp_path / "nope.csv"
    code = main([
        "command=temporal-study", "example=ex2", "alpha=1.5", "N=4,8", f"output={out}",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "command=temporal-study example=ex1 alpha=1.5 N=4,6",
        "command=temporal-study example=ex1 alpha=1.5 N=8,8",
        "command=spatial-study example=ex1 alpha=1.5 Ms=8,12",
        "command=spatial-study example=ex1 alpha=1.5 Ms=16,16",
        "command=caputo-check beta=0.7 sigma=0.7 N=32,48",
    ],
)
def test_bad_refinement_list_fails_before_any_solve(line, tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    monkeypatch.setattr(cli_module, "run_single_case", must_not_run)
    monkeypatch.setattr(cli_module, "truncation_study", must_not_run)
    out = tmp_path / "report.csv"
    assert main(line.split() + [f"output={out}"]) == 2
    assert "must be distinct and double" in capsys.readouterr().err
    assert not out.exists()


def test_caputo_check_sigma_below_beta_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert main(["command=caputo-check", "beta=0.7", "sigma=0.3", "N=8,16", f"output={out}"]) == 2
    assert "sigma >= beta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "threads, tasks, cpus, pool_size",
    [(64, 3, 8, 3), (64, 3, 2, 2), (2, 3, 8, 2), (64, 1, 8, None), (64, 3, None, None), (1, 3, 8, None)],
)
def test_pool_is_bounded_by_tasks_and_cpus(threads, tasks, cpus, pool_size, monkeypatch):
    import fracwave.cli as cli_module

    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _recording_pool(sizes))
    monkeypatch.setattr(cli_module, "_study_task", lambda task: -task)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: cpus)
    assert cli_module._run_tasks(list(range(tasks)), threads) == [-t for t in range(tasks)]
    assert sizes == ([] if pool_size is None else [pool_size])


def test_duplicate_alpha_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    monkeypatch.setattr(cli_module, "run_single_case", must_not_run)
    out = tmp_path / "report.csv"
    line = ["command=temporal-study", "example=ex1", "alpha=1.5,1.5", "N=4,8", f"output={out}"]
    assert main(line) == 2
    assert "alpha entries must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_caputo_check_times_each_row_on_its_own(tmp_path, monkeypatch):
    from types import SimpleNamespace

    import fracwave.cli as cli_module

    ticks = iter([0.0, 1.0, 10.0, 12.0, 100.0, 103.0])
    monkeypatch.setattr(cli_module, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    out = tmp_path / "caputo.csv"
    cfg = parse_config(f"command=caputo-check beta=0.7 sigma=0.7 N=8,16,32 timing=wall output={out}")
    assert run(cfg) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[6] for row in rows] == ["1.000", "2.000", "3.000"]


def test_bound_report_repeated_n_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    monkeypatch.setattr(cli_module, "run_single_case", must_not_run)
    out = tmp_path / "bound.csv"
    line = ["command=bound-report", "example=ex1", "alpha=1.5", "N=8,8", f"output={out}"]
    assert main(line) == 2
    assert "N entries must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line,key",
    [
        ("command=temporal-study example=ex1 alpha=1.5 N=8,16 Ms=64,128", "Ms"),
        ("command=spatial-study example=ex1 alpha=1.5 Ms=8,16 N=4", "N"),
        ("command=temporal-study example=ex1 alpha=1.5 N=8,16 beta=0.5", "beta"),
        ("command=bound-report example=ex1 alpha=1.5 N=8,16 Ms=8", "Ms"),
        ("command=solve example=ex1 alpha=1.5 N=8 sigma=0.7", "sigma"),
        ("command=caputo-check example=ex2 beta=0.7 sigma=0.7 N=8,16", "example"),
        ("command=caputo-check beta=0.7 sigma=0.7 N=8,16 alpha=1.4", "alpha"),
        ("command=solve example=ex1 alpha=1.5 N=8 timing=wall", "timing"),
        ("command=solve alpha=1.5 N=4 threads=4", "threads"),
    ],
)
def test_unread_problem_key_fails_before_any_solve(line, key, tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    for name in ("run_single_case", "truncation_study"):
        monkeypatch.setattr(cli_module, name, must_not_run)
    out = tmp_path / "report.csv"
    assert main(line.split() + [f"output={out}"]) == 2
    assert f"does not read '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line,message",
    [
        ("command=solve N=8", "solve needs alpha with exactly 1 entry, got 0"),
        ("command=solve alpha=1.5,1.6 N=8", "solve needs alpha with exactly 1 entry, got 2"),
        ("command=solve alpha=1.5", "solve needs N with exactly 1 entry, got 0"),
        ("command=solve alpha=1.5 N=8,16", "solve needs N with exactly 1 entry, got 2"),
        ("command=solve alpha=1.5 N=8 Ms=8,16", "solve needs Ms with at most 1 entry, got 2"),
        (
            "command=temporal-study N=8,16",
            "temporal-study needs alpha with at least 1 entry, got 0",
        ),
        (
            "command=temporal-study alpha=1.5 N=8",
            "temporal-study needs N with at least 2 entries, got 1",
        ),
        ("command=spatial-study Ms=8,16", "spatial-study needs alpha with at least 1 entry, got 0"),
        (
            "command=spatial-study alpha=1.5 Ms=8",
            "spatial-study needs Ms with at least 2 entries, got 1",
        ),
        ("command=bound-report N=8,16", "bound-report needs alpha with at least 1 entry, got 0"),
        ("command=bound-report alpha=1.5", "bound-report needs N with at least 1 entry, got 0"),
        (
            "command=caputo-check sigma=0.7 N=8,16",
            "caputo-check needs beta with exactly 1 entry, got 0",
        ),
        (
            "command=caputo-check beta=0.7 N=8,16",
            "caputo-check needs sigma with exactly 1 entry, got 0",
        ),
        (
            "command=caputo-check beta=0.7 sigma=0.7 N=8",
            "caputo-check needs N with at least 2 entries, got 1",
        ),
    ],
)
def test_entry_count_bounds_fail_before_any_solve(line, message, tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    for name in ("run_single_case", "truncation_study"):
        monkeypatch.setattr(cli_module, name, must_not_run)
    out = tmp_path / "report.csv"
    assert main(line.split() + [f"output={out}"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_empty_output_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["command=caputo-check", "beta=0.7", "sigma=0.7", "N=8,16", "output="]) == 2
    assert capsys.readouterr().err == "config error: output must name a file, got ''\n"
    assert os.listdir(tmp_path) == []


_NO_SCIPY_SCRIPT = """
import json, sys
from fracwave import cli
out = sys.argv[1]
lines = [
    "command=solve example=ex1 alpha=1.5 N=4 Ms=8",
    "command=temporal-study example=ex1 alpha=1.5 N=4,8",
    "command=temporal-study example=ex2 alpha=1.5 N=4,8",
    "command=spatial-study example=ex2 alpha=1.5 Ms=4,8",
    "command=bound-report example=ex1 alpha=1.5 N=4,8",
    "command=caputo-check beta=0.7 sigma=0.7 N=8,16",
]
codes = [cli.main(line.split() + [f"output={out}/{i}.csv"]) for i, line in enumerate(lines)]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_library_and_every_command_run_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracwave.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy": []}


def _physical_memory(monkeypatch, nbytes):
    """Report nbytes of physical memory, in pages of one byte."""
    import fracwave.cli as cli_module

    pages = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(cli_module.os, "sysconf_names", dict.fromkeys(pages, 0))
    monkeypatch.setattr(cli_module.os, "sysconf", pages.__getitem__)


def test_histories_beyond_physical_memory_are_refused_before_any_solve(tmp_path, capsys,
                                                                      monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    monkeypatch.setattr(cli_module, "run_single_case", must_not_run)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 4)
    # with more unknowns M = Ms - 1 than levels, 8 (N + 1) M for ubar,
    # 8 min(N + 1, 18) M for v and 8 (N + 1)^2 for the L1 matrix: 2,520 at
    # N = 8, Ms = 14 and 10,744 at N = 16, Ms = 32; one task at a time fits
    # in 12,000, two do not
    _physical_memory(monkeypatch, 12000)
    line = "command=temporal-study example=ex1 alpha=1.5 N=8,16"
    assert len(cli_module._plan(parse_config(line))) == 2
    out = tmp_path / "report.csv"
    assert main(line.split() + ["threads=2", f"output={out}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: alpha=1.5 N=16 Ms=32 needs 10,744 bytes of the ubar "
                          "history, a block of v and the L1 matrix")
    assert "13,264 bytes exceed the 12,000 bytes" in err
    assert not out.exists()
    # M <= N keeps both histories: 16 * 65 * 31 bytes
    assert main("command=solve example=ex1 alpha=1.5 N=64 Ms=32".split()) == 2
    assert "needs 32,240 bytes of dense level histories" in capsys.readouterr().err
    # the 2D histories count (Ms - 1)^2 unknowns: 8 (65 + 18) 511^2 + 8 * 65^2
    # bytes dense, and 16 * (18 + 82) * 511^2 on the 82 exponentials of a long run
    assert main("command=solve example=ex2 alpha=1.5 N=64 Ms=512".split()) == 2
    assert ("needs 173,418,144 bytes of the ubar history, a block of v and the L1 matrix"
            in capsys.readouterr().err)
    assert main("command=solve example=ex2 alpha=1.5 N=4096 Ms=512".split()) == 2
    assert ("needs 417,793,600 bytes of level histories streamed on 82 exponentials;"
            in capsys.readouterr().err)


def test_the_memory_check_charges_a_streamed_task_its_kept_rows(tmp_path, capsys, monkeypatch):
    # ex1 alpha = 1.8, N = 4096, Ms = 128 keeps 16 (16 + 2 + 69) 127 = 176,784
    # bytes on its 69 exponentials, and 16 * 4097 * 127 = 8,325,104 dense
    import fracwave.cli as cli_module
    import fracwave.kirchhoff_solver as ks

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    monkeypatch.setattr(cli_module, "run_single_case", must_not_run)
    _physical_memory(monkeypatch, 1_000_000)
    line = "command=solve example=ex1 alpha=1.8 N=4096 Ms=128"
    planned = cli_module._plan(parse_config(line))
    assert planned == [(1.8, 4096, 128, cli_module.recommended_grading(0.9), False)]
    monkeypatch.setattr(ks, "_SOE_LEVELS_PER_TERM", math.inf)
    out = tmp_path / "trajectory.csv"
    assert main(line.split() + [f"output={out}"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: alpha=1.8 N=4096 Ms=128 needs 8,325,104 bytes of dense level histories")
    assert not out.exists()


def test_plan_skips_the_memory_check_where_the_platform_has_no_page_count(monkeypatch):
    import fracwave.cli as cli_module

    monkeypatch.setattr(cli_module.os, "sysconf_names", {})
    monkeypatch.setattr(cli_module.os, "sysconf", None)
    cfg = parse_config("command=solve example=ex2 alpha=1.5 N=4096 Ms=512")
    assert len(cli_module._plan(cfg)) == 1


@pytest.mark.parametrize(
    "line",
    ["command=temporal-study example=ex1 alpha=1.5 N=8,16",
     "command=solve example=ex2 alpha=1.5 N=8",
     "command=bound-report example=ex1 alpha=1.5 N=8"],
)
def test_an_allocation_that_fails_names_its_task(line, tmp_path, capsys, monkeypatch):
    # every command that solves a case solves it through run_single_case
    import fracwave.cli as cli_module

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.97 GiB for an array")

    monkeypatch.setattr(cli_module, "run_single_case", no_memory)
    out = tmp_path / "report.csv"
    assert main(line.split() + [f"output={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha=1.5 N=8 Ms=")
    assert "ran out of memory: Unable to allocate 7.97 GiB" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, calls",
    [("command=temporal-study example=ex1 alpha=1.5 N=8,16", 1),
     ("command=spatial-study example=ex2 alpha=1.5 Ms=4,8", 1),
     ("command=solve example=ex2 alpha=1.5 N=8", 1),
     ("command=bound-report example=ex1 alpha=1.5 N=8,16", 0)],
    ids=["temporal", "spatial", "solve", "bound-report"],
)
def test_a_task_takes_the_ritz_projection_of_its_h1_errors_once(line, calls, monkeypatch):
    # solve builds its trajectory from the errors of the run's one H1
    # observer; bound-report prints the bound and evaluates no H1 error
    from fracwave import mms_harness

    counted = []
    project = mms_harness.ritz_projection

    def counting(*args, **kwargs):
        counted.append(args)
        return project(*args, **kwargs)

    monkeypatch.setattr(mms_harness, "ritz_projection", counting)
    cfg = parse_config(line)
    for task in cli_module._plan(cfg):
        before = len(counted)
        cli_module._study_task((cfg, task))
        assert len(counted) - before == calls


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.mark.parametrize("workload", ["ex1_levels", "ex2_solve"])
def test_benchmark_workloads_reproduce_their_reference_rows(workload, tmp_path):
    # the benchmark's own rule: error equal at %.2E, oc within 1e-6
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        spec = json.load(fh)[workload]
    out = tmp_path / "table.csv"
    assert main(spec["argv"] + [f"output={out}"]) == 0
    rows = {}
    for path in (os.path.join(BENCH, spec["reference"]), out):
        with open(path, newline="") as fh:
            rows[path] = {(r["alpha"], r["N"], r["Ms"]): r for r in csv.DictReader(fh)}
    ref, got = rows.values()
    assert ref.keys() == got.keys()
    for key, row in ref.items():
        assert got[key]["error"] == row["error"], key
        if row["oc"] == "":
            assert got[key]["oc"] == "", key
        else:
            assert abs(float(got[key]["oc"]) - float(row["oc"])) <= 1e-6, key


_THREADS_SCRIPT = """
import json, sys
from fracwave import cli
errors = []
solve = cli.run_single_case

def recording(*args, **kwargs):
    row, state, levels = solve(*args, **kwargs)
    errors.append(repr(row.error))
    return row, state, levels

cli.run_single_case = recording
out = sys.argv[1]
lines = [
    "command=temporal-study example=ex1 alpha=1.4 N=256,512",
    "command=temporal-study example=ex2 alpha=1.5 N=16,32",
]
codes = [cli.main(line.split() + [f"output={out}/{i}.csv"]) for i, line in enumerate(lines)]
print(json.dumps({"codes": codes, "errors": errors}))
"""


@pytest.mark.skipif(cli_module._openblas() is None, reason="numpy has no bundled OpenBLAS")
def test_study_digits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 2 threads, unpinned, the N = 512 row read 0.001199532604382414
    # against 0.001199532604386362 at 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracwave.__file__)))
    results, tables = [], []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT, str(out)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        tables.append([(out / f"{i}.csv").read_bytes() for i in range(2)])
    assert results[0]["codes"] == [0, 0] and len(results[0]["errors"]) == 4
    assert results[0] == results[1]
    assert tables[0] == tables[1]


def _count_threads_in_tasks(monkeypatch, fail=False):
    """Make cli's run_single_case record the BLAS thread count it runs on,
    and raise after recording if fail."""
    seen = []
    solve, blas = cli_module.run_single_case, cli_module._openblas()

    def recording(*args, **kwargs):
        seen.append(blas[0]() if blas else None)
        if fail:
            raise RuntimeError("task failed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli_module, "run_single_case", recording)
    return seen


@pytest.mark.skipif(cli_module._openblas() is None, reason="numpy has no bundled OpenBLAS")
@pytest.mark.parametrize("fail", [False, True], ids=["ok", "raising"])
def test_a_task_runs_on_one_blas_thread_and_restores_the_prior_count(fail, tmp_path, capsys,
                                                                      monkeypatch):
    get, put = cli_module._openblas()
    prior = get()
    put(2)
    try:
        seen = _count_threads_in_tasks(monkeypatch, fail)
        line = "command=temporal-study example=ex1 alpha=1.5 N=8,16"
        assert main(line.split() + [f"output={tmp_path / 'report.csv'}"]) == (1 if fail else 0)
        assert seen == ([1] if fail else [1, 1])
        assert get() == 2
    finally:
        put(prior)
    if fail:
        assert "error: task failed" in capsys.readouterr().err


def test_a_study_runs_unpinned_where_no_openblas_is_found(tmp_path, monkeypatch):
    line = "command=temporal-study example=ex2 alpha=1.5 N=4,8"
    pinned = tmp_path / "pinned.csv"
    assert main(line.split() + [f"output={pinned}"]) == 0
    blas = cli_module._openblas()
    outside = blas[0]() if blas else None
    seen = _count_threads_in_tasks(monkeypatch)
    monkeypatch.setattr(cli_module, "_openblas", lambda: None)
    unpinned = tmp_path / "unpinned.csv"
    assert main(line.split() + [f"output={unpinned}"]) == 0
    monkeypatch.undo()
    assert seen == [outside, outside]
    assert unpinned.read_bytes() == pinned.read_bytes()
