"""Config parsing, report formats, and end-to-end command runs at toy sizes."""

import pytest

from fracwave import coupled_ms
from fracwave.cli import (
    CSV_HEADER,
    TRAJECTORY_HEADER,
    ConfigError,
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
        ("command=temporal-study alpha=1.5 N=8,16 quadrature=9", "quadrature"),
        ("command=temporal-study example=ex2 alpha=1.5 N=8,16 quadrature=2", "quadrature"),
        ("command=temporal-study alpha=1.5 N=8,16 tol=0", "tol"),
        ("command=temporal-study alpha=1.5 N=8,16 tol=1e-300", "tol"),
        ("command=temporal-study alpha=1.5 N=8,16 threads=0", "threads"),
        ("command=caputo-check beta=1.5 sigma=1 N=8,16", "beta"),
        ("command=temporal-study alpha=1.5 N=8,16 timing=cpu", "timing"),
        ("command=fit alpha=1.5 N=8,16", "command"),
        ("command=temporal-study example=ex9 alpha=1.5 N=8,16", "ex"),
        ("command=temporal-study alpha=1.5 N=8,16 tol=inf", "tol"),
        ("command=temporal-study alpha=1.5 N=8,16 r=inf", "r"),
        ("command=caputo-check beta=0.7 sigma=inf N=8,16", "sigma"),
    ],
)
def test_parse_rejects_and_names_offender(line, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(line)


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="mesh"):
        parse_config("command=solve alpha=1.5 N=4 mesh=fine")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("command=solve alpha=1.5 alpha=1.6 N=4")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("temporal-study")


def test_parse_command_specific_requirements():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("command=temporal-study N=8,16")
    with pytest.raises(ConfigError, match="two entries"):
        parse_config("command=temporal-study alpha=1.5 N=8")
    with pytest.raises(ConfigError, match="beta and sigma"):
        parse_config("command=caputo-check N=8,16")
    with pytest.raises(ConfigError, match="one N"):
        parse_config("command=solve alpha=1.5 N=4,8")


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
    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", _recording_pool(sizes))
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

    for name in ("run_single_case", "solve_all", "truncation_study"):
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
    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", _recording_pool(sizes))
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

    monkeypatch.setattr(cli_module, "solve_all", must_not_run)
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
    ],
)
def test_unread_problem_key_fails_before_any_solve(line, key, tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli_module

    def must_not_run(*args, **kwargs):
        raise AssertionError("a case was solved")

    for name in ("run_single_case", "solve_all", "truncation_study"):
        monkeypatch.setattr(cli_module, name, must_not_run)
    out = tmp_path / "report.csv"
    assert main(line.split() + [f"output={out}"]) == 2
    assert f"does not read '{key}'" in capsys.readouterr().err
    assert not out.exists()
