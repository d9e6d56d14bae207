"""Flat key=value command line driver.

Every invocation is a list of key=value tokens, e.g.

    fracwave command=temporal-study example=ex1 alpha=1.4,1.5,1.8 \
        N=128,256,512,1024 output=table.csv

Commands: solve, temporal-study, spatial-study, caputo-check, bound-report.
Studies write one CSV row per refinement with the stable header

    alpha,N,Ms,r,error,oc,seconds,cg_iters

and print an aligned table with measured wall times.  The seconds column
in the CSV is fixed at 0.000 unless timing=wall is requested, so default
serial runs are byte-reproducible.

Every command runs one pipeline: _plan lists its (alpha, N, Ms, r, capped)
tasks, _run_tasks runs each through _study_task (in a process pool when
threads= allows), and run attaches the orders and formats the rows.
"""

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby

from .caputo_l1 import truncation_study
from .graded_time import build_graded_mesh, gronwall_step_condition, recommended_grading
from .kirchhoff_solver import apriori_bound_report, solve_all
from .mms_harness import (
    ReportRow,
    coupled_ms,
    coupled_n,
    get_case,
    observed_order,
    run_single_case,
    trajectory_rows,
)
from .fem_space import build_spatial_mesh

COMMANDS = ("solve", "temporal-study", "spatial-study", "caputo-check", "bound-report")
CSV_HEADER = "alpha,N,Ms,r,error,oc,seconds,cg_iters"
TRAJECTORY_HEADER = "n,t_n,h1_error,l2_error,bound_quantity"
# spatial studies run no finer in time than this; the cap keeps the finest
# spatial levels affordable once the temporal error is far below the spatial one
DEFAULT_N_CAP = 4096
# the key each study refines, whose rows the observed orders compare
REFINED_KEYS = {"temporal-study": "N", "spatial-study": "Ms", "caputo-check": "N"}
# the label of the error column in the printed table, where it is not an error
VALUE_LABELS = {"caputo-check": "wt_error", "bound-report": "bound"}
# the problem keys each command reads; any other problem key is a
# configuration error rather than silently dropped
_SOLVER_KEYS = {"example", "alpha", "r"}
COMMAND_KEYS = {
    "temporal-study": _SOLVER_KEYS | {"N"},
    "spatial-study": _SOLVER_KEYS | {"Ms"},
    "bound-report": _SOLVER_KEYS | {"N"},
    "solve": _SOLVER_KEYS | {"N", "Ms"},
    "caputo-check": {"beta", "sigma", "N", "r"},
}
# keys that control the run rather than the problem, accepted by every command
RUN_KEYS = {"command", "threads", "output", "timing"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str = None
    example: str = "ex1"
    alpha: list = field(default_factory=list)
    N: list = field(default_factory=list)
    Ms: list = field(default_factory=list)
    r: float = None
    output: str = None
    threads: int = 1
    beta: float = None
    sigma: float = None
    timing: str = "fixed"


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} expects a finite number, got {text!r}")
    return value


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {text!r}") from None


def _parse_list(key, text, convert):
    return [convert(key, part) for part in text.split(",") if part != ""]


def parse_config(source):
    """Parse key=value tokens (a string is split on whitespace first).

    Validates every field against the solver preconditions before any work
    starts; errors name the offending key.
    """
    tokens = source.split() if isinstance(source, str) else list(source)
    cfg = RunConfig()
    seen = set()
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen.add(key)
        if key == "command":
            cfg.command = value
        elif key == "example":
            cfg.example = value
        elif key == "alpha":
            cfg.alpha = _parse_list(key, value, _parse_float)
        elif key == "N":
            cfg.N = _parse_list(key, value, _parse_int)
        elif key == "Ms":
            cfg.Ms = _parse_list(key, value, _parse_int)
        elif key == "r":
            cfg.r = _parse_float(key, value)
        elif key == "output":
            cfg.output = value
        elif key == "threads":
            cfg.threads = _parse_int(key, value)
        elif key == "beta":
            cfg.beta = _parse_float(key, value)
        elif key == "sigma":
            cfg.sigma = _parse_float(key, value)
        elif key == "timing":
            cfg.timing = value
        else:
            raise ConfigError(f"unknown key {key!r}")

    if cfg.command is None:
        raise ConfigError("command is required (one of " + ", ".join(COMMANDS) + ")")
    if cfg.command not in COMMANDS:
        raise ConfigError(f"command must be one of {', '.join(COMMANDS)}, got {cfg.command!r}")
    unread = sorted(seen - RUN_KEYS - COMMAND_KEYS[cfg.command])
    if unread:
        raise ConfigError(f"{cfg.command} does not read {', '.join(map(repr, unread))}")
    if cfg.example not in ("ex1", "ex2"):
        raise ConfigError(f"example must be ex1 or ex2, got {cfg.example!r}")
    for a in cfg.alpha:
        if not 1 < a < 2:
            raise ConfigError(f"alpha entries must lie in (1, 2), got {a}")
    for n in cfg.N:
        if n < 2:
            raise ConfigError(f"N entries must be >= 2, got {n}")
    for ms in cfg.Ms:
        if ms < 2:
            raise ConfigError(f"Ms entries must be >= 2, got {ms}")
    if cfg.r is not None and not cfg.r >= 1:
        raise ConfigError(f"r must satisfy r >= 1, got {cfg.r}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    if cfg.beta is not None and not 0 < cfg.beta < 1:
        raise ConfigError(f"beta must lie in (0, 1), got {cfg.beta}")
    if cfg.sigma is not None and not cfg.sigma > 0:
        raise ConfigError(f"sigma must be positive, got {cfg.sigma}")
    if cfg.timing not in ("fixed", "wall"):
        raise ConfigError(f"timing must be fixed or wall, got {cfg.timing!r}")
    if cfg.output and os.path.isdir(cfg.output):
        raise ConfigError(f"output {cfg.output!r} is a directory")
    if cfg.output and not os.path.isdir(os.path.dirname(cfg.output) or "."):
        raise ConfigError(f"output directory of {cfg.output!r} does not exist")

    if cfg.command in ("temporal-study", "spatial-study", "bound-report", "solve"):
        if not cfg.alpha:
            raise ConfigError(f"{cfg.command} needs alpha")
    if cfg.command == "temporal-study" and len(cfg.N) < 2:
        raise ConfigError("temporal-study needs N with at least two entries")
    if cfg.command == "spatial-study" and len(cfg.Ms) < 2:
        raise ConfigError("spatial-study needs Ms with at least two entries")
    if cfg.command == "bound-report" and not cfg.N:
        raise ConfigError("bound-report needs N")
    if cfg.command == "solve":
        if len(cfg.alpha) != 1:
            raise ConfigError("solve needs exactly one alpha")
        if len(cfg.N) != 1:
            raise ConfigError("solve needs exactly one N")
        if len(cfg.Ms) > 1:
            raise ConfigError("solve accepts at most one Ms")
    if cfg.command == "caputo-check":
        if cfg.beta is None or cfg.sigma is None:
            raise ConfigError("caputo-check needs beta and sigma")
        if len(cfg.N) < 2:
            raise ConfigError("caputo-check needs N with at least two entries")
        if cfg.sigma < cfg.beta:
            raise ConfigError(
                f"caputo-check needs sigma >= beta, got sigma={cfg.sigma:g} < beta={cfg.beta:g}"
            )
    # the orders compare neighbouring rows, so the refined key must double
    refined = REFINED_KEYS.get(cfg.command)
    if refined is not None:
        values = sorted(getattr(cfg, refined))
        for a, b in zip(values, values[1:]):
            if b != 2 * a:
                raise ConfigError(
                    f"{refined} entries must be distinct and double when sorted, "
                    f"got {a} then {b}"
                )
    # a repeated entry would solve the same case twice and print its row twice
    for key in ("alpha", "N", "Ms"):
        values = getattr(cfg, key)
        if len(set(values)) != len(values):
            raise ConfigError(f"{key} entries must be distinct, got {values}")
    return cfg


def _fmt_error(e):
    return f"{e:.2E}"


def _fmt_oc(oc):
    return "" if oc is None else f"{oc:.6f}"


def _csv_lines(rows, timing):
    lines = [CSV_HEADER]
    for row in rows:
        seconds = row.seconds if timing == "wall" else 0.0
        lines.append(
            f"{row.alpha:g},{row.N},{row.Ms},{row.r:.6f},"
            f"{_fmt_error(row.error)},{_fmt_oc(row.oc)},"
            f"{seconds:.3f},{row.cg_iters}"
        )
    return "\n".join(lines) + "\n"


def _print_table(rows, value_label="error"):
    header = (
        f"{'alpha':>6} {'N':>6} {'Ms':>6} {'r':>9} "
        f"{value_label:>10} {'oc':>9} {'seconds':>9} {'cg':>5}"
    )
    print(header)
    for row in rows:
        oc = "-" if row.oc is None else f"{row.oc:.6f}"
        note = "  (N capped)" if row.capped else ""
        print(
            f"{row.alpha:>6g} {row.N:>6} {row.Ms:>6} {row.r:>9.6f} "
            f"{_fmt_error(row.error):>10} {oc:>9} {row.seconds:>9.3f} "
            f"{row.cg_iters:>5}{note}"
        )


def _write_output(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _plan(cfg):
    """The (alpha, N, Ms, r, capped) tasks of a command, alpha-major.

    Temporal studies, bound reports and solve couple Ms ~ N**(2-beta)
    unless solve is given Ms; spatial studies couple N ~ Ms**(2/(2-beta))
    and cap it at DEFAULT_N_CAP, flagging the capped tasks.  caputo-check
    runs at alpha = 2*beta on no spatial mesh.  r defaults to the
    recommended grading of each alpha.
    """
    if cfg.command == "caputo-check":
        r = cfg.r if cfg.r is not None else recommended_grading(cfg.beta)
        return [(2.0 * cfg.beta, N, 0, r, False) for N in sorted(cfg.N)]
    tasks = []
    for alpha in sorted(cfg.alpha):
        beta = 0.5 * alpha
        r = cfg.r if cfg.r is not None else recommended_grading(beta)
        if cfg.command == "spatial-study":
            for Ms in sorted(cfg.Ms):
                N = coupled_n(Ms, beta)
                tasks.append((alpha, min(N, DEFAULT_N_CAP), Ms, r, N > DEFAULT_N_CAP))
        else:
            for N in sorted(cfg.N):
                Ms = cfg.Ms[0] if cfg.Ms else coupled_ms(N, beta)
                tasks.append((alpha, N, Ms, r, False))
    return tasks


def _study_task(args):
    """Run one planned task of cfg.command.

    Returns (row, step_ok, levels): step_ok is the step condition of the
    time mesh for bound-report and solve, levels the trajectory rows for
    solve; both are None where the command does not report them.
    """
    cfg, (alpha, N, Ms, r, capped) = args
    if cfg.command == "caputo-check":
        start = time.perf_counter()
        ((_, err),) = truncation_study(cfg.beta, cfg.sigma, [N], r)
        elapsed = time.perf_counter() - start
        return ReportRow(alpha, N, Ms, r, err, seconds=elapsed), None, None
    case = get_case(cfg.example, alpha)
    if cfg.command in REFINED_KEYS:
        row = run_single_case(case, N, Ms, r)
        row.capped = capped
        return row, None, None
    start = time.perf_counter()
    tmesh = build_graded_mesh(case.T, N, r)
    smesh = build_spatial_mesh(case.domain, Ms)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    elapsed = time.perf_counter() - start
    if cfg.command == "solve":
        levels = trajectory_rows(case, state)
        error = max(h1 for _, _, h1, _, _ in levels)
    else:
        levels, error = None, float(apriori_bound_report(state).max())
    row = ReportRow(
        alpha, N, Ms, r, error, seconds=elapsed, cg_iters=max(state.cg_iters, default=0)
    )
    return row, gronwall_step_condition(tmesh, 0.5 * alpha, 1.0), levels


def _run_tasks(tasks, threads):
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_study_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_study_task, tasks))


def _attach_orders(rows, key):
    """Fill oc from the errors along key, per alpha, on alpha-major rows;
    the finest row of each alpha keeps None."""
    for _, group in groupby(rows, key=lambda row: row.alpha):
        group = list(group)
        ocs = observed_order([(getattr(row, key), row.error) for row in group])
        for row, oc in zip(group, ocs):
            row.oc = oc


def run(cfg):
    """Execute a parsed configuration; returns the process exit status."""
    try:
        results = _run_tasks([(cfg, task) for task in _plan(cfg)], cfg.threads)
        rows = [row for row, _, _ in results]
        if cfg.command == "solve":
            ((row, ok, levels),) = results
            print(
                f"alpha={row.alpha:g} N={row.N} Ms={row.Ms}: max H1 error "
                f"{_fmt_error(row.error)}, {row.seconds:.3f} s, "
                f"step condition (lam=1) {'holds' if ok else 'violated'}"
            )
            lines = [TRAJECTORY_HEADER]
            for n, tn, h1, l2, bound in levels:
                lines.append(f"{n},{tn:.10g},{h1:.6E},{l2:.6E},{bound:.6E}")
            text = "\n".join(lines) + "\n"
            path = cfg.output or "trajectory.csv"
        else:
            if cfg.command == "bound-report":
                for row, ok, _ in results:
                    print(
                        f"alpha={row.alpha:g} N={row.N}: max bound quantity "
                        f"{row.error:.6e}, step condition (lam=1) {'holds' if ok else 'violated'}"
                    )
            else:
                _attach_orders(rows, REFINED_KEYS[cfg.command])
            _print_table(rows, VALUE_LABELS.get(cfg.command, "error"))
            for row in rows:
                if row.capped:
                    print(
                        f"note: alpha={row.alpha:g} Ms={row.Ms} coupled N exceeded "
                        f"{DEFAULT_N_CAP} and was capped"
                    )
            if cfg.command == "caputo-check":
                print(f"weighted truncation orders for beta={cfg.beta:g}, sigma={cfg.sigma:g}")
            text = _csv_lines(rows, cfg.timing)
            path = cfg.output or "report.csv"
        _write_output(path, text)
        print(f"wrote {path}")
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) == 1 and "=" not in argv[0] and os.path.isfile(argv[0]):
        with open(argv[0]) as fh:
            argv = fh.read().split()
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
