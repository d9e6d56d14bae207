"""Flat key=value command line driver.

Every invocation is a list of key=value tokens, e.g.

    fracwave command=temporal-study example=ex1 alpha=1.4,1.5,1.8 \
        N=128,256,512,1024 output=table.csv

Each key is one RunConfig field (its default, parser and rule), and
COMMAND_NEEDS maps each command to the keys it reads and their entry counts.
Studies write one CSV row per refinement with the stable header

    alpha,N,Ms,r,error,oc,seconds,cg_iters

and print an aligned table with measured wall times.  The seconds column
in the CSV is fixed at 0.000 unless timing=wall is requested, so default
serial runs are byte-reproducible.

Every command runs one pipeline: _plan lists its (alpha, N, Ms, r, capped)
tasks, _run_tasks runs each through _study_task (in a process pool when
threads= allows) on one BLAS thread, and run attaches the orders and
formats the rows.  Every task but caputo-check's solves its case through
mms_harness.run_single_case, which reports on each block of levels as it
is solved: the studies keep the row of max H1 errors, solve adds the
trajectory, whose H1 errors give that row, and bound-report evaluates the
bound alone.
"""

import ctypes
import glob
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cache, partial
from itertools import groupby
from math import inf

import numpy as np

from .caputo_l1 import truncation_study
from .graded_time import build_graded_mesh, gronwall_step_condition, recommended_grading
from .kirchhoff_solver import history_bytes
from .mms_harness import (
    CASES,
    ReportRow,
    coupled_ms,
    coupled_n,
    get_case,
    observed_order,
    run_single_case,
)

# the keys each command reads, each with the (fewest, most) entries it takes
# (a scalar key holds one entry once set); any other key, such as threads on
# solve's single case, is a configuration error rather than silently dropped
_TABLE = {"r": (0, 1), "timing": (0, 1), "threads": (0, 1)}
_STUDY = _TABLE | {"example": (0, 1)}
COMMAND_NEEDS = {
    "solve": {"example": (0, 1), "r": (0, 1), "alpha": (1, 1), "N": (1, 1), "Ms": (0, 1)},
    "temporal-study": _STUDY | {"alpha": (1, inf), "N": (2, inf)},
    "spatial-study": _STUDY | {"alpha": (1, inf), "Ms": (2, inf)},
    "caputo-check": _TABLE | {"beta": (1, 1), "sigma": (1, 1), "N": (2, inf)},
    "bound-report": _STUDY | {"alpha": (1, inf), "N": (1, inf)},
}
COMMANDS = tuple(COMMAND_NEEDS)
# keys that control the run rather than the problem, accepted by every command
RUN_KEYS = {"command", "output"}
CSV_HEADER = "alpha,N,Ms,r,error,oc,seconds,cg_iters"
TRAJECTORY_HEADER = "n,t_n,h1_error,l2_error,bound_quantity"
# spatial studies run no finer in time than this; the cap keeps the finest
# spatial levels affordable once the temporal error is far below the spatial one
DEFAULT_N_CAP = 4096
# the key each study refines, whose rows the observed orders compare
REFINED_KEYS = {"temporal-study": "N", "spatial-study": "Ms", "caputo-check": "N"}
# the label of the error column in the printed table, where it is not an error
VALUE_LABELS = {"caputo-check": "wt_error", "bound-report": "bound"}
# the per-level report of run_single_case each command reads, where it is not
# the H1 error
REPORTS = {"solve": "trajectory", "bound-report": "bound"}


class ConfigError(ValueError):
    pass


def _number(kind, text):
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"expects {expected}, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expects a finite number, got {text!r}")
    return value


def _numbers(kind, text):
    return [_number(kind, part) for part in text.split(",") if part != ""]


_FLOAT, _INT = partial(_number, float), partial(_number, int)
_FLOATS, _INTS = partial(_numbers, float), partial(_numbers, int)


def _key(parse, rule, must, default=None):
    """A RunConfig field for the key of its name: parse reads the text, every
    entry must satisfy rule (must says how), and default=list is a fresh []."""
    meta = {"parse": parse, "rule": rule, "must": must}
    if default is list:
        return field(default_factory=list, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """One field per key: its parser, the rule its entries obey, its default."""

    command: str = _key(str, lambda c: c in COMMANDS, "be one of " + ", ".join(COMMANDS))
    example: str = _key(str, lambda e: e in CASES, "be one of " + ", ".join(CASES), "ex1")
    alpha: list = _key(_FLOATS, lambda a: 1 < a < 2, "lie in (1, 2)", list)
    N: list = _key(_INTS, lambda n: n >= 2, "be >= 2", list)
    Ms: list = _key(_INTS, lambda n: n >= 2, "be >= 2", list)
    r: float = _key(_FLOAT, lambda r: r >= 1, "satisfy r >= 1")
    output: str = _key(str, bool, "name a file")
    threads: int = _key(_INT, lambda n: n >= 1, "be >= 1", 1)
    beta: float = _key(_FLOAT, lambda b: 0 < b < 1, "lie in (0, 1)")
    sigma: float = _key(_FLOAT, lambda s: s > 0, "be positive")
    timing: str = _key(str, lambda t: t in ("fixed", "wall"), "be fixed or wall", "fixed")


_FIELDS = {f.name: f.metadata for f in fields(RunConfig)}


def _span(fewest, most):
    """(fewest, most) entries in words, e.g. 'at least 2 entries'."""
    if fewest == most:
        words, n = "exactly", fewest
    elif most == inf:
        words, n = "at least", fewest
    else:
        words, n = "at most", most
    return f"{words} {n} {'entry' if n == 1 else 'entries'}"


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
        key, _, text = token.partition("=")
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        seen.add(key)
        spec = _FIELDS[key]
        try:
            value = spec["parse"](text)
        except ValueError as exc:
            raise ConfigError(f"{key} {exc}") from None
        for entry in value if isinstance(value, list) else [value]:
            if not spec["rule"](entry):
                noun = f"{key} entries" if isinstance(value, list) else key
                raise ConfigError(f"{noun} must {spec['must']}, got {entry!r}")
        setattr(cfg, key, value)

    if cfg.command is None:
        raise ConfigError("command is required (one of " + ", ".join(COMMANDS) + ")")
    needs = COMMAND_NEEDS[cfg.command]
    unread = sorted(seen - RUN_KEYS - needs.keys())
    if unread:
        raise ConfigError(f"{cfg.command} does not read {', '.join(map(repr, unread))}")
    for key, (fewest, most) in needs.items():
        value = getattr(cfg, key)
        count = len(value) if isinstance(value, list) else int(value is not None)
        if not fewest <= count <= most:
            raise ConfigError(f"{cfg.command} needs {key} with {_span(fewest, most)}, got {count}")
    if cfg.output and os.path.isdir(cfg.output):
        raise ConfigError(f"output {cfg.output!r} is a directory")
    if cfg.output and not os.path.isdir(os.path.dirname(cfg.output) or "."):
        raise ConfigError(f"output directory of {cfg.output!r} does not exist")
    if cfg.command == "caputo-check" and cfg.sigma < cfg.beta:
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
    for key, value in vars(cfg).items():
        if isinstance(value, list) and len(set(value)) != len(value):
            raise ConfigError(f"{key} entries must be distinct, got {value}")
    return cfg


def _fmt_error(e):
    return f"{e:.2E}"


def _csv_lines(rows, timing):
    lines = [CSV_HEADER]
    for row in rows:
        seconds = row.seconds if timing == "wall" else 0.0
        oc = "" if row.oc is None else f"{row.oc:.6f}"
        lines.append(
            f"{row.alpha:g},{row.N},{row.Ms},{row.r:.6f},{_fmt_error(row.error)},{oc},"
            f"{seconds:.3f},{row.cg_iters}"
        )
    return "\n".join(lines) + "\n"


def _print_table(rows, value_label):
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
    _check_history_memory(cfg, tasks)
    return tasks


def _check_history_memory(cfg, tasks):
    """Refuse tasks whose kept level histories overfill physical memory
    with those threads= runs at once (no check where the platform does not
    report it).  A task keeps kirchhoff_solver.history_bytes for M
    unknowns: 16 (N + 1) M bytes on the dense far sums, and 16 (_BLOCK + 2 + n_exp)
    M on n_exp exponentials, whose levels stream."""
    if "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", {}):
        return
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    case = get_case(cfg.example, tasks[0][0])
    dim = 1 if case.domain[0] == "interval" else 2
    sizes = sorted(((history_bytes(0.5 * alpha, build_graded_mesh(case.T, N, r), (Ms - 1) ** dim),
                     (alpha, N, Ms)) for alpha, N, Ms, r, _ in tasks), reverse=True)
    total = sum(size for (size, _), _ in sizes[: _workers(cfg.threads, len(tasks))])
    if total > physical:
        (size, n_exp), (alpha, N, Ms) = sizes[0]
        kept = "dense level histories"
        if n_exp:
            kept = f"level histories streamed on {n_exp} exponentials"
        raise ConfigError(
            f"alpha={alpha:g} N={N} Ms={Ms} needs {size:,} bytes of {kept}; with the tasks run "
            f"at once, {total:,} bytes exceed the {physical:,} bytes of physical memory"
        )


@cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None where numpy links another BLAS or its library lacks them; tasks
    then run on the thread count they find."""
    libs = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, put


def _study_task(args):
    """Run one planned task of cfg.command on one BLAS thread, so that its
    digits do not depend on the thread count (see _openblas).

    Returns (row, step_ok, levels).  Every command but caputo-check solves
    its case once, through run_single_case with the command's REPORTS
    entry, and reads step_ok, the step condition of the time mesh
    (bound-report and solve), and levels, the trajectory rows (solve),
    which run_single_case observed block by block; both are None where the
    command does not report them.  A MemoryError names the task.
    """
    cfg, (alpha, N, Ms, r, capped) = args
    blas = _openblas()
    prior = blas[0]() if blas else None
    try:
        if blas:
            blas[1](1)
        if cfg.command == "caputo-check":
            start = time.perf_counter()
            ((_, err),) = truncation_study(cfg.beta, cfg.sigma, [N], r)
            elapsed = time.perf_counter() - start
            return ReportRow(alpha, N, Ms, r, err, seconds=elapsed), None, None
        case = get_case(cfg.example, alpha)
        row, state, levels = run_single_case(case, N, Ms, r, REPORTS.get(cfg.command, "error"))
        row.capped = capped
        if cfg.command in REFINED_KEYS:
            return row, None, None
        ok = gronwall_step_condition(state.tmesh, 0.5 * alpha, 1.0)
        return row, ok, levels if cfg.command == "solve" else None
    except MemoryError as exc:
        raise MemoryError(f"alpha={alpha:g} N={N} Ms={Ms} ran out of memory: {exc}") from None
    finally:
        if blas:
            blas[1](prior)


def _workers(threads, count):
    """Processes that run count tasks at once."""
    return min(threads, count, os.cpu_count() or 1)


def _run_tasks(tasks, threads):
    workers = _workers(threads, len(tasks))
    if workers <= 1:
        return [_study_task(task) for task in tasks]
    # imported only when a pool runs: it adds 1.2 MB to every process
    from concurrent.futures import ProcessPoolExecutor

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
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:  # from _plan, before any solve
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
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
