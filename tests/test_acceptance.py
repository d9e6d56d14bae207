"""End-to-end acceptance runs against the reference convergence tables.

Bands: errors within 25% relative (1D) or 30% (2D) of the reference values,
orders within 0.10 / 0.05 / 0.12 absolute depending on the study.  Each
criterion prints a single [PASS]/[FAIL] line (run pytest with -s to see the
lines for passing criteria too) and then asserts, so a red line and a red
test always agree.

The 1D reference errors are accurately integrated H1-seminorm errors, the
measure the CLI prints.  The 2D reference errors were measured with the
one-point (centroid) rule for the H1-seminorm error integral, a different
discrete seminorm, about 0.736 times the accurately integrated one on the
fixed-diagonal mesh.  Criterion 3 therefore evaluates each 2D solve under
both rules: the reference errors and orders are compared with the
one-point rows, and the reference orders and the order trends are checked
on the default 3-point rows, the errors the CLI prints.
The reference temporal tables pair Ms = floor(N**(2-beta)) where the
program pairs round_even(N**(2-beta)); the bands absorb the difference
(at most about 5% in error and 0.035 in order, at alpha=1.8 in 2D).
"""

import math
import time

import numpy as np
import pytest

from fracwave.caputo_l1 import (
    discrete_caputo,
    kernel_triangle,
    l1_row,
    truncation_study,
)
from fracwave.cli import DEFAULT_N_CAP, parse_config, run
from fracwave.fem_space import FeFunction, build_spatial_mesh, h1_seminorm_error
from fracwave.graded_time import build_graded_mesh, recommended_grading
from fracwave.kirchhoff_solver import solve_all
from fracwave.mms_harness import (
    coupled_ms,
    coupled_n,
    get_case,
    observed_order,
    run_single_case,
)

from fe_reference import assemble_mass, assemble_stiffness

# reference tables: per alpha, rows of (key, error, order-or-None); the final
# row of each study has no order entry.  All errors are max-over-time H1-
# seminorm errors.  The 1D errors integrate the seminorm accurately; the 2D
# errors use the one-point (centroid) rule per triangle.  The temporal
# tables pair Ms = floor(N**(2-beta)), not the program's round_even: at
# alpha=1.8 the reference Ms are 21, 45, 97 (program: 22, 46, 98).  The
# program's own spatial pairing N = round_even(Ms**(2/(2-beta))) reproduces
# every printed 2D spatial error, and the orders to 1e-6.
TEMPORAL_1D = {
    1.4: [(128, 7.01e-3, 1.266809), (256, 2.91e-3, 1.279812),
          (512, 1.20e-3, 1.288394), (1024, 4.91e-4, None)],
    1.5: [(128, 8.63e-3, 1.226166), (256, 3.69e-3, 1.235579),
          (512, 1.57e-3, 1.241687), (1024, 6.63e-4, None)],
    1.8: [(128, 1.62e-2, 1.090252), (256, 7.63e-3, 1.091875),
          (512, 3.58e-3, 1.093030), (1024, 1.68e-3, None)],
}
SPATIAL_1D = {
    1.4: [(16, 1.43e-1), (32, 7.12e-2), (64, 3.55e-2), (128, 1.78e-2)],
    1.5: [(16, 1.43e-1), (32, 7.11e-2), (64, 3.55e-2), (128, 1.78e-2)],
    1.8: [(16, 1.43e-1), (32, 7.11e-2), (64, 3.55e-2), (128, 1.78e-2)],
}
TEMPORAL_2D = {
    1.4: [(16, 1.00e-2, 1.323437), (32, 4.00e-3, 1.304197), (64, 1.62e-3, None)],
    1.5: [(16, 1.12e-2, 1.248964), (32, 4.73e-3, 1.252916), (64, 1.99e-3, None)],
    1.8: [(16, 1.71e-2, 1.098823), (32, 7.97e-3, 1.107867), (64, 3.70e-3, None)],
}
SPATIAL_2D = {
    1.4: [(8, 4.45e-2, 0.993890), (16, 2.24e-2, 0.998464), (32, 1.12e-2, None)],
    1.5: [(8, 4.45e-2, 0.993887), (16, 2.24e-2, 0.998464), (32, 1.12e-2, None)],
    1.8: [(8, 4.45e-2, 0.993892), (16, 2.24e-2, 0.998465), (32, 1.12e-2, None)],
}

# reference order sequences themselves oscillate around the limit rate by a
# few thousandths, so the trend check allows that much drift per level
TREND_SLACK = 0.02


def _verdict(number, label, failures):
    tag = "PASS" if not failures else "FAIL"
    extra = f" ({len(failures)} issue(s), first: {failures[0]})" if failures else ""
    print(f"[{tag}] criterion {number}: {label}{extra}", flush=True)
    assert not failures, "\n".join(failures)


def _read_rows(path):
    rows = []
    for line in path.read_text().splitlines()[1:]:
        alpha, n, ms, _r, error, oc, _seconds, _iters = line.split(",")
        rows.append({
            "alpha": float(alpha),
            "N": int(n),
            "Ms": int(ms),
            "error": float(error),
            "oc": float(oc) if oc else None,
        })
    return rows


def _rows_for(rows, alpha):
    return [row for row in rows if row["alpha"] == alpha]


def _check_table(rows, table, key, rel_err, oc_tol, failures):
    for alpha, expected in table.items():
        got = _rows_for(rows, alpha)
        if len(got) != len(expected):
            failures.append(f"alpha={alpha}: expected {len(expected)} rows, got {len(got)}")
            continue
        for row, ref in zip(got, expected):
            ref_key, ref_err, ref_oc = ref[0], ref[1], ref[2] if len(ref) > 2 else None
            where = f"alpha={alpha} {key}={ref_key}"
            if row[key] != ref_key:
                failures.append(f"{where}: row has {key}={row[key]}")
                continue
            drift = abs(row["error"] - ref_err) / ref_err
            if rel_err is not None and drift > rel_err:
                failures.append(
                    f"{where}: error {row['error']:.4e} off reference "
                    f"{ref_err:.2e} by {100 * drift:.1f}% (band {100 * rel_err:.0f}%)"
                )
            if ref_oc is not None and oc_tol is not None:
                if row["oc"] is None or abs(row["oc"] - ref_oc) > oc_tol:
                    failures.append(f"{where}: oc {row['oc']} vs reference {ref_oc}")


def _check_trend(rows, table, target_of, failures):
    for alpha in table:
        ocs = [row["oc"] for row in _rows_for(rows, alpha) if row["oc"] is not None]
        target = target_of(alpha)
        for prev, cur in zip(ocs, ocs[1:]):
            if abs(cur - target) > abs(prev - target) + TREND_SLACK:
                failures.append(
                    f"alpha={alpha}: oc drifts from limit {target:g}: {prev} -> {cur}"
                )


@pytest.fixture(scope="module")
def temporal_1d_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    line = "command=temporal-study example=ex1 alpha=1.4,1.5,1.8 N=128,256,512,1024"
    paths, elapsed = [], []
    for name in ("first.csv", "second.csv"):
        out = base / name
        start = time.perf_counter()
        assert run(parse_config(f"{line} output={out}")) == 0
        elapsed.append(time.perf_counter() - start)
        paths.append(out)
    return {"paths": paths, "rows": _read_rows(paths[0]), "elapsed": elapsed}


def test_criterion_1_temporal_table_1d(temporal_1d_runs):
    failures = []
    _check_table(temporal_1d_runs["rows"], TEMPORAL_1D, "N", 0.25, 0.10, failures)
    slowest = max(temporal_1d_runs["elapsed"])
    if slowest > 300.0:
        failures.append(f"study took {slowest:.0f}s, budget 300s")
    _verdict(1, "1D temporal table, graded mesh", failures)


def test_criterion_2_spatial_table_1d(tmp_path, capsys):
    out = tmp_path / "spatial1d.csv"
    cfg = parse_config(
        f"command=spatial-study example=ex1 alpha=1.4,1.5,1.8 Ms=16,32,64,128 output={out}"
    )
    assert run(cfg) == 0
    note = capsys.readouterr().out
    rows = _read_rows(out)

    failures = []
    _check_table(rows, SPATIAL_1D, "Ms", 0.25, None, failures)
    for row in rows:
        if row["oc"] is not None and abs(row["oc"] - 1.00) > 0.05:
            failures.append(f"alpha={row['alpha']} Ms={row['Ms']}: oc {row['oc']} not 1.00+-0.05")
    # the alpha=1.8, Ms=128 pairing couples to N=6780 and must be capped
    capped = [row for row in rows if row["alpha"] == 1.8 and row["Ms"] == 128]
    if not capped or capped[0]["N"] != 4096:
        failures.append(f"expected capped N=4096 at alpha=1.8 Ms=128, rows: {capped}")
    if "capped" not in note:
        failures.append("cap note missing from report output")
    _verdict(2, "1D spatial table, coupled time steps", failures)


# error rules, in points per triangle: the program's default, which the CLI
# prints, and the one-point rule the 2D reference errors were measured with
DEFAULT_RULE, REFERENCE_RULE = 3, 1


def _errors_2d(alpha, N, Ms):
    """Max-over-time H1-seminorm errors of one ex2 solve, one per error rule.

    The solve itself always uses the default 3-point rule, as the CLI does;
    only the evaluation of the error integral changes with the rule.
    """
    case = get_case("ex2", alpha)
    tmesh = build_graded_mesh(case.T, N, recommended_grading(0.5 * alpha))
    smesh = build_spatial_mesh(case.domain, Ms)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    worst = dict.fromkeys((DEFAULT_RULE, REFERENCE_RULE), 0.0)
    for n in range(1, tmesh.N + 1):
        tn = tmesh.t[n]
        uh = FeFunction(state.recovered(n), smesh)
        for rule in worst:
            err = h1_seminorm_error(uh, lambda x, y: case.grad_u(x, y, tn), rule)
            worst[rule] = max(worst[rule], err)
    return worst


def _study_2d(table, key, pairing):
    """Rows of one 2D study per error rule, each pairing solved once."""
    rows = {DEFAULT_RULE: [], REFERENCE_RULE: []}
    for alpha, expected in table.items():
        beta = 0.5 * alpha
        for ref in expected:
            N, Ms = pairing(ref[0], beta)
            worst = _errors_2d(alpha, N, Ms)
            for rule in rows:
                rows[rule].append(
                    {"alpha": alpha, "N": N, "Ms": Ms, "error": worst[rule], "oc": None}
                )
    for group_rows in rows.values():
        for alpha in table:
            group = _rows_for(group_rows, alpha)
            ocs = observed_order([(row[key], row["error"]) for row in group])
            for row, oc in zip(group, ocs):
                row["oc"] = oc
    return rows


def test_criterion_3_tables_2d():
    start = time.perf_counter()
    temporal = _study_2d(TEMPORAL_2D, "N", lambda N, beta: (N, coupled_ms(N, beta)))
    spatial = _study_2d(
        SPATIAL_2D, "Ms", lambda Ms, beta: (min(coupled_n(Ms, beta), DEFAULT_N_CAP), Ms)
    )
    elapsed = time.perf_counter() - start

    failures = []
    checks = (
        ("one-point rule", REFERENCE_RULE, 0.30),
        ("3-point rule", DEFAULT_RULE, None),
    )
    for label, rule, rel_err in checks:
        found = []
        _check_table(temporal[rule], TEMPORAL_2D, "N", rel_err, 0.12, found)
        _check_table(spatial[rule], SPATIAL_2D, "Ms", rel_err, 0.12, found)
        failures.extend(f"{label}: {msg}" for msg in found)
    _check_trend(temporal[DEFAULT_RULE], TEMPORAL_2D, lambda alpha: 2.0 - 0.5 * alpha, failures)
    _check_trend(spatial[DEFAULT_RULE], SPATIAL_2D, lambda alpha: 1.0, failures)
    if elapsed > 1800.0:
        failures.append(f"2D studies took {elapsed:.0f}s, budget 1800s")

    # the default-rule rows are the errors the CLI prints, which it takes
    # through the Ritz split of the same seminorm, equal to rounding
    first = spatial[DEFAULT_RULE][0]
    row, _, _ = run_single_case(get_case("ex2", first["alpha"]), first["N"], first["Ms"])
    if abs(row.error - first["error"]) > 1e-12 * first["error"]:
        failures.append(
            f"3-point error {first['error']!r} differs from run_single_case {row.error!r}"
        )
    _verdict(3, "2D tables at reduced scale", failures)


def test_criterion_4_truncation_rates():
    beta = 0.7
    n_list = [64, 128, 256, 512, 1024]
    failures = []
    for r, expected in ((recommended_grading(beta), 2.0 - beta), (1.0, beta)):
        table = truncation_study(beta, beta, n_list, r)
        for (_, coarse), (_, fine) in zip(table, table[1:]):
            rate = math.log2(coarse / fine)
            if abs(rate - expected) > 0.1:
                failures.append(f"r={r:g}: rate {rate:.3f}, expected {expected:g}+-0.1")
    _verdict(4, "L1 truncation rates, graded vs uniform", failures)


def _suite_l1_affine(failures):
    rng = np.random.default_rng(2026)
    for _ in range(50):
        N = int(rng.integers(2, 14))
        r = float(rng.uniform(1.0, 3.0))
        beta = float(rng.uniform(0.1, 0.9))
        c0, c1 = rng.uniform(-2.0, 2.0, size=2)
        mesh = build_graded_mesh(1.0, N, r)
        hist = c0 + c1 * mesh.t
        for n in range(1, N + 1):
            exact = c1 * mesh.t[n] ** (1.0 - beta) / math.gamma(2.0 - beta)
            got = discrete_caputo(l1_row(mesh, beta, n), hist[: n + 1])
            if abs(got - exact) > 1e-12 * max(1.0, abs(exact)):
                failures.append(f"L1 affine: N={N} r={r:.3f} beta={beta:.3f} n={n}")
                return


def _suite_coercivity(failures):
    rng = np.random.default_rng(2027)
    beta = 0.65
    for r in (1.0, recommended_grading(beta)):
        mesh = build_graded_mesh(1.0, 30, r)
        rows = [l1_row(mesh, beta, n) for n in range(1, 31)]
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            w = rng.standard_normal(n + 1)
            lhs = discrete_caputo(rows[n - 1], w) * w[n]
            rhs = 0.5 * discrete_caputo(rows[n - 1], w**2)
            if lhs < rhs - 1e-12:
                failures.append(f"coercivity: r={r:g} n={n} gap {rhs - lhs:.2e}")
                return


def _suite_complementarity(failures):
    beta = 0.6
    for r in (1.0, 2.0, 2.6):
        mesh = build_graded_mesh(1.0, 20, r)
        tri = kernel_triangle(mesh, beta)
        d = [l1_row(mesh, beta, n) for n in range(1, 21)]
        for n in range(1, 21):
            q = tri[n - 1]
            for k in range(1, n + 1):
                total = sum(q[n - j] * d[j - 1][j - k] for j in range(k, n + 1))
                if abs(total - 1.0) > 1e-10:
                    failures.append(f"complementarity: r={r} n={n} k={k} sum {total}")
                    return


def _suite_kernel_bound(failures):
    beta = 0.75
    cap = 1.0 / math.gamma(1.0 + beta)
    for r in (1.0, 2.0, recommended_grading(beta)):
        mesh = build_graded_mesh(1.0, 50, r)
        tri = kernel_triangle(mesh, beta)
        for n in range(1, 51):
            total = float(tri[n - 1].sum())
            if total > cap * mesh.t[n] ** beta + 1e-12 or np.any(tri[n - 1] < 0):
                failures.append(f"kernel bound: r={r:g} n={n} sum {total:.6e}")
                return


def _sine_operators(mesh):
    """The library's mass and stiffness, T^T (T M T^T) T and T^T (symbols) T,
    as dense matrices: column j is the product with the unit vector e_j."""
    basis = mesh.sine_basis
    sines = [basis.to_sine(e) for e in np.eye(mesh.num_interior)]
    return [
        np.column_stack([basis.from_sine(apply(e)) for e in sines])
        for apply in (basis.mass, lambda e: basis.stiffness_symbol * e)
    ]


def _suite_fem_matrices(failures):
    # the closed-form 1D rows on the reference assembly and on the library's
    # sine operators, then both against each other on the square
    mesh1d = build_spatial_mesh(("interval", 0.0, 1.0), 8)
    h = 0.125
    row_m = np.zeros(7)
    row_m[2:5] = np.array([1.0, 4.0, 1.0]) * h / 6.0
    row_a = np.zeros(7)
    row_a[2:5] = np.array([-1.0, 2.0, -1.0]) / h
    reference = (assemble_mass(mesh1d).toarray()[3], assemble_stiffness(mesh1d).toarray()[3])
    library = [op[:, 3] for op in _sine_operators(mesh1d)]
    for mass, stiff in (reference, library):
        if not (np.allclose(mass, row_m, atol=1e-15) and np.allclose(stiff, row_a, atol=1e-12)):
            failures.append("FEM: 1D closed-form rows broken")
            return
    square = build_spatial_mesh(("unit_square",), 6)
    matrices = (assemble_mass(square), assemble_stiffness(square))
    for op, matrix in zip(_sine_operators(square), matrices):
        if not np.allclose(op, matrix.toarray(), rtol=0.0, atol=1e-13):
            failures.append("FEM: sine operator differs from the assembled matrix")
            return
    for mesh in (mesh1d, square):
        for matrix in (assemble_mass(mesh), assemble_stiffness(mesh)):
            dense = matrix.toarray()
            if not np.allclose(dense, dense.T, atol=1e-14):
                failures.append("FEM: matrix not symmetric")
                return
            if np.linalg.eigvalsh(dense).min() <= 0.0:
                failures.append("FEM: matrix not positive definite")
                return


def _suite_forcing(failures):
    rng = np.random.default_rng(2028)
    for name in ("ex1", "ex2"):
        for alpha in (1.4, 1.8):
            case = get_case(name, alpha)
            for _ in range(200):
                t = float(rng.uniform(0.05, case.T))
                if name == "ex1":
                    x = (float(rng.uniform(0.0, math.pi)),)
                else:
                    x = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
                pde = case.caputo_u(*x, t) - case.a(case.ell(t)) * case.lap_u(*x, t)
                f = case.f(*x, t)
                if abs(pde - f) > 1e-12 * max(1.0, abs(f)):
                    failures.append(f"forcing: {name} alpha={alpha} at {x} t={t:.4f}")
                    return


def _suite_bound_stability(failures, tmp_path):
    out = tmp_path / "bounds.csv"
    cfg = parse_config(f"command=bound-report example=ex1 alpha=1.5 N=32,64,128,256 output={out}")
    if run(cfg) != 0:
        failures.append("bound report run failed")
        return
    bounds = [row["error"] for row in _read_rows(out)]
    spread = (max(bounds) - min(bounds)) / min(bounds)
    if spread > 0.05:
        failures.append(f"bound quantity varies {100 * spread:.1f}% across N, band 5%")


def test_criterion_5_property_suites(tmp_path):
    failures = []
    _suite_l1_affine(failures)
    _suite_coercivity(failures)
    _suite_complementarity(failures)
    _suite_kernel_bound(failures)
    _suite_fem_matrices(failures)
    _suite_forcing(failures)
    _suite_bound_stability(failures, tmp_path)
    _verdict(5, "property suites", failures)


@pytest.mark.parametrize("alpha", [1.02, 1.98])
def test_alpha_robustness_near_both_ends_of_the_range(alpha, tmp_path):
    # the scheme's stability and temporal order hold uniformly as alpha
    # approaches 1 or 2
    n_list = "N=16,32,64,128"
    bound_csv, study_csv = tmp_path / "bound.csv", tmp_path / "study.csv"
    for command, out in (("bound-report", bound_csv), ("temporal-study", study_csv)):
        cfg = parse_config(f"command={command} example=ex1 alpha={alpha} {n_list} output={out}")
        assert run(cfg) == 0
    bounds = [row["error"] for row in _read_rows(bound_csv)]
    assert all(b1 <= 1.01 * b0 for b0, b1 in zip(bounds, bounds[1:])), bounds
    rows = _read_rows(study_csv)
    errors = [row["error"] for row in rows]
    assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:])), errors
    assert abs(rows[-2]["oc"] - (2.0 - 0.5 * alpha)) <= 0.1, rows[-2]


def test_criterion_6_deterministic_reruns(temporal_1d_runs):
    first, second = temporal_1d_runs["paths"]
    failures = []
    if first.read_bytes() != second.read_bytes():
        failures.append("serial reruns differ byte-for-byte")
    _verdict(6, "byte-identical serial reruns", failures)
