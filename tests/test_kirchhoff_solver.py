"""Time-stepping engine for the order-reduced Kirchhoff system."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fracwave.kirchhoff_solver as ks
from fracwave.caputo_l1 import l1_row
from fracwave.fem_space import BandMatrix, _cg, assemble_load, build_spatial_mesh, dst1, spd_solve
from fracwave.graded_time import build_graded_mesh, recommended_grading
from fracwave.kirchhoff_solver import (
    ProblemSpec,
    apriori_bound_report,
    initialize,
    solve_all,
    step,
)
from fracwave.mms_harness import example1_case, example2_case, run_single_case


def direct_history_sums(state, n):
    """The unblocked reference: one full L1 row contracted with each history."""
    d = l1_row(state.tmesh, state.spec.beta, n).d
    weights = np.empty(n)
    weights[0] = -d[n - 1]
    weights[1:] = np.diff(d)[::-1]
    return d[0], weights @ state.v[:n], weights @ state.ubar[:n]


def constant_coefficient_spec(f, u0=None, grad_u0=None, u1=None, grad_u1=None):
    return ProblemSpec(
        alpha=1.5,
        T=1.0,
        domain=("interval", 0.0, 1.0),
        a=lambda w: 2.0 + math.sin(w),
        m1=1.0,
        m2=3.0,
        f=f,
        u0=u0,
        grad_u0=grad_u0,
        u1=u1,
        grad_u1=grad_u1,
    )


def test_spec_validation():
    ok = constant_coefficient_spec(lambda x, t: np.zeros_like(x))
    assert ok.beta == 0.75
    with pytest.raises(ValueError):
        ProblemSpec(alpha=2.0, T=1.0, domain=("interval", 0, 1), a=lambda w: 1.0,
                    m1=1.0, m2=1.0, f=lambda x, t: x)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.5, T=0.0, domain=("interval", 0, 1), a=lambda w: 1.0,
                    m1=1.0, m2=1.0, f=lambda x, t: x)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.5, T=1.0, domain=("interval", 0, 1), a=lambda w: 1.0,
                    m1=2.0, m2=1.0, f=lambda x, t: x)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.5, T=1.0, domain=("interval", 0, 1), a=lambda w: 1.0,
                    m1=1.0, m2=1.0, f=lambda x, t: x, u0=np.sin)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.5, T=1.0, domain=("interval", 0, 1), a=lambda w: 1.0,
                    m1=1.0, m2=1.0, f=lambda x, t: x, u1=np.sin)


@pytest.mark.parametrize("name", ["a", "u0", "grad_u0", "u1", "grad_u1"])
def test_problem_spec_rejects_a_non_callable_function(name):
    fields = dict(alpha=1.5, T=1.0, domain=("interval", 0, 1), a=lambda w: 1.0, m1=1.0,
                  m2=1.0, f=lambda x, t: x, u0=np.sin, grad_u0=np.cos, u1=np.sin, grad_u1=np.cos)
    ProblemSpec(**fields)
    fields[name] = 3.0
    with pytest.raises(ValueError, match=f"{name} must be callable"):
        ProblemSpec(**fields)


def test_initialize_projects_initial_displacement():
    # on an interval the Ritz projection is the nodal interpolant
    case = example1_case(1.5)
    spec = ProblemSpec(
        alpha=1.5, T=1.0, domain=case.domain, a=case.a, m1=case.m1, m2=case.m2,
        f=case.f, u0=np.sin, grad_u0=np.cos,
    )
    tmesh = build_graded_mesh(1.0, 4, 2.0)
    smesh = build_spatial_mesh(case.domain, 16)
    state = initialize(spec, tmesh, smesh)
    expected = np.sin(smesh.vertices[smesh.interior_nodes])
    np.testing.assert_allclose(state.ubar[0], expected, atol=1e-7)
    np.testing.assert_allclose(state.v[0], 0.0)


def test_initialize_velocity_start_is_exact():
    # ubar^1 = ubar^0 and v^1 = 0 fall out of t_1 = tau_1; both are computed
    spec = constant_coefficient_spec(
        lambda x, t: np.zeros_like(x),
        u1=lambda x: np.sin(math.pi * x),
        grad_u1=lambda x: math.pi * np.cos(math.pi * x),
    )
    tmesh = build_graded_mesh(1.0, 8, 1.857)
    smesh = build_spatial_mesh(spec.domain, 12)
    state = initialize(spec, tmesh, smesh)
    np.testing.assert_allclose(state.ubar[1], state.ubar[0], atol=1e-15)
    np.testing.assert_allclose(state.v[1], 0.0, atol=1e-12)
    recovered = state.recovered(1)
    np.testing.assert_allclose(
        recovered, state.ubar[0] + tmesh.tau[0] * state.phu1, atol=1e-15
    )


def test_zero_data_stays_zero():
    spec = ProblemSpec(
        alpha=1.3, T=1.0, domain=("interval", 0.0, 1.0),
        a=lambda w: 2.5, m1=2.5, m2=2.5, f=lambda x, t: np.zeros_like(x),
    )
    tmesh = build_graded_mesh(1.0, 6, 2.0)
    smesh = build_spatial_mesh(spec.domain, 8)
    state = solve_all(spec, tmesh, smesh)
    np.testing.assert_allclose(state.ubar, 0.0, atol=1e-14)
    np.testing.assert_allclose(state.v, 0.0, atol=1e-14)
    np.testing.assert_allclose(apriori_bound_report(state), 0.0, atol=1e-14)


def test_single_step_matches_scalar_oracle():
    """One unknown, one step, against hand arithmetic.

    Uniform N=2 on [0, 1], Ms=2 on (0, 1): A = [[4]], B = [[1/3]],
    f = 1 so F = h = 1/2, all histories vanish, kappa = a(0) = 2, and
    the update reduces to (d21 B + kappa/d21 A) x = F / d21.
    """
    spec = constant_coefficient_spec(lambda x, t: np.ones_like(x))
    tmesh = build_graded_mesh(1.0, 2, 1.0)
    smesh = build_spatial_mesh(spec.domain, 2)
    state = solve_all(spec, tmesh, smesh)

    beta = 0.75
    d21 = 0.5 ** (1.0 - beta) / (math.gamma(2.0 - beta) * 0.5)
    x = (0.5 / d21) / (d21 * (1.0 / 3.0) + (2.0 / d21) * 4.0)
    assert state.ubar[2][0] == pytest.approx(x, rel=1e-12)
    assert state.v[2][0] == pytest.approx(d21 * x, rel=1e-12)
    # frozen from the 50-digit oracle run
    assert state.ubar[2][0] == pytest.approx(0.054659287168876086, rel=1e-12)
    assert state.v[2][0] == pytest.approx(0.10141807818077723, rel=1e-12)
    assert state.kappa[2] == pytest.approx(2.0, rel=1e-14)


def test_step_enforces_level_order():
    spec = constant_coefficient_spec(lambda x, t: np.ones_like(x))
    tmesh = build_graded_mesh(1.0, 4, 1.0)
    smesh = build_spatial_mesh(spec.domain, 4)
    state = initialize(spec, tmesh, smesh)
    with pytest.raises(ValueError):
        step(state, 3)
    step(state, 2)
    with pytest.raises(ValueError):
        step(state, 2)


def test_misdeclared_coefficient_bounds_detected():
    spec = ProblemSpec(
        alpha=1.5, T=1.0, domain=("interval", 0.0, 1.0),
        a=lambda w: 5.0 + w, m1=1.0, m2=2.0, f=lambda x, t: np.ones_like(x),
    )
    tmesh = build_graded_mesh(1.0, 4, 1.0)
    smesh = build_spatial_mesh(spec.domain, 4)
    state = initialize(spec, tmesh, smesh)
    with pytest.raises(ValueError, match="range"):
        step(state, 2)


def test_coefficient_stays_in_declared_range():
    case = example1_case(1.4)
    tmesh = build_graded_mesh(1.0, 16, 1.857142857142857)
    smesh = build_spatial_mesh(case.domain, 16)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    kappas = state.kappa[2:]
    assert np.all(kappas >= case.m1) and np.all(kappas <= case.m2)


def test_recovered_equals_shifted_for_zero_velocity():
    case = example1_case(1.6)
    tmesh = build_graded_mesh(1.0, 8, 2.0)
    smesh = build_spatial_mesh(case.domain, 8)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    for n in range(state.n_done + 1):
        np.testing.assert_allclose(state.recovered(n), state.ubar[n], atol=1e-15)


def test_system_matrix_positive_definite_spot_check():
    from fracwave.caputo_l1 import l1_row

    case = example1_case(1.5)
    tmesh = build_graded_mesh(1.0, 8, 2.0)
    smesh = build_spatial_mesh(case.domain, 12)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    d1 = l1_row(tmesh, 0.75, 5).d[0]
    c = state.kappa[5] / d1
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(smesh.num_interior)
        assert x @ (d1 * (state.mass @ x) + c * (state.stiffness @ x)) > 0


@pytest.mark.parametrize(
    "case, ms", [(example1_case(1.5), 8192), (example2_case(1.5), 32)], ids=["1d", "2d"]
)
def test_step_operator_is_the_transformed_mass_stiffness_sum(case, ms, monkeypatch):
    seen = []

    def spy(mesh, a, b, r, target):
        seen.append(mesh.sine_basis.system(a, b))
        return spd_solve(mesh, a, b, r, target)

    monkeypatch.setattr(ks, "spd_solve", spy)
    tmesh = build_graded_mesh(case.T, 4, 2.0)
    smesh = build_spatial_mesh(case.domain, ms)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    basis = smesh.sine_basis
    rng = np.random.default_rng(ms)
    # the basis takes the elements to be of length h; linspace's rounding of
    # the nodes makes them differ by up to 6.8e-13 relative at 1D Ms = 8192
    spread = np.abs(smesh.measure / smesh.measure.mean() - 1.0).max()
    assert len(seen) == 3
    for n, (operator, precond) in zip(range(2, 5), seen):
        d1 = l1_row(tmesh, case.alpha / 2, n).d[0]
        c = state.kappa[n] / d1
        for _ in range(3):
            e = rng.standard_normal(smesh.num_interior)
            x = basis.from_sine(e)
            expected = basis.to_sine(d1 * (state.mass @ x) + c * (state.stiffness @ x))
            gap = np.linalg.norm(operator(e) - expected)
            assert gap <= (1e-13 + spread) * np.linalg.norm(expected)
            # the preconditioner inverts the operator's diagonal, all of it in 1D
            if smesh.dimension == 1:
                np.testing.assert_allclose(precond(operator(e)), e, rtol=1e-14)


def _nodal_system(state, n):
    """Level n's system in nodal form, the oracle of the sine-basis solve:
    the BandMatrix d1 M + c A, the right-hand side with two mass products and
    the extrapolant start; also d1, kappa and H for the velocity update."""
    spec, tmesh = state.spec, state.tmesh
    w1, w2 = ks.extrapolation_weights(tmesh, n)
    u_hat = w1 * state.recovered(n - 1) + w2 * state.recovered(n - 2)
    kap = float(spec.a(float(u_hat @ (state.stiffness @ u_hat))))
    d1, g_hist, h_hist = ks._history_sums(state, n)
    tn = tmesh.t[n]
    rhs = (sum(c(tn) * b for c, b in state.loads) + tn * kap * state.lap_load) / d1
    rhs -= (state.mass @ g_hist) / d1
    rhs -= state.mass @ h_hist
    data = d1 * state.mass.data + (kap / d1) * state.stiffness.data
    x0 = w1 * state.ubar[n - 1] + w2 * state.ubar[n - 2]
    return BandMatrix(state.mass.offsets, data), rhs, x0, d1, kap, h_hist


def _nodal_sine_preconditioner(smesh, a, b):
    """(a Mhat + b A)^(-1) applied in nodal form: S ((S R S) / symbols) S on
    the grid, S ((S r) / symbols) or dst1 on the interval."""
    ms = smesh.subdivisions
    k = np.arange(1, ms)
    c = np.cos(k * math.pi / ms)
    if smesh.dimension == 1:
        h = (smesh.domain[2] - smesh.domain[1]) / ms
        inverse = 1.0 / (a * h / 6.0 * (4.0 + 2.0 * c) + b * (2.0 - 2.0 * c) / h)
        if ms > 256:
            return lambda r: dst1(dst1(r) * inverse)
    else:
        ci, cj = c[:, None], c[None, :]
        mass = (6.0 + 2.0 * ci + 2.0 * cj + 2.0 * ci * cj) / (12.0 * ms**2)
        inverse = 1.0 / (a * mass + b * (4.0 - 2.0 * ci - 2.0 * cj))
    s = math.sqrt(2.0 / ms) * np.sin(np.pi * (np.outer(k, k) % (2 * ms)) / ms)
    if smesh.dimension == 1:
        return lambda r: s @ ((s @ r) * inverse)
    return lambda r: (s @ ((s @ r.reshape(s.shape) @ s) * inverse) @ s).ravel()


# a forcing without the half-turn symmetry of ex2, whose solution has modes
# of mixed parity, on which the fold's off-diagonal blocks act
_SKEW_FORCING = ((lambda t: 1.0 + t, lambda x, y: np.exp(x) * y * y),)


@pytest.mark.parametrize(
    "case, N, ms, rtol, forcing",
    [(example2_case(1.5), 64, 182, 1e-11, None), (example2_case(1.8), 8, 256, 1e-11, None),
     (example2_case(1.5), 16, 32, 1e-11, _SKEW_FORCING),
     (example1_case(1.5), 128, 128, 1e-11, None), (example1_case(1.5), 64, 8192, 1e-9, None)],
    ids=["2d-182", "2d-256", "2d-skew", "1d-128", "1d-8192"],
)
def test_sine_basis_levels_match_the_nodal_solve(case, N, ms, rtol, forcing):
    # the oracle solves in nodal form: BandMatrix system, four-product sine
    # preconditioner, CG on the defect of the same extrapolant.  The true residual
    # stays within 1e-12 ||rhs||, or, where that is below the rounding of the
    # product itself, eps || |K| |x| || (2d-256 at level 2, 1d-8192 on most
    # levels, where the nodal solve's own residual reaches 1.7e-11 ||rhs||),
    # within 4 times that floor
    tmesh = build_graded_mesh(case.T, N, recommended_grading(case.alpha / 2))
    smesh = build_spatial_mesh(case.domain, ms)
    spec = case.problem_spec()
    if forcing is not None:
        spec = replace(spec, f=forcing)
    state = initialize(spec, tmesh, smesh)
    oracle = initialize(spec, tmesh, smesh)
    for n in range(2, N + 1):
        # the nodal system on the state's own history bounds its true residual
        system, rhs, _, _, _, _ = _nodal_system(state, n)
        step(state, n)
        x = state.ubar[n]
        magnitude = BandMatrix(system.offsets, abs(system.data)) @ abs(x)
        floor = np.finfo(float).eps * np.linalg.norm(magnitude)
        assert np.linalg.norm(rhs - system @ x) <= max(1e-12 * np.linalg.norm(rhs), 4.0 * floor)
        system, rhs, x0, d1, kap, h_hist = _nodal_system(oracle, n)
        precond = _nodal_sine_preconditioner(smesh, d1, kap / d1)
        e, iters = _cg(system.__matmul__, precond, rhs - system @ x0, 1e-12 * np.linalg.norm(rhs))
        x = x0 + e
        oracle.ubar[n], oracle.v[n], oracle.kappa[n] = x, d1 * x + h_hist, kap
        oracle.cg_iters.append(iters)
        oracle.n_done = n
        gap = np.linalg.norm(state.ubar[n] - oracle.ubar[n])
        assert gap <= rtol * np.linalg.norm(oracle.ubar[n])
    assert state.cg_iters == oracle.cg_iters


def test_non_finite_forcing_stops_before_the_solve(monkeypatch):
    import fracwave.kirchhoff_solver as ks

    def no_solve(*args, **kwargs):
        raise AssertionError("CG ran on a non-finite right-hand side")

    monkeypatch.setattr(ks, "spd_solve", no_solve)
    case = example2_case(1.5)
    spec = case.problem_spec()
    spec.f = lambda x, y, t: np.full_like(x, np.nan)
    tmesh = build_graded_mesh(case.T, 4, 2.0)
    smesh = build_spatial_mesh(case.domain, 8)
    with pytest.raises(ValueError, match="non-finite load or right-hand side at level 2"):
        solve_all(spec, tmesh, smesh)


@pytest.mark.parametrize(
    "f",
    [(), ((math.sin,),), ((1.0, np.sin),), ((math.sin, np.sin, np.cos),), [(math.sin, np.sin)], None],
    ids=["empty", "single", "not-callable", "triple", "list", "none"],
)
def test_problem_spec_rejects_a_malformed_forcing(f):
    with pytest.raises(ValueError, match=r"non-empty tuple of \(c_k, phi_k\) pairs"):
        ProblemSpec(alpha=1.5, T=1.0, domain=("interval", 0, 1), a=lambda w: 1.0,
                    m1=1.0, m2=1.0, f=f)


@pytest.mark.parametrize(
    "case, ms",
    [(example1_case(1.5), 37), (example1_case(1.5), 8192),
     (example2_case(1.5), 32), (example2_case(1.5), 182)],
    ids=["1d-37", "1d-8192", "2d-32", "2d-182"],
)
def test_separable_forcing_matches_the_callable_path(case, ms):
    tmesh = build_graded_mesh(case.T, 4, 2.0)
    smesh = build_spatial_mesh(case.domain, ms)
    spec = case.problem_spec()
    assert spec.f is case.forcing
    separable = solve_all(spec, tmesh, smesh)
    pointwise = solve_all(replace(spec, f=case.f), tmesh, smesh)
    assert len(separable.loads) == len(case.forcing) and pointwise.loads == ()
    for tn in tmesh.t[2:]:
        load = sum(c(tn) * b for c, b in separable.loads)
        expected = assemble_load(smesh, lambda *x: case.f(*x, tn))
        assert np.linalg.norm(load - expected) <= 1e-14 * np.linalg.norm(expected)
    # loads a few ulps apart move the CG iterates by up to the condition
    # number times the 1e-12 stopping tolerance: 1e-11 at Ms = 8192, N = 4
    gap = np.linalg.norm(separable.ubar - pointwise.ubar)
    assert gap <= 1e-10 * np.linalg.norm(pointwise.ubar)
    assert separable.cg_iters == pointwise.cg_iters


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_separable_coefficient_stops_at_its_level(value, monkeypatch):
    solved = []

    def spy(*args, **kwargs):
        solved.append(args)
        return spd_solve(*args, **kwargs)

    monkeypatch.setattr(ks, "spd_solve", spy)
    case = example1_case(1.5)
    tmesh = build_graded_mesh(case.T, 6, 2.0)
    smesh = build_spatial_mesh(case.domain, 8)
    bad = tmesh.t[4]
    spec = replace(case.problem_spec(), f=((lambda t: value if t == bad else 1.0, np.sin),))
    with pytest.raises(ValueError, match="non-finite load or right-hand side at level 4"):
        solve_all(spec, tmesh, smesh)
    assert len(solved) == 2


def test_smallest_run_is_finite():
    case = example1_case(1.9)
    tmesh = build_graded_mesh(1.0, 2, 1.0)
    smesh = build_spatial_mesh(case.domain, 4)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    assert state.n_done == 2
    assert np.all(np.isfinite(state.ubar))
    assert np.all(np.isfinite(state.v))


def test_bound_report_finite_and_nonnegative():
    case = example1_case(1.5)
    tmesh = build_graded_mesh(1.0, 16, 1.666666666666667)
    smesh = build_spatial_mesh(case.domain, 16)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    bound = apriori_bound_report(state)
    assert bound.shape == (17,)
    assert np.all(np.isfinite(bound))
    assert np.all(bound >= 0.0)
    assert bound.max() > 0.0


def test_blocked_history_sums_match_the_direct_contraction():
    # a random history fed level by level, as step writes it; 37 levels
    # open blocks at 2, 18 and 34
    rng = np.random.default_rng(7)
    beta = 0.8
    tmesh = build_graded_mesh(1.0, 37, recommended_grading(beta))
    v_true = rng.standard_normal((38, 5))
    u_true = rng.standard_normal((38, 5))
    state = SimpleNamespace(
        tmesh=tmesh, spec=SimpleNamespace(beta=beta), v=np.zeros((38, 5)), ubar=np.zeros((38, 5))
    )
    state.v[:2] = v_true[:2]
    state.ubar[:2] = u_true[:2]
    truth = SimpleNamespace(tmesh=tmesh, spec=state.spec, v=v_true, ubar=u_true)
    for n in range(2, 38):
        d1, g_hist, h_hist = ks._history_sums(state, n)
        d1_ref, g_ref, h_ref = direct_history_sums(truth, n)
        assert d1 == d1_ref
        for got, ref in ((g_hist, g_ref), (h_hist, h_ref)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        state.v[n] = v_true[n]
        state.ubar[n] = u_true[n]


@pytest.mark.parametrize(
    "example, alpha, N, Ms", [(example1_case, 1.8, 546, 32), (example2_case, 1.5, 16, 32)],
    ids=["1d", "2d"],
)
def test_blocked_solve_matches_the_direct_contraction(example, alpha, N, Ms, monkeypatch):
    case = example(alpha)
    blocked = run_single_case(case, N, Ms)
    monkeypatch.setattr(ks, "_history_sums", direct_history_sums)
    direct = run_single_case(case, N, Ms)
    assert blocked.error == pytest.approx(direct.error, rel=1e-12)


def test_each_step_computes_one_l1_row_of_at_most_a_block(monkeypatch):
    calls = []

    def spy(mesh, beta, n, count=None):
        calls.append((n, n if count is None else count))
        return l1_row(mesh, beta, n, count)

    monkeypatch.setattr(ks, "l1_row", spy)
    case = example1_case(1.8)
    N = 546
    solve_all(case.problem_spec(), build_graded_mesh(case.T, N, 1.5), build_spatial_mesh(case.domain, 32))
    # level 1 from initialize, then one call per step, in level order
    assert [n for n, _ in calls] == list(range(1, N + 1))
    assert max(count for _, count in calls) == ks._BLOCK


@pytest.mark.parametrize("ms", [256, 257])
def test_1d_runs_take_one_cg_iteration_on_both_sides_of_the_dense_sine_size(ms):
    from fracwave import fem_space

    # the sine matrix up to 256 elements, dst1 from 257
    assert fem_space._DENSE_SINE_MAX_MS == 256
    case = example1_case(1.5)
    tmesh = build_graded_mesh(case.T, 40, recommended_grading(0.75))
    state = solve_all(case.problem_spec(), tmesh, build_spatial_mesh(case.domain, ms))
    assert state.cg_iters == [1] * 39


def test_partial_run_history_matches_the_direct_contraction(monkeypatch):
    case = example1_case(1.6)
    spec = case.problem_spec()
    tmesh = build_graded_mesh(case.T, 40, recommended_grading(0.8))
    smesh = build_spatial_mesh(case.domain, 16)
    states = []
    for history_sums in (ks._history_sums, direct_history_sums):
        monkeypatch.setattr(ks, "_history_sums", history_sums)
        state = initialize(spec, tmesh, smesh)
        for n in range(2, 21):
            step(state, n)
        states.append(state)
    blocked, direct = states
    for name in ("ubar", "v"):
        got, ref = getattr(blocked, name), getattr(direct, name)
        np.testing.assert_allclose(got[:21], ref[:21], rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        # rows 21..33 of the open block hold far sums; the rows past it are untouched
        assert not got[34:].any()
    # the far sums of level 21 are its direct sums without the near levels 18..20
    d = l1_row(tmesh, spec.beta, 21).d
    far = np.concatenate(([-d[20]], np.diff(d)[::-1][:17]))
    np.testing.assert_allclose(blocked.v[21], far @ direct.v[:18], rtol=1e-12, atol=1e-15)


def test_step_order_is_enforced_across_blocks():
    spec = constant_coefficient_spec(lambda x, t: np.ones_like(x))
    tmesh = build_graded_mesh(1.0, 20, 1.5)
    state = initialize(spec, tmesh, build_spatial_mesh(spec.domain, 4))
    for n in range(2, 18):
        step(state, n)
    for bad in (17, 19, 2):
        with pytest.raises(ValueError, match="levels must advance in order"):
            step(state, bad)
    step(state, 18)
    assert state.n_done == 18
