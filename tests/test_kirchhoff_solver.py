"""Time-stepping engine for the order-reduced Kirchhoff system."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fracwave.kirchhoff_solver as ks
from fracwave import mms_harness
from fracwave.caputo_l1 import discrete_caputo, l1_row, l1_rows
from fracwave.fem_space import (
    SineBasis,
    _cg,
    assemble_load,
    build_spatial_mesh,
    dst1,
    element_geometry,
    h1_seminorm_error,
    ritz_projection,
    ritz_residual,
    spd_solve,
)
from fracwave.graded_time import build_graded_mesh, recommended_grading
from fracwave.kirchhoff_solver import (
    ProblemSpec,
    apriori_bound_report,
    initialize,
    solve_all,
    step,
)
from fracwave.mms_harness import example1_case, example2_case, run_single_case

from fe_reference import assemble_mass, assemble_stiffness


def direct_history_sums(state, n):
    """The unblocked reference: one full L1 row contracted with each history."""
    d = l1_row(state.tmesh, state.spec.beta, n)
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
    np.testing.assert_allclose(state.recovered(0), expected, atol=1e-7)
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
        recovered, smesh.sine_basis.from_sine(state.ubar[0] + tmesh.tau[0] * state.phu1),
        atol=1e-15,
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
    np.testing.assert_allclose(apriori_bound_report(state, 0, 7), 0.0, atol=1e-14)


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
        nodal = smesh.sine_basis.from_sine(state.ubar[n])
        np.testing.assert_allclose(state.recovered(n), nodal, atol=1e-15)


def test_system_matrix_positive_definite_spot_check():
    from fracwave.caputo_l1 import l1_row

    case = example1_case(1.5)
    tmesh = build_graded_mesh(1.0, 8, 2.0)
    smesh = build_spatial_mesh(case.domain, 12)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    d1 = l1_row(tmesh, 0.75, 5)[0]
    c = state.kappa[5] / d1
    mass, stiffness = assemble_mass(smesh), assemble_stiffness(smesh)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(smesh.num_interior)
        assert x @ (d1 * (mass @ x) + c * (stiffness @ x)) > 0


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
    mass, stiffness = assemble_mass(smesh), assemble_stiffness(smesh)
    rng = np.random.default_rng(ms)
    # the basis takes the elements to be of length h; linspace's rounding of
    # the nodes makes them differ by up to 6.8e-13 relative at 1D Ms = 8192
    measure = element_geometry(smesh, slice(None), 1)[0]
    spread = np.abs(measure / measure.mean() - 1.0).max()
    assert len(seen) == 3
    for n, (operator, precond) in zip(range(2, 5), seen):
        d1 = l1_row(tmesh, case.alpha / 2, n)[0]
        c = state.kappa[n] / d1
        for _ in range(3):
            e = rng.standard_normal(smesh.num_interior)
            x = basis.from_sine(e)
            expected = basis.to_sine(d1 * (mass @ x) + c * (stiffness @ x))
            gap = np.linalg.norm(operator(e) - expected)
            assert gap <= (1e-13 + spread) * np.linalg.norm(expected)
            # the preconditioner inverts the operator's diagonal, all of it in 1D
            if smesh.dimension == 1:
                np.testing.assert_allclose(precond(operator(e)), e, rtol=1e-14)


def _nodal_system(state, n):
    """Level n's system in nodal form, the oracle of the sine-basis solve:
    d1 M + c A on the reference matrices, the right-hand side with two mass
    products and the start -y / d1, y = G / d1 + H, all on the nodal views
    T^T of the state's sine coefficients; also d1, kappa and the nodal H for
    the velocity update."""
    spec, tmesh, smesh = state.spec, state.tmesh, state.smesh
    nodal = smesh.sine_basis.from_sine
    mass, stiffness = assemble_mass(smesh), assemble_stiffness(smesh)
    w1, w2 = ks.extrapolation_weights(tmesh, n)
    u_hat = w1 * state.recovered(n - 1) + w2 * state.recovered(n - 2)
    kap = float(spec.a(float(u_hat @ (stiffness @ u_hat))))
    d1, g_hist, h_hist = ks._history_sums(state, n)
    g_hist, h_hist = nodal(g_hist), nodal(h_hist)
    tn = tmesh.t[n]
    load = sum(c(tn) * nodal(b) for c, b in zip(*state.loads))
    rhs = (load + tn * kap * nodal(state.lap_load)) / d1
    rhs -= (mass @ g_hist) / d1
    rhs -= mass @ h_hist
    x_g = -(g_hist / d1 + h_hist) / d1
    return d1 * mass + (kap / d1) * stiffness, rhs, x_g, d1, kap, h_hist


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
    # the oracle solves in nodal form: CSR system, four-product sine
    # preconditioner, CG on the defect of the same start -y / d1.  The true residual
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
    basis = smesh.sine_basis
    for n in range(2, N + 1):
        # the nodal system on the state's own history bounds its true residual
        system, rhs, _, _, _, _ = _nodal_system(state, n)
        step(state, n)
        x = basis.from_sine(state.ubar[n])
        magnitude = abs(system) @ abs(x)
        floor = np.finfo(float).eps * np.linalg.norm(magnitude)
        assert np.linalg.norm(rhs - system @ x) <= max(1e-12 * np.linalg.norm(rhs), 4.0 * floor)
        system, rhs, x_g, d1, kap, h_hist = _nodal_system(oracle, n)
        precond = _nodal_sine_preconditioner(smesh, d1, kap / d1)
        e, iters = _cg(system.__matmul__, precond, rhs - system @ x_g, 1e-12 * np.linalg.norm(rhs))
        x_oracle = x_g + e
        oracle.ubar[n] = basis.to_sine(x_oracle)
        # a run with more unknowns than levels keeps v's open block only
        oracle.v[n - oracle.v_first] = basis.to_sine(d1 * x_oracle + h_hist)
        oracle.kappa[n] = kap
        oracle.cg_iters.append(iters)
        oracle.n_done = n
        gap = np.linalg.norm(x - x_oracle)
        assert gap <= rtol * np.linalg.norm(x_oracle)
    assert state.cg_iters == oracle.cg_iters


@pytest.mark.parametrize(
    "case, ms", [(example1_case(1.5), 128), (example2_case(1.5), 32), (example2_case(1.5), 182)],
    ids=["1d-128", "2d-32", "2d-182"],
)
def test_the_start_residual_from_the_symbols_is_the_folded_one(case, ms, monkeypatch):
    # step passes spd_solve the residual of x_g = -y / d1 as load + (c / d1) A y;
    # formed with the mass, fold included, it is rhs - (d1 M + c A) x_g
    # (measured: at most 1.2e-15 relative)
    basis_mass, solved = SineBasis.mass, []

    def mass(self, e):
        solved.append([e.copy()])
        return basis_mass(self, e)

    def spy(mesh, a, b, r, target):
        solved[-1] += [a, b, r.copy()]
        return spd_solve(mesh, a, b, r, target)

    monkeypatch.setattr(SineBasis, "mass", mass)
    monkeypatch.setattr(ks, "spd_solve", spy)
    N = 8
    tmesh = build_graded_mesh(case.T, N, 1.5)
    smesh = build_spatial_mesh(case.domain, ms)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    basis, stiffness = smesh.sine_basis, smesh.sine_basis.stiffness_symbol
    assert len(solved) == N - 1
    for n, (y, d1, c, r) in zip(range(2, N + 1), solved):
        tn = tmesh.t[n]
        force = sum(coef(tn) * b for coef, b in zip(*state.loads))
        load = (force + tn * state.kappa[n] * state.lap_load) / d1
        x_g = -y / d1
        folded = load - basis_mass(basis, y) - (d1 * basis_mass(basis, x_g) + c * stiffness * x_g)
        assert np.linalg.norm(r - folded) <= 1e-13 * np.linalg.norm(r)


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
    assert len(separable.loads[1]) == len(case.forcing) and pointwise.loads == ()
    for tn in tmesh.t[2:]:
        load = smesh.sine_basis.from_sine(sum(c(tn) * b for c, b in zip(*separable.loads)))
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
    bound = apriori_bound_report(state, 0, state.n_done + 1)
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
    state = SimpleNamespace(tmesh=tmesh, spec=SimpleNamespace(beta=beta), soe=(), first=0,
                            l1=None, v_first=0, v=np.zeros((38, 5)), ubar=np.zeros((38, 5)))
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
    blocked, _, _ = run_single_case(case, N, Ms)
    monkeypatch.setattr(ks, "_history_sums", direct_history_sums)
    direct, _, _ = run_single_case(case, N, Ms)
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


def dense_far_sums(state, lo):
    """The dense far sums as step wrote them before the sum of exponentials:
    the oracle of a run below the SOE threshold."""
    hi = min(lo + ks._BLOCK, state.tmesh.N + 1)
    d = l1_rows(state.tmesh, state.spec.beta, lo, hi)
    weights = np.empty((hi - lo, lo))
    weights[:, 0] = -d[:, 0]
    np.subtract(d[:, : lo - 1], d[:, 1:lo], out=weights[:, 1:])
    np.matmul(weights, state.v[:lo], out=state.v[lo:hi])
    np.matmul(weights, state.ubar[:lo], out=state.ubar[lo:hi])


@pytest.mark.parametrize("r", [1.0, 1.6], ids=["uniform", "graded"])
def test_soe_far_sums_match_the_dense_ones(r, monkeypatch):
    # random histories fed block by block, as step writes them; each far sum
    # within 1e-12 of sum_j |d_{m,m-j}| |dx_j| + |d_{m,m-lo+1}| |x^(lo-1)|
    # (measured at most 8.2e-15 of it uniform, 4.0e-14 graded)
    rng = np.random.default_rng(11)
    beta, N, M = 0.8, 300, 4
    tmesh = build_graded_mesh(1.0, N, r)
    truth = {name: rng.standard_normal((N + 1, M)) for name in ("v", "ubar")}
    # the sum of exponentials the run would take if the rule allowed it
    monkeypatch.setattr(ks, "_SOE_LEVELS_PER_TERM", 0)
    s, w = ks._soe_terms(beta, tmesh)
    soe, dense = (SimpleNamespace(tmesh=tmesh, spec=SimpleNamespace(beta=beta), soe=terms, first=0,
                                  l1=None, v_first=0, v=np.zeros((N + 1, M)),
                                  ubar=np.zeros((N + 1, M)))
                  for terms in ((s, w, np.zeros((2, s.size, M))), ()))
    worst = 0.0
    for lo in range(2, N + 1, ks._BLOCK):
        hi = min(lo + ks._BLOCK, N + 1)
        for state in (soe, dense):
            for name, x in truth.items():
                getattr(state, name)[:lo] = x[:lo]
            ks._far_sums(state, lo)
        d = l1_rows(tmesh, beta, lo, hi)
        for name, x in truth.items():
            bound = (np.abs(d[:, : lo - 1]) @ np.abs(np.diff(x[:lo], axis=0))
                     + np.abs(d[:, lo - 1 : lo]) * np.abs(x[lo - 1]))
            gap = np.abs(getattr(soe, name)[lo:hi] - getattr(dense, name)[lo:hi])
            worst = max(worst, (gap / bound).max())
    assert worst <= 1e-12
    assert soe.soe[0].size > 0 and dense.soe == ()


def _keeping_every_v_level(initialize):
    """initialize on the M <= N path whatever M is: no L1 matrix, and every
    level of v kept."""

    def wrapped(spec, tmesh, smesh):
        state = initialize(spec, tmesh, smesh)
        v, state.l1 = state.v, None
        state.v = np.zeros_like(state.ubar)
        state.v[:2] = v[:2]
        return state

    return wrapped


@pytest.mark.parametrize("r", [1.0, 1.6], ids=["uniform", "graded"])
def test_v_far_sums_through_the_l1_matrix_match_the_v_history_gemm(r):
    # a random ubar history and its L1 image v^m, fed block by block as step
    # writes them; the far sums (W C) ubar of v within 1e-14 of
    # |W| |C| |ubar| of the direct W v (measured at most 3.5e-16 uniform,
    # 4.0e-16 graded), those of ubar bit for bit
    rng = np.random.default_rng(5)
    beta, N, M = 0.8, 80, 96
    tmesh = build_graded_mesh(1.0, N, r)
    ubar = rng.standard_normal((N + 1, M))
    v = np.zeros((N + 1, M))
    for m in range(1, N + 1):
        v[m] = discrete_caputo(l1_row(tmesh, beta, m), ubar[: m + 1])
    spec = SimpleNamespace(beta=beta)
    dense = SimpleNamespace(tmesh=tmesh, spec=spec, soe=(), first=0, l1=None, v_first=0,
                            v=np.zeros((N + 1, M)), ubar=np.zeros((N + 1, M)))
    # row 1 of the L1 matrix, as initialize writes it
    c = np.zeros((N + 1, N + 1))
    c[1, :2] = -l1_row(tmesh, beta, 1)[0], l1_row(tmesh, beta, 1)[0]
    composed = SimpleNamespace(tmesh=tmesh, spec=spec, soe=(), first=0, l1=c, v_first=0,
                               v=np.zeros((ks._BLOCK + 2, M)), ubar=np.zeros((N + 1, M)))
    worst = 0.0
    for lo in range(2, N + 1, ks._BLOCK):
        hi = min(lo + ks._BLOCK, N + 1)
        dense.v[:lo] = v[:lo]
        for state in (dense, composed):
            state.ubar[:lo] = ubar[:lo]
            ks._far_sums(state, lo)
        assert np.array_equal(composed.ubar[lo:hi], dense.ubar[lo:hi])
        got = composed.v[lo - composed.v_first : hi - composed.v_first]
        bound = np.abs(c[lo:hi, :lo]) @ np.abs(c[:lo, :lo]) @ np.abs(ubar[:lo])
        worst = max(worst, (np.abs(got - dense.v[lo:hi]) / bound).max())
    assert worst <= 1e-14
    # v keeps the last block, opened at level 66, and C is lower triangular
    assert composed.v_first == 64 and not np.triu(c, 1).any()


def test_a_run_on_the_l1_matrix_recovers_every_level(monkeypatch):
    # ex1 alpha = 1.5, N = 64, Ms = 128: 127 unknowns, more than the levels.
    # recovered(n) after the run, as criterion 3 reads it, is within 1e-14
    # of the run that keeps every v level (measured 3.3e-16), and the kept
    # rows of v are C ubar within 1e-13 (measured 1.2e-15)
    case = example1_case(1.5)
    N, Ms = 64, 128
    state = _graded_run(case, N, Ms)
    assert state.l1.shape == (N + 1, N + 1) and state.ubar.shape == (N + 1, Ms - 1)
    assert state.v.shape == (ks._BLOCK + 2, Ms - 1) and state.v_first == 48
    recovered = np.array([state.recovered(n) for n in range(N + 1)])
    assert np.array_equal(recovered, state.recovered(0, N + 1))
    monkeypatch.setattr(ks, "initialize", _keeping_every_v_level(ks.initialize))
    reference = _graded_run(case, N, Ms).recovered(0, N + 1)
    assert np.abs(recovered - reference).max() <= 1e-14 * np.abs(reference).max()
    _, v = state.rows(48, N + 1)
    assert np.abs(state.l1[48:] @ state.ubar - v).max() <= 1e-13 * np.abs(v).max()
    with pytest.raises(ValueError, match=r"level 0 was dropped; the kept levels of v are "
                                         r"48\.\.n_done = 64"):
        state.rows(0, 1)


def _graded_run(case, N, Ms):
    tmesh = build_graded_mesh(case.T, N, recommended_grading(0.5 * case.alpha))
    return solve_all(case.problem_spec(), tmesh, build_spatial_mesh(case.domain, Ms))


def test_the_far_sum_path_is_chosen_at_initialize():
    case = example1_case(1.8)
    smesh = build_spatial_mesh(case.domain, 8)
    tmesh = build_graded_mesh(case.T, 4096, recommended_grading(0.9))
    state = initialize(case.problem_spec(), tmesh, smesh)
    assert 0 < state.n_exp <= 4096 / ks._SOE_LEVELS_PER_TERM
    assert state.soe[2].shape == (2, state.n_exp, 7)
    assert state.ubar.shape == state.v.shape == (ks._BLOCK + 2, 7) and state.first == 0
    # a run short of the rule is dense from the start and keeps every level
    tmesh = build_graded_mesh(case.T, 512, recommended_grading(0.9))
    state = initialize(case.problem_spec(), tmesh, smesh)
    assert state.soe == () and state.n_exp == 0
    assert state.ubar.shape == state.v.shape == (513, 7)


@pytest.mark.parametrize(
    "alpha, N, Ms", [(1.8, 4096, 128), (1.8, 1922, 64), (1.02, 4096, 16)],
    ids=["4096-128", "1922-64", "alpha1.02-4096-16"],
)
def test_a_long_run_matches_the_dense_run_within_1e_10(alpha, N, Ms, monkeypatch):
    # ex1 alpha = 1.8 as in the spatial study, measured 2.3e-12 and 1.4e-13;
    # alpha = 1.02 (beta = 0.51) takes 122 exponentials, measured 4.4e-14
    case = example1_case(alpha)
    soe, soe_state, _ = run_single_case(case, N, Ms)
    monkeypatch.setattr(ks, "_SOE_LEVELS_PER_TERM", math.inf)
    dense, dense_state, _ = run_single_case(case, N, Ms)
    assert soe_state.n_exp > 0 and dense_state.n_exp == 0
    assert soe.error == pytest.approx(dense.error, rel=1e-10)


@pytest.mark.parametrize("N, streamed", [(546, False), (1922, True)], ids=["dense", "soe"])
def test_the_observer_sees_every_level_once_in_order(N, streamed):
    # the streamed levels equal, bit for bit, those of the same run stepped
    # on histories that keep every row
    case = example1_case(1.8)
    spec, smesh = case.problem_spec(), build_spatial_mesh(case.domain, 16)
    tmesh = build_graded_mesh(case.T, N, recommended_grading(0.9))
    seen, rows, observed = [], [], {}

    def observe(state, lo, hi):
        seen.extend(range(lo, hi))
        rows.append(len(state.ubar))
        for n, u, v in zip(range(lo, hi), *state.rows(lo, hi)):
            observed[n] = u.copy(), v.copy()

    state = solve_all(spec, tmesh, smesh, observe)
    assert seen == list(range(N + 1))
    assert (state.n_exp > 0) == streamed
    assert max(rows) == (ks._BLOCK + 2 if streamed else N + 1)
    full = initialize(spec, tmesh, smesh)
    for name in ("ubar", "v"):
        kept = getattr(full, name)
        setattr(full, name, np.zeros((N + 1, kept.shape[1])))
        getattr(full, name)[:2] = kept[:2]
    for n in range(2, N + 1):
        step(full, n)
    for n, (u, v) in observed.items():
        assert np.array_equal(u, full.ubar[n]) and np.array_equal(v, full.v[n]), n


@pytest.mark.parametrize(
    "N, Ms, error", [(1922, 64, 0.035532414540526816), (4096, 128, 0.01776352287114845)],
    ids=["1922-64", "4096-128"],
)
def test_streamed_runs_keep_the_max_h1_error_bits(N, Ms, error):
    # the reprs of the runs that kept every level, ex1 alpha = 1.8
    row, state, _ = run_single_case(example1_case(1.8), N, Ms)
    assert state.n_exp > 0
    assert repr(row.error) == repr(error)


def test_a_streamed_run_keeps_a_block_of_rows():
    # the dense histories alone took 1.85 MiB (16 * 1923 * 63 bytes), the
    # traced run 2.35 MiB; streamed, the run peaked at 0.31 MiB
    case = example1_case(1.8)
    run_single_case(case, 8, 8)
    tracemalloc.start()
    try:
        _, state, levels = run_single_case(case, 1922, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(levels) == 1923
    assert state.ubar.shape == state.v.shape == (ks._BLOCK + 2, 63)
    assert peak < 16 * 1923 * 63
    # the last block opened at level 1922, keeping 1920 and 1921 below it
    assert state.first == 1920
    assert np.isfinite(state.recovered(1920)).all()
    for bad in (1919, 0):
        with pytest.raises(ValueError, match=rf"level {bad} was dropped; the kept levels are "
                                             rf"1920\.\.n_done = 1922"):
            state.recovered(bad)
    with pytest.raises(ValueError, match=r"level 2 was dropped"):
        apriori_bound_report(state, 2, 18)


@pytest.mark.parametrize(
    "example, alpha, N, Ms", [(example1_case, 1.8, 546, 32), (example2_case, 1.5, 64, 32)],
    ids=["1d", "2d"],
)
def test_a_run_below_the_soe_threshold_is_the_dense_run_bit_for_bit(example, alpha, N, Ms,
                                                                    monkeypatch):
    # the 2D run has more unknowns than levels and composes v's far sums
    # through the L1 matrix; the run that keeps every v level (the M <= N
    # path, forced) is its reference, and that one is the dense run bit for
    # bit.  The composed run's ubar is within 1e-14 of it (measured 2.1e-16)
    case = example(alpha)
    state = _graded_run(case, N, Ms)
    assert state.n_exp == 0 and (state.l1 is not None) == (example is example2_case)
    monkeypatch.setattr(ks, "initialize", _keeping_every_v_level(ks.initialize))
    reference = _graded_run(case, N, Ms)
    monkeypatch.setattr(ks, "_far_sums", dense_far_sums)
    dense = _graded_run(case, N, Ms)
    assert reference.l1 is None and reference.v.shape == reference.ubar.shape
    assert np.array_equal(reference.ubar, dense.ubar) and np.array_equal(reference.v, dense.v)
    gap = np.abs(state.ubar - reference.ubar).max()
    assert gap <= 1e-14 * np.abs(reference.ubar).max()
    if state.l1 is None:
        assert gap == 0.0 and np.array_equal(state.v, reference.v)


@pytest.mark.parametrize("ms", [256, 257])
def test_1d_runs_take_one_cg_iteration_on_both_sides_of_the_dense_sine_size(ms):
    # 256 elements was the largest mesh with a dense sine matrix; every 1D mesh
    # now runs in the dst1 basis, and both sides still take one CG iteration
    case = example1_case(1.5)
    tmesh = build_graded_mesh(case.T, 40, recommended_grading(0.75))
    smesh = build_spatial_mesh(case.domain, ms)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    assert smesh.sine_basis.sine is None
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
    d = l1_row(tmesh, spec.beta, 21)
    far = np.concatenate(([-d[20]], np.diff(d)[::-1][:17]))
    np.testing.assert_allclose(blocked.v[21], far @ direct.v[:18], rtol=1e-12, atol=1e-15)


def test_recovered_refuses_a_level_that_is_not_solved():
    case = example1_case(1.6)
    tmesh = build_graded_mesh(case.T, 40, recommended_grading(0.8))
    state = initialize(case.problem_spec(), tmesh, build_spatial_mesh(case.domain, 16))
    for n in range(2, 21):
        step(state, n)
    # row 21 of ubar holds its far L1 sum, not a displacement
    assert state.ubar[21].any()
    assert np.isfinite(state.recovered(20)).all()
    for bad in (21, 40, -1):
        with pytest.raises(ValueError, match=rf"level {bad} is not solved.*n_done = 20"):
            state.recovered(bad)


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


@pytest.mark.parametrize(
    "case, ms", [(example1_case(1.5), 37), (example1_case(1.5), 512), (example2_case(1.5), 16)],
    ids=["1d-37", "1d-512", "2d-16"],
)
def test_a_level_makes_no_transform(case, ms, monkeypatch):
    calls = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    N = 20
    tmesh = build_graded_mesh(case.T, N, 1.5)
    smesh = build_spatial_mesh(case.domain, ms)
    state = initialize(case.problem_spec(), tmesh, smesh)
    for owner, name in ((SineBasis, "to_sine"), (SineBasis, "from_sine"),
                        (ks, "l1_row"), (ks, "spd_solve")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    for n in range(2, N + 1):
        step(state, n)
    # per level one L1 row and one solve, both through the solver's globals
    assert calls == ["l1_row", "spd_solve"] * (N - 1)
    # a whole case, error evaluation included, builds one mesh
    meshes = []

    def build(*args):
        meshes.append(build_spatial_mesh(*args))
        return meshes[-1]

    monkeypatch.setattr(mms_harness, "build_spatial_mesh", build)
    run_single_case(case, 8, ms)
    assert len(meshes) == 1


def _nodal_h1_errors(case, state):
    """The Ritz split of mms_harness._h1_errors in nodal form, on the
    assembled stiffness and recovered(n)."""
    g, grad_shape = case.grad_parts
    stiffness = assemble_stiffness(state.smesh)
    ritz = ritz_projection(state.smesh, grad_shape)
    c0 = h1_seminorm_error(ritz, grad_shape) ** 2
    k, _ = ritz_residual(ritz, grad_shape)
    errors = []
    for n, tn in enumerate(state.tmesh.t[: state.n_done + 1]):
        gn = g(tn)
        phi = gn * ritz.coeffs - state.recovered(n)
        square = gn**2 * c0 + 2.0 * gn * (phi @ k) + phi @ (stiffness @ phi)
        errors.append(math.sqrt(max(square, 0.0)))
    return errors


def _nodal_bound_report(state, v_levels):
    """apriori_bound_report in nodal form, on the assembled matrices, with
    v^n = v_levels[n]."""
    nodal = state.smesh.sine_basis.from_sine
    mass, stiffness = assemble_mass(state.smesh), assemble_stiffness(state.smesh)
    out = []
    for n in range(state.n_done + 1):
        v, u = nodal(v_levels[n]), nodal(state.ubar[n])
        out.append(math.sqrt(max(v @ (mass @ v), 0.0)) + math.sqrt(max(u @ (stiffness @ u), 0.0)))
    return out


@pytest.mark.parametrize(
    "case, N, ms, forcing",
    [(example1_case(1.5), 32, 37, None), (example1_case(1.8), 64, 128, None),
     (example2_case(1.5), 16, 32, None), (example2_case(1.5), 16, 32, _SKEW_FORCING)],
    ids=["1d-37", "1d-128", "2d-32", "2d-skew"],
)
def test_sine_basis_errors_and_bounds_match_the_nodal_formulas(case, N, ms, forcing):
    tmesh = build_graded_mesh(case.T, N, recommended_grading(case.alpha / 2))
    smesh = build_spatial_mesh(case.domain, ms)
    spec = case.problem_spec() if forcing is None else replace(case.problem_spec(), f=forcing)
    # a run with more unknowns than levels keeps v's open block only, so the
    # bound quantity and v are read block by block as the run goes
    bound, v_levels = [], []

    def observe(state, lo, hi):
        bound.extend(apriori_bound_report(state, lo, hi))
        v_levels.extend(state.rows(lo, hi)[1].copy())

    state = solve_all(spec, tmesh, smesh, observe)
    # measured: at most 3.5e-14 relative (1d-128) for the errors, 1.2e-14
    # for the bound quantity; levels 0 and 1 are zero in both
    got = mms_harness._h1_errors(case, state, 0, N + 1)
    assert got == pytest.approx(_nodal_h1_errors(case, state), rel=1e-12, abs=0.0)
    assert bound == pytest.approx(_nodal_bound_report(state, v_levels), rel=1e-12, abs=0.0)
