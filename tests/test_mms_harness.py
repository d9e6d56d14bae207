"""Manufactured cases, parameter couplings, single-case runs and the package exports."""

import math
import tracemalloc

import numpy as np
import pytest

from fracwave import mms_harness
from fracwave.caputo_l1 import exact_caputo_power
from fracwave.fem_space import (
    FeFunction,
    build_spatial_mesh,
    h1_seminorm_error,
    ritz_projection,
)
from fracwave.graded_time import build_graded_mesh
from fracwave.kirchhoff_solver import initialize, solve_all, step
from fracwave.mms_harness import (
    coupled_ms,
    coupled_n,
    example1_case,
    example2_case,
    get_case,
    observed_order,
    round_even,
    run_single_case,
    trajectory_rows,
)


def test_case_lookup_and_validation():
    assert get_case("ex1", 1.5).name == "ex1"
    assert get_case("ex2", 1.5).name == "ex2"
    for name in mms_harness.CASES:
        assert get_case(name, 1.5).name == name
    with pytest.raises(ValueError, match="available: ex1, ex2"):
        get_case("ex3", 1.5)
    with pytest.raises(ValueError):
        example1_case(2.0)
    with pytest.raises(ValueError):
        example2_case(1.0)


@pytest.mark.parametrize("alpha", [1.4, 1.8])
def test_temporal_factor_against_power_rule(alpha):
    # cross-check: the derivative of t^3 + t^alpha decomposes into two
    # closed-form power derivatives of order alpha
    case = example1_case(alpha)
    for t in (0.1, 0.5, 1.0):
        expected = exact_caputo_power(3.0, alpha, t) + exact_caputo_power(alpha, alpha, t)
        assert case.caputo_time(t) == pytest.approx(expected, rel=1e-13)


def test_ex1_has_one_load_per_level_and_ex2_one_per_term():
    # -Lap sin = sin, so ex1's two terms share one (c, phi) pair
    assert len(example1_case(1.5).forcing) == 1
    assert len(example2_case(1.5).forcing) == 2


def test_example1_values():
    case = example1_case(1.4)
    assert case.u(0.5, 0.0) == 0.0
    assert case.u(math.pi / 2, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert case.ell(1.0) == pytest.approx(6.2831853071795865, rel=1e-13)
    assert case.domain == ("interval", 0.0, math.pi)
    spec = case.problem_spec()
    assert spec.u0 is None and spec.u1 is None
    assert (spec.m1, spec.m2) == (2.0, 4.0)


@pytest.mark.parametrize(
    "alpha,expected",
    [
        (1.4, 11.439075422267264),
        (1.5, 11.842857056561187),
        (1.8, 13.122112893056118),
    ],
)
def test_example1_forcing_spot_value(alpha, expected):
    # f(pi/2, 1) = Gamma(4)/Gamma(4-alpha) + Gamma(alpha+1) + 6, frozen
    # from the 50-digit oracle
    case = example1_case(alpha)
    assert case.f(math.pi / 2, 1.0) == pytest.approx(expected, rel=1e-13)


def test_example2_values():
    case = example2_case(1.5)
    assert case.u(0.5, 0.5, 1.0) == pytest.approx(0.125, rel=1e-14)
    for x, y in [(0.0, 0.3), (1.0, 0.7), (0.4, 0.0), (0.9, 1.0)]:
        assert case.u(x, y, 1.0) == 0.0
    assert case.ell(1.0) == pytest.approx(0.088888888888888889, rel=1e-13)
    assert case.domain == ("unit_square",)


def test_forcing_identity_example1():
    rng = np.random.default_rng(21)
    case = example1_case(1.6)
    for _ in range(200):
        x = float(rng.uniform(0.0, math.pi))
        t = float(rng.uniform(0.01, 1.0))
        pde = case.caputo_u(x, t) - case.a(case.ell(t)) * case.lap_u(x, t)
        assert case.f(x, t) == pytest.approx(pde, rel=1e-12)


def test_forcing_identity_example2():
    rng = np.random.default_rng(22)
    case = example2_case(1.3)
    for _ in range(200):
        x, y = rng.uniform(0.0, 1.0, size=2)
        t = float(rng.uniform(0.01, 1.0))
        pde = case.caputo_u(x, y, t) - case.a(case.ell(t)) * case.lap_u(x, y, t)
        assert case.f(x, y, t) == pytest.approx(pde, rel=1e-12)


def test_round_even():
    assert round_even(3.0) == 4
    assert round_even(84.448) == 84
    assert round_even(1.0) == 2
    assert round_even(0.2) == 2
    assert round_even(548.748) == 548


def test_couplings_frozen():
    assert coupled_ms(128, 0.7) == 548
    assert coupled_ms(1024, 0.7) == 8192
    assert coupled_n(16, 0.75) == 84
    assert coupled_n(128, 0.9) == 6780


def test_observed_order_values():
    assert observed_order([(8, 4.0), (16, 1.0)]) == [pytest.approx(2.0)]
    assert observed_order([(8, 0.5), (16, 0.5)]) == [pytest.approx(0.0)]
    oc = observed_order([(128, 7.01e-3), (256, 2.91e-3)])
    assert oc[0] == pytest.approx(1.2683952911023393, rel=1e-12)


def test_observed_order_rejects_bad_sequences():
    with pytest.raises(ValueError):
        observed_order([(8, 1.0)])
    with pytest.raises(ValueError):
        observed_order([(8, 1.0), (24, 0.5)])
    with pytest.raises(ValueError):
        observed_order([(8, 1.0), (16, 0.0)])


def test_run_single_case_populates_row():
    case = example1_case(1.5)
    row, state, levels = run_single_case(case, 16, 24)
    assert row.N == 16 and row.Ms == 24
    assert state.n_done == 16 and state.smesh.num_interior == 23
    assert len(levels) == 17 and row.error == max(levels[1:])
    with pytest.raises(ValueError, match="report must be error, trajectory or bound"):
        run_single_case(case, 16, 24, report="errors")
    assert row.r == pytest.approx((2.0 - 0.75) / 0.75, rel=1e-13)
    assert row.error > 0.0
    assert row.oc is None
    assert row.cg_iters >= 1
    assert row.seconds > 0.0


def test_errors_shrink_under_coupled_refinement():
    case = example1_case(1.5)
    coarse, _, _ = run_single_case(case, 8, coupled_ms(8, 0.75))
    fine, _, _ = run_single_case(case, 16, coupled_ms(16, 0.75))
    assert fine.error < coarse.error


def test_trajectory_rows_cover_all_levels():
    case = example1_case(1.5)
    tmesh = build_graded_mesh(1.0, 4, 1.6)
    smesh = build_spatial_mesh(case.domain, 8)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    rows = trajectory_rows(case, state, 0, state.n_done + 1)
    assert len(rows) == 5
    n0, t0, h1_0, l2_0, bound0 = rows[0]
    assert (n0, t0) == (0, 0.0)
    # zero initial data: the level-0 errors vanish identically
    assert h1_0 <= 1e-12 and l2_0 <= 1e-12 and bound0 <= 1e-12
    for n, tn, h1, l2, bound in rows[1:]:
        assert math.isfinite(h1) and math.isfinite(l2) and math.isfinite(bound)


# largest per-level relative difference allowed between the Ritz split of
# _h1_errors and h1_seminorm_error.  The split's energy is a sum over the
# stiffness symbols, which loses no digits to the cancellation of a
# stiffness product; the worst case measured is 1.3e-13
SPLIT_RTOL = 1e-12


def _per_level_errors(case, state):
    g, grad_shape = case.grad_parts
    return [
        h1_seminorm_error(
            FeFunction(state.recovered(n), state.smesh),
            lambda *x, gn=g(tn): gn * grad_shape(*x),
        )
        for n, tn in enumerate(state.tmesh.t[: state.n_done + 1])
    ]


@pytest.mark.parametrize(
    "case, ms",
    [(example1_case(1.5), 37), (example1_case(1.5), 8192),
     (example2_case(1.5), 32), (example2_case(1.5), 182)],
    ids=["1d-37", "1d-8192", "2d-32", "2d-182"],
)
def test_cached_gradient_errors_match_the_callable_path(case, ms):
    def closed_form_gradient(t):
        g = t**3 + t**case.alpha
        if case.name == "ex1":
            return lambda x: g * np.cos(x)
        return lambda x, y: (g * (1.0 - 2.0 * x) * (y - y**2), g * (x - x**2) * (1.0 - 2.0 * y))

    tmesh = build_graded_mesh(case.T, 4, 1.6)
    smesh = build_spatial_mesh(case.domain, ms)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    rows = trajectory_rows(case, state, 0, state.n_done + 1)
    for n, tn, h1, _, _ in rows:
        uh = FeFunction(state.recovered(n), smesh)
        expected = h1_seminorm_error(uh, closed_form_gradient(tn))
        assert h1 == pytest.approx(expected, rel=SPLIT_RTOL, abs=0.0)
    worst = max(row[2] for row in rows[1:])
    row, _, levels = run_single_case(case, 4, ms, r=1.6, report="trajectory")
    assert row.error == worst and levels == rows


@pytest.mark.parametrize(
    "case, ms, n_done",
    [(example1_case(1.8), 37, 546), (example1_case(1.8), 37, 300), (example1_case(1.5), 128, 300),
     (example1_case(1.5), 3326, 40), (example1_case(1.5), 8192, 5),
     (example2_case(1.5), 8, 40), (example2_case(1.5), 32, 64), (example2_case(1.5), 182, 4)],
    ids=["1d-37", "1d-37-partial", "1d-128", "1d-3326", "1d-8192", "2d-8", "2d-32",
         "2d-182-partial"],
)
def test_split_h1_errors_match_the_per_level_errors(case, ms, n_done, monkeypatch):
    N = max(n_done, 6)
    tmesh = build_graded_mesh(case.T, N, 1.5)
    smesh = build_spatial_mesh(case.domain, ms)
    state = initialize(case.problem_spec(), tmesh, smesh)
    for n in range(2, n_done + 1):
        step(state, n)
    expected = _per_level_errors(case, state)
    assert expected[0] == 0.0 and min(expected[1:]) > 0.0
    # the default blocks, then blocks of 7 levels that leave a partial one
    for entries in (mms_harness._LEVEL_BLOCK_ENTRIES, 7 * smesh.num_interior):
        monkeypatch.setattr(mms_harness, "_LEVEL_BLOCK_ENTRIES", entries)
        got = mms_harness._h1_errors(case, state, 0, state.n_done + 1)
        assert len(got) == len(expected)
        assert got == pytest.approx(expected, rel=SPLIT_RTOL, abs=0.0)


@pytest.mark.parametrize(
    "case, ms",
    [(example1_case(1.5), 128), (example1_case(1.5), 3326), (example2_case(1.5), 32)],
    ids=["1d-128", "1d-3326", "2d-32"],
)
def test_split_is_an_identity_for_any_coefficients(case, ms):
    # the split holds for every P1 function, not only for a solution close
    # to g R: levels g(t_n) R plus unit-normal noise scaled 1e-8 .. 1e-1,
    # set as the state keeps them, on sine coefficients (T is orthonormal,
    # so the noise is unit-normal in the nodal basis too)

    N = 8
    tmesh = build_graded_mesh(case.T, N, 1.5)
    smesh = build_spatial_mesh(case.domain, ms)
    state = initialize(case.problem_spec(), tmesh, smesh)
    g, grad_shape = case.grad_parts
    ritz = smesh.sine_basis.to_sine(ritz_projection(smesh, grad_shape).coeffs)
    rng = np.random.default_rng(ms)
    for n, scale in zip(range(1, N + 1), np.logspace(-8.0, -1.0, N)):
        noise = rng.standard_normal(smesh.num_interior)
        state.ubar[n] = g(tmesh.t[n]) * ritz + scale * noise
    state.n_done = N
    got = mms_harness._h1_errors(case, state, 0, N + 1)
    assert got == pytest.approx(_per_level_errors(case, state), rel=1e-11, abs=0.0)


def test_h1_error_evaluation_peak_memory():
    # above the solved state of this run (2D, Ms = 182, N = 64) the split
    # peaked at 10,072,616 bytes while its quadratures evaluated grad_shape
    # at all 198,744 points at once, and at 3,010,344 bytes with element
    # blocks; the bound keeps the error evaluation's temporaries at the
    # scale of a block, not of the mesh
    case = example2_case(1.5)
    tmesh = build_graded_mesh(case.T, 64, 5.0 / 3.0)
    state = solve_all(case.problem_spec(), tmesh, build_spatial_mesh(case.domain, 182))
    tracemalloc.start()
    try:
        mms_harness._h1_errors(case, state, 0, state.n_done + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_every_exported_name_resolves():
    import fracwave

    missing = [name for name in fracwave.__all__ if not hasattr(fracwave, name)]
    assert missing == []
