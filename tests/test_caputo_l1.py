"""L1 coefficients, complementary kernels, and exact Caputo derivatives of powers.

Frozen reference numbers come from an mpmath oracle run at 50 digits.
"""

import math

import numpy as np
import pytest

from fracwave.caputo_l1 import (
    discrete_caputo,
    exact_caputo_power,
    kernel_triangle,
    l1_row,
    l1_rows,
    soe_kernel,
    truncation_study,
)
from fracwave.graded_time import build_graded_mesh, recommended_grading


def uniform_mesh(T, N):
    return build_graded_mesh(T, N, 1.0)


def test_l1_row_uniform_unit_step():
    row = l1_row(uniform_mesh(2.0, 2), 0.5, 2)
    assert row[0] == pytest.approx(1.1283791670955126, rel=1e-14)
    assert row[1] == pytest.approx(0.46738995451021814, rel=1e-14)


def test_l1_row_first_level_formula():
    mesh = build_graded_mesh(1.0, 8, 2.0)
    for beta in (0.3, 0.5, 0.75, 0.9):
        row = l1_row(mesh, beta, 1)
        expected = mesh.tau[0] ** (-beta) / math.gamma(2.0 - beta)
        assert row[0] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_l1_row_positive_and_decreasing(r):
    mesh = build_graded_mesh(1.0, 12, r)
    for n in (1, 3, 7, 12):
        d = l1_row(mesh, 0.6, n)
        assert np.all(d > 0)
        assert np.all(np.diff(d) < 0) or n == 1


@pytest.mark.parametrize("N", [15, 16, 17, 37])
def test_l1_rows_block_equals_l1_row_bit_for_bit(N):
    beta = 0.7
    mesh = build_graded_mesh(1.0, N, recommended_grading(beta))
    # the blocks of 16 levels the solver opens at 2, 18, 34, ..., and
    # blocks that straddle those boundaries
    starts = list(range(2, N + 1, 16)) + list(range(1, N + 1, 16)) + [N - 1, N]
    for lo in sorted(set(s for s in starts if 1 <= s <= N)):
        hi = min(lo + 16, N + 1)
        d = l1_rows(mesh, beta, lo, hi)
        assert d.shape == (hi - lo, hi - 1)
        for i, m in enumerate(range(lo, hi)):
            np.testing.assert_array_equal(d[i, :m][::-1], l1_row(mesh, beta, m))
            assert not d[i, m:].any()


@pytest.mark.parametrize("N", [15, 16, 17, 37])
def test_truncated_l1_row_is_the_full_row_head_bit_for_bit(N):
    beta = 0.7
    mesh = build_graded_mesh(1.0, N, recommended_grading(beta))
    for n in range(1, N + 1):
        full = l1_row(mesh, beta, n)
        # every count n - lo + 1 the solver asks for (lo the start of the
        # block of 16 levels holding n), and every count up to the full row
        for count in range(1, n + 1):
            row = l1_row(mesh, beta, n, count)
            assert row.shape == (count,)
            assert not row.flags.writeable
            np.testing.assert_array_equal(row, full[:count])
        for count in (0, -1, n + 1):
            with pytest.raises(ValueError, match="count"):
                l1_row(mesh, beta, n, count)
    for first in (-1, N):
        with pytest.raises(ValueError, match="first history level"):
            l1_rows(mesh, beta, N, N + 1, first)
    # the L1 formula needs the whole row
    with pytest.raises(ValueError, match="full row"):
        discrete_caputo(l1_row(mesh, beta, N, 3), np.zeros(N + 1))


def test_l1_rows_match_the_two_power_formula():
    beta = 0.45
    mesh = build_graded_mesh(2.0, 37, 2.5)
    d = l1_rows(mesh, beta, 5, 21)
    g = math.gamma(2.0 - beta)
    for i, n in enumerate(range(5, 21)):
        ks = np.arange(1, n + 1)
        left = (mesh.t[n] - mesh.t[n - ks]) ** (1.0 - beta)
        right = (mesh.t[n] - mesh.t[n - ks + 1]) ** (1.0 - beta)
        np.testing.assert_allclose(
            d[i, :n][::-1], (left - right) / (g * mesh.tau[n - ks]), rtol=1e-14, atol=0
        )


def test_l1_rows_rejects_bad_ranges():
    mesh = uniform_mesh(1.0, 8)
    for lo, hi in [(0, 3), (3, 3), (5, 10)]:
        with pytest.raises(ValueError, match="levels must satisfy"):
            l1_rows(mesh, 0.5, lo, hi)
    with pytest.raises(ValueError, match="beta"):
        l1_rows(mesh, 1.0, 1, 3)


@pytest.mark.parametrize("beta", [0.51, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("mesh", ["uniform", "graded", "2e-7"])
def test_soe_kernel_matches_the_l1_kernel(beta, mesh):
    # [delta, T] as the solver asks for it, tau_2 of a 4,096-level mesh
    # (r = 1 and the recommended grading), and a window down to 2e-7;
    # measured at most 3.8e-15 relative, at beta = 0.99
    if mesh == "2e-7":
        delta = 2e-7
    else:
        tmesh = build_graded_mesh(1.0, 4096, 1.0 if mesh == "uniform" else recommended_grading(beta))
        delta = tmesh.tau[1:].min()
    s, w = soe_kernel(beta, delta, 1.0)
    assert (s > 0).all() and (w > 0).all()
    t = np.geomspace(delta, 1.0, 4001)
    exact = t**-beta / math.gamma(1.0 - beta)
    approx = np.exp(-np.outer(t, s)) @ w
    assert np.abs(approx / exact - 1.0).max() <= 1e-14


def test_soe_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError, match="beta"):
        soe_kernel(1.0, 1e-3, 1.0)
    for delta, T in [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]:
        with pytest.raises(ValueError, match="delta"):
            soe_kernel(0.5, delta, T)


def test_discrete_caputo_constant_is_zero():
    mesh = build_graded_mesh(1.0, 6, 1.5)
    hist = [3.7] * 7
    for n in range(1, 7):
        row = l1_row(mesh, 0.4, n)
        assert discrete_caputo(row, hist[: n + 1]) == pytest.approx(0.0, abs=1e-14)


def test_discrete_caputo_exact_on_affine():
    rng = np.random.default_rng(7)
    for _ in range(10):
        N = int(rng.integers(2, 14))
        r = float(rng.uniform(1.0, 3.0))
        beta = float(rng.uniform(0.1, 0.9))
        c0, c1 = rng.uniform(-2, 2, size=2)
        mesh = build_graded_mesh(1.0, N, r)
        hist = [c0 + c1 * t for t in mesh.t]
        for n in range(1, N + 1):
            row = l1_row(mesh, beta, n)
            exact = c1 * mesh.t[n] ** (1.0 - beta) / math.gamma(2.0 - beta)
            assert discrete_caputo(row, hist[: n + 1]) == pytest.approx(exact, rel=1e-12)


def test_discrete_caputo_linear_spot_value():
    # w(t) = t on the uniform N=4 mesh, level 3: t_n^(1-beta)/Gamma(2-beta)
    mesh = uniform_mesh(1.0, 4)
    row = l1_row(mesh, 0.5, 3)
    value = discrete_caputo(row, list(mesh.t[:4]))
    assert value == pytest.approx(0.97720502380583984, rel=1e-14)


def test_discrete_caputo_quadratic_frozen():
    # brute-force oracle: d21*(1 - 0.25) + d22*(0.25 - 0) at tau=0.5
    mesh = uniform_mesh(1.0, 2)
    row = l1_row(mesh, 0.5, 2)
    value = discrete_caputo(row, [0.0, 0.25, 1.0])
    assert value == pytest.approx(1.3620741443506216, rel=1e-14)


def test_discrete_caputo_componentwise_on_vectors():
    mesh = build_graded_mesh(1.0, 5, 2.0)
    rng = np.random.default_rng(3)
    hist = [rng.standard_normal(4) for _ in range(6)]
    row = l1_row(mesh, 0.7, 5)
    vec = discrete_caputo(row, hist)
    for j in range(4):
        scalar = discrete_caputo(row, [h[j] for h in hist])
        assert vec[j] == pytest.approx(scalar, rel=1e-13, abs=1e-15)


def test_discrete_caputo_rejects_wrong_history_length():
    mesh = uniform_mesh(1.0, 4)
    row = l1_row(mesh, 0.5, 3)
    with pytest.raises(ValueError):
        discrete_caputo(row, [0.0, 1.0])


def test_kernel_first_level_closed_form():
    mesh = uniform_mesh(1.0, 4)
    q = kernel_triangle(mesh, 0.5)[0]
    assert q[0] == pytest.approx(0.44311346272637901, rel=1e-14)


@pytest.mark.parametrize("r", [1.0, 2.0, 2.6])
def test_kernel_complementarity_identity(r):
    beta = 0.6
    mesh = build_graded_mesh(1.0, 20, r)
    tri = kernel_triangle(mesh, beta)
    d = [l1_row(mesh, beta, j) for j in range(1, 21)]
    for n in range(1, 21):
        q = tri[n - 1]
        for k in range(1, n + 1):
            s = sum(q[n - j] * d[j - 1][j - k] for j in range(k, n + 1))
            assert s == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("r", [1.0, 1.857142857142857, 3.0])
def test_kernel_sum_bound(r):
    beta = 0.75
    mesh = build_graded_mesh(1.0, 50, r)
    tri = kernel_triangle(mesh, beta)
    cap = 1.0 / math.gamma(1.0 + beta)
    for n in range(1, 51):
        total = tri[n - 1].sum()
        assert total <= cap * mesh.t[n] ** beta + 1e-12
        assert np.all(tri[n - 1] >= 0)


@pytest.mark.parametrize("r", [1.0, 2.333333333333333])
def test_quadratic_form_lower_bound(r):
    # (D w^n) w^n >= (1/2) D (w^2)^n for arbitrary histories
    rng = np.random.default_rng(11)
    beta = 0.65
    mesh = build_graded_mesh(1.0, 30, r)
    rows = [l1_row(mesh, beta, n) for n in range(1, 31)]
    for _ in range(200):
        n = int(rng.integers(1, 31))
        w = rng.standard_normal(n + 1)
        lhs = discrete_caputo(rows[n - 1], w) * w[n]
        rhs = 0.5 * discrete_caputo(rows[n - 1], w**2)
        assert lhs >= rhs - 1e-12


def test_exact_caputo_power_values():
    assert exact_caputo_power(1.0, 0.5, 1.0) == pytest.approx(1.1283791670955126, rel=1e-14)
    assert exact_caputo_power(2.0, 0.5, 1.0) == pytest.approx(1.5045055561273501, rel=1e-14)
    assert exact_caputo_power(2.0, 0.5, 0.0) == 0.0


def test_exact_caputo_power_of_matching_exponent_is_constant():
    # sigma equal to the order gives Gamma(sigma + 1) at every t
    for t in (0.0, 0.3, 1.0):
        assert exact_caputo_power(0.7, 0.7, t) == pytest.approx(math.gamma(1.7), rel=1e-14)


def test_exact_caputo_power_array_argument():
    t = np.array([0.0, 0.25, 1.0])
    out = exact_caputo_power(2.0, 0.5, t)
    np.testing.assert_allclose(out, [0.0, 1.5045055561273501 * 0.25**1.5, 1.5045055561273501], rtol=1e-13)


def test_exact_caputo_power_domain_errors():
    with pytest.raises(ValueError):
        exact_caputo_power(0.3, 0.5, 1.0)
    with pytest.raises(ValueError):
        exact_caputo_power(1.0, 2.5, 1.0)


def test_truncation_affine_machine_zero():
    table = truncation_study(0.5, 1.0, [8, 16, 32], r=2.0)
    for _, err in table:
        assert err < 1e-12


def rate_from(table):
    (_, e0), (_, e1) = table[-2], table[-1]
    return math.log2(e0 / e1)


def test_truncation_rate_graded_singular():
    table = truncation_study(0.5, 0.5, [64, 128, 256, 512], r=3.0)
    assert rate_from(table) == pytest.approx(1.5, abs=0.1)


def test_truncation_rate_uniform_smooth():
    table = truncation_study(0.5, 2.0, [64, 128, 256, 512], r=1.0)
    assert rate_from(table) == pytest.approx(1.5, abs=0.1)


def test_truncation_rate_uniform_singular_degrades():
    # with r=1 the singular profile only yields order beta
    beta = 0.7
    table = truncation_study(beta, beta, [64, 128, 256, 512], r=1.0)
    assert rate_from(table) == pytest.approx(beta, abs=0.1)
