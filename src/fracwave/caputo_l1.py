"""L1 discretization of the Caputo derivative on nonuniform meshes.

For a fractional order beta in (0, 1) the Caputo derivative at t_n is
approximated by the L1 formula

    D_N^beta w^n = sum_{k=1}^{n} d_{n,k} (w^{n-k+1} - w^{n-k}),

where the coefficients

    d_{n,k} = ((t_n - t_{n-k})**(1-beta) - (t_n - t_{n-k+1})**(1-beta))
              / (Gamma(2-beta) * tau_{n-k+1})

come from integrating the kernel against the piecewise-linear interpolant
of w.  The module also provides a sum-of-exponentials approximation of
that kernel for the solver's far history, the complementary discrete
kernels used by the stability theory, the closed-form Caputo derivative of
power functions, and a truncation-error study driver.
"""

import math

import numpy as np

from .graded_time import build_graded_mesh


def _check_beta(beta):
    if not 0 < beta < 1:
        raise ValueError(f"fractional order beta must lie in (0, 1), got {beta}")


def l1_rows(mesh, beta, lo, hi, first=0):
    """L1 coefficients of the levels lo..hi-1, indexed by history level.

    Returns D of shape (hi - lo, hi - 1 - first) with D[i, j - first] =
    d_{m, m-j} for the level m = lo + i and first <= j < m, and zero for
    j >= m.  Each power (t_m - t_j)**(1-beta) is computed once and shared
    by the two coefficients it enters; every entry takes the same
    elementwise operations whatever first is.
    """
    _check_beta(beta)
    if not 1 <= lo < hi <= mesh.N + 1:
        raise ValueError(f"levels must satisfy 1 <= lo < hi <= N+1={mesh.N + 1}, got [{lo}, {hi})")
    if not 0 <= first < lo:
        raise ValueError(f"first history level must satisfy 0 <= first < lo={lo}, got {first}")
    t = mesh.t
    # max(., 0) sends 0 ** (1-beta) = 0 at j = m and zeroes the entries past it
    p = t[lo:hi, None] - t[None, first:hi]
    np.maximum(p, 0.0, out=p)
    p **= 1.0 - beta
    d = p[:, :-1] - p[:, 1:]
    del p
    d /= math.gamma(2.0 - beta) * mesh.tau[first : hi - 1]
    return d


def l1_row(mesh, beta, n, count=None):
    """Coefficients d_{n,k}, k = 1..count, of the L1 formula at level n.

    Returns the read-only array d of shape (count,) with d[k - 1] = d_{n,k},
    positive and strictly decreasing in k.  count defaults to n, the full
    row; a smaller count gives its leading coefficients, equal to the full
    row's bit for bit at the cost of count powers instead of n.  beta is
    checked by l1_rows.
    """
    if n < 1 or n > mesh.N:
        raise ValueError(f"level must satisfy 1 <= n <= N={mesh.N}, got {n}")
    count = n if count is None else count
    if not 1 <= count <= n:
        raise ValueError(f"count must satisfy 1 <= count <= n={n}, got {count}")
    d = l1_rows(mesh, beta, n, n + 1, first=n - count)[0, ::-1]
    d.flags.writeable = False
    return d


def soe_kernel(beta, delta, T):
    """Nodes s and weights w, both positive, with

        sum_k w_k exp(-s_k t) = t**(-beta) / Gamma(1 - beta),  delta <= t <= T,

    to a relative error near rounding (below 1e-14 for beta in [0.51, 0.99]).
    In t**(-beta) = int exp(-t p) p**(beta-1) dp / Gamma(beta) the
    substitution p = exp(y - exp(-y)) (McLean 2018) makes the integrand
    decay double-exponentially as y -> -inf; the trapezoid rule of step
    0.25 runs from y = -log(50 / beta) to p > 60 / delta, and drops the
    terms below 1e-17 of the kernel on all of [delta, T].  About 70 terms
    for delta = 4e-5, T = 1.
    """
    _check_beta(beta)
    if not 0 < delta < T:
        raise ValueError(f"need 0 < delta < T, got delta={delta}, T={T}")
    y = np.arange(-math.log(50.0 / beta), math.log(60.0 / delta) + 1.0, 0.25)
    x = y - np.exp(-y)
    s = np.exp(x)
    w = 0.25 * math.sin(math.pi * beta) / math.pi * np.exp(beta * x) * (1.0 + np.exp(-y))
    # a term's largest share of the kernel on [delta, T], at t = beta / s
    t = np.clip(beta / s, delta, T)
    keep = w * np.exp(-s * t) * t**beta * math.gamma(1.0 - beta) > 1e-17
    return s[keep], w[keep]


def discrete_caputo(d, history):
    """Apply the L1 formula to a history w^0, ..., w^n.

    Parameters
    ----------
    d : ndarray, shape (n,)
        The full row of coefficients at level n, l1_row(mesh, beta, n).
    history : array_like, shape (n + 1,) or (n + 1, M)
        Scalar or vector-valued samples at t_0, ..., t_n.

    Returns
    -------
    float or ndarray
        The L1 value at level n; exact for histories affine in t.
    """
    hist = np.asarray(history, dtype=float)
    n = hist.shape[0] - 1
    if d.shape != (n,):
        raise ValueError(
            f"the L1 formula at level {n} needs the full row of {n} coefficients, "
            f"got shape {d.shape}"
        )
    diffs = hist[1:] - hist[:-1]
    # d reversed pairs d_{n,n-m+1} with the increment at level m
    out = np.tensordot(d[::-1], diffs, axes=(0, 0))
    if out.ndim == 0:
        return float(out)
    return out


def _back_substitute(d, n):
    """Q^{(n)}_j, j = 0..n-1, from d = l1_rows(mesh, beta, 1, m + 1), m >= n,
    whose entry d[i - 1, j] is d_{i,i-j}."""
    q = np.zeros(n)
    q[0] = 1.0 / d[n - 1, n - 1]
    for i in range(n - 1, 0, -1):
        s = 0.0
        for k in range(i + 1, n + 1):
            s += (d[k - 1, i] - d[k - 1, i - 1]) * q[n - k]
        q[n - i] = s / d[i - 1, i - 1]
    q.flags.writeable = False
    return q


def kernel_triangle(mesh, beta):
    """Complementary kernels for every level 1..N, as a tuple of rows.

    Row n - 1 holds Q^{(n)}_j at index j.  All entries are nonnegative and
    the level sums obey sum_j Q^{(n)}_j <= t_n**beta / Gamma(1 + beta).
    """
    d = l1_rows(mesh, beta, 1, mesh.N + 1)
    return tuple(_back_substitute(d, n) for n in range(1, mesh.N + 1))


def exact_caputo_power(sigma, order, t):
    """Caputo derivative of w(t) = t**sigma for a fractional order in (0, 2).

    Returns Gamma(sigma + 1) / Gamma(sigma + 1 - order) * t**(sigma - order).
    Requires sigma >= order so the derivative stays bounded at t = 0; the
    boundary case sigma == order gives the constant Gamma(order + 1).
    """
    if not 0 < order < 2:
        raise ValueError(f"fractional order must lie in (0, 2), got {order}")
    if sigma < order:
        raise ValueError(
            f"power sigma={sigma} below the order {order} is outside the domain"
        )
    coef = math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 - order)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    out = coef * t ** (sigma - order)  # 0**0 == 1 covers sigma == order at t = 0
    if out.ndim == 0:
        return float(out)
    return out


def truncation_study(beta, sigma, n_list, r):
    """Weighted max-node L1 truncation errors for w(t) = t**sigma on (0, 1].

    For each N the study builds the graded mesh with exponent r, applies the
    L1 formula to the sampled power function at every level, and records

        max_{1<=n<=N} t_n**beta * |D_N^beta w^n - caputo(w)(t_n)|.

    The weight exposes the mesh-driven rate N**(-min(2-beta, r*sigma))
    behind the t_n**(-beta) prefactor of the pointwise bound.

    Returns a list of (N, error) pairs in the order given.
    """
    _check_beta(beta)
    results = []
    for N in n_list:
        mesh = build_graded_mesh(1.0, N, r)
        w = mesh.t**sigma
        exact = exact_caputo_power(sigma, beta, mesh.t[1:])
        worst = 0.0
        for n in range(1, mesh.N + 1):
            row = l1_row(mesh, beta, n)
            approx = discrete_caputo(row, w[: n + 1])
            err = mesh.t[n] ** beta * abs(approx - exact[n - 1])
            if err > worst:
                worst = err
        results.append((int(N), worst))
    return results
