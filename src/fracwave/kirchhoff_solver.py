"""Linearized L1/FEM time stepping for the Kirchhoff-type fractional wave equation.

The order-2beta problem

    caputo^(2 beta) u - a(||grad u||^2) Lap u = f,   u = 0 on the boundary,
    u(0) = u0,  u_t(0) = u1,

is reduced to a symmetric system of order beta in the shifted unknown
ubar = u - t * u1 and its fractional velocity v = caputo^beta ubar.  Each
time level solves one SPD linear system: the nonlocal coefficient is frozen
at a two-level extrapolant of the recovered solution, so no nonlinear
iteration is needed.  The state is kept in the spatial mesh's sine basis
(fem_space.SineBasis), where the mass and stiffness are its symbols (plus
one Kronecker term of the 2D mass), so a level makes no transform and no
banded product.  The L1 sums over the histories of ubar and v are split
after Hairer, Lubich & Schlichte (1985): the far part, over the levels
before a block of _BLOCK levels, is computed for the whole block when its
first level is stepped and parked in the block's own unsolved rows; each
level adds the near part, the at most _BLOCK - 1 levels of its block
before it, with weights from the leading coefficients of its L1 row alone.
A level's own work is thus O(_BLOCK) coefficients, one mass product and
one spd_solve.  The far part of a short run is one GEMM over the whole
history per block, 2 N^2 M flops a run, so such a run keeps every level.
A run of N >= _SOE_LEVELS_PER_TERM n_exp levels takes it from a sum of
n_exp exponentials of the L1 kernel (caputo_l1.soe_kernel; Jiang, Zhang,
Zhang & Zhang 2017), O(n_exp M) a block, which reads only the last block:
it keeps _BLOCK + 2 rows of each history and drops the older levels.
solve_all hands each block of levels to an observer as it is solved, so
the reports read every level either way.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .caputo_l1 import l1_row, l1_rows, soe_kernel
from .fem_space import (
    DEFAULT_TOL,
    assemble_grad_load,
    assemble_load,
    l2_projection,
    ritz_projection,
    spd_solve,
)
from .graded_time import extrapolation_weights

# levels whose far L1 history sums share one GEMM
_BLOCK = 16
# a run takes its far sums from a sum of exponentials when it has at least
# this many levels per exponential, and densely otherwise (see _soe_terms)
_SOE_LEVELS_PER_TERM = 20


@dataclass
class ProblemSpec:
    """Continuous problem data.

    Parameters
    ----------
    alpha : float
        Temporal order, 1 < alpha < 2.
    T : float
        Final time.
    domain : tuple
        ("interval", a, b) or ("unit_square",).
    a : callable
        Nonlocal diffusion coefficient, evaluated at ||grad u||^2.
    m1, m2 : float
        Declared bounds 0 < m1 <= a <= m2; violations detected at run time.
    f : callable or tuple
        Forcing f(x, t) in 1D or f(x, y, t) in 2D, or a non-empty tuple of
        (c_k, phi_k) pairs of callables for the separable forcing
        f = sum over k of c_k(t) phi_k(x[, y]).  The loads of the phi_k are
        then assembled once per run instead of f on every level.
    u0, grad_u0 : callable or None
        Initial displacement and its gradient; None means zero.  The
        gradient is required whenever u0 is nonzero, because the initial
        datum enters through its Ritz projection.
    u1, grad_u1 : callable or None
        Initial velocity and its gradient; None means zero.  A nonzero u1
        needs grad_u1 for the stationary forcing term t * a(.) * (Lap u1, phi),
        which is loaded as -t * a(.) * (grad u1, grad phi).
    """

    alpha: float
    T: float
    domain: tuple
    a: object
    m1: float
    m2: float
    f: object
    u0: object = None
    grad_u0: object = None
    u1: object = None
    grad_u1: object = None

    def __post_init__(self):
        if not 1 < self.alpha < 2:
            raise ValueError(f"temporal order alpha must lie in (1, 2), got {self.alpha}")
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if not 0 < self.m1 <= self.m2:
            raise ValueError(f"coefficient bounds need 0 < m1 <= m2, got ({self.m1}, {self.m2})")
        pairs = self.f if isinstance(self.f, tuple) else ()
        ok = all(isinstance(p, tuple) and len(p) == 2 and all(map(callable, p)) for p in pairs)
        if not (callable(self.f) or (pairs and ok)):
            raise ValueError("f must be a callable or a non-empty tuple of (c_k, phi_k) pairs")
        if not callable(self.a):
            raise ValueError(f"a must be callable, got {self.a!r}")
        for name in ("u0", "grad_u0", "u1", "grad_u1"):
            value = getattr(self, name)
            if not (value is None or callable(value)):
                raise ValueError(f"{name} must be callable or None, got {value!r}")
        if self.u0 is not None and self.grad_u0 is None:
            raise ValueError("a nonzero u0 needs grad_u0 for its Ritz projection")
        if self.u1 is not None and self.grad_u1 is None:
            raise ValueError("a nonzero u1 needs grad_u1")

    @property
    def beta(self):
        return 0.5 * self.alpha


@dataclass
class SolverState:
    """Mutable per-run state: meshes and the kept level histories.

    Every vector is held as the sine coefficients T x of nodal interior
    coefficients x, T = smesh.sine_basis.  Row i of ubar and v holds the
    shifted displacement and the fractional velocity at level first + i.
    A run whose far history sums are dense keeps every level (first = 0,
    N + 1 rows), since each block's GEMM reads them all.  A run on the sum
    of exponentials keeps _BLOCK + 2 rows: levels lo - 2 .. hi - 1 while
    the block lo..hi-1 is open, the rows shifting down when the next block
    opens (see _soe_far_sums).  Kept levels above n_done are not
    solutions: the rows of the current block of levels hold their far L1
    history sums, later rows are zero or stale.  rows and recovered read
    the solved kept levels and raise outside them.  kappa[n] records the
    frozen coefficient used at level n (levels 0 and 1 come from
    initialization and have none).  loads holds, for a separable forcing,
    the c_k and the (k, M) stack of the loads b_k of the phi_k, and is
    empty when f is a callable.  soe, set by initialize, is empty on a run
    whose far history sums are dense and holds the nodes s, weights w and
    stacked sums U of the sum of exponentials otherwise (see
    _soe_far_sums); n_exp, the number of exponentials, reads 0 on a dense
    run.
    """

    spec: ProblemSpec
    tmesh: object
    smesh: object
    phu1: np.ndarray
    lap_load: np.ndarray
    ubar: np.ndarray
    v: np.ndarray
    kappa: np.ndarray
    loads: tuple = ()
    cg_iters: list = field(default_factory=list)
    n_done: int = 0
    soe: tuple = ()
    first: int = 0

    @property
    def n_exp(self):
        return self.soe[0].size if self.soe else 0

    def rows(self, lo, hi):
        """Views of the rows of ubar and v at the solved, kept levels lo..hi-1."""
        for n in (lo, hi - 1):
            if not self.first <= n <= self.n_done:
                how = "was dropped" if 0 <= n < self.first else "is not solved"
                raise ValueError(
                    f"level {n} {how}; the kept levels are {self.first}..n_done = {self.n_done}")
        kept = slice(lo - self.first, hi - self.first)
        return self.ubar[kept], self.v[kept]

    def recovered(self, lo, hi=None):
        """Nodal interior coefficients of the recovered displacement at the
        solved, kept level lo, or stacked over levels lo..hi-1 by one transform."""
        if hi is None:
            return self.recovered(lo, lo + 1)[0]
        ubar, _ = self.rows(lo, hi)
        return self.smesh.sine_basis.from_sine(ubar + self.tmesh.t[lo:hi, None] * self.phu1)


def _soe_terms(beta, tmesh):
    """The nodes and weights (s, w) of the sum of exponentials a run on
    tmesh takes its far history sums from, or None where they are dense:
    the sum of n_exp exponentials is taken if N >= _SOE_LEVELS_PER_TERM n_exp."""
    # a far kernel argument t_m - s is at least tau_2 and at most T
    s, w = soe_kernel(beta, tmesh.tau[1:].min(), tmesh.T)
    return (s, w) if tmesh.N >= _SOE_LEVELS_PER_TERM * s.size else None


def history_bytes(beta, tmesh, m):
    """(bytes, n_exp): the bytes a run of order beta on tmesh with m
    unknowns keeps for its level histories, and its n_exp, 0 on a dense
    run.  That is 16 (N + 1) m dense, and 16 (_BLOCK + 2 + n_exp) m on the
    sum of exponentials: _BLOCK + 2 rows of ubar and v, and U."""
    terms = _soe_terms(beta, tmesh)
    n_exp = 0 if terms is None else terms[0].size
    rows = tmesh.N + 1 if terms is None else _BLOCK + 2 + n_exp
    return 16 * rows * m, n_exp


def initialize(spec, tmesh, smesh):
    """Set up the loads, the far-sum path and the two starting levels, in
    the sine basis.

    Level 0 is the Ritz projection of u0 with zero velocity; level 1 uses a
    Taylor start U^1 = U^0 + tau_1 * P_h u1.  In the shifted variable this
    makes ubar^1 equal ubar^0 exactly, and feeding that through the L1
    formula gives v^1 = 0 exactly as well; both are computed, not assumed.
    The run takes its far sums densely and keeps every level, or from the
    sum of exponentials of _soe_terms and keeps _BLOCK + 2 rows (see
    SolverState).  Loads and projections take the fem_space defaults
    DEFAULT_QUAD_ORDER and DEFAULT_TOL, and are transformed once; no
    matrix is assembled.
    """
    to_sine = smesh.sine_basis.to_sine
    m = smesh.num_interior

    loads = ()
    if isinstance(spec.f, tuple):
        loads = tuple(c for c, _ in spec.f), np.stack(
            [to_sine(assemble_load(smesh, phi)) for _, phi in spec.f])

    if spec.u0 is None:
        u0 = np.zeros(m)
    else:
        u0 = to_sine(ritz_projection(smesh, spec.grad_u0).coeffs)

    if spec.u1 is None:
        phu1 = np.zeros(m)
        lap_load = np.zeros(m)
    else:
        phu1 = to_sine(l2_projection(smesh, spec.u1).coeffs)
        lap_load = -to_sine(assemble_grad_load(smesh, spec.grad_u1))

    terms = _soe_terms(spec.beta, tmesh)
    soe = () if terms is None else (*terms, np.zeros((2, terms[0].size, m)))
    rows = _BLOCK + 2 if soe else tmesh.N + 1
    ubar = np.zeros((rows, m))
    v = np.zeros((rows, m))
    kappa = np.full(tmesh.N + 1, np.nan)
    ubar[0] = u0
    u1_level = u0 + tmesh.tau[0] * phu1
    ubar[1] = u1_level - tmesh.t[1] * phu1
    d11 = l1_row(tmesh, spec.beta, 1)[0]
    v[1] = d11 * (ubar[1] - ubar[0])

    return SolverState(
        spec=spec,
        tmesh=tmesh,
        smesh=smesh,
        phu1=phu1,
        lap_load=lap_load,
        ubar=ubar,
        v=v,
        kappa=kappa,
        loads=loads,
        n_done=1,
        soe=soe,
    )


def _far_sums(state, lo):
    """Write the far history sums of the block of levels lo..hi-1.

    The row of level m, unset until solved, gets level m's L1 weights times
    the history levels j < lo: from the sum of exponentials state.soe if
    initialize chose it (see _soe_far_sums), else densely, the weights of
    all the block's levels at once and one GEMM over every kept level per
    history.
    """
    tmesh, beta = state.tmesh, state.spec.beta
    hi = min(lo + _BLOCK, tmesh.N + 1)
    if state.soe:
        _soe_far_sums(state, lo, hi)
        return
    d = l1_rows(tmesh, beta, lo, hi)
    weights = np.empty((hi - lo, lo))
    weights[:, 0] = -d[:, 0]
    np.subtract(d[:, : lo - 1], d[:, 1:lo], out=weights[:, 1:])
    del d
    np.matmul(weights, state.v[:lo], out=state.v[lo:hi])
    np.matmul(weights, state.ubar[:lo], out=state.ubar[lo:hi])


def _soe_far_sums(state, lo, hi):
    """The far sums of _far_sums from the sum of exponentials state.soe.

    By summation by parts a far sum is
    sum_{j < lo-1} d_{m,m-j} dx_j - d_{m,m-lo+1} x^(lo-1), dx_j = x^(j+1) - x^j,
    and with the kernel's exponentials, phi(z) = (1 - exp(-z)) / z,
    d_{m,m-j} = sum_k w_k exp(-s_k (t_m - t_(j+1))) phi(s_k tau_(j+1)), so
    the first part is sum_k w_k exp(-s_k (t_m - t_(lo-1))) U_k.  U_k, both
    histories stacked, moves on from the last block by a decay and one
    product with that block's increments; the boundary coefficient is exact.
    Once U has read the last block, histories too short for the new block
    shift down to keep levels lo - 2 and lo - 1, which the extrapolant and
    the boundary term read, and drop the older ones (state.first = lo - 2).
    """
    s, w, u = state.soe
    t, tau = state.tmesh.t, state.tmesh.tau
    v, ubar, f = state.v, state.ubar, state.first
    # U covered j < prev - 1; add the increments j = prev - 1..lo - 2
    prev = max(lo - _BLOCK, 1)
    dx = np.empty((2, lo - prev, u.shape[2]))
    np.subtract(v[prev - f : lo - f], v[prev - 1 - f : lo - 1 - f], out=dx[0])
    np.subtract(ubar[prev - f : lo - f], ubar[prev - 1 - f : lo - 1 - f], out=dx[1])
    z = s[:, None] * tau[prev - 1 : lo - 1]
    gain = np.exp(s[:, None] * (t[prev:lo] - t[lo - 1])) * (-np.expm1(-z) / z)
    u *= np.exp(s * (t[prev - 1] - t[lo - 1]))[:, None]
    u += gain @ dx
    if hi - f > len(v):
        v[:2], ubar[:2] = v[lo - 2 - f : lo - f], ubar[lo - 2 - f : lo - f]
        state.first = f = lo - 2
    far = (w * np.exp(s * (t[lo - 1] - t[lo:hi, None]))) @ u
    edge = l1_rows(state.tmesh, state.spec.beta, lo, hi, first=lo - 1)[:, :1]
    np.subtract(far[0], edge * v[lo - 1 - f], out=v[lo - f : hi - f])
    np.subtract(far[1], edge * ubar[lo - 1 - f], out=ubar[lo - f : hi - f])


def _history_sums(state, n):
    """d_{n,1} and the L1 history sums G = sum_j w_j v^j, H = sum_j w_j ubar^j.

    The weights w_j, j < n, are those of the L1 formula at level n with its
    newest term d_{n,1} w^n taken out.  Levels 2, 2 + _BLOCK, ... open a
    block and write its far sums (j below the block) into the unset rows;
    level n adds the near part, j from the block start lo to n - 1, from
    the n - lo + 1 <= _BLOCK leading coefficients of its L1 row, so a level
    computes O(_BLOCK) powers, not n.
    """
    lo = n - (n - 2) % _BLOCK
    if n == lo:
        _far_sums(state, lo)
    # in history order from j = lo - 1, row[i] = d_{n,n-lo+1-i}, so
    # w_j = row[j-lo] - row[j-lo+1] for lo <= j < n and row[-1] = d_{n,1}
    row = l1_row(state.tmesh, state.spec.beta, n, n - lo + 1)[::-1]
    near = row[:-1] - row[1:]
    f = state.first  # read after _far_sums, which may shift the rows
    g_hist = state.v[n - f] + near @ state.v[lo - f : n - f]
    h_hist = state.ubar[n - f] + near @ state.ubar[lo - f : n - f]
    return row[-1], g_hist, h_hist


def step(state, n):
    """Advance one level, 2 <= n <= N; levels through n - 1 must be done.

    The SPD system for the new ubar coefficients is

        (d_{n,1} B + (kappa / d_{n,1}) A) x = L - B y,
        L = (F^n + t_n kappa E) / d_{n,1},   y = G / d_{n,1} + H,

    where G and H are the L1 history combinations of v and ubar (far part
    per block of levels, near part per level; see _history_sums), E is the
    load of Lap u1, and kappa is the coefficient frozen at the two-level
    extrapolant u_hat = x0 + t_hat phu1 of the recovered displacement, x0
    that of ubar.  The load F^n is sum_k c_k(t_n) b_k for a separable
    forcing, one product with the stacked loads b_k from initialize, and
    one transformed assemble_load of f(., t_n) otherwise.  The velocity
    update v^n = d_{n,1} x + H never touches an inverse mass matrix.  A
    non-finite load or right-hand side raises ValueError before the solve.

    All of it runs on sine coefficients, A the stiffness symbols and B the
    SineBasis mass.  x = x_g + e from the start x_g = -y / d_{n,1}, whose
    residual L + (kappa / d_{n,1}^2) A y needs no 2D fold, so B y is the one
    fold outside spd_solve, which finds e until ||r|| <= DEFAULT_TOL ||L - B y||.
    """
    if n != state.n_done + 1:
        raise ValueError(f"levels must advance in order; expected {state.n_done + 1}, got {n}")
    if n < 2 or n > state.tmesh.N:
        raise ValueError(f"step level must satisfy 2 <= n <= N={state.tmesh.N}, got {n}")
    spec = state.spec
    tmesh = state.tmesh
    basis = state.smesh.sine_basis
    tn = tmesh.t[n]

    w1, w2 = extrapolation_weights(tmesh, n)
    t_hat = w1 * tmesh.t[n - 1] + w2 * tmesh.t[n - 2]
    f = state.first
    u_hat = w1 * state.ubar[n - 1 - f] + w2 * state.ubar[n - 2 - f] + t_hat * state.phu1
    ell = float(u_hat @ (basis.stiffness_symbol * u_hat))
    del u_hat  # as rhs below: CG's peak holds no vector the level is done with
    kap = float(spec.a(ell))
    slack = 1e-12 * max(1.0, abs(spec.m2))
    if not (spec.m1 - slack <= kap <= spec.m2 + slack):
        raise ValueError(
            f"coefficient a({ell:.6e}) = {kap:.6e} leaves the declared "
            f"range [{spec.m1}, {spec.m2}] at level {n}"
        )

    d1, g_hist, h_hist = _history_sums(state, n)

    if state.loads:
        cs, b = state.loads
        ck = np.array([c(tn) for c in cs], dtype=float)
        # a non-finite c_k is kept from the zero modes of b_k, where inf * 0 warns
        load = ck @ b if np.isfinite(ck).all() else np.full(b.shape[1], np.nan)
    else:
        load = basis.to_sine(assemble_load(state.smesh, lambda *x: spec.f(*x, tn)))
    load += tn * kap * state.lap_load
    load /= d1
    y = np.add(np.divide(g_hist, d1, out=g_hist), h_hist, out=g_hist)
    rhs = load - basis.mass(y)
    rr = float(rhs @ rhs)
    if not math.isfinite(rr):
        raise ValueError(f"non-finite load or right-hand side at level {n}")

    c = kap / d1
    load += np.multiply(c / d1, np.multiply(basis.stiffness_symbol, y, out=rhs), out=rhs)
    del rhs
    e, iters = spd_solve(state.smesh, d1, c, load, DEFAULT_TOL * math.sqrt(rr))

    row = n - state.first
    x = np.subtract(e, np.divide(y, d1, out=y), out=state.ubar[row])
    np.add(np.multiply(d1, x, out=state.v[row]), h_hist, out=state.v[row])
    state.kappa[n] = kap
    state.cg_iters.append(iters)
    state.n_done = n
    return state


def solve_all(spec, tmesh, smesh, observe=None):
    """Initialize and advance every level; returns the final state.

    observe(state, lo, hi), if given, is called once levels 0 and 1 are set
    (lo, hi = 0, 2) and after each block of _BLOCK levels lo..hi-1 is
    solved, while state still keeps them, so it sees every level 0..N once,
    in order.
    """
    state = initialize(spec, tmesh, smesh)
    if observe is not None:
        observe(state, 0, 2)
    for lo in range(2, tmesh.N + 1, _BLOCK):
        hi = min(lo + _BLOCK, tmesh.N + 1)
        for n in range(lo, hi):
            step(state, n)
        if observe is not None:
            observe(state, lo, hi)
    return state


def apriori_bound_report(state, lo, hi):
    """Stability quantity ||v^n||_L2 + ||grad ubar^n||_L2 at the solved,
    kept levels n = lo..hi-1, as an array.

    The continuous-level energy argument bounds exactly this combination,
    so a healthy run shows values that stay bounded as the mesh refines.
    Both are taken in the sine basis.
    """
    basis = state.smesh.sine_basis
    ubar, v = state.rows(lo, hi)
    out = np.zeros(hi - lo)
    for i, (un, vn) in enumerate(zip(ubar, v)):
        v_l2 = math.sqrt(max(float(vn @ basis.mass(vn)), 0.0))
        u_h1 = math.sqrt(max(float(un @ (basis.stiffness_symbol * un)), 0.0))
        out[i] = v_l2 + u_h1
    return out
