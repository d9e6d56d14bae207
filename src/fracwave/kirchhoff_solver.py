"""Linearized L1/FEM time stepping for the Kirchhoff-type fractional wave equation.

The order-2beta problem

    caputo^(2 beta) u - a(||grad u||^2) Lap u = f,   u = 0 on the boundary,
    u(0) = u0,  u_t(0) = u1,

is reduced to a symmetric system of order beta in the shifted unknown
ubar = u - t * u1 and its fractional velocity v = caputo^beta ubar.  Each
time level solves one SPD linear system: the nonlocal coefficient is frozen
at a two-level extrapolant of the recovered solution, so no nonlinear
iteration is needed.  Histories of ubar and v are kept densely because the
L1 operator couples every previous level.  Their L1 sums are split after
Hairer, Lubich & Schlichte (1985): the far part, over the levels before a
block of _BLOCK levels, is one GEMM per history for the whole block when
its first level is stepped, and is parked in the block's own unsolved
rows; each level adds the near part, the at most _BLOCK - 1 levels of its
block before it, with weights from the leading coefficients of its L1 row
alone.  A level's own work is thus O(_BLOCK) coefficients, three products
with the banded mass and stiffness and one spd_solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .caputo_l1 import l1_row, l1_rows
from .fem_space import (
    DEFAULT_TOL,
    assemble_grad_load,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    l2_projection,
    ritz_projection,
    spd_solve,
)
from .graded_time import extrapolation_weights

# levels whose far L1 history sums share one GEMM
_BLOCK = 16


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
    """Mutable per-run state: meshes, matrices, and dense level histories.

    ubar[n] and v[n] hold the interior coefficients of the shifted
    displacement and the fractional velocity at level n.  Levels above
    n_done are not solutions: the rows of the current block of levels
    hold their far L1 history sums, later rows are zero.  kappa[n] records
    the frozen coefficient used at level n (levels 0 and 1 come from
    initialization and have none).  loads holds the (c_k, b_k) pairs of a
    separable forcing, b_k the assembled load of phi_k, and is empty when f
    is a callable.  stiffness_phu1 is A phu1.
    """

    spec: ProblemSpec
    tmesh: object
    smesh: object
    mass: object
    stiffness: object
    phu1: np.ndarray
    stiffness_phu1: np.ndarray
    lap_load: np.ndarray
    ubar: np.ndarray
    v: np.ndarray
    kappa: np.ndarray
    loads: tuple = ()
    cg_iters: list = field(default_factory=list)
    n_done: int = 0

    def recovered(self, n):
        """Interior coefficients of the recovered displacement at level n."""
        return self.ubar[n] + self.tmesh.t[n] * self.phu1


def initialize(spec, tmesh, smesh):
    """Set up matrices and the two starting levels.

    Level 0 is the Ritz projection of u0 with zero velocity; level 1 uses a
    Taylor start U^1 = U^0 + tau_1 * P_h u1.  In the shifted variable this
    makes ubar^1 equal ubar^0 exactly, and feeding that through the L1
    formula gives v^1 = 0 exactly as well; both are computed, not assumed.
    Loads and projections take the fem_space defaults DEFAULT_QUAD_ORDER
    and DEFAULT_TOL.
    """
    mass = assemble_mass(smesh)
    stiffness = assemble_stiffness(smesh)
    m = smesh.num_interior
    n_levels = tmesh.N + 1

    loads = ()
    if isinstance(spec.f, tuple):
        loads = tuple((c, assemble_load(smesh, phi)) for c, phi in spec.f)

    if spec.u0 is None:
        u0 = np.zeros(m)
    else:
        u0 = ritz_projection(smesh, spec.grad_u0).coeffs

    if spec.u1 is None:
        phu1 = np.zeros(m)
        lap_load = np.zeros(m)
    else:
        phu1 = l2_projection(smesh, spec.u1).coeffs
        lap_load = -assemble_grad_load(smesh, spec.grad_u1)

    ubar = np.zeros((n_levels, m))
    v = np.zeros((n_levels, m))
    kappa = np.full(n_levels, np.nan)
    ubar[0] = u0
    u1_level = u0 + tmesh.tau[0] * phu1
    ubar[1] = u1_level - tmesh.t[1] * phu1
    d11 = l1_row(tmesh, spec.beta, 1).d[0]
    v[1] = d11 * (ubar[1] - ubar[0])

    return SolverState(
        spec=spec,
        tmesh=tmesh,
        smesh=smesh,
        mass=mass,
        stiffness=stiffness,
        phu1=phu1,
        stiffness_phu1=stiffness @ phu1,
        lap_load=lap_load,
        ubar=ubar,
        v=v,
        kappa=kappa,
        loads=loads,
        n_done=1,
    )


def _far_sums(state, lo):
    """Write the far history sums of the block of levels lo..hi-1.

    The L1 weights of every level m in the block on the history levels
    j < lo are built at once, and one GEMM per history puts their sums
    into rows lo..hi-1 of v and ubar, which are unset until solved.
    """
    hi = min(lo + _BLOCK, state.tmesh.N + 1)
    d = l1_rows(state.tmesh, state.spec.beta, lo, hi)
    weights = np.empty((hi - lo, lo))
    weights[:, 0] = -d[:, 0]
    np.subtract(d[:, : lo - 1], d[:, 1:lo], out=weights[:, 1:])
    del d
    np.matmul(weights, state.v[:lo], out=state.v[lo:hi])
    np.matmul(weights, state.ubar[:lo], out=state.ubar[lo:hi])


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
    row = l1_row(state.tmesh, state.spec.beta, n, n - lo + 1).d[::-1]
    near = row[:-1] - row[1:]
    g_hist = state.v[n] + near @ state.v[lo:n]
    h_hist = state.ubar[n] + near @ state.ubar[lo:n]
    return row[-1], g_hist, h_hist


def step(state, n):
    """Advance one level, 2 <= n <= N; levels through n - 1 must be done.

    The SPD system for the new ubar coefficients is

        (d_{n,1} B + (kappa / d_{n,1}) A) x =
            (F^n + t_n kappa E) / d_{n,1} - B (G / d_{n,1} + H),

    where G and H are the L1 history combinations of v and ubar (far part
    per block of levels, near part per level; see _history_sums), E is the
    load of Lap u1, and kappa is the coefficient frozen at the two-level
    extrapolant u_hat = x0 + t_hat phu1 of the recovered displacement, x0
    that of ubar.  The load F^n is sum_k c_k(t_n) b_k for a separable
    forcing, from the loads b_k that initialize assembled, and one
    assemble_load of f(., t_n) otherwise.  The velocity update
    v^n = d_{n,1} x + H never touches an inverse mass matrix.  A non-finite
    load or right-hand side raises ValueError before the solve.

    x = x0 + e, where spd_solve finds the correction e from the defect r0
    of x0 until ||r|| <= DEFAULT_TOL ||rhs||.  A x0 serves ell and r0:
    three band products per level.
    """
    if n != state.n_done + 1:
        raise ValueError(f"levels must advance in order; expected {state.n_done + 1}, got {n}")
    if n < 2 or n > state.tmesh.N:
        raise ValueError(f"step level must satisfy 2 <= n <= N={state.tmesh.N}, got {n}")
    spec = state.spec
    tmesh = state.tmesh
    tn = tmesh.t[n]

    w1, w2 = extrapolation_weights(tmesh, n)
    x0 = w1 * state.ubar[n - 1] + w2 * state.ubar[n - 2]
    a_x0 = state.stiffness @ x0
    t_hat = w1 * tmesh.t[n - 1] + w2 * tmesh.t[n - 2]
    ell = float((x0 + t_hat * state.phu1) @ (a_x0 + t_hat * state.stiffness_phu1))
    kap = float(spec.a(ell))
    slack = 1e-12 * max(1.0, abs(spec.m2))
    if not (spec.m1 - slack <= kap <= spec.m2 + slack):
        raise ValueError(
            f"coefficient a({ell:.6e}) = {kap:.6e} leaves the declared "
            f"range [{spec.m1}, {spec.m2}] at level {n}"
        )

    d1, g_hist, h_hist = _history_sums(state, n)

    if state.loads:
        fn = sum(c(tn) * b for c, b in state.loads)
    else:
        fn = assemble_load(state.smesh, lambda *x: spec.f(*x, tn))
    rhs = (fn + tn * kap * state.lap_load) / d1
    rhs -= state.mass @ (g_hist / d1 + h_hist)
    if not np.isfinite(rhs).all():
        raise ValueError(f"non-finite load or right-hand side at level {n}")

    c = kap / d1
    target = DEFAULT_TOL * np.linalg.norm(rhs)
    e, iters = spd_solve(state.smesh, d1, c, rhs - d1 * (state.mass @ x0) - c * a_x0, target)
    x = x0 + e

    state.ubar[n] = x
    state.v[n] = d1 * x + h_hist
    state.kappa[n] = kap
    state.cg_iters.append(iters)
    state.n_done = n
    return state


def solve_all(spec, tmesh, smesh):
    """Initialize and advance every level; returns the final state."""
    state = initialize(spec, tmesh, smesh)
    for n in range(2, tmesh.N + 1):
        step(state, n)
    return state


def apriori_bound_report(state):
    """Stability quantity ||v^n||_L2 + ||grad ubar^n||_L2 per level.

    The continuous-level energy argument bounds exactly this combination,
    so a healthy run shows values that stay bounded as the mesh refines.
    Returns an array over levels 0..n_done.
    """
    out = np.zeros(state.n_done + 1)
    for n in range(state.n_done + 1):
        vn = state.v[n]
        un = state.ubar[n]
        v_l2 = math.sqrt(max(float(vn @ (state.mass @ vn)), 0.0))
        u_h1 = math.sqrt(max(float(un @ (state.stiffness @ un)), 0.0))
        out[n] = v_l2 + u_h1
    return out
