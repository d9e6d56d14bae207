"""Manufactured solutions, mesh couplings and single-case runs.

Both built-in cases share the temporal factor g(t) = t**3 + t**alpha, whose
Caputo derivative of order alpha is known in closed form, and the nonlocal
coefficient a(w) = 3 + sin(w).  Initial displacement and velocity vanish,
so the recovered and shifted trajectories coincide and the forcing is the
only data.  Errors are measured in the H1 seminorm at every level and
reduced with max, matching the L-infinity-in-time estimate the scheme
satisfies.  Refinement couples the meshes so one error component cannot
mask the other: temporal studies set Ms ~ N**(2-beta) (coupled_ms),
spatial studies set N ~ Ms**(2/(2-beta)) (coupled_n).  The study driver
itself, which plans the refinements, runs them through run_single_case
and attaches the observed orders, is fracwave.cli.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

# h1_seminorm_error is not called here; bench/tracer.py wraps it by this name
from .fem_space import DEFAULT_QUAD_ORDER, build_spatial_mesh, h1_seminorm_error  # noqa: F401
from .fem_space import h1_seminorm_errors, l2_error
from .graded_time import build_graded_mesh, recommended_grading
from .kirchhoff_solver import ProblemSpec, apriori_bound_report, solve_all

# element-point entries (levels x n_elements x nq) per block of levels that
# _h1_errors evaluates at once; larger blocks raise peak memory
_H1_BLOCK_ENTRIES = 2**14


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution bundle for one convergence experiment.

    u, lap_u and caputo_u are callables of (x[, y], t); caputo_time is the
    Caputo-alpha derivative of the temporal factor alone and ell(t) is the
    exact value of ||grad u||^2 at time t.  The forcing is given as
    (c_k, phi_k) pairs, f = sum over k of c_k(t) phi_k(x[, y]), and the
    gradient as grad_parts = (g, grad_shape), grad u = g(t) grad_shape(x[, y])
    with grad_shape returning an array (stacked per axis in 2D).  The
    methods f and grad_u evaluate them pointwise at (x[, y], t).
    """

    name: str
    alpha: float
    T: float
    domain: tuple
    a: object
    m1: float
    m2: float
    u: object
    lap_u: object
    caputo_u: object
    caputo_time: object
    ell: object
    forcing: tuple
    grad_parts: tuple

    def f(self, *args):
        *x, t = args
        return sum(c(t) * phi(*x) for c, phi in self.forcing)

    def grad_u(self, *args):
        *x, t = args
        g, grad_shape = self.grad_parts
        return g(t) * grad_shape(*x)

    def problem_spec(self):
        return ProblemSpec(
            alpha=self.alpha,
            T=self.T,
            domain=self.domain,
            a=self.a,
            m1=self.m1,
            m2=self.m2,
            f=self.forcing,
        )


def _temporal_factor(alpha):
    c3 = 6.0 / math.gamma(4.0 - alpha)

    def g(t):
        return t**3 + t**alpha

    def caputo_time(t):
        return c3 * t ** (3.0 - alpha) + math.gamma(alpha + 1.0)

    return g, caputo_time


def example1_case(alpha):
    """1D case: u = (t**3 + t**alpha) sin(x) on (0, pi), a(w) = 3 + sin(w)."""
    if not 1 < alpha < 2:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    g, caputo_time = _temporal_factor(alpha)

    def a(w):
        return 3.0 + math.sin(w)

    def ell(t):
        return 0.5 * math.pi * g(t) ** 2

    def u(x, t):
        return g(t) * np.sin(x)

    def lap_u(x, t):
        return -g(t) * np.sin(x)

    def caputo_u(x, t):
        return caputo_time(t) * np.sin(x)

    def forcing_time(t):
        return caputo_time(t) + a(ell(t)) * g(t)

    return ManufacturedCase(
        name="ex1",
        alpha=float(alpha),
        T=1.0,
        domain=("interval", 0.0, math.pi),
        a=a,
        m1=2.0,
        m2=4.0,
        u=u,
        lap_u=lap_u,
        caputo_u=caputo_u,
        caputo_time=caputo_time,
        ell=ell,
        forcing=((forcing_time, np.sin),),
        grad_parts=(g, np.cos),
    )


def example2_case(alpha):
    """2D case: u = (t**3 + t**alpha)(x - x^2)(y - y^2) on the unit square."""
    if not 1 < alpha < 2:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    g, caputo_time = _temporal_factor(alpha)

    def a(w):
        return 3.0 + math.sin(w)

    def ell(t):
        # int |grad (x-x^2)(y-y^2)|^2 over the unit square is 1/45
        return g(t) ** 2 / 45.0

    def shape(x, y):
        return (x - x**2) * (y - y**2)

    def grad_shape(x, y):
        return np.array([(1.0 - 2.0 * x) * (y - y**2), (x - x**2) * (1.0 - 2.0 * y)])

    def minus_lap_shape(x, y):
        return 2.0 * ((x - x**2) + (y - y**2))

    def u(x, y, t):
        return g(t) * shape(x, y)

    def lap_u(x, y, t):
        return -g(t) * minus_lap_shape(x, y)

    def caputo_u(x, y, t):
        return caputo_time(t) * shape(x, y)

    def diffusion_time(t):
        return a(ell(t)) * g(t)

    return ManufacturedCase(
        name="ex2",
        alpha=float(alpha),
        T=1.0,
        domain=("unit_square",),
        a=a,
        m1=2.0,
        m2=4.0,
        u=u,
        lap_u=lap_u,
        caputo_u=caputo_u,
        caputo_time=caputo_time,
        ell=ell,
        forcing=((caputo_time, shape), (diffusion_time, minus_lap_shape)),
        grad_parts=(g, grad_shape),
    )


def get_case(name, alpha):
    """Look up a built-in case by its short name."""
    if name == "ex1":
        return example1_case(alpha)
    if name == "ex2":
        return example2_case(alpha)
    raise ValueError(f"unknown example {name!r}; available: ex1, ex2")


@dataclass
class ReportRow:
    """One refinement of one study; oc is filled by the study driver and
    stays None on the finest level."""

    alpha: float
    N: int
    Ms: int
    r: float
    error: float
    oc: float = None
    seconds: float = 0.0
    cg_iters: int = 0
    capped: bool = False


def round_even(x):
    """Nearest even integer, at least 2."""
    return max(2, 2 * int(round(0.5 * x)))


def coupled_ms(N, beta):
    """Spatial resolution matching a temporal refinement, Ms ~ N**(2-beta)."""
    return round_even(float(N) ** (2.0 - beta))


def coupled_n(Ms, beta):
    """Temporal resolution matching a spatial refinement, N ~ Ms**(2/(2-beta))."""
    return round_even(float(Ms) ** (2.0 / (2.0 - beta)))


def run_single_case(case, N, Ms, r=None):
    """Solve one (N, Ms) pairing and measure the max-in-time H1 error.

    r defaults to the recommended grading.  The solve and the error
    integral both use the rule DEFAULT_QUAD_ORDER.  Returns a ReportRow
    without an order entry.
    """
    beta = 0.5 * case.alpha
    if r is None:
        r = recommended_grading(beta)
    start = time.perf_counter()
    tmesh = build_graded_mesh(case.T, N, r)
    smesh = build_spatial_mesh(case.domain, Ms)
    state = solve_all(case.problem_spec(), tmesh, smesh)
    worst = max(_h1_errors(case, state)[1:], default=0.0)
    elapsed = time.perf_counter() - start
    return ReportRow(
        alpha=case.alpha,
        N=int(N),
        Ms=int(Ms),
        r=float(r),
        error=worst,
        seconds=elapsed,
        cg_iters=max(state.cg_iters, default=0),
    )


def observed_order(pairs):
    """Orders log2(E_k / E_{k+1}) for a dyadic refinement sequence.

    pairs is a list of (key, error) with each key doubling the previous
    one; non-dyadic sequences are rejected.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two refinements to measure an order")
    keys = [int(k) for k, _ in pairs]
    errors = [float(e) for _, e in pairs]
    for a, b in zip(keys, keys[1:]):
        if b != 2 * a:
            raise ValueError(f"refinement keys must double, got {a} then {b}")
    for e in errors:
        if not e > 0:
            raise ValueError(f"errors must be positive, got {e}")
    return [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]


def _h1_errors(case, state):
    """H1-seminorm errors of the recovered solution at levels 0..n_done.

    The exact gradient g(t_n) grad_shape is taken at the quadrature points
    of DEFAULT_QUAD_ORDER, where h1_seminorm_errors evaluates it:
    grad_shape once per run, scaled by g(t_n) on each level.  Levels go
    through h1_seminorm_errors in blocks of at most _H1_BLOCK_ENTRIES
    element-point entries (at least one level), and each error equals that
    of h1_seminorm_error on its level alone, bit for bit.
    """
    g, grad_shape = case.grad_parts
    smesh = state.smesh
    _, xq, wq = smesh.quadrature(DEFAULT_QUAD_ORDER)
    shape = np.reshape(grad_shape(*xq), xq.shape)
    t = state.tmesh.t[: state.n_done + 1]
    # g on scalars, as the levels were evaluated one at a time: numpy's
    # array powers need not round as its scalar powers do
    scales = np.array([g(tn) for tn in t])
    size = max(1, _H1_BLOCK_ENTRIES // wq.size)
    errors = []
    for lo in range(0, t.size, size):
        hi = min(lo + size, t.size)
        # rows of state.recovered(n) for n = lo..hi-1
        coeffs = state.ubar[lo:hi] + t[lo:hi, None] * state.phu1
        exact = [scales[lo:hi, None, None] * shape_k for shape_k in shape]
        errors.extend(h1_seminorm_errors(smesh, coeffs, exact).tolist())
    return errors


def trajectory_rows(case, state):
    """Per-level diagnostics for a finished run.

    Returns (n, t_n, h1_error, l2_error, bound_quantity) for n = 0..N,
    both errors integrated with the rule DEFAULT_QUAD_ORDER.
    """
    bound = apriori_bound_report(state)
    out = []
    for n, h1 in enumerate(_h1_errors(case, state)):
        tn = state.tmesh.t[n]
        l2 = l2_error(state.recovered_fn(n), lambda *x: case.u(*x, tn))
        out.append((n, tn, h1, l2, bound[n]))
    return out
