"""Manufactured solutions, mesh couplings and single-case runs.

Every built-in case is separable, u = (t**3 + t**alpha) s(x[, y]), with
the nonlocal coefficient a(w) = 3 + sin(w); the Caputo derivative of the
temporal factor is known in closed form.  One constructor, _separable_case,
builds a case from its domain, its shape s and the shape's gradient and
negative Laplacian, and CASES names the cases, so a new case is one entry
there.  Initial displacement and velocity vanish, so the recovered and
shifted trajectories coincide and the forcing is the only data.  Errors
are measured in the H1 seminorm at every level and reduced with max,
matching the L-infinity-in-time estimate the scheme satisfies.
Refinement couples the meshes so one error component cannot mask the
other: temporal studies set Ms ~ N**(2-beta) (coupled_ms), spatial
studies set N ~ Ms**(2/(2-beta)) (coupled_n).  run_single_case is the one
solve path: it observes each block of levels as solve_all solves it, with
_h1_errors, trajectory_rows or apriori_bound_report, each a function of a
level range, and returns the error row, the finished state and the
per-level report.  A run on the sum of exponentials keeps only its last
levels, so no report reads the finished state.  The study pipeline that
plans the refinements, runs every solve through it and attaches the
observed orders is fracwave.cli.
"""

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fem_space import FeFunction, build_spatial_mesh, h1_seminorm_error, l2_error
from .fem_space import ritz_projection, ritz_residual
from .graded_time import build_graded_mesh, recommended_grading
from .kirchhoff_solver import ProblemSpec, apriori_bound_report, solve_all

# coefficients (levels x unknowns) per block of levels that _h1_errors
# evaluates at once; larger blocks raise peak memory
_LEVEL_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution bundle for one convergence experiment.

    u, lap_u and caputo_u are callables of (x[, y], t); caputo_time is the
    Caputo-alpha derivative of the temporal factor alone and ell(t) is the
    exact value of ||grad u||^2 at time t.  The forcing is given as
    (c_k, phi_k) pairs, f = sum over k of c_k(t) phi_k(x[, y]), and the
    gradient as grad_parts = (g, grad_shape), grad u = g(t) grad_shape(x[, y])
    with grad_shape returning an array (stacked per axis in 2D).  The
    methods f and grad_u evaluate them pointwise at (x[, y], t).  Every
    case runs to T = 1, and its coefficient a takes values in [m1, m2].
    """

    T = 1.0
    m1 = 2.0
    m2 = 4.0

    name: str
    alpha: float
    domain: tuple
    a: object
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
        return ProblemSpec(alpha=self.alpha, T=self.T, domain=self.domain, a=self.a,
                           m1=self.m1, m2=self.m2, f=self.forcing)


def _separable_case(name, alpha, domain, shape, grad_shape, minus_lap_shape, ell_of):
    """The case u = g(t) shape(x[, y]), g(t) = t**3 + t**alpha, a(w) = 3 + sin(w).

    grad_shape and minus_lap_shape are the gradient and the negative
    Laplacian of shape, and ell_of(g(t)) = g(t)**2 |grad shape|^2_L2 is
    ||grad u||^2.  Where minus_lap_shape is shape itself the forcing is one
    (c, shape) pair, so a level assembles one load; else one pair per term.
    """
    if not 1 < alpha < 2:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    c3 = 6.0 / math.gamma(4.0 - alpha)

    def g(t):
        return t**3 + t**alpha

    def caputo_time(t):
        return c3 * t ** (3.0 - alpha) + math.gamma(alpha + 1.0)

    def a(w):
        return 3.0 + math.sin(w)

    def ell(t):
        return ell_of(g(t))

    def u(*args):
        *x, t = args
        return g(t) * shape(*x)

    def lap_u(*args):
        *x, t = args
        return -g(t) * minus_lap_shape(*x)

    def caputo_u(*args):
        *x, t = args
        return caputo_time(t) * shape(*x)

    def diffusion_time(t):
        return a(ell(t)) * g(t)

    forcing = ((caputo_time, shape), (diffusion_time, minus_lap_shape))
    if minus_lap_shape is shape:
        forcing = ((lambda t: caputo_time(t) + diffusion_time(t), shape),)
    return ManufacturedCase(
        name=name,
        alpha=float(alpha),
        domain=domain,
        a=a,
        u=u,
        lap_u=lap_u,
        caputo_u=caputo_u,
        caputo_time=caputo_time,
        ell=ell,
        forcing=forcing,
        grad_parts=(g, grad_shape),
    )


def example1_case(alpha):
    """1D case: u = (t**3 + t**alpha) sin(x) on (0, pi), a(w) = 3 + sin(w)."""
    return _separable_case("ex1", alpha, ("interval", 0.0, math.pi), np.sin, np.cos, np.sin,
                           lambda g: 0.5 * math.pi * g**2)


def example2_case(alpha):
    """2D case: u = (t**3 + t**alpha)(x - x^2)(y - y^2) on the unit square."""
    def shape(x, y):
        return (x - x**2) * (y - y**2)

    def grad_shape(x, y):
        return np.array([(1.0 - 2.0 * x) * (y - y**2), (x - x**2) * (1.0 - 2.0 * y)])

    def minus_lap_shape(x, y):
        return 2.0 * ((x - x**2) + (y - y**2))

    # int |grad (x-x^2)(y-y^2)|^2 over the unit square is 1/45
    return _separable_case("ex2", alpha, ("unit_square",), shape, grad_shape, minus_lap_shape,
                           lambda g: g**2 / 45.0)


# the built-in cases by short name; a new case is one entry here
CASES = {"ex1": example1_case, "ex2": example2_case}


def get_case(name, alpha):
    """Look up a built-in case by its short name."""
    if name not in CASES:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(CASES)}")
    return CASES[name](alpha)


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


def run_single_case(case, N, Ms, r=None, report="error"):
    """Solve one (N, Ms) pairing and report on each block of levels as it
    is solved (solve_all's observe), so a streamed run keeps no level for
    a report after the solve.

    r defaults to the recommended grading.  report names what each level
    gives: "error" its H1 error (_h1_errors), "trajectory" its
    trajectory_rows entry, which holds the same error, and "bound" its
    apriori_bound_report value alone, for which no H1 error is evaluated.
    The solve and the error integral both use the rule DEFAULT_QUAD_ORDER.
    Returns (row, state, levels): levels lists the report of levels 0..N
    in order; row is a ReportRow without an order entry whose error is the
    max-in-time H1 error over levels 1..N, or the max bound quantity over
    0..N for "bound", and whose seconds cover the solve and the report;
    state is the finished SolverState.
    """
    if report not in ("error", "trajectory", "bound"):
        raise ValueError(f"report must be error, trajectory or bound, got {report!r}")
    beta = 0.5 * case.alpha
    if r is None:
        r = recommended_grading(beta)
    start = time.perf_counter()
    tmesh = build_graded_mesh(case.T, N, r)
    smesh = build_spatial_mesh(case.domain, Ms)
    if report == "bound":
        def observe(state, lo, hi):
            return apriori_bound_report(state, lo, hi).tolist()
    else:
        observe = partial(trajectory_rows if report == "trajectory" else _h1_errors, case,
                          split=_ritz_split(case, smesh))
    levels = []
    state = solve_all(case.problem_spec(), tmesh, smesh,
                      lambda *block: levels.extend(observe(*block)))
    if report == "bound":
        error = max(levels)
    else:
        errors = [level[2] for level in levels] if report == "trajectory" else levels
        error = max(errors[1:], default=0.0)
    elapsed = time.perf_counter() - start
    row = ReportRow(case.alpha, int(N), int(Ms), float(r), error, seconds=elapsed,
                    cg_iters=max(state.cg_iters, default=0))
    return row, state, levels


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


def _ritz_split(case, smesh):
    """(C_0, T k, T R) of _h1_errors for the case's shape on smesh, once per run."""
    g, grad_shape = case.grad_parts
    to_sine = smesh.sine_basis.to_sine
    ritz = ritz_projection(smesh, grad_shape)
    c0 = h1_seminorm_error(ritz, grad_shape) ** 2
    return c0, to_sine(ritz_residual(ritz, grad_shape)), to_sine(ritz.coeffs)


def _h1_errors(case, state, lo, hi, split=None):
    """H1-seminorm errors of the recovered solution at the solved, kept
    levels lo..hi-1.

    With grad u = g(t) grad s (grad_parts), R the Ritz projection of s and
    phi_n = g(t_n) R - U^n, the error under the rule DEFAULT_QUAD_ORDER
    splits (Wheeler 1973) as g(t_n)^2 C_0 + 2 g(t_n) k . phi_n + phi_n . A
    phi_n, with C_0 = |grad (s - R)|^2 and k = ritz_residual(R, s).  It is
    exact for any R: grad R and grad phi_n are constant on each element,
    whose weights sum to its measure.  split is _ritz_split(case,
    state.smesh), computed here if not given.  phi_n is taken on the
    state's sine coefficients, with T R and T k, so its energy is a sum
    over the stiffness symbols; blocks of _LEVEL_BLOCK_ENTRIES coefficients
    bound the temporaries.
    """
    g = case.grad_parts[0]
    c0, k, ritz = _ritz_split(case, state.smesh) if split is None else split
    symbols = state.smesh.sine_basis.stiffness_symbol
    ubar, _ = state.rows(lo, hi)
    t = state.tmesh.t[lo:hi]
    size = max(1, _LEVEL_BLOCK_ENTRIES // state.smesh.num_interior)
    errors = []
    for i in range(0, t.size, size):
        block = slice(i, min(i + size, t.size))
        gn = g(t[block])
        # phi_n for the rows of state.recovered(n), n in the block
        phi = gn[:, None] * ritz - ubar[block] - t[block, None] * state.phu1
        energy = np.einsum("ij,ij->i", phi, symbols * phi)
        squares = gn**2 * c0 + 2.0 * gn * (phi @ k) + energy
        errors.extend(np.sqrt(np.maximum(squares, 0.0)).tolist())
    return errors


def trajectory_rows(case, state, lo, hi, split=None):
    """Per-level diagnostics at the solved, kept levels lo..hi-1.

    Returns (n, t_n, h1_error, l2_error, bound_quantity) for each level,
    both errors integrated with the rule DEFAULT_QUAD_ORDER, the H1 error
    from _h1_errors with its split, and the levels recovered by one
    transform.
    """
    t = state.tmesh.t
    h1 = _h1_errors(case, state, lo, hi, split)
    bound = apriori_bound_report(state, lo, hi)
    nodal = state.recovered(lo, hi)
    out = []
    for i, n in enumerate(range(lo, hi)):
        l2 = l2_error(FeFunction(nodal[i], state.smesh), lambda *x: case.u(*x, t[n]))
        out.append((n, t[n], h1[i], l2, bound[i]))
    return out
