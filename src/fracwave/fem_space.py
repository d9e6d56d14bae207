"""Piecewise-linear finite elements on intervals and the unit square.

Every element is a simplex: a 2-vertex interval in 1D, a 3-vertex triangle
in 2D.  Loads, projections and error norms run one code path for both
dimensions.  A mesh keeps only its grid; every element loop runs over
blocks of at most _ELEMENT_BLOCK elements, forms the element measures,
scaled P1 basis gradients and quadrature points of the block it reads
(element_geometry), and adds in element order, so its temporaries scale
with the block (the H1 error evaluation on 66,248 triangles: 3.01 MB
traced, 10.07 MB unblocked) and its results do not depend on it.

Meshes carry homogeneous Dirichlet conditions by elimination: load vectors
and coefficients live on the interior unknowns only.  The 2D mesh is the
structured triangulation of the unit square obtained by cutting each cell
of an Ms x Ms grid along the same diagonal, giving 2*Ms**2 right
triangles.  No matrix is assembled.  A mesh is built from its domain and
Ms alone, so it is always the uniform grid its SineBasis diagonalizes.
The basis's T maps the mass and stiffness to their symbols (plus one
Kronecker term of the 2D mass), and every linear system a M + b A is
solved by spd_solve on sine coefficients T x.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


def _read_only(*arrays):
    """Mark arrays read-only."""
    for arr in arrays:
        arr.flags.writeable = False


def dst1(x):
    """Orthonormal DST-I along the last axis, its own inverse.

    Entry k of the result, k = 1..n, is sqrt(2 / (n + 1)) times the sum over
    j = 1..n of x_j sin(pi j k / (n + 1)).  Computed as the imaginary part of
    the real FFT of the odd extension (0, x, 0, -reversed x).
    """
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * n + 2,))
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    return np.fft.rfft(ext, axis=-1).imag[..., 1 : n + 1] * -math.sqrt(0.5 / (n + 1))


# {dimension: {points per element: (barycentric points (nq, d+1), weights)}},
# the rules the library evaluates: the midpoint or centroid rule, exact to
# degree 1, under which the 2D reference errors were measured, and the
# 3-point rules, Gauss-Legendre in 1D (the bits of numpy's leggauss(3),
# exact to degree 5) and Strang-Fix in 2D (exact to degree 2).  The
# weights sum to 1 and are scaled by the element measure.
QUADRATURE_RULES = {
    1: {
        1: (np.array([[0.5, 0.5]]), np.array([1.0])),
        3: (
            np.array(
                [
                    [0.8872983346207417, 0.1127016653792583],
                    [0.5, 0.5],
                    [0.1127016653792583, 0.8872983346207417],
                ]
            ),
            np.array([0.27777777777777785, 0.4444444444444444, 0.27777777777777785]),
        ),
    },
    2: {
        1: (np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([1.0])),
        3: (
            np.array(
                [
                    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
                    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
                ]
            ),
            np.array([1.0, 1.0, 1.0]) / 3.0,
        ),
    },
}
_read_only(*(arr for rules in QUADRATURE_RULES.values() for rule in rules.values() for arr in rule))
# the rule and the CG stopping tolerance (relative residual) the solver
# always uses; only an error evaluation may pick another rule
DEFAULT_QUAD_ORDER = 3
DEFAULT_TOL = 1e-12
# elements per block of every element loop (Cuvelier, Japhet, Scarella 2016)
_ELEMENT_BLOCK = 4096


def _element_blocks(mesh):
    """Slices of at most _ELEMENT_BLOCK consecutive elements, in order."""
    n, size = mesh.elements.shape[0], _ELEMENT_BLOCK
    return [slice(lo, lo + size) for lo in range(0, n, size)]


class SpatialMesh:
    """The uniform P1 simplex mesh of a domain, with Dirichlet boundary flags.

    SpatialMesh(domain, subdivisions) takes its vertices, elements and
    boundary from _grid(domain, Ms); it raises ValueError on an empty
    interval, on Ms < 2 and on an unknown descriptor.  Every element is
    positively oriented, so its Jacobian determinant is its measure times
    dimension!.  The mesh keeps its grid and, from first use, its sine
    basis, all read-only; element_geometry forms the measures, gradients
    and quadrature points of a block of elements where a kernel reads them.

    Attributes: dimension, 1 or 2; vertices, the node coordinates, shape
    (n_nodes,) in 1D or (n_nodes, 2) in 2D; elements, the connectivity,
    shape (n_elements, dimension + 1), ints; boundary, True on Dirichlet
    nodes; interior_nodes, the global indices of the unknowns, ascending;
    num_interior, their number; domain, the descriptor ("interval", a, b)
    with float ends or ("unit_square",); subdivisions, Ms.
    """

    def __init__(self, domain, subdivisions):
        if domain[0] == "interval":
            if not domain[2] > domain[1]:
                raise ValueError(f"interval ({domain[1]}, {domain[2]}) is empty")
            domain = ("interval", float(domain[1]), float(domain[2]))
        elif domain[0] != "unit_square":
            raise ValueError(f"unknown domain descriptor {domain!r}")
        ms = int(subdivisions)
        if ms < 2:
            raise ValueError(f"need at least 2 elements per direction, got {subdivisions}")
        self.dimension = 1 if domain[0] == "interval" else 2
        self.vertices, self.elements, self.boundary = _grid(domain, ms)
        self.interior_nodes = np.flatnonzero(~self.boundary)
        self.num_interior = int(self.interior_nodes.size)
        self.domain = domain
        self.subdivisions = ms
        _read_only(self.vertices, self.elements, self.boundary, self.interior_nodes)

    @functools.cached_property
    def sine_basis(self):
        """The mesh's SineBasis, built on first use."""
        return SineBasis(self)


def _rule(dimension, npoints):
    """The (barycentric points, weights) of QUADRATURE_RULES with npoints
    points per element; ValueError names the available rules."""
    rules = QUADRATURE_RULES[dimension]
    if npoints not in rules:
        raise ValueError(f"no {npoints}-point rule on {dimension}D elements; "
                         f"available: {sorted(rules)}")
    return rules[npoints]


def element_geometry(mesh, blk, npoints, gradients=True):
    """(measure, scaled_gradients, rule) of the n elements blk (a slice;
    slice(None) for all), formed from the grid's per-axis gathers on each
    call, elementwise, so a block's values equal those rows of the whole
    mesh's bit for bit.  measure holds the lengths or areas, shape (n,).
    scaled_gradients, None unless gradients, of shape (n, dimension + 1,
    dimension), are the P1 basis gradients times dimension! * measure:
    (-1, 1) in 1D, the opposite edges turned by 90 degrees in 2D.  Dividing
    by the measure once per use, as the closed-form element matrices do,
    keeps the 1D loads exact to the last bit.  rule, for npoints per
    element, is (lam, xq, wq): the points lam (nq, dimension + 1) of
    QUADRATURE_RULES, the physical points xq (dimension, n, nq), one
    coordinate array per axis for g(*xq), and the weights wq (n, nq).
    """
    d = mesh.dimension
    lam, w = _rule(d, npoints)
    # one contiguous row of indices per vertex, so each gather is contiguous
    corners = np.ascontiguousarray(mesh.elements[blk].T)
    # per axis, vertex 0 of every element and the edges leaving it: column
    # k of the Jacobian J, whose rows are the edges leaving vertex 0
    points = (coord[corners] for coord in mesh.vertices.reshape(mesh.vertices.shape[0], -1).T)
    axes = [(p[0], p[1:] - p[0]) for p in points]
    # column k of adj(J) / det(J), det(J) > 0, is the gradient of barycentric
    # coordinate k + 1; the written-out cofactors are exact, np.linalg.det not
    if d == 1:
        ((_, (det,)),) = axes
    else:
        (_, (j00, j10)), (_, (j01, j11)) = axes
        det = j00 * j11 - j01 * j10
    measure = det / math.factorial(d)
    scaled_gradients = None
    if gradients:
        # g[s, k], component k at vertex s: rows 1..d are adj(J)^T, row 0
        # minus their sum; each component is one contiguous array
        g = np.empty((d + 1, d, det.size))
        if d == 1:
            g[1, 0], g[0, 0] = 1.0, -1.0
        else:
            g[1, 0], g[2, 1] = j11, j00
            np.negative(j10, out=g[1, 1])
            np.negative(j01, out=g[2, 0])
            np.negative(g[1] + g[2], out=g[0])
        scaled_gradients = g.transpose(2, 0, 1)
    # x = p_0 + sum over s >= 1 of lam_s (p_s - p_0); xq[k] is contiguous,
    # which callables evaluate fastest, and wq is filled a column per point,
    # 5 times faster than broadcasting over the short point axis
    xq = np.empty((d, det.size, lam.shape[0]))
    for k, (p0, edges) in enumerate(axes):
        for q, lam_q in enumerate(lam[:, 1:]):
            np.add(_dot(edges, lam_q), p0, out=xq[k, :, q])
    wq = np.empty(xq.shape[1:])
    for q, w_q in enumerate(w):
        np.multiply(measure, w_q, out=wq[:, q])
    return measure, scaled_gradients, (lam, xq, wq)


class SineBasis:
    """The orthonormal DST-I basis T of a uniform mesh's interior unknowns,
    in which the solver keeps its state: its symbols, and the fold in 2D,
    are the mass and stiffness of every level's operator.

    On the interval, with c_k = cos(k pi / Ms), s_k = 2 - 2 c_k, taken as
    4 sin^2(k pi / (2 Ms)) to keep the digits of the low modes, and
    h = (b - a) / Ms, T diagonalizes the mass h/6 (1, 4, 1), symbols
    h/6 (4 + 2 c_k), and the stiffness (1/h) (-1, 2, -1), symbols s_k / h
    (Buzbee, Golub and Nielson 1970).  T is dst1 there, and the basis keeps
    no Ms^2 matrix.

    On the unit square T maps the row-major (Ms-1) x (Ms-1) grid X to
    S X S^T, the modes in odd-then-even order.  The stiffness has symbols
    s_i + s_j, Mhat has h^2/12 (6 + 2 c_i + 2 c_j + 2 c_i c_j),
    and T M T^T adds (h^2/24) Shat (x) Shat, Shat = S D S^T.  Shat couples
    only modes of opposite parity, so it is [[0, B], [-B^T, 0]] and
    Shat E Shat^T takes four pairs of half-size products (0.31 ms at
    Ms = 182 against 0.37 ms for the dense one; 2 vCPUs).

    Attributes (read-only): sine, S with its rows in mode order in 2D, None
    in 1D; mass_symbol and stiffness_symbol, the diagonals of
    T M T^T and T A T^T, flattened in 2D; block, B in 2D, None in 1D.
    """

    def __init__(self, mesh):
        ms, domain = mesh.subdivisions, mesh.domain
        j = np.arange(1, ms)
        k = j if domain[0] == "interval" else np.concatenate([j[::2], j[1::2]])
        c = np.cos(k * math.pi / ms)
        s = 4.0 * np.sin(k * (0.5 * math.pi / ms)) ** 2
        if domain[0] == "interval":
            h = (domain[2] - domain[1]) / ms
            self.sine = self.block = None
            self.mass_symbol = h / 6.0 * (4.0 + 2.0 * c)
            self.stiffness_symbol = s / h
        else:
            # reducing j * k mod 2 Ms first keeps each entry within about
            # one ulp: S @ S - I is 2e-15 at Ms = 182, 8e-15 unreduced
            self.sine = math.sqrt(2.0 / ms) * np.sin(np.pi * (np.outer(k, j) % (2 * ms)) / ms)
            ci, cj = c[:, None], c[None, :]
            self.mass_symbol = ((6.0 + 2.0 * ci + 2.0 * cj + 2.0 * ci * cj) / (12 * ms**2)).ravel()
            self.stiffness_symbol = (s[:, None] + s[None, :]).ravel()
            self._fold_scale = 1.0 / (24.0 * ms**2)
            self._work = tuple(np.empty(self.mass_symbol.size) for _ in range(3))
            # B = S_odd D S_even^T; row i of D Y is row i + 1 minus row i - 1 of Y
            padded = np.pad(self.sine[ms // 2 :].T, ((1, 1), (0, 0)))
            self.block = self.sine[: ms // 2] @ (padded[2:] - padded[:-2])
        _read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)))

    def to_sine(self, x):
        """The sine coefficients T x of the nodal coefficients x."""
        if self.block is None:
            return dst1(x)
        return (self.sine @ x.reshape(self.sine.shape) @ self.sine.T).ravel()

    def from_sine(self, e):
        """The nodal coefficients T^T e of e or of each row of e; the 1D T is
        symmetric."""
        if self.block is None:
            return dst1(e)
        grids = e.reshape(e.shape[:-1] + self.sine.shape)
        return (self.sine.T @ grids @ self.sine).reshape(e.shape)

    def _fold(self, e, out=None):
        """Shat E Shat^T for the grid E of sine coefficients, by blocks,
        into the flat array out if given."""
        b, o = self.block, self.block.shape[0]
        e = e.reshape(self.sine.shape)
        out = np.empty(e.shape) if out is None else out.reshape(e.shape)
        np.matmul(b @ e[o:, o:], b.T, out=out[:o, :o])
        np.negative(b @ e[o:, :o] @ b, out=out[:o, o:])
        np.negative(b.T @ e[:o, o:] @ b.T, out=out[o:, :o])
        np.matmul(b.T @ e[:o, :o], b, out=out[o:, o:])
        return out.ravel()

    def mass(self, e):
        """T M T^T e: the symbols, plus the Kronecker term in 2D."""
        out = self.mass_symbol * e
        return out if self.block is None else out + self._fold_scale * self._fold(e)

    def system(self, a, b):
        """T (a M + b A) T^T as a function for spd_solve, and the inverse of
        its diagonal as the preconditioner: the exact inverse in 1D.  In 2D
        both write into the basis's work arrays, overwritten on the next call
        of any system's functions, so a level allocates none of them."""
        symbols = a * self.mass_symbol + b * self.stiffness_symbol
        inverse = 1.0 / symbols
        if self.block is None:
            return lambda e: symbols * e, lambda r: inverse * r
        scale = a * self._fold_scale
        out, term, z = self._work
        return (lambda e: np.add(np.multiply(self._fold(e, out), scale, out=out),
                                 np.multiply(symbols, e, out=term), out=out),
                lambda r: np.multiply(inverse, r, out=z))


def _grid(domain, ms):
    """The uniform grid on the domain with Ms elements per direction, as
    (vertices, elements, boundary).

    On ("interval", a, b): nodes np.linspace(a, b, Ms + 1), element j is
    (j, j + 1).  On ("unit_square",): the np.linspace(0, 1, Ms + 1) grid,
    x running fastest, so node j (Ms + 1) + i lies at (x_i, y_j); cell
    (i, j), numbered j Ms + i, with corners ll, lr, ur, ul counterclockwise
    from node j (Ms + 1) + i, is cut along its lower-left to upper-right
    diagonal into triangles 2 (j Ms + i) = (ll, lr, ur) and 2 (j Ms + i) + 1
    = (ll, ur, ul).  The boundary flags the nodes on the domain's edge.
    """
    d = 1 if domain[0] == "interval" else 2
    boundary = np.ones((ms + 1,) * d, dtype=bool)
    boundary[(slice(1, -1),) * d] = False
    if d == 1:
        vertices = np.linspace(domain[1], domain[2], ms + 1)
        return vertices, np.column_stack([np.arange(ms), np.arange(1, ms + 1)]), boundary
    side = np.linspace(0.0, 1.0, ms + 1)
    vertices = np.empty((ms + 1, ms + 1, 2))
    vertices[..., 0], vertices[..., 1] = side, side[:, None]
    v00 = np.arange(ms * (ms + 1), dtype=np.int64).reshape(ms, ms + 1)[:, :ms]
    cells = np.empty((ms, ms, 6), dtype=np.int64)
    cells[..., 0] = cells[..., 3] = v00
    cells[..., 1] = v00 + 1
    cells[..., 2] = cells[..., 4] = v00 + (ms + 2)
    cells[..., 5] = v00 + (ms + 1)
    return vertices.reshape(-1, 2), cells.reshape(-1, 3), boundary.ravel()


def build_spatial_mesh(domain, subdivisions):
    """The mesh of a domain descriptor tuple with Ms elements per direction,
    SpatialMesh(domain, subdivisions)."""
    return SpatialMesh(domain, subdivisions)


def _dot(columns, coefs):
    """Sum over j of columns[j] * coefs[j], one 1D multiply and add at a time.

    The products are added in order j = 0, 1, ..., as np.sum adds a
    contiguous axis of up to 7 terms, and none is fused into a multiply-add
    as a matmul may do.  So the result equals the broadcast product reduced
    by np.sum bit for bit, and the 1D loads do not move.
    """
    terms = zip(columns, coefs)
    column, coef = next(terms)
    acc = column * coef
    for column, coef in terms:
        acc += column * coef
    return acc


def _axes(fn, xb):
    """The per-axis arrays of a vector-valued callable at the points xb.

    A tuple or list is used as given; an array is viewed with shape
    (dimension, n_elements, nq).  Stacking a tuple would copy every value.
    """
    values = fn(*xb)
    return values if isinstance(values, (tuple, list)) else np.reshape(values, xb.shape)


def _interior_sum(mesh, local, gradients=True):
    """Add per-element vertex values into the nodes and keep the interior
    unknowns; local(blk, geometry) gives those of the elements in blk, one
    array per vertex, from their element_geometry under DEFAULT_QUAD_ORDER."""
    vec = np.zeros(mesh.vertices.shape[0])
    for blk in _element_blocks(mesh):
        values = local(blk, element_geometry(mesh, blk, DEFAULT_QUAD_ORDER, gradients))
        # np.add.at adds one by one from 0.0 in the order of elements.ravel(),
        # as one bincount over all elements does
        np.add.at(vec, mesh.elements[blk].ravel(), np.column_stack(values).ravel())
    return vec[mesh.interior_nodes]


def assemble_load(mesh, g):
    """Load vector (g, phi_i) on the interior unknowns by per-element quadrature
    under the rule DEFAULT_QUAD_ORDER.

    The callable receives one coordinate array per dimension, g(x) in 1D
    and g(x, y) in 2D.
    """
    def local(blk, geometry):
        _, _, (lam, xq, wq) = geometry
        weighted = (wq * g(*xq)).T
        return [_dot(weighted, lam_s) for lam_s in lam.T]

    return _interior_sum(mesh, local, gradients=False)


def _grad_load(mesh, integrals):
    """(c, grad phi_i) on the interior unknowns for a field c whose integral
    over every element of blk, one array per axis, is integrals(blk, geometry)."""
    def local(blk, geometry):
        measure, gradients, _ = geometry
        c = integrals(blk, geometry)
        scale = math.factorial(mesh.dimension) * measure
        return [_dot(g_s, c) / scale for g_s in gradients.transpose(1, 2, 0)]

    return _interior_sum(mesh, local)


def assemble_grad_load(mesh, grad):
    """Vector (grad g, grad phi_i) on the interior unknowns.

    grad receives one coordinate array per dimension and returns g' in 1D,
    (gx, gy) in 2D.
    """
    def integrals(blk, geometry):
        _, _, (_, xq, wq) = geometry
        return [_dot(wq.T, c.T) for c in _axes(grad, xq)]

    return _grad_load(mesh, integrals)


@dataclass(frozen=True)
class FeFunction:
    """P1 function with homogeneous Dirichlet values, stored by its
    interior coefficients."""

    coeffs: np.ndarray
    mesh: SpatialMesh

    def __post_init__(self):
        if self.coeffs.shape != (self.mesh.num_interior,):
            raise ValueError(
                f"expected {self.mesh.num_interior} coefficients, "
                f"got shape {self.coeffs.shape}"
            )

    def nodal_values(self):
        """Coefficients extended by zeros on the boundary nodes."""
        z = np.zeros(self.mesh.vertices.shape[0])
        z[self.mesh.interior_nodes] = self.coeffs
        return z


def _cg(apply, precond, rhs, target, max_iter=None):
    """Preconditioned conjugate gradients from zero for an SPD operator.

    apply maps x to A x, precond maps a residual to its preconditioned
    vector (an SPD approximate inverse); _cg only reads what they return,
    and updates x, r and p in arrays allocated once.  Iterates until the
    residual ||rhs - A x|| is at most target, an absolute value.  Returns
    (x, iterations) and raises RuntimeError with the final residual if
    max_iter is exhausted, or naming the iteration at a breakdown, where
    the curvature p @ A p is not positive and finite.
    """
    r = np.array(rhs, dtype=float)
    n = r.shape[0]
    x = np.zeros(n)
    if max_iter is None:
        max_iter = 10 * n + 100
    res = math.sqrt(r @ r)
    if res <= target:
        return x, 0
    z = precond(r)
    p = z.copy()
    scaled = np.empty(n)
    rz = r @ z
    for it in range(1, max_iter + 1):
        ap = apply(p)
        curvature = p @ ap
        if not 0.0 < curvature < math.inf:
            raise RuntimeError(
                f"CG broke down at iteration {it}: curvature p @ A p = {curvature:.3e} "
                "is not positive and finite"
            )
        alpha = rz / curvature
        x += np.multiply(alpha, p, out=scaled)
        r -= np.multiply(alpha, ap, out=scaled)
        res = math.sqrt(r @ r)
        if res <= target:
            return x, it
        z = precond(r)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise RuntimeError(
        f"CG did not reach the residual {target:.3e} within {max_iter} iterations; "
        f"final residual {res:.3e}"
    )


def spd_solve(mesh, a, b, r, target):
    """The sine coefficients e of the solution x = T^T e of (a M + b A) x = s,
    for r = T s, M and A the mass and stiffness, a, b >= 0 not both zero.

    In the sine basis T (fast diagonalization; Lynch, Rice and Thomas 1964)
    the operator of SineBasis.system is a diagonal, plus in 2D one Kronecker
    term, and CG from zero runs on it, preconditioned by the diagonal, until
    the residual is at most target, an absolute value.  On intervals, where
    the diagonal is the whole operator, e is one exact inverse, reported as
    1 iteration.  A zero r takes 0.  Callers pass a load, or the residual
    of a start and add e to it (defect correction; Stetter 1978), as
    kirchhoff_solver.step does with a start whose residual the symbols
    give without the fold.  Returns (e, iterations); CG's RuntimeError at
    a breakdown or after 10 n + 100 iterations propagates.
    """
    basis = mesh.sine_basis
    if basis.block is None:
        if math.sqrt(r @ r) <= target:
            return np.zeros(r.shape[0]), 0
        return 1.0 / (a * basis.mass_symbol + b * basis.stiffness_symbol) * r, 1
    return _cg(*basis.system(a, b), r, target)


def _project(mesh, a, b, load):
    """The FeFunction solving (a M + b A) x = load, to DEFAULT_TOL."""
    basis = mesh.sine_basis
    e, _ = spd_solve(mesh, a, b, basis.to_sine(load), DEFAULT_TOL * math.sqrt(load @ load))
    return FeFunction(basis.from_sine(e), mesh)


def l2_projection(mesh, g):
    """L2 projection of g onto the P1 space with zero boundary values."""
    return _project(mesh, 1.0, 0.0, assemble_load(mesh, g))


def ritz_projection(mesh, grad):
    """Ritz projection determined by the gradient of the target function.

    Solves (grad u_h, grad phi_i) = (grad g, grad phi_i) for all interior i;
    on a 1D mesh this reproduces the nodal interpolant of g.
    """
    return _project(mesh, 0.0, 1.0, assemble_grad_load(mesh, grad))


def _h1_squares(mesh, nodal, blk, geometry, exact, out):
    """Write wq |grad u - exact|^2 at every point of the elements blk, of the
    given geometry, into out, u with the nodal values nodal; return grad u
    per axis.  The products and sums of _dot(diffs, diffs) are formed in
    place, so no array beyond one difference per axis is held."""
    measure, scaled_gradients, (_, _, wq) = geometry
    zs = nodal[np.ascontiguousarray(mesh.elements[blk].T)]
    scale = math.factorial(mesh.dimension) * measure
    gradients = [_dot(zs, g_k) / scale for g_k in scaled_gradients.transpose(2, 1, 0)]
    acc = None
    for grad_k, exact_k in zip(gradients, exact):
        diff = grad_k[:, None] - exact_k
        diff *= diff
        acc = diff if acc is None else np.add(acc, diff, out=acc)
    np.multiply(acc, wq, out=out)
    return gradients


def _squares(mesh, npoints):
    """An empty (n_elements, npoints) array for an error's squares."""
    return np.empty((mesh.elements.shape[0], _rule(mesh.dimension, npoints)[1].size))


def h1_seminorm_error(u, exact_grad, quad_order=DEFAULT_QUAD_ORDER):
    """H1 seminorm of u minus a function given by its gradient.

    exact_grad receives one coordinate array per dimension and returns the
    derivative in 1D, the pair of partial derivatives in 2D.
    """
    mesh, nodal = u.mesh, u.nodal_values()
    squares = _squares(mesh, quad_order)
    for blk in _element_blocks(mesh):
        geometry = element_geometry(mesh, blk, quad_order)
        _h1_squares(mesh, nodal, blk, geometry, _axes(exact_grad, geometry[2][1]), squares[blk])
    return math.sqrt(max(float(squares.sum()), 0.0))


def ritz_residual(u, grad):
    """(grad g - grad u, grad phi_i) on the interior unknowns, under the rule
    of ritz_projection: zero up to rounding when u is g's projection.  The
    difference per element keeps digits that the load minus A u loses.
    Returns (residual, h1_seminorm_error(u, grad)) from one pass of grad.
    """
    mesh, nodal = u.mesh, u.nodal_values()
    squares = _squares(mesh, DEFAULT_QUAD_ORDER)

    def integrals(blk, geometry):
        measure, _, (_, xq, wq) = geometry
        exact = _axes(grad, xq)
        grads = _h1_squares(mesh, nodal, blk, geometry, exact, squares[blk])
        return [_dot(wq.T, g.T) - measure * gu for g, gu in zip(exact, grads)]

    return _grad_load(mesh, integrals), math.sqrt(max(float(squares.sum()), 0.0))


def l2_errors(functions, exacts):
    """L2 norms of P1 functions on one mesh minus their exact functions,
    callables of one coordinate array per axis.  One pass forms the blocks'
    quadrature, held while the functions are taken one at a time (4.8 MB on
    66,248 triangles, 25 MB for 16 functions' squares), so each norm sums
    its own squares at once."""
    mesh = functions[0].mesh
    blocks = [(blk, element_geometry(mesh, blk, DEFAULT_QUAD_ORDER, gradients=False)[2])
              for blk in _element_blocks(mesh)]
    errors = []
    for u, exact in zip(functions, exacts):
        nodal = u.nodal_values()
        squares = _squares(mesh, DEFAULT_QUAD_ORDER)
        for blk, (lam, xq, wq) in blocks:
            zs = nodal[np.ascontiguousarray(mesh.elements[blk].T)]
            diff = np.column_stack([_dot(zs, lam_q) for lam_q in lam]) - exact(*xq)
            np.multiply(wq, diff**2, out=squares[blk])
        errors.append(math.sqrt(max(float(squares.sum()), 0.0)))
    return errors
