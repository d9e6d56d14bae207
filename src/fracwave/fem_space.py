"""Piecewise-linear finite elements on intervals and the unit square.

Every element is a simplex: a 2-vertex interval in 1D, a 3-vertex triangle
in 2D.  Loads, projections and error norms run one code path for both
dimensions, on the element measures and scaled P1 basis gradients each
mesh computes once, and on quadrature points each mesh builds once per
rule.  Every element loop runs over blocks of at most _ELEMENT_BLOCK
elements and adds in element order, so its temporaries scale with the
block (the H1 error evaluation on 66,248 triangles: 3.01 MB traced,
10.07 MB unblocked) and its results do not depend on it.

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
    """Mark arrays read-only and return them as a tuple."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


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
    interval, on Ms < 2 and on an unknown descriptor.  Every element is positively oriented, so its
    Jacobian determinant is its measure times dimension!.  The element
    geometry is computed on construction, the quadrature points on first
    use of each rule and the sine basis on first use; every cached array
    is read-only.

    Attributes
    ----------
    dimension : int
        1 or 2.
    vertices : ndarray
        Node coordinates, shape (n_nodes,) in 1D or (n_nodes, 2) in 2D.
    elements : ndarray of int
        Connectivity, shape (n_elements, 2) or (n_elements, 3).
    boundary : ndarray of bool
        True on Dirichlet nodes.
    interior_nodes : ndarray of int
        Global indices of the unknowns, in ascending order.
    num_interior : int
        Number of unknowns.
    domain : tuple
        Descriptor, ("interval", a, b) with float ends or ("unit_square",).
    subdivisions : int
        Ms, the per-direction element count.
    measure : ndarray
        Element lengths or areas, shape (n_elements,).
    scaled_gradients : ndarray
        P1 basis gradients times dimension! * measure, shape
        (n_elements, dimension + 1, dimension): the gradient of the basis
        function of node elements[e, s] is scaled_gradients[e, s] /
        (dimension! * measure[e]).  They are (-1, 1) in 1D and the opposite
        edges turned by 90 degrees in 2D.  Dividing by the measure once per
        use, as the closed-form element matrices do, keeps the 1D loads
        exact to the last bit.
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
        self.dimension = d = 1 if domain[0] == "interval" else 2
        self.vertices, self.elements, self.boundary = _grid(domain, ms)
        self.interior_nodes = np.flatnonzero(~self.boundary)
        self.num_interior = int(self.interior_nodes.size)
        self.domain = domain
        self.subdivisions = ms
        # rows of the Jacobian J are the edges leaving vertex 0, so the
        # edges of axis k are column k, J[s, k] for s < d; column k of
        # adj(J) / det(J) is the gradient of barycentric coordinate k + 1,
        # and det(J) > 0 on the grid's elements.  Writing out the 1 x 1 and
        # 2 x 2 cofactors keeps them exact, which np.linalg.det is not even
        # for 1 x 1
        columns = [edges for _, edges in self._edges()]
        if d == 1:
            ((det,),) = columns
            adj_t = np.ones((1, 1, det.size))
        else:
            (j00, j10), (j01, j11) = columns
            det = j00 * j11 - j01 * j10
            adj_t = np.array([[j11, -j10], [-j01, j00]])
        self.measure = det / math.factorial(d)
        scaled = np.moveaxis(adj_t, -1, 0)
        self.scaled_gradients = np.concatenate(
            [-scaled.sum(axis=1, keepdims=True), scaled], axis=1
        )
        _read_only(self.vertices, self.elements, self.boundary, self.interior_nodes)
        _read_only(self.measure, self.scaled_gradients)
        self._quadrature = {}

    def _edges(self):
        """Per axis, vertex 0 of every element and the edges leaving it.

        Yields (p0, edges) with p0 of shape (n_elements,) and edges of shape
        (dimension, n_elements): edges[s] is the axis's coordinate of vertex
        s + 1 minus that of vertex 0.  One contiguous gather per axis and
        vertex, in place of an (n_elements, dimension + 1, dimension) copy.
        """
        for coord in self.vertices.reshape(self.vertices.shape[0], -1).T:
            p = coord[self.elements.T]
            yield p[0], p[1:] - p[0]

    def quadrature(self, npoints):
        """Cached rule with npoints points per element.

        Returns (lam, xq, wq): the barycentric points lam of shape
        (nq, dimension + 1) from QUADRATURE_RULES, the physical points xq
        of shape (dimension, n_elements, nq), one coordinate array per
        axis so that g(*xq) evaluates a callable at every point, and the
        weights wq of shape (n_elements, nq).
        """
        if npoints not in self._quadrature:
            rules = QUADRATURE_RULES[self.dimension]
            if npoints not in rules:
                raise ValueError(
                    f"no {npoints}-point rule on {self.dimension}D elements; "
                    f"available: {sorted(rules)}"
                )
            lam, w = rules[npoints]
            # x = p_0 + sum over s >= 1 of lam_s (p_s - p_0), per axis k and
            # point q; each coordinate array xq[k] is contiguous, which the
            # callables evaluate fastest
            xq = np.empty((self.dimension, self.elements.shape[0], lam.shape[0]))
            for k, (p0, edges) in enumerate(self._edges()):
                for q, lam_q in enumerate(lam[:, 1:]):
                    xq[k, :, q] = _dot(edges, lam_q) + p0
            wq = self.measure[:, None] * w[None, :]
            self._quadrature[npoints] = _read_only(lam, xq, wq)
        return self._quadrature[npoints]

    @functools.cached_property
    def sine_basis(self):
        """The mesh's SineBasis, built on first use."""
        return SineBasis(self)


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
        both write into buffers of their own, overwritten on the next call."""
        symbols = a * self.mass_symbol + b * self.stiffness_symbol
        inverse = 1.0 / symbols
        if self.block is None:
            return lambda e: symbols * e, lambda r: inverse * r
        scale = a * self._fold_scale
        out, term, z = (np.empty(symbols.size) for _ in range(3))
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


def _interior_sum(mesh, local):
    """Add per-element vertex values into the nodes and keep the interior
    unknowns; local(blk) gives those of the elements in blk, one array per
    vertex."""
    vec = np.zeros(mesh.vertices.shape[0])
    for blk in _element_blocks(mesh):
        # np.add.at adds one by one from 0.0 in the order of elements.ravel(),
        # as one bincount over all elements does
        np.add.at(vec, mesh.elements[blk].ravel(), np.column_stack(local(blk)).ravel())
    return vec[mesh.interior_nodes]


def assemble_load(mesh, g):
    """Load vector (g, phi_i) on the interior unknowns by per-element quadrature
    under the rule DEFAULT_QUAD_ORDER.

    The callable receives one coordinate array per dimension, g(x) in 1D
    and g(x, y) in 2D.
    """
    lam, xq, wq = mesh.quadrature(DEFAULT_QUAD_ORDER)

    def local(blk):
        weighted = (wq[blk] * g(*xq[:, blk])).T
        return [_dot(weighted, lam_s) for lam_s in lam.T]

    return _interior_sum(mesh, local)


def _grad_load(mesh, integrals):
    """(c, grad phi_i) on the interior unknowns for a field c given by
    integrals(blk), its integral over every element of blk, one array per
    axis."""
    scale = math.factorial(mesh.dimension) * mesh.measure
    gradients = mesh.scaled_gradients.transpose(1, 2, 0)

    def local(blk):
        c = integrals(blk)
        return [_dot(g_s[:, blk], c) / scale[blk] for g_s in gradients]

    return _interior_sum(mesh, local)


def assemble_grad_load(mesh, grad):
    """Vector (grad g, grad phi_i) on the interior unknowns.

    grad receives one coordinate array per dimension and returns g' in 1D,
    (gx, gy) in 2D.
    """
    _, xq, wq = mesh.quadrature(DEFAULT_QUAD_ORDER)
    return _grad_load(
        mesh, lambda blk: [_dot(wq[blk].T, c.T) for c in _axes(grad, xq[:, blk])]
    )


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


def _element_gradients(mesh, nodal, blk):
    """Gradient of the P1 function with nodal values nodal on the elements
    of blk, one array per axis."""
    zs = nodal[mesh.elements[blk]].T
    scale = math.factorial(mesh.dimension) * mesh.measure[blk]
    return [_dot(zs, g_k) / scale for g_k in mesh.scaled_gradients[blk].transpose(2, 1, 0)]


def h1_seminorm_error(u, exact_grad, quad_order=DEFAULT_QUAD_ORDER):
    """H1 seminorm of u minus a function given by its gradient.

    exact_grad receives one coordinate array per dimension and returns the
    derivative in 1D, the pair of partial derivatives in 2D.
    """
    mesh, nodal = u.mesh, u.nodal_values()
    _, xq, wq = mesh.quadrature(quad_order)
    squares = np.empty(wq.shape)
    for blk in _element_blocks(mesh):
        axes = zip(_element_gradients(mesh, nodal, blk), _axes(exact_grad, xq[:, blk]))
        # the products and sums of _dot(diffs, diffs), formed in place so that
        # no array beyond one difference per axis is held
        acc = None
        for grad_k, exact_k in axes:
            diff = grad_k[:, None] - exact_k
            diff *= diff
            acc = diff if acc is None else np.add(acc, diff, out=acc)
        np.multiply(acc, wq[blk], out=squares[blk])
    return math.sqrt(max(float(squares.sum()), 0.0))


def ritz_residual(u, grad):
    """(grad g - grad u, grad phi_i) on the interior unknowns, under the rule
    of ritz_projection: zero up to rounding when u is g's projection.  The
    difference per element keeps digits that the load minus A u loses."""
    mesh, nodal = u.mesh, u.nodal_values()
    _, xq, wq = mesh.quadrature(DEFAULT_QUAD_ORDER)

    def integrals(blk):
        axes = zip(_axes(grad, xq[:, blk]), _element_gradients(mesh, nodal, blk))
        return [_dot(wq[blk].T, g.T) - mesh.measure[blk] * gu for g, gu in axes]

    return _grad_load(mesh, integrals)


def l2_error(u, exact):
    """L2 norm of u minus a pointwise-evaluable function of one coordinate
    array per dimension."""
    mesh, nodal = u.mesh, u.nodal_values()
    lam, xq, wq = mesh.quadrature(DEFAULT_QUAD_ORDER)
    squares = np.empty(wq.shape)
    for blk in _element_blocks(mesh):
        zs = nodal[mesh.elements[blk]].T
        diff = np.column_stack([_dot(zs, lam_q) for lam_q in lam]) - exact(*xq[:, blk])
        np.multiply(wq[blk], diff**2, out=squares[blk])
    return math.sqrt(max(float(squares.sum()), 0.0))
