"""Piecewise-linear finite elements on intervals and the unit square.

Every element is a simplex: a 2-vertex interval in 1D, a 3-vertex triangle
in 2D.  Assembly, projections and error norms run one code path for both
dimensions, on the element measures and scaled P1 basis gradients each
mesh computes once, and on quadrature points each mesh builds once per
rule.

Meshes carry homogeneous Dirichlet conditions by elimination: assembled
matrices and load vectors live on the interior unknowns only.  The 2D mesh
is the structured triangulation of the unit square obtained by cutting each
cell of an Ms x Ms grid along the same diagonal, giving 2*Ms**2 right
triangles.  The discrete Laplacian is never formed; inner products against
it are taken through the stiffness matrix.  On that grid the stiffness is
the 5-point Laplacian, which the orthonormal sine transform (DST-I)
diagonalizes; SpatialMesh.preconditioner applies it, as products with the
mesh's cached sine matrix, to precondition CG.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def _read_only(*arrays):
    """Mark arrays read-only and return them as a tuple."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _minor(m, i, j):
    return np.delete(np.delete(m, i, axis=-2), j, axis=-1)


def _det(m):
    """Determinants of a stack of small square matrices by cofactor expansion.

    Exact for 1 x 1 and the closed form a*d - b*c for 2 x 2; np.linalg.det
    is not exact even for 1 x 1.
    """
    if m.shape[-1] == 0:
        return np.ones(m.shape[:-2])
    return sum((-1) ** j * m[..., 0, j] * _det(_minor(m, 0, j)) for j in range(m.shape[-1]))


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


def _gauss_rule(npoints):
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    # reference element [0, 1] in barycentric form
    lam = 0.5 * (nodes + 1.0)
    return np.column_stack([1.0 - lam, lam]), 0.5 * weights


# {dimension: {points per element: (barycentric points (nq, d+1), weights)}};
# the weights sum to 1 and are scaled by the element measure.
QUADRATURE_RULES = {
    1: {npoints: _gauss_rule(npoints) for npoints in range(1, 8)},
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
        4: (
            np.array(
                [
                    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                    [0.6, 0.2, 0.2],
                    [0.2, 0.6, 0.2],
                    [0.2, 0.2, 0.6],
                ]
            ),
            np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0,
        ),
        6: (
            np.array(
                [
                    [0.816847572980459, 0.091576213509771, 0.091576213509771],
                    [0.091576213509771, 0.816847572980459, 0.091576213509771],
                    [0.091576213509771, 0.091576213509771, 0.816847572980459],
                    [0.108103018168070, 0.445948490915965, 0.445948490915965],
                    [0.445948490915965, 0.108103018168070, 0.445948490915965],
                    [0.445948490915965, 0.445948490915965, 0.108103018168070],
                ]
            ),
            np.array(
                [
                    0.109951743655322,
                    0.109951743655322,
                    0.109951743655322,
                    0.223381589678011,
                    0.223381589678011,
                    0.223381589678011,
                ]
            ),
        ),
        7: (
            np.array(
                [
                    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                    [0.797426985353087, 0.101286507323456, 0.101286507323456],
                    [0.101286507323456, 0.797426985353087, 0.101286507323456],
                    [0.101286507323456, 0.101286507323456, 0.797426985353087],
                    [0.059715871789770, 0.470142064105115, 0.470142064105115],
                    [0.470142064105115, 0.059715871789770, 0.470142064105115],
                    [0.470142064105115, 0.470142064105115, 0.059715871789770],
                ]
            ),
            np.array(
                [
                    0.225,
                    0.125939180544827,
                    0.125939180544827,
                    0.125939180544827,
                    0.132394152788506,
                    0.132394152788506,
                    0.132394152788506,
                ]
            ),
        ),
    },
}
_read_only(
    *(arr for rules in QUADRATURE_RULES.values() for rule in rules.values() for arr in rule)
)


class SpatialMesh:
    """Conforming P1 simplex mesh with Dirichlet boundary flags.

    The element geometry is computed on construction and the quadrature
    points on first use of each rule; every cached array is read-only.

    Attributes
    ----------
    dimension : int
        1 or 2.
    vertices : ndarray
        Node coordinates, shape (n_nodes,) in 1D or (n_nodes, 2) in 2D.
    elements : ndarray of int
        Connectivity, shape (n_elements, 2) or (n_elements, 3); 2D
        triangles are positively oriented.
    boundary : ndarray of bool
        True on Dirichlet nodes.
    interior_nodes : ndarray of int
        Global indices of the unknowns, in ascending order.
    num_interior : int
        Number of unknowns.
    domain : tuple
        Descriptor, ("interval", a, b) or ("unit_square",).
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
        use, as the closed-form element matrices do, keeps the 1D matrices
        and loads exact to the last bit; the 1D solves amplify a one-ulp
        change in the stiffness into the sixth digit of printed orders.
    """

    def __init__(self, dimension, vertices, elements, boundary, domain, subdivisions):
        self.dimension = int(dimension)
        self.vertices = vertices
        self.elements = elements
        self.boundary = boundary
        self.interior_nodes = np.flatnonzero(~boundary)
        self.num_interior = int(self.interior_nodes.size)
        self.domain = domain
        self.subdivisions = int(subdivisions)
        d = self.dimension
        # vertex coordinates per element, shape (n_elements, d + 1, d)
        p = vertices.reshape(vertices.shape[0], -1)[elements]
        # rows of the Jacobian are the edges leaving vertex 0; column k of
        # adj(J) / det(J) is the gradient of barycentric coordinate k + 1
        jac = p[:, 1:] - p[:, :1]
        det = _det(jac)
        self.measure = np.abs(det) / math.factorial(d)
        adj_t = np.array(
            [[(-1) ** (k + i) * _det(_minor(jac, k, i)) for i in range(d)] for k in range(d)]
        )
        scaled = np.moveaxis(adj_t, -1, 0) * np.sign(det)[:, None, None]
        self.scaled_gradients = np.concatenate(
            [-scaled.sum(axis=1, keepdims=True), scaled], axis=1
        )
        _read_only(vertices, elements, boundary, self.interior_nodes)
        _read_only(self.measure, self.scaled_gradients)
        self._quadrature = {}
        self._matrices = {}
        # on the square's (Ms-1) x (Ms-1) interior grid: the orthonormal
        # DST-I matrix and the symbols it gives the mass and Laplacian
        # stencils (see preconditioner)
        self._sine = self._mass_symbol = self._lap_symbol = None
        if domain[0] == "unit_square":
            ms = self.subdivisions
            k = np.arange(1, ms)
            c = np.cos(k * math.pi / ms)
            ci, cj = c[:, None], c[None, :]
            # reducing j * k mod 2 Ms first keeps each entry within about
            # one ulp: S @ S - I is 2e-15 at Ms = 182, 8e-15 unreduced
            self._sine, self._mass_symbol, self._lap_symbol = _read_only(
                math.sqrt(2.0 / ms) * np.sin(np.pi * (np.outer(k, k) % (2 * ms)) / ms),
                (6.0 + 2.0 * ci + 2.0 * cj + 2.0 * ci * cj) / (12.0 * ms**2),
                4.0 - 2.0 * ci - 2.0 * cj,
            )

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
            coords = self.vertices.reshape(self.vertices.shape[0], -1).T
            xq = np.empty((self.dimension, self.elements.shape[0], lam.shape[0]))
            for k, coord in enumerate(coords):
                p = coord[self.elements.T]
                edges = p[1:] - p[0]
                for q, lam_q in enumerate(lam[:, 1:]):
                    xq[k, :, q] = _dot(edges, lam_q) + p[0]
            wq = self.measure[:, None] * w[None, :]
            self._quadrature[npoints] = _read_only(lam, xq, wq)
        return self._quadrature[npoints]

    def preconditioner(self, a, b):
        """Approximate inverse of a * M + b * A for spd_solve, or None.

        On the unit square's grid it applies (a * Mhat + b * Lhat)^(-1) by
        a DST-I along both axes of the row-major (Ms-1) x (Ms-1) interior
        grid.  Lhat is the stiffness itself (the 5-point Laplacian), with
        symbols (2 - 2 c_i) + (2 - 2 c_j), c_k = cos(k pi / Ms).  Mhat is
        the consistent mass stencil with its NE/SW coupling spread evenly
        over both diagonals, symbols h^2/12 (6 + 2 c_i + 2 c_j + 2 c_i c_j)
        with h = 1 / Ms; its stencil sums to h^2, as the consistent one
        does.  Interval meshes get None, which spd_solve takes as Jacobi.

        The transform is the matrix form of fast diagonalization (Lynch,
        Rice and Thomas 1964): with S the cached symmetric sine matrix, a
        residual R on the grid maps to S ((S R S) / symbols) S.  Four dense
        products cost O(Ms^3) per apply against O(Ms^2 log Ms) for FFTs
        (dst1), but on 2 vCPUs one 2D transform takes 0.4 ms against
        1.3 ms at Ms = 182, the two are about even at Ms = 512, and the
        FFTs win past Ms of about 1000.
        """
        s = self._sine
        if s is None:
            return None
        inverse = 1.0 / (a * self._mass_symbol + b * self._lap_symbol)

        def apply(r):
            return (s @ ((s @ r.reshape(s.shape) @ s) * inverse) @ s).ravel()

        return apply


def build_mesh_1d(a, b, subdivisions):
    """Uniform interval mesh on (a, b) with Ms elements, Ms >= 2."""
    if not b > a:
        raise ValueError(f"interval ({a}, {b}) is empty")
    ms = int(subdivisions)
    if ms < 2:
        raise ValueError(f"need at least 2 elements, got {subdivisions}")
    x = np.linspace(a, b, ms + 1)
    elements = np.column_stack([np.arange(ms), np.arange(1, ms + 1)])
    boundary = np.zeros(ms + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return SpatialMesh(1, x, elements, boundary, ("interval", float(a), float(b)), ms)


def build_mesh_2d_unit_square(subdivisions):
    """Structured triangulation of (0, 1)^2, all diagonals in one direction."""
    ms = int(subdivisions)
    if ms < 2:
        raise ValueError(f"need at least 2 elements per direction, got {subdivisions}")
    side = np.linspace(0.0, 1.0, ms + 1)
    xg, yg = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    # cell (i, j), numbered j * ms + i, has lower-left node j * (ms + 1) + i
    # and gives triangles 2 * cell and 2 * cell + 1
    j, i = np.divmod(np.arange(ms * ms, dtype=np.int64), ms)
    v00 = j * (ms + 1) + i
    v10, v01 = v00 + 1, v00 + ms + 1
    v11 = v01 + 1
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    boundary = np.zeros((ms + 1) ** 2, dtype=bool)
    idx = np.arange((ms + 1) ** 2)
    i_coord = idx % (ms + 1)
    j_coord = idx // (ms + 1)
    boundary[(i_coord == 0) | (i_coord == ms) | (j_coord == 0) | (j_coord == ms)] = True
    return SpatialMesh(2, vertices, elements, boundary, ("unit_square",), ms)


def build_spatial_mesh(domain, subdivisions):
    """Build a mesh from a domain descriptor tuple."""
    if domain[0] == "interval":
        return build_mesh_1d(domain[1], domain[2], subdivisions)
    if domain[0] == "unit_square":
        return build_mesh_2d_unit_square(subdivisions)
    raise ValueError(f"unknown domain descriptor {domain!r}")


def _assemble_matrix(mesh, which):
    """Mass or stiffness matrix over all nodes, boundary ones included."""
    n_nodes = mesh.vertices.shape[0]
    el = mesh.elements
    nv = mesh.dimension + 1
    if which == "mass":
        local = (np.ones((nv, nv)) + np.eye(nv)) / (nv * (nv + 1))
        vals = mesh.measure[:, None, None] * local
    else:
        g = mesh.scaled_gradients
        scale = math.factorial(mesh.dimension) ** 2 * mesh.measure
        vals = (g @ g.transpose(0, 2, 1)) / scale[:, None, None]
    rows = np.repeat(el, nv, axis=1).ravel()
    cols = np.tile(el, (1, nv)).ravel()
    full = sp.coo_matrix(
        (vals.ravel(), (rows, cols)), shape=(n_nodes, n_nodes)
    ).tocsr()
    full.sort_indices()
    return full


def _get_matrix(mesh, which):
    """The matrix restricted to the interior unknowns, cached on the mesh."""
    if which not in mesh._matrices:
        idx = mesh.interior_nodes
        restricted = _assemble_matrix(mesh, which)[idx, :][:, idx].tocsr()
        restricted.sort_indices()
        mesh._matrices[which] = restricted
    return mesh._matrices[which]


def assemble_mass(mesh):
    """Mass matrix in CSR form on the interior unknowns."""
    return _get_matrix(mesh, "mass")


def assemble_stiffness(mesh):
    """Stiffness matrix in CSR form on the interior unknowns."""
    return _get_matrix(mesh, "stiffness")


def _dot(columns, coefs):
    """Sum over j of columns[j] * coefs[j], one 1D multiply and add at a time.

    The products are added in order j = 0, 1, ..., as np.sum adds a
    contiguous axis of up to 7 terms, and none is fused into a multiply-add
    as a matmul may do.  So the result equals the broadcast product reduced
    by np.sum bit for bit, and the 1D loads, whose last bits the 1D solves
    amplify into printed digits, do not move.
    """
    terms = zip(columns, coefs)
    column, coef = next(terms)
    acc = column * coef
    for column, coef in terms:
        acc += column * coef
    return acc


def _axes(values, shape):
    """The per-axis arrays of a vector-valued callable's result.

    A tuple or list is used as given; an array is viewed with shape
    (dimension, n_elements, nq).  Stacking a tuple would copy every value.
    """
    return values if isinstance(values, (tuple, list)) else np.reshape(values, shape)


def _interior_sum(mesh, columns):
    """Add per-element vertex values, one array of shape (n_elements,) per
    vertex, into the nodes and keep the interior unknowns."""
    local = np.empty(mesh.elements.shape)
    for s, column in enumerate(columns):
        local[:, s] = column
    # bincount adds element by element, in the order of elements.ravel()
    vec = np.bincount(mesh.elements.ravel(), local.ravel(), mesh.vertices.shape[0])
    return vec[mesh.interior_nodes]


def assemble_load(mesh, g, quad_order=3):
    """Load vector (g, phi_i) on the interior unknowns by per-element quadrature.

    The callable receives one coordinate array per dimension, g(x) in 1D
    and g(x, y) in 2D.  quad_order counts quadrature points per element.
    """
    lam, xq, wq = mesh.quadrature(quad_order)
    weighted = (wq * g(*xq)).T
    return _interior_sum(mesh, (_dot(weighted, lam_s) for lam_s in lam.T))


def assemble_grad_load(mesh, grad, quad_order=3):
    """Vector (grad g, grad phi_i) on the interior unknowns.

    grad receives one coordinate array per dimension and returns g' in 1D,
    (gx, gy) in 2D.
    """
    _, xq, wq = mesh.quadrature(quad_order)
    integral = [_dot(wq.T, comp.T) for comp in _axes(grad(*xq), xq.shape)]
    scale = math.factorial(mesh.dimension) * mesh.measure
    gradients = mesh.scaled_gradients.transpose(1, 2, 0)
    return _interior_sum(mesh, (_dot(g_s, integral) / scale for g_s in gradients))


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


def spd_solve(matrix, rhs, tol=1e-12, x0=None, max_iter=None, precond=None):
    """Preconditioned conjugate gradients for SPD systems.

    precond maps a residual to its preconditioned vector (an SPD
    approximate inverse, such as SpatialMesh.preconditioner); None means
    Jacobi, the inverse diagonal of the matrix.  Iterates until
    ||rhs - A x|| <= tol * ||rhs||.  Deterministic: fixed iteration order,
    no randomization.  Returns (x, iterations) and raises RuntimeError with
    the final residual if max_iter is exhausted, or naming the iteration at
    a breakdown, where the curvature p @ A p is not positive and finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros(n), 0
    if precond is None:
        dinv = 1.0 / matrix.diagonal()

        def precond(r):
            return dinv * r

    if x0 is None:
        x = np.zeros(n)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=float)
        r = rhs - matrix @ x
    target = tol * bnorm
    if max_iter is None:
        max_iter = 10 * n + 100
    res = np.linalg.norm(r)
    if res <= target:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        ap = matrix @ p
        curvature = p @ ap
        if not 0.0 < curvature < math.inf:
            raise RuntimeError(
                f"CG broke down at iteration {it}: curvature p @ A p = {curvature:.3e} "
                "is not positive and finite"
            )
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r)
        if res <= target:
            return x, it
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(
        f"CG did not reach tol={tol} within {max_iter} iterations; "
        f"final relative residual {res / bnorm:.3e}"
    )


def l2_projection(mesh, g, quad_order=3, tol=1e-12):
    """L2 projection of g onto the P1 space with zero boundary values."""
    b = assemble_load(mesh, g, quad_order)
    x, _ = spd_solve(assemble_mass(mesh), b, tol, precond=mesh.preconditioner(1.0, 0.0))
    return FeFunction(x, mesh)


def ritz_projection(mesh, grad, quad_order=3, tol=1e-12):
    """Ritz projection determined by the gradient of the target function.

    Solves (grad u_h, grad phi_i) = (grad g, grad phi_i) for all interior i;
    on a 1D mesh this reproduces the nodal interpolant of g.
    """
    b = assemble_grad_load(mesh, grad, quad_order)
    x, _ = spd_solve(assemble_stiffness(mesh), b, tol, precond=mesh.preconditioner(0.0, 1.0))
    return FeFunction(x, mesh)


def grad_norm_sq(u):
    """Squared H1 seminorm, computed as the stiffness quadratic form."""
    a = assemble_stiffness(u.mesh)
    return float(u.coeffs @ (a @ u.coeffs))


def l2_norm(u):
    """L2 norm, computed as the mass quadratic form."""
    b = assemble_mass(u.mesh)
    return math.sqrt(max(float(u.coeffs @ (b @ u.coeffs)), 0.0))


def _element_gradients(u):
    """Gradient of a P1 function on every element, one array of shape
    (n_elements,) per axis."""
    mesh = u.mesh
    zs = u.nodal_values()[mesh.elements].T
    scale = math.factorial(mesh.dimension) * mesh.measure
    return [_dot(zs, g_k) / scale for g_k in mesh.scaled_gradients.transpose(2, 1, 0)]


def h1_seminorm_error(u, exact_grad, quad_order=3):
    """H1 seminorm of u minus a function given by its gradient.

    exact_grad receives one coordinate array per dimension and returns the
    derivative in 1D, the pair of partial derivatives in 2D.
    """
    _, xq, wq = u.mesh.quadrature(quad_order)
    axes = zip(_element_gradients(u), _axes(exact_grad(*xq), xq.shape))
    diffs = [grad_k[:, None] - exact_k for grad_k, exact_k in axes]
    total = np.sum(wq * _dot(diffs, diffs))
    return math.sqrt(max(total, 0.0))


def l2_error(u, exact, quad_order=3):
    """L2 norm of u minus a pointwise-evaluable function of one coordinate
    array per dimension."""
    lam, xq, wq = u.mesh.quadrature(quad_order)
    zs = u.nodal_values()[u.mesh.elements].T
    uh = np.empty(wq.shape)
    for q, lam_q in enumerate(lam):
        uh[:, q] = _dot(zs, lam_q)
    diff = uh - exact(*xq)
    total = np.sum(wq * diff**2)
    return math.sqrt(max(total, 0.0))
