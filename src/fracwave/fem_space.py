"""Piecewise-linear finite elements on intervals and the unit square.

Every element is a simplex: a 2-vertex interval in 1D, a 3-vertex triangle
in 2D.  Assembly, projections and error norms run one code path for both
dimensions, on the element measures and scaled P1 basis gradients each
mesh computes once, and on quadrature points each mesh builds once per
rule.

Meshes carry homogeneous Dirichlet conditions by elimination: assembled
matrices, stored by their 3 (1D) or 7 (2D) diagonals, and load vectors live
on the interior unknowns only.  The 2D mesh is the structured triangulation
of the unit square obtained by cutting each cell of an Ms x Ms grid along
the same diagonal, giving 2*Ms**2 right triangles.  The discrete Laplacian
is never formed; inner products against it are taken through the stiffness
matrix.  On that grid the stiffness is the 5-point Laplacian, which the
orthonormal sine transform (DST-I) diagonalizes; SpatialMesh.preconditioner
applies it, as products with the mesh's cached sine matrix, to precondition
CG.  On the uniform interval the DST-I diagonalizes the mass and stiffness
exactly, so there the same preconditioner is the exact inverse of every
system the solver forms; it multiplies by the sine matrix on small meshes
and calls the FFT-based dst1 on large ones.  The H1-seminorm error takes a
block of functions, such as the stored levels of a run, in one pass.
"""

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
# the rule and the CG stopping tolerance (relative residual) the solver
# always uses; only an error evaluation may pick another rule
DEFAULT_QUAD_ORDER = 3
DEFAULT_TOL = 1e-12
# the largest interval mesh whose preconditioner applies the sine
# transform as a dense matrix product instead of dst1
_DENSE_SINE_MAX_MS = 256


class SpatialMesh:
    """Conforming P1 simplex mesh with Dirichlet boundary flags.

    The element geometry is computed on construction, the quadrature
    points on first use of each rule and the sine matrix on first use;
    every cached array is read-only.

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
        and loads exact to the last bit.
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
        # rows of the Jacobian J are the edges leaving vertex 0, so the
        # edges of axis k are column k, J[s, k] for s < d; column k of
        # adj(J) / det(J) is the gradient of barycentric coordinate k + 1.
        # Writing out the 1 x 1 and 2 x 2 cofactors keeps them exact, which
        # np.linalg.det is not even for 1 x 1
        columns = [edges for _, edges in self._edges()]
        if d == 1:
            ((det,),) = columns
            adj_t = np.ones((1, 1, det.size))
        else:
            (j00, j10), (j01, j11) = columns
            det = j00 * j11 - j01 * j10
            adj_t = np.array([[j11, -j10], [-j01, j00]])
        self.measure = np.abs(det) / math.factorial(d)
        scaled = np.moveaxis(adj_t, -1, 0) * np.sign(det)[:, None, None]
        self.scaled_gradients = np.concatenate(
            [-scaled.sum(axis=1, keepdims=True), scaled], axis=1
        )
        _read_only(vertices, elements, boundary, self.interior_nodes)
        _read_only(self.measure, self.scaled_gradients)
        self._quadrature = {}
        self._matrices = {}
        # the symbols the orthonormal DST-I gives the mass and stiffness on
        # the interior grid, with c_k = cos(k pi / Ms) (see preconditioner);
        # the sine matrix is built on first use, so intervals that keep
        # dst1 never build it
        self._sine = self._mass_symbol = self._stiffness_symbol = None
        ms = self.subdivisions
        c = np.cos(np.arange(1, ms) * math.pi / ms)
        if domain[0] == "interval":
            h = (domain[2] - domain[1]) / ms
            self._mass_symbol, self._stiffness_symbol = _read_only(
                h / 6.0 * (4.0 + 2.0 * c), (2.0 - 2.0 * c) / h
            )
        elif domain[0] == "unit_square":
            ci, cj = c[:, None], c[None, :]
            self._mass_symbol, self._stiffness_symbol = _read_only(
                (6.0 + 2.0 * ci + 2.0 * cj + 2.0 * ci * cj) / (12.0 * ms**2),
                4.0 - 2.0 * ci - 2.0 * cj,
            )

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

    def _sine_matrix(self):
        """The symmetric orthonormal DST-I matrix of size Ms - 1, cached."""
        if self._sine is None:
            ms = self.subdivisions
            k = np.arange(1, ms)
            # reducing j * k mod 2 Ms first keeps each entry within about
            # one ulp: S @ S - I is 2e-15 at Ms = 182, 8e-15 unreduced
            (self._sine,) = _read_only(
                math.sqrt(2.0 / ms) * np.sin(np.pi * (np.outer(k, k) % (2 * ms)) / ms)
            )
        return self._sine

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

    def preconditioner(self, a, b):
        """Inverse of a * M + b * A for spd_solve, exact in 1D, or None.

        On the uniform interval the DST-I diagonalizes both matrices
        (Buzbee, Golub and Nielson 1970): the mass h/6 (1, 4, 1) has symbols
        h/6 (4 + 2 c_k), the stiffness (1/h) (-1, 2, -1) has (2 - 2 c_k) / h,
        c_k = cos(k pi / Ms), h = (b - a) / Ms; CG stops after one iteration.
        Up to _DENSE_SINE_MAX_MS elements the transform is a product with
        the cached sine matrix S, r -> S ((S r) / symbols), because dst1
        pays a fixed cost of several us per call in numpy's FFT wrapper.
        One apply took 9 us against 30 us with dst1 at Ms = 128, 26 against
        35 us at Ms = 256 and 109 against 30 us at Ms = 512 (2 vCPUs, best
        of 5 x 2000 calls).  Larger meshes keep dst1: O(Ms log Ms) per
        apply and no Ms^2 matrix.

        On the unit square's grid it applies (a * Mhat + b * Lhat)^(-1) by
        a DST-I along both axes of the row-major (Ms-1) x (Ms-1) interior
        grid.  Lhat is the stiffness itself (the 5-point Laplacian), with
        symbols (2 - 2 c_i) + (2 - 2 c_j).  Mhat is the consistent mass
        stencil with its NE/SW coupling spread evenly over both diagonals,
        symbols h^2/12 (6 + 2 c_i + 2 c_j + 2 c_i c_j) with h = 1 / Ms; its
        stencil sums to h^2, as the consistent one does.  A mesh on any
        other domain gets None, which spd_solve takes as Jacobi.

        The 2D transform is the matrix form of fast diagonalization (Lynch,
        Rice and Thomas 1964): with S the cached symmetric sine matrix, a
        residual R on the grid maps to S ((S R S) / symbols) S.  Four dense
        products cost O(Ms^3) per apply against O(Ms^2 log Ms) for FFTs
        (dst1), but on 2 vCPUs one 2D transform takes 0.4 ms against
        1.3 ms at Ms = 182, the two are about even at Ms = 512, and the
        FFTs win past Ms of about 1000.
        """
        if self._mass_symbol is None:
            return None
        inverse = 1.0 / (a * self._mass_symbol + b * self._stiffness_symbol)
        if self.dimension == 1 and self.subdivisions > _DENSE_SINE_MAX_MS:
            return lambda r: dst1(dst1(r) * inverse)
        s = self._sine_matrix()
        if self.dimension == 1:
            return lambda r: s @ ((s @ r) * inverse)

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


class BandMatrix:
    """Square matrix stored by its diagonals (DIA storage; Saad 2003, 3.4).

    data[k, i] = A[i, i + offsets[k]] on the sorted offsets, zero outside
    the pattern.  A product adds the diagonals to zeros in ascending offset
    order, as a sorted CSR row is added, so the two agree bit for bit; but
    the padding zeros spread a non-finite x entry to a neighbouring row as
    0 * inf = nan (step rejects a non-finite right-hand side first).
    """

    def __init__(self, offsets, data):
        self.offsets = offsets
        self.data = data
        n = data.shape[1]
        self.shape = (n, n)
        # per diagonal: offset, entries inside the matrix, slices of x and out
        self._diagonals = []
        for k, row in zip(offsets.tolist(), data):
            lo, hi = max(0, -k), n - max(0, k)
            self._diagonals.append((k, row[lo:hi], slice(lo + k, hi + k), slice(lo, hi)))

    def __matmul__(self, x):
        out = np.zeros(self.shape[0])
        for _, entries, cols, rows in self._diagonals:
            out[rows] += entries * x[cols]
        return out

    def __mul__(self, scalar):
        if np.ndim(scalar) != 0:
            return NotImplemented
        return BandMatrix(self.offsets, scalar * self.data)

    __rmul__ = __mul__
    __array_ufunc__ = None  # numpy operands defer to these methods or fail

    def __add__(self, other):
        if self.offsets.tolist() != other.offsets.tolist():
            raise ValueError("band matrices with different diagonals cannot be added")
        return BandMatrix(self.offsets, self.data + other.data)

    def diagonal(self, k=0):
        for offset, entries, _, _ in self._diagonals:
            if offset == k:
                return entries.copy()
        return np.zeros(max(self.shape[0] - abs(k), 0))

    def toarray(self):
        # column j is the product with the unit vector e_j, exactly
        return np.column_stack([self @ e for e in np.eye(self.shape[0])])


def _get_matrix(mesh, which):
    """Mass or stiffness matrix on the interior unknowns, cached on the mesh.

    The first call builds both on one pattern, whose offsets they share:
    the element contributions between interior nodes, summed in element
    order by one bincount keyed on (diagonal, row).
    """
    if not mesh._matrices:
        nv = mesh.dimension + 1
        local = (np.ones((nv, nv)) + np.eye(nv)) / (nv * (nv + 1))
        # g_s . g_t for every vertex pair (s, t), one multiply and add per
        # axis; in 1D the single product is the matmul's bit for bit
        g = mesh.scaled_gradients.transpose(2, 0, 1)
        scale = math.factorial(mesh.dimension) ** 2 * mesh.measure
        element_values = {
            "mass": mesh.measure[:, None, None] * local,
            "stiffness": _dot(g[:, :, :, None], g[:, :, None, :]) / scale[:, None, None],
        }
        # interior index of every element vertex, -1 on the boundary
        m = mesh.num_interior
        el = np.where(mesh.boundary, -1, np.cumsum(~mesh.boundary) - 1)[mesh.elements]
        rows = np.repeat(el, nv, axis=1).ravel()
        cols = np.tile(el, (1, nv)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        rows, shift = rows[keep], (cols - rows)[keep] + (m - 1)
        present = np.bincount(shift, minlength=2 * m - 1) > 0
        diag = np.cumsum(present) - 1
        (offsets,) = _read_only(np.flatnonzero(present) - (m - 1))
        key = diag[shift] * m + rows
        for name, vals in element_values.items():
            data = np.bincount(key, vals.ravel()[keep], offsets.size * m)
            mesh._matrices[name] = BandMatrix(offsets, *_read_only(data.reshape(offsets.size, m)))
    return mesh._matrices[which]


def assemble_mass(mesh):
    """Mass matrix as a BandMatrix on the interior unknowns."""
    return _get_matrix(mesh, "mass")


def assemble_stiffness(mesh):
    """Stiffness matrix as a BandMatrix on the interior unknowns."""
    return _get_matrix(mesh, "stiffness")


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


def assemble_load(mesh, g, quad_order=DEFAULT_QUAD_ORDER):
    """Load vector (g, phi_i) on the interior unknowns by per-element quadrature.

    The callable receives one coordinate array per dimension, g(x) in 1D
    and g(x, y) in 2D.  quad_order counts quadrature points per element.
    """
    lam, xq, wq = mesh.quadrature(quad_order)
    weighted = (wq * g(*xq)).T
    return _interior_sum(mesh, (_dot(weighted, lam_s) for lam_s in lam.T))


def assemble_grad_load(mesh, grad, quad_order=DEFAULT_QUAD_ORDER):
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


def spd_solve(matrix, rhs, tol=DEFAULT_TOL, x0=None, max_iter=None, precond=None):
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


def l2_projection(mesh, g):
    """L2 projection of g onto the P1 space with zero boundary values."""
    b = assemble_load(mesh, g)
    x, _ = spd_solve(assemble_mass(mesh), b, precond=mesh.preconditioner(1.0, 0.0))
    return FeFunction(x, mesh)


def ritz_projection(mesh, grad):
    """Ritz projection determined by the gradient of the target function.

    Solves (grad u_h, grad phi_i) = (grad g, grad phi_i) for all interior i;
    on a 1D mesh this reproduces the nodal interpolant of g.
    """
    b = assemble_grad_load(mesh, grad)
    x, _ = spd_solve(assemble_stiffness(mesh), b, precond=mesh.preconditioner(0.0, 1.0))
    return FeFunction(x, mesh)


def _element_gradients(mesh, coeffs):
    """Gradients of a block of P1 functions, one row of interior
    coefficients each, on every element: one array of shape (levels,
    n_elements) per axis."""
    # nodes first: take along the leading axis gathers fastest
    z = np.zeros((mesh.vertices.shape[0], coeffs.shape[0]))
    z[mesh.interior_nodes] = coeffs.T
    zs = np.take(z, mesh.elements, axis=0).transpose(1, 2, 0)
    scale = math.factorial(mesh.dimension) * mesh.measure
    return [_dot(zs, g_k) / scale for g_k in mesh.scaled_gradients.transpose(2, 1, 0)]


def h1_seminorm_errors(mesh, coeffs, exact_grads, quad_order=DEFAULT_QUAD_ORDER):
    """H1 seminorms of a block of P1 functions minus given gradients.

    coeffs holds the interior coefficients of one function per row, shape
    (levels, num_interior); exact_grads holds, per axis, the exact
    gradients of the rows at the points of the quad_order rule, each of
    shape (levels, n_elements, nq).  Returns the errors, shape (levels,).
    Every row takes the operations of a block of one, so an error does
    not depend on the block it is evaluated in, bit for bit.
    """
    _, _, wq = mesh.quadrature(quad_order)
    axes = zip(_element_gradients(mesh, coeffs), exact_grads)
    # the products and sums of _dot(diffs, diffs), formed in place so that
    # no array beyond one difference per axis is held
    squares = None
    for grad_k, exact_k in axes:
        diff = grad_k[:, :, None] - exact_k
        diff *= diff
        squares = diff if squares is None else np.add(squares, diff, out=squares)
    squares *= wq
    return np.sqrt(np.maximum(squares.reshape(squares.shape[0], -1).sum(axis=1), 0.0))


def h1_seminorm_error(u, exact_grad, quad_order=DEFAULT_QUAD_ORDER):
    """H1 seminorm of u minus a function given by its gradient.

    exact_grad receives one coordinate array per dimension and returns the
    derivative in 1D, the pair of partial derivatives in 2D.  Evaluated as
    h1_seminorm_errors on a block of one.
    """
    _, xq, _ = u.mesh.quadrature(quad_order)
    exact = [exact_k[None] for exact_k in _axes(exact_grad(*xq), xq.shape)]
    return float(h1_seminorm_errors(u.mesh, u.coeffs[None], exact, quad_order)[0])


def l2_error(u, exact, quad_order=DEFAULT_QUAD_ORDER):
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
