"""Piecewise-linear finite elements on intervals and the unit square.

Every element is a simplex: a 2-vertex interval in 1D, a 3-vertex triangle
in 2D.  Assembly, projections and error norms run one code path for both
dimensions, on the element measures and scaled P1 basis gradients each
mesh computes once, and on quadrature points each mesh builds once per
rule.  Every element loop runs over blocks of at most _ELEMENT_BLOCK
elements and adds in element order, so its temporaries scale with the
block (assembly on 66,248 triangles: 7.9 MB traced, 43.0 MB unblocked)
and its results do not depend on it.

Meshes carry homogeneous Dirichlet conditions by elimination: assembled
matrices, stored by their 3 (1D) or 7 (2D) diagonals, and load vectors live
on the interior unknowns only.  The 2D mesh is the structured triangulation
of the unit square obtained by cutting each cell of an Ms x Ms grid along
the same diagonal, giving 2*Ms**2 right triangles.  The discrete Laplacian
is never formed; inner products against it are taken through the stiffness
matrix.  A BandMatrix multiplies a block of functions, one per row, in one
product.  Every linear system a M + b A is solved by spd_solve, in the
mesh's sine basis.
"""

import functools
import math
from collections.abc import Mapping
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


@functools.cache
def _gauss_rule(npoints):
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    # reference element [0, 1] in barycentric form
    lam = 0.5 * (nodes + 1.0)
    return _read_only(np.column_stack([1.0 - lam, lam]), 0.5 * weights)


class _GaussRules(Mapping):
    """The Gauss-Legendre rules with 1 to 7 points, each built on first use:
    a 2D run never imports numpy.polynomial (8 modules, 1.7 MB)."""

    def __getitem__(self, npoints):
        if npoints not in range(1, 8):
            raise KeyError(npoints)
        return _gauss_rule(npoints)

    def __iter__(self):
        return iter(range(1, 8))

    def __len__(self):
        return 7


# {dimension: {points per element: (barycentric points (nq, d+1), weights)}};
# the weights sum to 1 and are scaled by the element measure.
QUADRATURE_RULES = {
    1: _GaussRules(),
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
_read_only(*(arr for rule in QUADRATURE_RULES[2].values() for arr in rule))
# the rule and the CG stopping tolerance (relative residual) the solver
# always uses; only an error evaluation may pick another rule
DEFAULT_QUAD_ORDER = 3
DEFAULT_TOL = 1e-12
# the largest interval mesh whose sine basis applies the transform as a
# dense matrix product instead of dst1
_DENSE_SINE_MAX_MS = 256
# elements per block of every element loop (Cuvelier, Japhet, Scarella 2016)
_ELEMENT_BLOCK = 4096


def _element_blocks(mesh):
    """Slices of at most _ELEMENT_BLOCK consecutive elements, in order."""
    n, size = mesh.elements.shape[0], _ELEMENT_BLOCK
    return [slice(lo, lo + size) for lo in range(0, n, size)]


class SpatialMesh:
    """Conforming P1 simplex mesh with Dirichlet boundary flags.

    The element geometry is computed on construction, the quadrature
    points on first use of each rule and the sine basis on first use;
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


def _is_uniform_grid(mesh):
    """Whether the mesh is build_spatial_mesh's grid, checked on its own
    arrays: per axis the np.linspace coordinates of the domain, x running
    fastest; the (Ms - 1)^d inner nodes as the only unknowns; and d! Ms^d
    elements whose node indices span (d - 1)(Ms + 1) + 1, as an interval
    (j, j + 1) does and a triangle that holds its cell's lower-left to
    upper-right diagonal."""
    ms, d = mesh.subdivisions, mesh.dimension
    if mesh.vertices.size != d * (ms + 1) ** d or mesh.num_interior != (ms - 1) ** d:
        return False
    # the span per column: 0.4 ms at Ms = 182, np.ptp over the short axis 4.5 ms
    nodes = mesh.elements.T
    span = functools.reduce(np.maximum, nodes) - functools.reduce(np.minimum, nodes)
    if nodes.shape[1] != math.factorial(d) * ms**d or not (span == (d - 1) * (ms + 1) + 1).all():
        return False
    lo, hi = mesh.domain[1:] if d == 1 else (0.0, 1.0)
    side = np.linspace(lo, hi, ms + 1)
    grid = mesh.vertices.reshape((ms + 1,) * d + (d,))
    # x runs fastest: coordinate k varies along grid axis d - 1 - k
    if not all((grid[..., k] == side.reshape((-1,) + (1,) * k)).all() for k in range(d)):
        return False
    # (Ms - 1)^d unknowns and no inner node on the boundary: the unknowns
    # are the inner nodes
    return not mesh.boundary.reshape((ms + 1,) * d)[(slice(1, -1),) * d].any()


class SineBasis:
    """The orthonormal DST-I basis T of a uniform mesh's interior unknowns.

    On the interval, with c_k = cos(k pi / Ms) and h = (b - a) / Ms, T
    diagonalizes the mass h/6 (1, 4, 1), symbols h/6 (4 + 2 c_k), and the
    stiffness (1/h) (-1, 2, -1), symbols (2 - 2 c_k) / h (Buzbee, Golub and
    Nielson 1970).  Up to _DENSE_SINE_MAX_MS elements T is a product with
    the dense sine matrix S, since dst1 costs several us per call in numpy's
    FFT wrapper (9 against 30 us at Ms = 128, 109 against 30 at Ms = 512);
    larger meshes call dst1 and keep no Ms^2 matrix.

    On the unit square T maps the row-major (Ms-1) x (Ms-1) grid X to
    S X S^T, the modes in odd-then-even order.  The stiffness has symbols
    (2 - 2 c_i) + (2 - 2 c_j), Mhat has h^2/12 (6 + 2 c_i + 2 c_j + 2 c_i c_j),
    and T M T^T adds (h^2/24) Shat (x) Shat, Shat = S D S^T.  Shat couples
    only modes of opposite parity, so it is [[0, B], [-B^T, 0]] and
    Shat E Shat^T takes four pairs of half-size products (0.31 ms at
    Ms = 182 against 0.37 ms for the dense one; 2 vCPUs).

    Attributes (read-only): sine, S with its rows in mode order, or None
    where dst1 is used; mass_symbol and stiffness_symbol, the diagonals of
    T M T^T and T A T^T, flattened in 2D; block, B in 2D, None in 1D.
    Raises ValueError on a mesh that is not build_spatial_mesh's grid, whose
    systems T does not diagonalize.
    """

    def __init__(self, mesh):
        ms, domain = mesh.subdivisions, mesh.domain
        if domain[0] not in ("interval", "unit_square"):
            raise ValueError(f"no sine basis on the domain {domain!r}")
        if not _is_uniform_grid(mesh):
            raise ValueError(f"no sine basis on a mesh that is not the uniform grid, Ms = {ms}")
        j = np.arange(1, ms)
        k = j if domain[0] == "interval" else np.concatenate([j[::2], j[1::2]])
        c = np.cos(k * math.pi / ms)
        self.sine = self.block = None
        if domain[0] == "unit_square" or ms <= _DENSE_SINE_MAX_MS:
            # reducing j * k mod 2 Ms first keeps each entry within about
            # one ulp: S @ S - I is 2e-15 at Ms = 182, 8e-15 unreduced
            self.sine = math.sqrt(2.0 / ms) * np.sin(np.pi * (np.outer(k, j) % (2 * ms)) / ms)
        if domain[0] == "interval":
            h = (domain[2] - domain[1]) / ms
            self.mass_symbol = h / 6.0 * (4.0 + 2.0 * c)
            self.stiffness_symbol = (2.0 - 2.0 * c) / h
        else:
            ci, cj = c[:, None], c[None, :]
            self.mass_symbol = ((6.0 + 2.0 * ci + 2.0 * cj + 2.0 * ci * cj) / (12 * ms**2)).ravel()
            self.stiffness_symbol = (4.0 - 2.0 * ci - 2.0 * cj).ravel()
            self._fold_scale = 1.0 / (24.0 * ms**2)
            # B = S_odd D S_even^T; row i of D Y is row i + 1 minus row i - 1 of Y
            padded = np.pad(self.sine[ms // 2 :].T, ((1, 1), (0, 0)))
            self.block = self.sine[: ms // 2] @ (padded[2:] - padded[:-2])
        _read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)))

    def to_sine(self, x):
        """The sine coefficients T x of the nodal coefficients x."""
        if self.block is not None:
            return (self.sine @ x.reshape(self.sine.shape) @ self.sine.T).ravel()
        return dst1(x) if self.sine is None else self.sine @ x

    def from_sine(self, e):
        """The nodal coefficients T^T e; the 1D T is symmetric."""
        if self.block is not None:
            return (self.sine.T @ e.reshape(self.sine.shape) @ self.sine).ravel()
        return self.to_sine(e)

    def _fold(self, e):
        """Shat E Shat^T for the grid E of sine coefficients, by blocks."""
        b, o = self.block, self.block.shape[0]
        e = e.reshape(self.sine.shape)
        out = np.empty(e.shape)
        np.matmul(b @ e[o:, o:], b.T, out=out[:o, :o])
        np.negative(b @ e[o:, :o] @ b, out=out[:o, o:])
        np.negative(b.T @ e[:o, o:] @ b.T, out=out[o:, :o])
        np.matmul(b.T @ e[:o, :o], b, out=out[o:, o:])
        return out.ravel()

    def system(self, a, b):
        """T (a M + b A) T^T as a function for spd_solve, and the inverse of
        its diagonal as the preconditioner: the exact inverse in 1D."""
        symbols = a * self.mass_symbol + b * self.stiffness_symbol
        inverse = 1.0 / symbols
        if self.block is None:
            return lambda e: symbols * e, lambda r: inverse * r
        scale = a * self._fold_scale
        return lambda e: scale * self._fold(e) + symbols * e, lambda r: inverse * r


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
    0 * inf = nan (step rejects a non-finite right-hand side first).  It
    multiplies every row of an operand of shape (levels, n) at once.
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
            cols, rows = (..., slice(lo + k, hi + k)), (..., slice(lo, hi))
            self._diagonals.append((k, row[lo:hi], cols, rows))

    def __matmul__(self, x):
        out = np.zeros(x.shape)
        for _, entries, cols, rows in self._diagonals:
            out[rows] += entries * x[cols]
        return out

    __array_ufunc__ = None  # numpy operands fail instead of broadcasting into it

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

    The first call builds both on one pattern, whose offsets they share.  A
    first pass over the element blocks marks the diagonals present; a second
    adds the element contributions between interior nodes into them with
    np.add.at, in element order from 0.0, as one bincount would.
    """
    if not mesh._matrices:
        nv = mesh.dimension + 1
        local = (np.ones((nv, nv)) + np.eye(nv)) / (nv * (nv + 1))
        # g_s . g_t for every vertex pair (s, t), one multiply and add per
        # axis; in 1D the single product is the matmul's bit for bit
        g = mesh.scaled_gradients.transpose(2, 0, 1)
        scale = math.factorial(mesh.dimension) ** 2 * mesh.measure
        # interior index of every node, -1 on the boundary
        m = mesh.num_interior
        index = np.where(mesh.boundary, -1, np.cumsum(~mesh.boundary) - 1)

        def pattern(blk):
            el = index[mesh.elements[blk]]
            rows = np.repeat(el, nv, axis=1).ravel()
            cols = np.tile(el, (1, nv)).ravel()
            keep = (rows >= 0) & (cols >= 0)
            return keep, rows[keep], (cols - rows)[keep] + (m - 1)

        present = np.zeros(2 * m - 1, dtype=bool)
        for blk in _element_blocks(mesh):
            present[pattern(blk)[2]] = True
        diag = np.cumsum(present) - 1
        (offsets,) = _read_only(np.flatnonzero(present) - (m - 1))
        data = {name: np.zeros(offsets.size * m) for name in ("mass", "stiffness")}
        for blk in _element_blocks(mesh):
            keep, rows, shift = pattern(blk)
            key = diag[shift] * m + rows
            np.add.at(data["mass"], key, (mesh.measure[blk, None, None] * local).ravel()[keep])
            stiffness = _dot(g[:, blk, :, None], g[:, blk, None, :]) / scale[blk, None, None]
            np.add.at(data["stiffness"], key, stiffness.ravel()[keep])
        for name, values in data.items():
            mesh._matrices[name] = BandMatrix(offsets, *_read_only(values.reshape(offsets.size, m)))
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


def assemble_load(mesh, g, quad_order=DEFAULT_QUAD_ORDER):
    """Load vector (g, phi_i) on the interior unknowns by per-element quadrature.

    The callable receives one coordinate array per dimension, g(x) in 1D
    and g(x, y) in 2D.  quad_order counts quadrature points per element.
    """
    lam, xq, wq = mesh.quadrature(quad_order)

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


def assemble_grad_load(mesh, grad, quad_order=DEFAULT_QUAD_ORDER):
    """Vector (grad g, grad phi_i) on the interior unknowns.

    grad receives one coordinate array per dimension and returns g' in 1D,
    (gx, gy) in 2D.
    """
    _, xq, wq = mesh.quadrature(quad_order)
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
    vector (an SPD approximate inverse).  Iterates until the residual
    ||rhs - A x|| is at most target, an absolute value.  Returns
    (x, iterations) and raises RuntimeError with the final residual if
    max_iter is exhausted, or naming the iteration at a breakdown, where
    the curvature p @ A p is not positive and finite.
    """
    r = np.array(rhs, dtype=float)
    n = r.shape[0]
    x = np.zeros(n)
    if max_iter is None:
        max_iter = 10 * n + 100
    res = np.linalg.norm(r)
    if res <= target:
        return x, 0
    z = precond(r)
    p = z.copy()
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
        f"CG did not reach the residual {target:.3e} within {max_iter} iterations; "
        f"final residual {res:.3e}"
    )


def spd_solve(mesh, a, b, r, target):
    """The solution e of (a M + b A) e = r on the mesh's interior unknowns,
    M and A the mass and stiffness, a, b >= 0 not both zero.

    CG from zero runs in the mesh's sine basis T (fast diagonalization;
    Lynch, Rice and Thomas 1964) on T r, with the operator T (a M + b A) T^T
    of SineBasis.system: a diagonal, plus one Kronecker term from the 2D
    mass, preconditioned by its diagonal, the exact inverse in 1D.  It
    stops once the residual is at most target, an absolute value; T is
    orthonormal, so in exact arithmetic the nodal residual has the same
    norm.  Callers pass a load, or the defect of an approximate solution
    under the assembled matrices and add e to it (defect correction;
    Stetter 1978).  Returns (e, iterations); CG's RuntimeError at a
    breakdown or after 10 n + 100 iterations propagates.
    """
    basis = mesh.sine_basis
    apply, precond = basis.system(a, b)
    rhs = basis.to_sine(r)
    del r  # frees a caller's temporary nodal defect for the length of CG
    e, iters = _cg(apply, precond, rhs, target)
    return basis.from_sine(e), iters


def l2_projection(mesh, g):
    """L2 projection of g onto the P1 space with zero boundary values."""
    load = assemble_load(mesh, g)
    e, _ = spd_solve(mesh, 1.0, 0.0, load, DEFAULT_TOL * np.linalg.norm(load))
    return FeFunction(e, mesh)


def ritz_projection(mesh, grad):
    """Ritz projection determined by the gradient of the target function.

    Solves (grad u_h, grad phi_i) = (grad g, grad phi_i) for all interior i;
    on a 1D mesh this reproduces the nodal interpolant of g.
    """
    load = assemble_grad_load(mesh, grad)
    e, _ = spd_solve(mesh, 0.0, 1.0, load, DEFAULT_TOL * np.linalg.norm(load))
    return FeFunction(e, mesh)


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


def l2_error(u, exact, quad_order=DEFAULT_QUAD_ORDER):
    """L2 norm of u minus a pointwise-evaluable function of one coordinate
    array per dimension."""
    mesh, nodal = u.mesh, u.nodal_values()
    lam, xq, wq = mesh.quadrature(quad_order)
    squares = np.empty(wq.shape)
    for blk in _element_blocks(mesh):
        zs = nodal[mesh.elements[blk]].T
        diff = np.column_stack([_dot(zs, lam_q) for lam_q in lam]) - exact(*xq[:, blk])
        np.multiply(wq[blk], diff**2, out=squares[blk])
    return math.sqrt(max(float(squares.sum()), 0.0))
