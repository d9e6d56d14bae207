"""P1 geometry, assembly, projections, error norms, and the preconditioned CG solver."""

import math

import numpy as np
import pytest

from fracwave import fem_space
from fracwave.fem_space import (
    QUADRATURE_RULES,
    FeFunction,
    SpatialMesh,
    _cg,
    assemble_grad_load,
    assemble_load,
    build_spatial_mesh,
    dst1,
    h1_seminorm_error,
    l2_error,
    l2_projection,
    ritz_projection,
    spd_solve,
)
from fracwave.mms_harness import example1_case, example2_case

from fe_reference import assemble_mass, assemble_stiffness


def test_interval_mesh_nodes():
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), 4)
    np.testing.assert_allclose(mesh.vertices, [k * math.pi / 4 for k in range(5)], rtol=1e-15)
    assert mesh.num_interior == 3
    assert build_spatial_mesh(("interval", 0.0, 1.0), 2).num_interior == 1


def test_unit_square_mesh_counts():
    mesh = build_spatial_mesh(("unit_square",), 2)
    assert mesh.vertices.shape == (9, 2)
    assert mesh.elements.shape == (8, 3)
    assert mesh.num_interior == 1
    fine = build_spatial_mesh(("unit_square",), 5)
    assert fine.elements.shape[0] == 2 * 25
    assert fine.num_interior == 16


def _cell_loop_elements(ms):
    """Triangles of the unit square mesh built cell by cell."""
    tris = []
    for j in range(ms):
        for i in range(ms):
            v00, v10 = j * (ms + 1) + i, j * (ms + 1) + i + 1
            v01, v11 = (j + 1) * (ms + 1) + i, (j + 1) * (ms + 1) + i + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.asarray(tris, dtype=np.int64)


@pytest.mark.parametrize("ms", [2, 3, 8, 182])
def test_unit_square_elements_match_the_cell_loop(ms):
    mesh = build_spatial_mesh(("unit_square",), ms)
    assert mesh.elements.dtype == np.int64
    assert np.array_equal(mesh.elements, _cell_loop_elements(ms))
    p = mesh.vertices[mesh.elements]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    assert (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0).all()


def test_mesh_rejects_degenerate():
    refused = [
        (("interval", 1.0, 1.0), 4, r"interval \(1.0, 1.0\) is empty"),
        (("interval", 1.0, 0.0), 4, r"interval \(1.0, 0.0\) is empty"),
        (("interval", 0.0, 1.0), 1, "need at least 2 elements per direction, got 1"),
        (("unit_square",), 1, "need at least 2 elements per direction, got 1"),
        (("disk", 1.0), 4, r"unknown domain descriptor \('disk', 1.0\)"),
    ]
    for build in (SpatialMesh, build_spatial_mesh):
        for domain, ms, message in refused:
            with pytest.raises(ValueError, match=message):
                build(domain, ms)


def test_mass_and_stiffness_rows_1d():
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 5)
    h = 0.2
    mass = assemble_mass(mesh).toarray()
    stiff = assemble_stiffness(mesh).toarray()
    np.testing.assert_allclose(np.diag(mass), 4 * h / 6, rtol=1e-14)
    np.testing.assert_allclose(np.diag(mass, 1), h / 6, rtol=1e-14)
    np.testing.assert_allclose(np.diag(stiff), 2 / h, rtol=1e-14)
    np.testing.assert_allclose(np.diag(stiff, 1), -1 / h, rtol=1e-14)


def test_stiffness_1d_entries_are_exact_reciprocals():
    # the 1D solves at large Ms turn a one-ulp change in these entries into
    # a change in the sixth digit of the printed orders
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), 8192)
    h = np.diff(mesh.vertices)
    stiff = assemble_stiffness(mesh)
    np.testing.assert_array_equal(stiff.diagonal(1), -1.0 / h[1:-1])
    np.testing.assert_array_equal(stiff.diagonal(), 1.0 / h[:-1] + 1.0 / h[1:])


def test_stiffness_diagonal_2d_coarse():
    # brute-force integration over the 8 incident triangles gives exactly 4
    mesh = build_spatial_mesh(("unit_square",), 2)
    stiff = assemble_stiffness(mesh).toarray()
    assert stiff.shape == (1, 1)
    assert stiff[0, 0] == pytest.approx(4.0, rel=1e-14)
    mass = assemble_mass(mesh).toarray()
    assert mass[0, 0] == pytest.approx(0.125, rel=1e-14)


def test_stiffness_2d_is_five_point_laplacian():
    # on the fixed-diagonal triangulation the diagonal couplings cancel,
    # leaving the (4, -1, -1, -1, -1) stencil on the interior grid
    import scipy.sparse as sp

    ms = 8
    mesh = build_spatial_mesh(("unit_square",), ms)
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(ms - 1, ms - 1))
    eye = sp.identity(ms - 1)
    five_point = (sp.kron(eye, t) + sp.kron(t, eye)).toarray()
    np.testing.assert_allclose(assemble_stiffness(mesh).toarray(), five_point, rtol=0, atol=1e-13)


def test_mass_total_is_domain_area():
    # the element measures are what every local mass matrix, whose entries
    # sum to 1, is scaled by
    interval = build_spatial_mesh(("interval", 0.0, math.pi), 7)
    assert interval.measure.sum() == pytest.approx(math.pi, rel=1e-13)
    square = build_spatial_mesh(("unit_square",), 3)
    assert square.measure.sum() == pytest.approx(1.0, rel=1e-13)
    for mesh in (interval, square):
        assert (mesh.measure > 0).all()


@pytest.mark.parametrize("domain,ms", [(("interval", 0.0, 1.0), 9), (("unit_square",), 4)])
def test_matrices_symmetric_positive(domain, ms):
    mesh = build_spatial_mesh(domain, ms)
    rng = np.random.default_rng(5)
    for matrix in (assemble_mass(mesh), assemble_stiffness(mesh)):
        dense = matrix.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-15)
        np.linalg.cholesky(dense)
        x = rng.standard_normal(mesh.num_interior)
        assert x @ (matrix @ x) > 0


def test_load_constant_1d():
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 5)
    np.testing.assert_allclose(assemble_load(mesh, lambda x: np.ones_like(x)), 0.2, rtol=1e-14)
    np.testing.assert_allclose(assemble_load(mesh, lambda x: np.zeros_like(x)), 0.0, atol=1e-15)


def test_load_constant_2d_coarse():
    mesh = build_spatial_mesh(("unit_square",), 2)
    vec = assemble_load(mesh, lambda x, y: np.ones_like(x))
    assert vec[0] == pytest.approx(0.25, rel=1e-13)


def test_load_matches_analytic_hat_integrals():
    # int sin(x) phi_i dx = sin(x_i) * 2 (1 - cos h) / h on a uniform mesh
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), 64)
    h = math.pi / 64
    vec = assemble_load(mesh, np.sin)
    xi = mesh.vertices[mesh.interior_nodes]
    expected = np.sin(xi) * 2.0 * (1.0 - math.cos(h)) / h
    np.testing.assert_allclose(vec, expected, rtol=1e-9)


def _barycentric_integral(alpha, d):
    """The mean of the barycentric monomial lambda^alpha over a d-simplex K:
    int_K lambda^alpha = d! |K| alpha! / (|alpha| + d)!."""
    alpha_factorial = math.prod(map(math.factorial, alpha))
    return math.factorial(d) * alpha_factorial / math.factorial(sum(alpha) + d)


def _exact_quadratic_load(mesh, g):
    """(g, phi_i) for a quadratic g, in closed form: on each element g in its
    barycentric Lagrange form, sum over vertices s of g(p_s) lambda_s
    (2 lambda_s - 1) plus sum over edges st of 4 g(m_st) lambda_s lambda_t,
    times the hat lambda_r, integrated monomial by monomial."""
    nv = mesh.dimension + 1
    unit = np.eye(nv, dtype=int)
    points = mesh.vertices.reshape(mesh.vertices.shape[0], -1)
    vec = np.zeros(mesh.vertices.shape[0])
    for nodes, measure in zip(mesh.elements, mesh.measure):
        p = points[nodes]
        # (exponents alpha, coefficient) of the Lagrange form
        terms = []
        for s in range(nv):
            terms += [(2 * unit[s], 2.0 * g(*p[s])), (unit[s], -g(*p[s]))]
        for s in range(nv):
            for t in range(s + 1, nv):
                terms.append((unit[s] + unit[t], 4.0 * g(*(0.5 * (p[s] + p[t])))))
        for r in range(nv):
            vec[nodes[r]] += measure * sum(
                c * _barycentric_integral(alpha + unit[r], mesh.dimension) for alpha, c in terms
            )
    return vec[mesh.interior_nodes]


def test_load_quadrature_exact_for_polynomials():
    square = build_spatial_mesh(("unit_square",), 3)
    g = lambda x, y: 1.0 + x * y - 2.0 * y**2
    np.testing.assert_allclose(
        assemble_load(square, g), _exact_quadratic_load(square, g), rtol=1e-14
    )
    # the hat at x_i against a cubic p: h p(x_i) + h^3 p''(x_i) / 12
    interval = build_spatial_mesh(("interval", 0.0, 1.0), 4)
    h = 0.25
    p = lambda x: x**3 - x
    xi = interval.vertices[interval.interior_nodes]
    np.testing.assert_allclose(
        assemble_load(interval, p), h * p(xi) + h**3 * 6.0 * xi / 12.0, rtol=1e-14
    )


@pytest.mark.parametrize(
    "dimension, npoints, degree", [(1, 1, 1), (1, 3, 5), (2, 1, 1), (2, 3, 2)]
)
def test_quadrature_rule_is_exact_to_its_degree(dimension, npoints, degree):
    lam, w = QUADRATURE_RULES[dimension][npoints]
    assert lam.shape == (npoints, dimension + 1) and w.shape == (npoints,)
    assert not lam.flags.writeable and not w.flags.writeable
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert w.sum() == pytest.approx(1.0, rel=0, abs=1e-15)
    # every barycentric monomial lambda^alpha with |alpha| <= degree
    for alpha in np.ndindex(*(degree + 1,) * (dimension + 1)):
        if sum(alpha) <= degree:
            mean = w @ np.prod(lam**np.array(alpha), axis=1)
            assert mean == pytest.approx(_barycentric_integral(alpha, dimension), rel=0, abs=1e-15)
    mesh = build_spatial_mesh(("interval", 0.0, 1.0) if dimension == 1 else ("unit_square",), 4)
    for missing in (2, 7):
        with pytest.raises(ValueError, match="available: \\[1, 3\\]"):
            mesh.quadrature(missing)


@pytest.mark.parametrize("domain", [("interval", 0.0, 1.0), ("unit_square",)])
def test_quadrature_is_built_once_per_rule(domain):
    mesh = build_spatial_mesh(domain, 4)
    first = mesh.quadrature(3)
    g = lambda *x: np.ones_like(x[0])
    assemble_load(mesh, g)
    l2_error(FeFunction(np.zeros(mesh.num_interior), mesh), g)
    again = mesh.quadrature(3)
    assert all(a is b for a, b in zip(first, again))
    assert mesh.quadrature(1)[1] is not first[1]


@pytest.mark.parametrize(
    "domain,ms",
    [(("interval", 0.0, math.pi), 37), (("interval", 0.0, math.pi), 8192),
     (("unit_square",), 8), (("unit_square",), 182)],
)
def test_scaled_gradients_satisfy_the_barycentric_identity(domain, ms):
    # lambda_s is affine with lambda_s(p_t) = delta_st, so its gradient
    # dotted with the edge p_t - p_0 is delta_st - delta_s0
    mesh = build_spatial_mesh(domain, ms)
    d = mesh.dimension
    p = mesh.vertices.reshape(mesh.vertices.shape[0], -1)[mesh.elements]
    products = np.einsum("esk,etk->est", mesh.scaled_gradients, p - p[:, :1])
    got = products / (math.factorial(d) * mesh.measure[:, None, None])
    eye = np.eye(d + 1)
    expected = np.broadcast_to(eye - eye[:, :1], got.shape)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "domain,ms",
    [(("interval", 0.0, math.pi), 37), (("interval", 0.0, math.pi), 8192),
     (("unit_square",), 8), (("unit_square",), 76), (("unit_square",), 182)],
)
def test_geometry_equals_the_per_element_jacobian_reference(domain, ms):
    # the mesh takes its Jacobian from per-axis gathers; the reference
    # gathers every element's vertices, shape (n_elements, d + 1, d)
    mesh = build_spatial_mesh(domain, ms)
    d = mesh.dimension
    p = mesh.vertices.reshape(mesh.vertices.shape[0], -1)[mesh.elements]
    jac = p[:, 1:] - p[:, :1]
    if d == 1:
        det = jac[:, 0, 0]
        adj_t = np.ones((1, 1, det.size))
    else:
        (j00, j01), (j10, j11) = jac.transpose(1, 2, 0)
        det = j00 * j11 - j01 * j10
        adj_t = np.array([[j11, -j10], [-j01, j00]])
    scaled = np.moveaxis(adj_t, -1, 0) * np.sign(det)[:, None, None]
    np.testing.assert_array_equal(mesh.measure, np.abs(det) / math.factorial(d))
    np.testing.assert_array_equal(
        mesh.scaled_gradients, np.concatenate([-scaled.sum(axis=1, keepdims=True), scaled], axis=1)
    )


@pytest.mark.parametrize("domain", [("interval", 0.0, 1.0), ("unit_square",)])
def test_cached_geometry_and_quadrature_are_read_only(domain):
    mesh = build_spatial_mesh(domain, 4)
    for arr in (mesh.measure, mesh.scaled_gradients, *mesh.quadrature(3)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_l2_projection_idempotent_on_p1():
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 8)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(mesh.num_interior)
    nodal = FeFunction(coeffs, mesh).nodal_values()
    proj = l2_projection(mesh, lambda x: np.interp(x, mesh.vertices, nodal))
    np.testing.assert_allclose(proj.coeffs, coeffs, atol=1e-11)


def test_l2_projection_residual():
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), 64)
    proj = l2_projection(mesh, np.sin)
    residual = assemble_mass(mesh) @ proj.coeffs - assemble_load(mesh, np.sin)
    assert np.max(np.abs(residual)) <= 1e-10


def test_ritz_projection_is_1d_interpolant():
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), 8)
    ritz = ritz_projection(mesh, np.cos)
    interp = np.sin(mesh.vertices[mesh.interior_nodes])
    np.testing.assert_allclose(ritz.coeffs, interp, atol=1e-7)


def test_ritz_projection_idempotent_on_p1():
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 6)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(mesh.num_interior)
    nodal = FeFunction(coeffs, mesh).nodal_values()
    slopes = (nodal[1:] - nodal[:-1]) / np.diff(mesh.vertices)

    def grad(x):
        idx = np.clip(np.searchsorted(mesh.vertices, x, side="right") - 1, 0, 5)
        return slopes[idx]

    ritz = ritz_projection(mesh, grad)
    np.testing.assert_allclose(ritz.coeffs, coeffs, atol=1e-11)


def test_ritz_projection_first_order_in_h1():
    errs = []
    for ms in (16, 32, 64):
        mesh = build_spatial_mesh(("interval", 0.0, math.pi), ms)
        ritz = ritz_projection(mesh, np.cos)
        errs.append(h1_seminorm_error(ritz, np.cos))
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.9 < rate < 1.1 for rate in rates)


@pytest.mark.parametrize("ms", [8, 32])
def test_2d_projections_with_the_grid_preconditioner_match_jacobi(ms):
    mesh = build_spatial_mesh(("unit_square",), ms)
    case = example2_case(1.5)
    g = lambda *x: case.u(*x, 0.7)
    grad = lambda *x: case.grad_u(*x, 0.7)
    pairs = [
        (l2_projection(mesh, g), assemble_mass(mesh), assemble_load(mesh, g)),
        (ritz_projection(mesh, grad), assemble_stiffness(mesh), assemble_grad_load(mesh, grad)),
    ]
    for proj, matrix, load in pairs:
        jacobi = _jacobi_pcg(matrix, load, np.zeros(mesh.num_interior))
        assert np.linalg.norm(proj.coeffs - jacobi) <= 1e-10 * np.linalg.norm(jacobi)
    # the sine basis diagonalizes the 5-point stiffness, so the grid
    # preconditioner is the exact inverse there
    load = pairs[1][2]
    _, iters = _nodal_solve(mesh, 0.0, 1.0, load, 1e-12 * np.linalg.norm(load))
    assert iters == 1


def test_h1_error_of_itself_vanishes():
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 7)
    rng = np.random.default_rng(9)
    u = FeFunction(rng.standard_normal(mesh.num_interior), mesh)
    nodal = u.nodal_values()
    slopes = (nodal[1:] - nodal[:-1]) / np.diff(mesh.vertices)

    def own_grad(x):
        idx = np.clip(np.searchsorted(mesh.vertices, x, side="right") - 1, 0, 6)
        return slopes[idx]

    assert h1_seminorm_error(u, own_grad) <= 1e-12


def test_l2_error_of_itself_vanishes_2d():
    mesh = build_spatial_mesh(("unit_square",), 4)
    rng = np.random.default_rng(9)
    u = FeFunction(rng.standard_normal(mesh.num_interior), mesh)
    assert l2_error(u, lambda x, y: _eval_p1(u, x, y)) <= 1e-12


def _eval_p1(u, x, y):
    """Evaluate a P1 function on the structured square mesh at query points."""
    mesh = u.mesh
    z = u.nodal_values()
    ms = mesh.subdivisions
    h = 1.0 / ms
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    i = np.clip((xx / h).astype(int), 0, ms - 1)
    j = np.clip((yy / h).astype(int), 0, ms - 1)
    xl = xx / h - i
    yl = yy / h - j

    def node(ii, jj):
        return z[jj * (ms + 1) + ii]

    lower = xl >= yl  # triangle (v00, v10, v11) under the cell diagonal
    v00, v10 = node(i, j), node(i + 1, j)
    v01, v11 = node(i, j + 1), node(i + 1, j + 1)
    out_lower = v00 + (v10 - v00) * xl + (v11 - v10) * yl
    out_upper = v00 + (v11 - v01) * xl + (v01 - v00) * yl
    return np.where(lower, out_lower, out_upper)


def test_h1_error_zero_function_against_sine():
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), 32)
    zero = FeFunction(np.zeros(mesh.num_interior), mesh)
    assert h1_seminorm_error(zero, np.cos) == pytest.approx(1.2533141373155003, rel=1e-6)


def test_h1_error_first_order_for_interpolant():
    errs = []
    for ms in (16, 32, 64):
        mesh = build_spatial_mesh(("interval", 0.0, math.pi), ms)
        interp = FeFunction(np.sin(mesh.vertices[mesh.interior_nodes]), mesh)
        errs.append(h1_seminorm_error(interp, np.cos))
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.9 < rate < 1.1 for rate in rates)


def test_h1_error_constant_depends_on_error_rule_2d():
    # the interpolation error of the ex2 shape on the fixed-diagonal mesh:
    # about 0.4867 h integrated accurately, about 0.3582 h under the
    # one-point (centroid) rule the 2D reference tables were measured with
    ms = 32
    mesh = build_spatial_mesh(("unit_square",), ms)
    x, y = mesh.vertices[mesh.interior_nodes].T
    interp = FeFunction(2.0 * (x - x**2) * (y - y**2), mesh)

    def grad(x, y):
        return 2.0 * (1.0 - 2.0 * x) * (y - y**2), 2.0 * (x - x**2) * (1.0 - 2.0 * y)

    assert ms * h1_seminorm_error(interp, grad, quad_order=3) == pytest.approx(0.4867, abs=1e-3)
    assert ms * h1_seminorm_error(interp, grad, quad_order=1) == pytest.approx(0.3582, abs=1e-3)


def test_l2_error_second_order_for_interpolant():
    errs = []
    for ms in (16, 32, 64):
        mesh = build_spatial_mesh(("interval", 0.0, math.pi), ms)
        interp = FeFunction(np.sin(mesh.vertices[mesh.interior_nodes]), mesh)
        errs.append(l2_error(interp, np.sin))
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.9 < rate < 2.1 for rate in rates)


def test_grad_load_matches_integration_by_parts():
    # (grad sin, grad phi_i) = (sin, phi_i) on (0, pi) interior hats
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), 48)
    h = math.pi / 48
    lhs = assemble_grad_load(mesh, np.cos)
    rhs = np.sin(mesh.vertices[mesh.interior_nodes]) * 2.0 * (1.0 - math.cos(h)) / h
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def _reference_interior_sum(mesh, local):
    vec = np.bincount(mesh.elements.ravel(), local.ravel(), mesh.vertices.shape[0])
    return vec[mesh.interior_nodes]


def _reference_load(mesh, g, q):
    lam, xq, wq = mesh.quadrature(q)
    weighted = wq * g(*xq)
    return _reference_interior_sum(mesh, np.sum(weighted[:, None, :] * lam.T, axis=2))


def _reference_grad_load(mesh, grad, q):
    _, xq, wq = mesh.quadrature(q)
    integral = np.sum(wq * np.reshape(grad(*xq), xq.shape), axis=2)
    scale = math.factorial(mesh.dimension) * mesh.measure
    local = np.einsum("esk,ke->es", mesh.scaled_gradients, integral) / scale[:, None]
    return _reference_interior_sum(mesh, local)


def _reference_h1_error(u, exact_grad, q):
    mesh = u.mesh
    _, xq, wq = mesh.quadrature(q)
    zs = u.nodal_values()[mesh.elements]
    scale = math.factorial(mesh.dimension) * mesh.measure
    grads = np.einsum("es,esk->ek", zs, mesh.scaled_gradients) / scale[:, None]
    diff = grads.T[:, :, None] - np.reshape(exact_grad(*xq), xq.shape)
    return math.sqrt(max(np.sum(wq * np.sum(diff**2, axis=0)), 0.0))


def _reference_l2_error(u, exact, q):
    lam, xq, wq = u.mesh.quadrature(q)
    uh = np.sum(u.nodal_values()[u.mesh.elements][:, None, :] * lam, axis=2)
    diff = uh - exact(*xq)
    return math.sqrt(max(np.sum(wq * diff**2), 0.0))


@pytest.mark.parametrize(
    "domain,ms",
    [
        (("interval", 0.0, math.pi), 37),
        (("interval", 0.0, math.pi), 8192),
        (("unit_square",), 32),
        (("unit_square",), 76),
    ],
)
def test_quadrature_kernels_equal_the_broadcast_formulation_bit_for_bit(domain, ms):
    # the broadcast product, np.sum over the short axis, np.reshape of the
    # gradient tuple and bincount, as the kernels were first written; only
    # h1_seminorm_error takes a rule other than the default
    q = fem_space.DEFAULT_QUAD_ORDER
    mesh = build_spatial_mesh(domain, ms)
    case = example1_case(1.5) if mesh.dimension == 1 else example2_case(1.5)
    u = FeFunction(np.random.default_rng(ms).standard_normal(mesh.num_interior), mesh)
    for t in (0.3, 1.0):
        f = lambda *x: case.f(*x, t)
        grad = lambda *x: case.grad_u(*x, t)
        stacked_grad = lambda *x: np.array(case.grad_u(*x, t))
        exact = lambda *x: case.u(*x, t)
        assert np.array_equal(assemble_load(mesh, f), _reference_load(mesh, f, q))
        for g in (grad, stacked_grad):
            assert np.array_equal(assemble_grad_load(mesh, g), _reference_grad_load(mesh, g, q))
            for rule in QUADRATURE_RULES[mesh.dimension]:
                assert h1_seminorm_error(u, g, rule) == _reference_h1_error(u, g, rule)
        assert l2_error(u, exact) == _reference_l2_error(u, exact, q)


@pytest.mark.parametrize(
    "domain,ms",
    [
        (("interval", 0.0, math.pi), 37),
        (("interval", 0.0, math.pi), 8192),
        (("unit_square",), 32),
        (("unit_square",), 76),
    ],
)
def test_quadrature_kernels_in_blocks_of_7_elements_change_no_bit(monkeypatch, domain, ms):
    # block boundaries then fall inside every mesh
    mesh = build_spatial_mesh(domain, ms)
    u = FeFunction(np.random.default_rng(ms).standard_normal(mesh.num_interior), mesh)
    case = example1_case(1.5) if mesh.dimension == 1 else example2_case(1.5)
    grad = case.grad_parts[1]
    residual = fem_space.ritz_residual(u, grad)
    monkeypatch.setattr(fem_space, "_ELEMENT_BLOCK", 7)
    assert np.array_equal(fem_space.ritz_residual(u, grad), residual)
    test_quadrature_kernels_equal_the_broadcast_formulation_bit_for_bit(domain, ms)


@pytest.mark.parametrize(
    "domain,ms",
    [
        (("interval", 0.0, math.pi), 37),
        (("interval", 0.0, math.pi), 8192),
        (("unit_square",), 76),
        (("unit_square",), 182),
    ],
)
def test_quadrature_points_equal_the_einsum_bit_for_bit(domain, ms):
    mesh = build_spatial_mesh(domain, ms)
    p = mesh.vertices.reshape(mesh.vertices.shape[0], -1)[mesh.elements]
    for q, (lam, _) in QUADRATURE_RULES[mesh.dimension].items():
        expected = np.einsum("esd,qs->deq", p[:, 1:] - p[:, :1], lam[:, 1:])
        expected += p[:, 0].T[:, :, None]
        assert np.array_equal(mesh.quadrature(q)[1], expected)


def _jacobi_cg(matrix, rhs, target, **kwargs):
    """_cg on a matrix, with its inverse diagonal as the preconditioner."""
    inverse = 1.0 / matrix.diagonal()
    return _cg(matrix.__matmul__, lambda r: inverse * r, rhs, target, **kwargs)


def _jacobi_pcg(matrix, rhs, x0):
    """x0 plus the Jacobi-PCG correction from its defect, to
    ||rhs - matrix @ x|| <= 1e-12 ||rhs||: the nodal oracle of the
    sine-basis solves."""
    e, _ = _jacobi_cg(matrix, rhs - matrix @ x0, 1e-12 * np.linalg.norm(rhs))
    return x0 + e


def _nodal_solve(mesh, a, b, r, target):
    """spd_solve on nodal coefficients: r transformed in, e back out."""
    basis = mesh.sine_basis
    e, iters = spd_solve(mesh, a, b, basis.to_sine(r), target)
    return basis.from_sine(e), iters


def test_spd_solve_identity():
    import scipy.sparse as sp

    eye = sp.identity(6, format="csr")
    rhs = np.arange(6.0)
    x, iters = _jacobi_cg(eye, rhs, 1e-12 * np.linalg.norm(rhs))
    np.testing.assert_allclose(x, rhs, rtol=1e-13)
    assert iters <= 1


def test_spd_solve_stiffness_constructed():
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 12)
    a = assemble_stiffness(mesh)
    ones = np.ones(mesh.num_interior)
    x, _ = _jacobi_cg(a, a @ ones, 1e-12 * np.linalg.norm(a @ ones))
    np.testing.assert_allclose(x, ones, atol=1e-10)


def test_spd_solve_against_dense_oracle():
    rng = np.random.default_rng(0)
    import scipy.sparse as sp

    m = rng.standard_normal((50, 50))
    dense = m @ m.T + 50 * np.eye(50)
    rhs = rng.standard_normal(50)
    expected = np.linalg.solve(dense, rhs)
    x, iters = _jacobi_cg(sp.csr_matrix(dense), rhs, 1e-12 * np.linalg.norm(rhs))
    np.testing.assert_allclose(x, expected, atol=1e-10)
    assert iters >= 1


def test_spd_solve_zero_rhs():
    def never(_):
        raise AssertionError("CG applied an operator to a zero right-hand side")

    x, iters = _cg(never, never, np.zeros(3), 0.0)
    assert iters == 0
    np.testing.assert_array_equal(x, 0.0)


def test_spd_solve_warm_start_skips_work():
    # the defect of a solved system needs no iteration
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 12)
    a = assemble_stiffness(mesh)
    rhs = np.sin(np.arange(mesh.num_interior))
    target = 1e-12 * np.linalg.norm(rhs)
    x, _ = _jacobi_cg(a, rhs, target)
    _, iters = _jacobi_cg(a, rhs - a @ x, target)
    assert iters == 0


def _allocating_cg(apply, precond, rhs, target):
    """_cg's loop as it was before its updates went in place: the oracle of
    the in-place loop."""
    r = np.array(rhs, dtype=float)
    x = np.zeros(r.shape[0])
    if math.sqrt(r @ r) <= target:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, 10 * r.shape[0] + 101):
        ap = apply(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if math.sqrt(r @ r) <= target:
            return x, it
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError("no convergence")


def test_in_place_cg_matches_the_allocating_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((60, 60))
    dense = m @ m.T + 60 * np.eye(60)
    inverse = 1.0 / np.diag(dense)
    rhs = rng.standard_normal(60)
    for target in (1e-4 * np.linalg.norm(rhs), 1e-12 * np.linalg.norm(rhs)):
        expected = _allocating_cg(dense.__matmul__, lambda r: inverse * r, rhs, target)
        got = _cg(dense.__matmul__, lambda r: inverse * r, rhs, target)
        assert got[1] == expected[1] > 0 and np.array_equal(got[0], expected[0])
    # the 2D system against its allocating form, scale * fold + symbols * e
    mesh = build_spatial_mesh(("unit_square",), 32)
    basis = mesh.sine_basis
    r = rng.standard_normal(mesh.num_interior)
    for a, b in [(112.0, 1.3 / 112.0), (6.0, 0.2), (1.0, 0.0)]:
        symbols = a * basis.mass_symbol + b * basis.stiffness_symbol
        scale = a * basis._fold_scale
        expected = _allocating_cg(lambda e: scale * basis._fold(e) + symbols * e,
                                  lambda q: (1.0 / symbols) * q, r, 1e-12 * np.linalg.norm(r))
        got = _cg(*basis.system(a, b), r, 1e-12 * np.linalg.norm(r))
        assert got[1] == expected[1] > 1 and np.array_equal(got[0], expected[0])


def test_spd_solve_reports_iteration_breach():
    mesh = build_spatial_mesh(("unit_square",), 8)
    a = assemble_stiffness(mesh)
    rhs = np.ones(mesh.num_interior)
    with pytest.raises(RuntimeError, match="within 2 iterations"):
        _jacobi_cg(a, rhs, 1e-12 * np.linalg.norm(rhs), max_iter=2)


def test_spd_solve_stops_at_breakdown_without_warnings():
    import warnings

    import scipy.sparse as sp

    # Jacobi gives p = (1, -1) and A p = (1, 1): zero curvature at iteration 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="iteration 1"):
            _jacobi_cg(sp.diags([1.0, -1.0]).tocsr(), np.array([1.0, 1.0]), 1e-12)


@pytest.mark.parametrize("domain, ms", [(("interval", 0.0, math.pi), 37),
                                        (("interval", 0.0, math.pi), 512),
                                        (("unit_square",), 32)])
def test_spd_solve_meets_its_target_in_nodal_form(domain, ms):
    # the residual recomputed under the assembled matrices, not CG's
    # recursive one, is at most the absolute target
    mesh = build_spatial_mesh(domain, ms)
    rng = np.random.default_rng(ms)
    for a, b in [(1.0, 0.0), (0.0, 1.0), (112.0, 1.3 / 112.0)]:
        system = _band_system(mesh, a, b)
        r = rng.standard_normal(mesh.num_interior)
        for rel in (1e-4, 1e-8, 1e-12):
            target = rel * np.linalg.norm(r)
            e, iters = _nodal_solve(mesh, a, b, r, target)
            assert np.linalg.norm(r - system @ e) <= target
            assert iters >= 1


@pytest.mark.parametrize("domain", [("interval", 0.0, math.pi), ("unit_square",)])
def test_spd_solve_of_zero_is_zero_without_applying_the_operator(domain, monkeypatch):
    mesh = build_spatial_mesh(domain, 16)

    def never(_):
        raise AssertionError("the operator was applied to a zero right-hand side")

    monkeypatch.setattr(mesh.sine_basis, "system", lambda a, b: (never, never))
    e, iters = spd_solve(mesh, 1.0, 1.0, np.zeros(mesh.num_interior), 0.0)
    assert iters == 0
    np.testing.assert_array_equal(e, 0.0)


@pytest.mark.parametrize("ms", [37, 8192])
def test_interval_spd_solve_is_one_exact_inverse(ms):
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), ms)
    basis = mesh.sine_basis
    r = np.random.default_rng(ms).standard_normal(mesh.num_interior)
    for a, b in [(1.0, 0.0), (0.0, 1.0), (112.0, 1.3 / 112.0)]:
        e, iters = spd_solve(mesh, a, b, r, 0.0)
        assert iters == 1
        inverse = 1.0 / (a * basis.mass_symbol + b * basis.stiffness_symbol)
        assert np.array_equal(e, inverse * r)


@pytest.mark.parametrize("ms", [37, 8192])
def test_interval_spd_solve_is_the_system_preconditioner_bit_for_bit(ms, monkeypatch):
    # the interval path inverts the symbols without SineBasis.system's
    # closures, and takes ||r|| as math.sqrt(r @ r), np.linalg.norm's own sum
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), ms)
    basis = mesh.sine_basis
    r = np.random.default_rng(ms).standard_normal(mesh.num_interior)
    pairs = [(1.0, 0.0), (0.0, 1.0), (112.0, 1.3 / 112.0)]
    preconds = [basis.system(a, b)[1] for a, b in pairs]

    def no_system(a, b):
        raise AssertionError("the interval path built the system's closures")

    monkeypatch.setattr(basis, "system", no_system)
    for (a, b), precond in zip(pairs, preconds):
        e, iters = spd_solve(mesh, a, b, r, 0.0)
        assert iters == 1 and np.array_equal(e, precond(r))
    norm = np.linalg.norm(r)
    assert spd_solve(mesh, 1.0, 1.0, r, norm)[1] == 0
    assert spd_solve(mesh, 1.0, 1.0, r, np.nextafter(norm, 0.0))[1] == 1


@pytest.mark.parametrize("domain, ms", [(("interval", 0.0, math.pi), 37),
                                        (("interval", 0.0, math.pi), 8192),
                                        (("unit_square",), 9), (("unit_square",), 32)])
def test_sine_mass_and_stiffness_symbols_are_the_assembled_matrices(domain, ms):
    # the products a level makes in the sine basis, against the products
    # with the assembled reference; the basis takes the elements to be of length h,
    # which linspace's nodes miss by up to 6.8e-13 relative at Ms = 8192
    mesh = build_spatial_mesh(domain, ms)
    basis = mesh.sine_basis
    spread = np.abs(mesh.measure / mesh.measure.mean() - 1.0).max()
    x = np.random.default_rng(ms).standard_normal(mesh.num_interior)
    sine = basis.to_sine(x)
    for product, matrix in ((basis.mass(sine), assemble_mass(mesh)),
                            (basis.stiffness_symbol * sine, assemble_stiffness(mesh))):
        expected = matrix @ x
        gap = np.linalg.norm(basis.from_sine(product) - expected)
        assert gap <= (1e-13 + spread) * np.linalg.norm(expected)


def test_dst1_is_an_orthonormal_involution_equal_to_the_sine_matrix():
    n = 31
    k = np.arange(1, n + 1)
    sine = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    eye = np.eye(n)
    transform = dst1(eye)
    np.testing.assert_allclose(transform, sine, rtol=0, atol=1e-14)
    np.testing.assert_allclose(dst1(transform), eye, rtol=0, atol=1e-14)
    np.testing.assert_allclose(transform @ transform.T, eye, rtol=0, atol=1e-14)


def _grid_operators(ms):
    """5-point Laplacian and the diagonal-symmetrised mass stencil on the
    (ms-1)^2 interior grid, built as Kronecker sums without any transform."""
    import scipy.sparse as sp

    n = ms - 1
    eye = sp.identity(n)
    shift = sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1], shape=(n, n))
    tri = 2.0 * eye - shift
    lap = sp.kron(eye, tri) + sp.kron(tri, eye)
    mass = (6.0 * sp.identity(n * n) + sp.kron(eye, shift) + sp.kron(shift, eye)
            + 0.5 * sp.kron(shift, shift)) / (12.0 * ms**2)
    return mass.tocsr(), lap.tocsr()


@pytest.mark.parametrize("ms", [8, 9, 32])
def test_preconditioner_inverts_its_grid_operator(ms):
    mesh = build_spatial_mesh(("unit_square",), ms)
    mass_hat, lap_hat = _grid_operators(ms)
    # the stencils it diagonalizes: the stiffness itself, and a mass whose
    # rows away from the boundary sum to h^2 as the consistent mass rows do
    np.testing.assert_allclose(lap_hat.toarray(), assemble_stiffness(mesh).toarray(), atol=1e-13)
    i, j = np.divmod(np.arange(mesh.num_interior), ms - 1)
    deep = (i > 0) & (i < ms - 2) & (j > 0) & (j < ms - 2)
    for mass in (mass_hat, assemble_mass(mesh)):
        row_sums = mass @ np.ones(mesh.num_interior)
        np.testing.assert_allclose(row_sums[deep], ms**-2.0, rtol=1e-13)
    # in the sine basis the preconditioner inverts a Mhat + b Lhat
    basis = mesh.sine_basis
    x = np.random.default_rng(3).standard_normal(mesh.num_interior)
    for a, b in [(6.0, 0.2), (1e4, 1e-4), (0.0, 1.0)]:
        _, precond = basis.system(a, b)
        y = basis.from_sine(precond(basis.to_sine((a * mass_hat + b * lap_hat) @ x)))
        np.testing.assert_allclose(y, x, rtol=0, atol=1e-11)


def _fft_preconditioner(ms, a, b):
    """The preconditioner as first written: a DST-I by FFT along each axis."""
    c = np.cos(np.arange(1, ms) * math.pi / ms)
    ci, cj = c[:, None], c[None, :]
    mass = (6.0 + 2.0 * ci + 2.0 * cj + 2.0 * ci * cj) / (12.0 * ms**2)
    inverse = 1.0 / (a * mass + b * (4.0 - 2.0 * ci - 2.0 * cj))

    def dst2(grid):
        return dst1(dst1(grid).T).T

    return lambda r: dst2(dst2(r.reshape(inverse.shape)) * inverse).ravel()


def _mode_order(ms):
    """Grid indices of the sine modes 1, 3, 5, ... then 2, 4, ..., the order
    of the 2D sine basis."""
    return np.concatenate([np.arange(0, ms - 1, 2), np.arange(1, ms - 1, 2)])


@pytest.mark.parametrize("ms", [2, 3, 9, 32, 182])
def test_sine_matrix_preconditioner_equals_the_fft_transform(ms):
    mesh = build_spatial_mesh(("unit_square",), ms)
    basis = mesh.sine_basis
    order = _mode_order(ms)
    rng = np.random.default_rng(ms)
    for a, b in [(6.0, 0.2), (1e4, 1e-4), (1.0, 0.0), (0.0, 1.0)]:
        r = rng.standard_normal(mesh.num_interior)
        grid = dst1(dst1(r.reshape(ms - 1, ms - 1)).T).T
        transform = basis.to_sine(r)
        expected = grid[np.ix_(order, order)].ravel()
        assert np.linalg.norm(transform - expected) <= 1e-13 * np.linalg.norm(expected)
        # T^T Lambda^(-1) T, the preconditioner in nodal form
        expected = _fft_preconditioner(ms, a, b)(r)
        _, precond = basis.system(a, b)
        actual = basis.from_sine(precond(transform))
        assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("ms", [2, 9, 182, 512])
def test_sine_matrix_is_read_only_symmetric_and_orthonormal(ms):
    mesh = build_spatial_mesh(("unit_square",), ms)
    assert "sine_basis" not in vars(mesh)  # built on first use, then cached
    basis = mesh.sine_basis
    assert mesh.sine_basis is basis
    arrays = (basis.sine, basis.mass_symbol, basis.stiffness_symbol, basis.block)
    assert not any(arr.flags.writeable for arr in arrays)
    assert basis.sine.shape == (ms - 1, ms - 1)
    # its rows are those of S in odd-then-even mode order
    sine = basis.sine[np.argsort(_mode_order(ms))]
    assert np.array_equal(sine, sine.T)
    np.testing.assert_allclose(sine @ sine, np.eye(ms - 1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(sine, dst1(np.eye(ms - 1)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("domain, ms", [(("interval", 0.0, 1.0), 16), (("unit_square",), 8)])
def test_every_mesh_is_the_uniform_grid(domain, ms):
    # a mesh is built from its domain and Ms alone, so it is the grid whose
    # systems its sine basis diagonalizes, every element positively oriented
    mesh = SpatialMesh(domain, ms)
    grid = fem_space._grid(domain, ms)
    assert all(map(np.array_equal, (mesh.vertices, mesh.elements, mesh.boundary), grid))
    assert (mesh.measure > 0).all()


@pytest.mark.parametrize("ms", [2, 3, 8, 9, 76, 182])
def test_mass_is_mhat_plus_one_kronecker_term_that_folds_by_parity(ms):
    # M = Mhat + (h^2/24) D (x) D with D = tridiag(-1, 0, 1); 2 and 3 give
    # parity blocks that are empty or hold one mode
    import scipy.sparse as sp

    mesh = build_spatial_mesh(("unit_square",), ms)
    n = ms - 1
    mass_hat, _ = _grid_operators(ms)
    d = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [-1, 1], shape=(n, n)).toarray()
    x = np.random.default_rng(ms).standard_normal(mesh.num_interior)
    grid = x.reshape(n, n)
    expected = mass_hat @ x + (d @ grid @ d.T).ravel() / (24.0 * ms**2)
    mx = assemble_mass(mesh) @ x
    assert np.linalg.norm(mx - expected) <= 1e-13 * np.linalg.norm(mx)
    # Shat = S D S^T couples only modes of opposite parity; the folded
    # product by the odd-even block B equals the dense one
    basis = mesh.sine_basis
    shat = basis.sine @ d @ basis.sine.T
    odd = ms // 2
    assert np.abs(shat[:odd, :odd]).max(initial=0.0) <= 1e-15
    assert np.abs(shat[odd:, odd:]).max(initial=0.0) <= 1e-15
    np.testing.assert_allclose(shat[:odd, odd:], basis.block, rtol=0, atol=1e-14)
    dense = (shat @ grid @ shat.T).ravel()
    assert np.linalg.norm(basis._fold(x) - dense) <= 1e-14 * max(np.linalg.norm(dense), 1e-300)


def test_gauss_rules_equal_leggauss_bit_for_bit():
    rules = QUADRATURE_RULES[1]
    assert list(rules) == [1, 3]
    for npoints, (lam, w) in rules.items():
        nodes, weights = np.polynomial.legendre.leggauss(npoints)
        assert np.array_equal(lam[:, 1], 0.5 * (nodes + 1.0))
        assert np.array_equal(lam[:, 0], 1.0 - 0.5 * (nodes + 1.0))
        assert np.array_equal(w, 0.5 * weights)
        assert not lam.flags.writeable and not w.flags.writeable
    for missing in (0, 2, 8):
        assert missing not in rules
        with pytest.raises(ValueError, match="available: \\[1, 3\\]"):
            build_spatial_mesh(("interval", 0.0, 1.0), 4).quadrature(missing)


_NO_POLYNOMIAL_SCRIPT = """
import sys
from fracwave.mms_harness import example1_case, example2_case, run_single_case
run_single_case(example1_case(1.5), 4, 8)
run_single_case(example2_case(1.5), 4, 8)
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""


def test_no_run_imports_numpy_polynomial():
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(fem_space.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POLYNOMIAL_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"


def _band_system(mesh, a, b):
    """a M + b A on the reference matrices."""
    return a * assemble_mass(mesh) + b * assemble_stiffness(mesh)


@pytest.mark.parametrize("ms", [8, 256, 257, 8192])
def test_interval_preconditioner_is_the_exact_inverse(ms):
    # the DST-I diagonalizes the 1D mass and stiffness, so y = P r solves
    # (a M + b A) y = r to rounding: the normwise backward error
    # |r - S y| / (|S| |y| + |r|) in the max norm stays below 1e-12 (the
    # element lengths of a (0, pi) mesh differ from h by up to 1e-13);
    # T is dst1 at every size, with no sine matrix
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), ms)
    basis = mesh.sine_basis
    assert basis.sine is None and basis.block is None
    rng = np.random.default_rng(ms)
    for a, b in [(1.0, 0.0), (0.0, 1.0), (6.0, 0.2), (1e4, 1e-4), (1e-4, 1e4)]:
        system = _band_system(mesh, a, b)
        r = rng.standard_normal(mesh.num_interior)
        _, precond = basis.system(a, b)
        y = basis.from_sine(precond(basis.to_sine(r)))
        system_norm = abs(system).sum(axis=1).max()
        scale = system_norm * np.abs(y).max() + np.abs(r).max()
        assert np.abs(r - system @ y).max() <= 1e-12 * scale


@pytest.mark.parametrize("ms", [32, 76])
@pytest.mark.parametrize("d1", [6.0, 112.0, 1e4])
def test_dst_pcg_agrees_with_jacobi_pcg(ms, d1):
    mesh = build_spatial_mesh(("unit_square",), ms)
    kap = 1.3
    system = _band_system(mesh, d1, kap / d1)
    rng = np.random.default_rng(int(d1) + ms)
    x_true = np.sin(0.01 * np.arange(mesh.num_interior))
    x_true += 0.01 * rng.standard_normal(mesh.num_interior)
    rhs = system @ x_true
    x0 = x_true + 0.1 * rng.standard_normal(mesh.num_interior)
    x_jacobi = _jacobi_pcg(system, rhs, x0)
    e, iters = _nodal_solve(mesh, d1, kap / d1, rhs - system @ x0, 1e-12 * np.linalg.norm(rhs))
    x_dst = x0 + e
    assert np.linalg.norm(x_dst - x_jacobi) <= 1e-9 * np.linalg.norm(x_jacobi)
    assert 1 <= iters <= 20


@pytest.mark.parametrize("ms", [37, 8192])
@pytest.mark.parametrize("d1", [6.0, 112.0, 1e4])
def test_exact_interval_solve_agrees_with_jacobi_pcg(ms, d1):
    mesh = build_spatial_mesh(("interval", 0.0, math.pi), ms)
    kap = 1.3
    system = _band_system(mesh, d1, kap / d1)
    rng = np.random.default_rng(int(d1) + ms)
    x_true = np.sin(0.01 * np.arange(mesh.num_interior))
    x_true += 0.01 * rng.standard_normal(mesh.num_interior)
    rhs = system @ x_true
    x0 = x_true + 0.1 * rng.standard_normal(mesh.num_interior)
    x_jacobi = _jacobi_pcg(system, rhs, x0)
    e, iters = _nodal_solve(mesh, d1, kap / d1, rhs - system @ x0, 1e-12 * np.linalg.norm(rhs))
    x_dst = x0 + e
    assert np.linalg.norm(x_dst - x_jacobi) <= 1e-9 * np.linalg.norm(x_jacobi)
    assert np.linalg.norm(x_dst - x_true) <= 1e-10 * np.linalg.norm(x_true)
    # one exact inverse, reported as one iteration
    assert iters == 1


def test_fe_function_shape_guard():
    mesh = build_spatial_mesh(("interval", 0.0, 1.0), 4)
    with pytest.raises(ValueError):
        FeFunction(np.zeros(5), mesh)


def test_nodal_values_zero_on_boundary():
    mesh = build_spatial_mesh(("unit_square",), 3)
    u = FeFunction(np.ones(mesh.num_interior), mesh)
    z = u.nodal_values()
    assert z.shape == (16,)
    assert np.all(z[mesh.boundary] == 0.0)
    assert np.all(z[mesh.interior_nodes] == 1.0)
