"""The assembled P1 mass and stiffness matrices, the tests' reference.

The library never assembles them: it computes on their sine symbols
(fem_space.SineBasis).  The tests check those symbols, the solves and the
nodal formulas against the matrices built here by scipy.
"""

import functools
import math

import numpy as np


@functools.cache
def interior_matrix(mesh, which):
    """The "mass" or "stiffness" matrix on the interior unknowns, cached per
    mesh: all-node COO triplets summed by scipy's CSR conversion, then
    restricted to the interior rows and columns."""
    import scipy.sparse as sp

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
    n_nodes = mesh.vertices.shape[0]
    full = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    idx = mesh.interior_nodes
    restricted = full[idx, :][:, idx].tocsr()
    restricted.sort_indices()
    return restricted


def assemble_mass(mesh):
    """The mass matrix on the interior unknowns, as scipy CSR."""
    return interior_matrix(mesh, "mass")


def assemble_stiffness(mesh):
    """The stiffness matrix on the interior unknowns, as scipy CSR."""
    return interior_matrix(mesh, "stiffness")
