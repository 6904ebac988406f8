import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _spsolve_dirichlet(u):
    """Copy of ``u`` (..., ny, nx) with every interior solved from its rim by
    a sparse direct solve of the h²-scaled 5-point system, assembled node by
    node so that it shares no code with the library's solvers."""
    u = np.array(u, dtype=float)
    ny, nx = u.shape[-2:]
    idx = -np.ones((ny, nx), dtype=int)
    idx[1:-1, 1:-1] = np.arange((ny - 2) * (nx - 2)).reshape(ny - 2, nx - 2)
    rows, cols, vals = [], [], []
    for j in range(1, ny - 1):
        for i in range(1, nx - 1):
            for jj, ii, w in ((j, i, 4.0), (j - 1, i, -1.0), (j + 1, i, -1.0),
                              (j, i - 1, -1.0), (j, i + 1, -1.0)):
                if idx[jj, ii] >= 0:
                    rows.append(idx[j, i])
                    cols.append(idx[jj, ii])
                    vals.append(w)
    lap = sp.csc_matrix((vals, (rows, cols)), shape=(idx.max() + 1,) * 2)
    for v in u.reshape(-1, ny, nx):
        rim = np.where(idx < 0, v, 0.0)
        load = rim[:-2, 1:-1] + rim[2:, 1:-1] + rim[1:-1, :-2] + rim[1:-1, 2:]
        v[1:-1, 1:-1] = spla.spsolve(lap, load.ravel()).reshape(ny - 2, nx - 2)
    return u


@pytest.fixture
def spsolve_dirichlet():
    """Independent reference for the Dirichlet solves."""
    return _spsolve_dirichlet


def _base_solution_fields(hats):
    """(n, ny, nx) base solutions of the ``hats`` on their grid, hat k
    written as data 1 at walk node k and solved by the sparse reference."""
    walk = hats.nodes
    data = np.zeros((hats.n_boundary,) + hats.grid.shape)
    data[np.arange(hats.n_boundary), walk[:, 1], walk[:, 0]] = 1.0
    return _spsolve_dirichlet(data)


@pytest.fixture
def base_solution_fields():
    """Independent reference for the base solutions of the hats."""
    return _base_solution_fields


def _min_norm_coefficients(traces, w):
    """The minimum-norm b with ``V b = w`` for the (K, n) traces V of full
    row rank, by one QR of Vᵀ: ``b = Q R^-T w``; ``w`` (K,) or (K, k)."""
    q, r = np.linalg.qr(traces.T)
    return q @ np.linalg.solve(r.T, w)


@pytest.fixture(scope="session")
def min_norm_coefficients():
    """Reference for the hat coefficients b = V⁺w of ``b.csv``."""
    return _min_norm_coefficients


# Node layers around each Γ endpoint skipped when comparing against the series
# oracle: the boundary data jump there and pointwise accuracy degrades.
ORACLE_EXCLUSION_BAND = 3


def _gamma_endpoints(partition):
    """(k, 2) coordinates of the Γ nodes where Γ meets its complement,
    the ones with exactly one segment on Γ."""
    after, before = partition.gamma_links()
    return partition.gamma_points[after != before]


def _oracle_comparison_mask(fld, partition):
    """Interior nodes of the field's grid at least ORACLE_EXCLUSION_BAND*h
    from every endpoint of the partition's Γ."""
    g = fld.grid
    mask = np.zeros(g.shape, dtype=bool)
    mask[1:-1, 1:-1] = True
    endpoints = _gamma_endpoints(partition)
    if len(endpoints):
        xg, yg = g.meshgrid()
        dist2 = np.min(
            (xg[..., None] - endpoints[:, 0]) ** 2
            + (yg[..., None] - endpoints[:, 1]) ** 2,
            axis=-1,
        )
        mask &= dist2 >= (ORACLE_EXCLUSION_BAND * g.h) ** 2
    return mask


@pytest.fixture
def gamma_endpoints():
    """Endpoints of a partition's Γ."""
    return _gamma_endpoints


@pytest.fixture
def oracle_comparison_mask():
    """Nodes of an exponent field where the series oracle is compared."""
    return _oracle_comparison_mask
