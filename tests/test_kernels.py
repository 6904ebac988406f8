import numpy as np
import pytest

from harmrec import Rect, boundary_partition, build_grid, solve_dirichlet
from harmrec.kernels import HAVE_NUMBA, cg_dirichlet, resolve_backend


def _harmonic_boundary(grid, part):
    pts = part.nodes
    x = grid.rect.x0 + pts[:, 0] * grid.h
    y = grid.rect.y0 + pts[:, 1] * grid.h
    return np.exp(x) * np.sin(y)


def test_resolve_backend_env_flag(monkeypatch):
    monkeypatch.delenv("HARMREC_NO_NUMBA", raising=False)
    assert resolve_backend(None) == ("numba" if HAVE_NUMBA else "numpy")
    monkeypatch.setenv("HARMREC_NO_NUMBA", "1")
    assert resolve_backend(None) == "numpy"
    assert resolve_backend("numpy") == "numpy"
    with pytest.raises(ValueError):
        resolve_backend("cuda")


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")
def test_numba_and_numpy_paths_agree():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 32)
    p = boundary_partition(g, ["bottom"])
    bv = _harmonic_boundary(g, p)
    a = solve_dirichlet(g, p, bv, tol=1e-12, method="cg", backend="numba").values
    b = solve_dirichlet(g, p, bv, tol=1e-12, method="cg", backend="numpy").values
    # not bit-identical (summation order differs) but equal to solver accuracy
    assert np.abs(a - b).max() < 1e-9


def test_cg_reports_iterations_and_residual():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    u = np.zeros(g.shape)
    u[p.nodes[:, 1], p.nodes[:, 0]] = _harmonic_boundary(g, p)
    iters, res = cg_dirichlet(u.copy(), 1e-10, max_iter=2, backend="numpy")
    assert iters == 2 and res > 1e-10
    iters, res = cg_dirichlet(u.copy(), 1e-10, max_iter=5000, backend="numpy")
    assert res <= 1e-10 * max(1.0, np.abs(u).max()) * 3
