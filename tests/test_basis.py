import numpy as np
import pytest

from harmrec import (ExpCos, Rect, ValidationError, assemble_system,
                     boundary_partition, build_basis, build_grid,
                     compute_base_solutions, discrete_norms, tangential_d1)
from harmrec.basis import BoundaryBasis
from harmrec.grid import SIDES


def test_hat_count_matches_reference_setup():
    # one padding layer at h=1/64: 66 intervals per side, 264 boundary hats
    tilde = Rect(-1 / 64, -1 / 64, 1 + 1 / 64, 1 + 1 / 64)
    basis = build_basis(tilde, 1 / 64, "hat", omega_rect=Rect(0, 0, 1, 1))
    assert basis.n == 264


def test_indicator_four_arcs_partition_boundary():
    tilde = Rect(-0.125, -0.125, 1.125, 1.125)
    basis = build_basis(tilde, 0.125, "indicator", omega_rect=Rect(0, 0, 1, 1))
    assert basis.n == 4
    total = sum(basis.boundary_values(k) for k in range(basis.n))
    assert np.array_equal(total, np.ones(basis.tilde_partition.n_boundary))


def test_hat_data_are_unit_vectors():
    tilde = Rect(-0.25, -0.25, 1.25, 1.25)
    basis = build_basis(tilde, 0.25, "hat", omega_rect=Rect(0, 0, 1, 1))
    v = basis.boundary_values(3)
    assert v.sum() == 1.0 and v[3] == 1.0


def test_strict_containment_required():
    with pytest.raises(ValidationError):
        build_basis(Rect(0, 0, 1, 1), 0.125, "hat", omega_rect=Rect(0, 0, 1, 1))
    with pytest.raises(ValidationError):
        build_basis(Rect(0, -0.125, 1.125, 1.125), 0.125, "hat",
                    omega_rect=Rect(0, 0, 1, 1))


def _small_setup(h=1 / 8, pad_layers=1, kind="hat", method="direct"):
    omega = Rect(0, 0, 1, 1)
    pad = pad_layers * h
    basis = build_basis(omega.padded(pad), h, kind, omega_rect=omega)
    base_set = compute_base_solutions(basis, tol=1e-11, method=method)
    grid = build_grid(omega, h)
    part = boundary_partition(grid, ["bottom"])
    return basis, base_set, grid, part


def test_whole_boundary_arc_gives_constant_one():
    omega = Rect(0, 0, 1, 1)
    tilde_grid = build_grid(omega.padded(0.125), 0.125)
    tilde_part = boundary_partition(tilde_grid, SIDES)
    basis = BoundaryBasis(tilde_grid=tilde_grid, tilde_partition=tilde_part,
                          kind="indicator",
                          support=np.array([[0, tilde_part.n_boundary]]))
    base_set = compute_base_solutions(basis, tol=1e-11, method="direct")
    assert np.abs(base_set.fields[0] - 1.0).max() < 1e-10
    part = boundary_partition(build_grid(omega, 0.125), ["bottom"])
    sys = assemble_system(base_set, part)
    assert np.abs(sys.A - 1.0).max() < 1e-10
    assert np.abs(sys.B).max() < 1e-10 / 0.125  # zero up to tol/h


def test_base_solutions_partition_of_unity_and_max_principle():
    basis, base_set, grid, part = _small_setup()
    n = basis.n
    total = base_set.fields.sum(axis=0)
    assert np.abs(total - 1.0).max() < n * 1e-11
    assert base_set.fields.min() > -1e-11
    assert base_set.fields.max() < 1.0 + 1e-11


def test_threaded_solves_match_serial():
    basis, base_set, _, _ = _small_setup(method="cg")
    threaded = compute_base_solutions(basis, tol=1e-11, method="cg", threads=4)
    assert np.array_equal(threaded.fields, base_set.fields)


def test_hat_stack_matches_sparse_reference_for_any_chunk(spsolve_dirichlet, monkeypatch):
    import harmrec.basis

    omega = Rect(0, 0, 1, 0.75)  # non-square, 11 x 9 enlarged nodes
    basis = build_basis(omega.padded(1 / 8), 1 / 8, "hat", omega_rect=omega)
    assert basis.n == 36 and basis.n % harmrec.basis.CHUNK  # last chunk is partial
    nodes = basis.tilde_partition.nodes
    data = np.zeros((basis.n,) + basis.tilde_grid.shape)
    for k in range(basis.n):
        data[k, nodes[:, 1], nodes[:, 0]] = basis.boundary_values(k)
    fields = compute_base_solutions(basis).fields
    assert np.abs(fields - spsolve_dirichlet(data)).max() <= 1e-12
    for chunk in (1, 5, 36, 100):
        monkeypatch.setattr(harmrec.basis, "CHUNK", chunk)
        assert np.array_equal(compute_base_solutions(basis).fields, fields)


def test_assembly_shapes_and_row_sums():
    basis, base_set, grid, part = _small_setup()
    sys = assemble_system(base_set, part)
    assert sys.A.shape == (part.m, basis.n)
    assert sys.B.shape == (part.m, basis.n)
    assert sys.C.shape == (basis.n, basis.n)
    assert np.abs(sys.A.sum(axis=1) - 1.0).max() < basis.n * 1e-11
    assert sys.sigma.shape == (part.m,)


def test_assembly_is_linear_in_basis_data():
    # a two-node arc equals the sum of its two single-node hats
    omega = Rect(0, 0, 1, 1)
    tilde_grid = build_grid(omega.padded(0.125), 0.125)
    tilde_part = boundary_partition(tilde_grid, SIDES)
    hats = BoundaryBasis(tilde_grid=tilde_grid, tilde_partition=tilde_part,
                         kind="hat", support=np.array([[4, 5], [5, 6]]))
    arc = BoundaryBasis(tilde_grid=tilde_grid, tilde_partition=tilde_part,
                        kind="indicator", support=np.array([[4, 6]]))
    part = boundary_partition(build_grid(omega, 0.125), ["bottom"])
    sys_h = assemble_system(compute_base_solutions(hats, method="direct"), part)
    sys_a = assemble_system(compute_base_solutions(arc, method="direct"), part)
    assert np.abs(sys_h.A.sum(axis=1) - sys_a.A[:, 0]).max() < 1e-10
    assert np.abs(sys_h.B.sum(axis=1) - sys_a.B[:, 0]).max() < 1e-9


def test_gram_penalty_positive_semidefinite():
    _, base_set, _, part = _small_setup()
    sys = assemble_system(base_set, part, reg_mode="gram")
    evals = np.linalg.eigvalsh(sys.C)
    assert evals.min() >= -1e-10


def test_diagonal_penalty_nonnegative():
    _, base_set, _, part = _small_setup()
    sys = assemble_system(base_set, part, reg_mode="diagonal")
    assert sys.C.ndim == 1
    assert (sys.C >= 0).all()


def test_misaligned_grids_rejected():
    basis, base_set, _, _ = _small_setup(h=1 / 8)
    shifted = boundary_partition(build_grid(Rect(0.01, 0, 1.01, 1), 1 / 8),
                                 ["bottom"])
    with pytest.raises(ValidationError):
        assemble_system(base_set, shifted)


def test_discrete_norms_constant_on_unit_side():
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 16), ["bottom"])
    c = 1.7
    h1, l2 = discrete_norms(np.full(part.m, c), part)
    assert abs(l2 - c) < 1e-12
    assert abs(h1 - c) < 1e-12


def test_discrete_norms_zero_and_mismatch():
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    h1, l2 = discrete_norms(np.zeros(part.m), part)
    assert h1 == 0.0 and l2 == 0.0
    with pytest.raises(ValidationError):
        discrete_norms(np.zeros(part.m + 1), part)


def test_discrete_norms_sine_matches_integrals():
    # int sin^2 = 1/2 and int (pi cos)^2 = pi^2/2 over the unit side
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 64), ["bottom"])
    x = part.gamma_points[:, 0]
    h1, _ = discrete_norms(np.sin(np.pi * x), part)
    target = 0.5 + np.pi**2 / 2
    assert abs(h1**2 - target) / target < 1e-3


def test_discrete_norms_g_channel():
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    f = np.zeros(part.m)
    g = np.full(part.m, 2.0)
    _, l2 = discrete_norms(f, part, g)
    assert abs(l2 - 2.0) < 1e-12


def test_tangential_d1_constant_and_linear():
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    d1 = tangential_d1(part)
    assert np.abs(d1 @ np.ones(part.m)).max() < 1e-13
    x = part.gamma_points[:, 0]
    assert np.abs(d1 @ x - 1.0).max() < 1e-12


def test_trace_error_decays_as_h_shrinks():
    # interpolate a harmonic field's boundary data into the hat basis and
    # compare its reconstructed trace on Γ against the exact trace; the
    # graph-norm error must at least halve when h halves (basis tied to h).
    exact = ExpCos(2.0, 0.1)
    errs = []
    for h in (1 / 8, 1 / 16):
        omega = Rect(0, 0, 1, 1)
        basis = build_basis(omega.padded(0.125), h, "hat", omega_rect=omega)
        base_set = compute_base_solutions(basis, tol=1e-11, method="direct")
        part = boundary_partition(build_grid(omega, h), ["bottom"])
        sys = assemble_system(base_set, part)
        walk = basis.tilde_partition.nodes
        bx = basis.tilde_grid.rect.x0 + walk[:, 0] * h
        by = basis.tilde_grid.rect.y0 + walk[:, 1] * h
        b = np.asarray(exact.value(bx, by))
        f_exact = np.asarray(exact.value(part.gamma_points[:, 0],
                                         part.gamma_points[:, 1]))
        h1, _ = discrete_norms(sys.A @ b - f_exact, part)
        errs.append(h1)
    assert errs[1] <= errs[0] / 2.0
