"""Benchmark the CG kernel backends: numba @njit vs pure-numpy slicing.

Runs the same Dirichlet solves through both code paths and reports wall
times, speedup, and the max difference between the solutions (they agree to
solver tolerance; they are not bit-identical because summation order
differs).

Usage: python benchmarks/bench_kernels.py [--sizes 64 128 256] [--repeat 3]
"""

import argparse
import time

import numpy as np

from harmrec import Rect, boundary_partition, build_grid, solve_dirichlet
from harmrec.kernels import HAVE_NUMBA


def bench_single_solves(sizes, repeat):
    print(f"{'grid':>10} {'numpy [s]':>12} {'numba [s]':>12} "
          f"{'speedup':>9} {'max diff':>11}")
    for n in sizes:
        g = build_grid(Rect(0.0, 0.0, 1.0, 1.0), 1.0 / n)
        p = boundary_partition(g, ["bottom"])
        x = g.rect.x0 + p.nodes[:, 0] * g.h
        y = g.rect.y0 + p.nodes[:, 1] * g.h
        bv = np.exp(x) * np.sin(y)

        def run(backend):
            solve_dirichlet(g, p, bv, tol=1e-10, method="cg", backend=backend)  # warm
            best = np.inf
            sol = None
            for _ in range(repeat):
                t0 = time.perf_counter()
                sol = solve_dirichlet(g, p, bv, tol=1e-10, method="cg", backend=backend)
                best = min(best, time.perf_counter() - t0)
            return best, sol.values

        t_np, u_np = run("numpy")
        if HAVE_NUMBA:
            t_nb, u_nb = run("numba")
            diff = np.abs(u_np - u_nb).max()
            print(f"{n + 1:>5}x{n + 1:<4} {t_np:>12.4f} {t_nb:>12.4f} "
                  f"{t_np / t_nb:>8.1f}x {diff:>11.2e}")
        else:
            print(f"{n + 1:>5}x{n + 1:<4} {t_np:>12.4f} {'n/a':>12} "
                  f"{'n/a':>9} {'n/a':>11}")


def bench_base_solution_batch(repeat):
    from harmrec import build_basis, compute_base_solutions

    omega = Rect(0.0, 0.0, 1.0, 1.0)
    h = 1.0 / 64.0
    basis = build_basis(omega.padded(h), h, "hat", omega_rect=omega)
    print(f"\nbase-solution batch: {basis.n} Dirichlet solves on a "
          f"{basis.tilde_grid.nx}x{basis.tilde_grid.ny} grid")
    for backend in (["numpy", "numba"] if HAVE_NUMBA else ["numpy"]):
        compute_base_solutions(basis, method="cg", backend=backend)  # warm
        best = np.inf
        for _ in range(repeat):
            t0 = time.perf_counter()
            compute_base_solutions(basis, method="cg", backend=backend)
            best = min(best, time.perf_counter() - t0)
        print(f"  {backend:>6}: {best:.3f} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    if not HAVE_NUMBA:
        print("numba is not importable; benchmarking the numpy path only")
    bench_single_solves(args.sizes, args.repeat)
    bench_base_solution_batch(args.repeat)


if __name__ == "__main__":
    main()
