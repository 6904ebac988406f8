"""Synthetic ground truth, boundary traces, and reproducible noise.

Exact solutions are harmonic by construction; their traces and outward
normal derivatives come from closed-form differentiation, never from grid
differences, so data error and discretization error stay decoupled.
:func:`draw_noise` draws a list of seeds in one pass of :mod:`rng`, each as
if alone and free of any level; :func:`noisy_batch` scales the draws to one
level's data, and :func:`add_noise` takes both steps for a list of records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .grid import BoundaryPartition, Grid2D, graph_norm
from .poisson import ScalarField
from .rng import normals, uniforms


@dataclass(frozen=True)
class ExpCos:
    """u = exp(a*x) * cos(a*(y + shift))."""

    a: float
    shift: float

    def value(self, x, y):
        return np.exp(self.a * np.asarray(x)) * np.cos(self.a * (np.asarray(y) + self.shift))

    def gradient(self, x, y):
        x, y = np.asarray(x), np.asarray(y)
        e = np.exp(self.a * x)
        return (
            self.a * e * np.cos(self.a * (y + self.shift)),
            -self.a * e * np.sin(self.a * (y + self.shift)),
        )


@dataclass(frozen=True)
class HarmonicPoly:
    """u = Re sum_k c_k z^k with z = x + iy; coeffs may be real or complex."""

    coeffs: tuple

    def value(self, x, y):
        z = np.asarray(x) + 1j * np.asarray(y)
        acc = np.zeros_like(z)
        for k, c in enumerate(self.coeffs):
            acc = acc + c * z**k
        return acc.real

    def gradient(self, x, y):
        z = np.asarray(x) + 1j * np.asarray(y)
        dz = np.zeros_like(z)
        for k, c in enumerate(self.coeffs):
            if k >= 1:
                dz = dz + k * c * z ** (k - 1)
        # u = Re f  =>  grad u = (Re f', -Im f')
        return dz.real, -dz.imag


@dataclass(frozen=True)
class Constant:
    c: float

    def value(self, x, y):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, self.c)

    def gradient(self, x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.zeros(shape), np.zeros(shape)


ExactSolution = ExpCos | HarmonicPoly | Constant


def sample_exact(exact: ExactSolution, grid: Grid2D) -> ScalarField:
    """Evaluate the exact solution at every grid node."""
    xg, yg = grid.meshgrid()
    return ScalarField(grid=grid, values=np.asarray(exact.value(xg, yg), dtype=float))


@dataclass(frozen=True)
class CauchyData:
    """Sampled boundary pairs (trace f, outward normal derivative g) on Γ.

    partition may be None for hand-built systems; it is required by
    add_noise (the realized data error needs the Γ quadrature).
    """

    partition: BoundaryPartition | None
    points: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    noise_level: float = 0.0
    seed: int = 0
    noise_model: str = "uniform"
    realized_eps: float = 0.0

    def __post_init__(self):
        if not (len(self.points) == len(self.f) == len(self.g)):
            raise ValidationError("points, f, g length mismatch")
        if self.realized_eps < 0:
            raise ValidationError("realized data error cannot be negative")
        for arr in (self.points, self.f, self.g):
            arr.setflags(write=False)


def trace_cauchy(exact: ExactSolution, partition: BoundaryPartition) -> CauchyData:
    """Clean boundary data of the exact solution on Γ."""
    pts = partition.gamma_points
    x, y = pts[:, 0], pts[:, 1]
    f = np.asarray(exact.value(x, y), dtype=float)
    ux, uy = exact.gradient(x, y)
    _, normals = partition.gamma_normals()
    g = np.asarray(ux, dtype=float) * normals[:, 0] + np.asarray(uy, dtype=float) * normals[:, 1]
    return CauchyData(partition=partition, points=pts, f=f, g=g)


class NoisyBatch(NamedTuple):
    """k data sets of one noise level: row i of the (k, m) f and g is set i's."""

    level: float
    f: np.ndarray
    g: np.ndarray


def draw_noise(seeds: list[int], m: int, model: str = "uniform") -> np.ndarray:
    """The (k, 2m) unit draws of the k ``seeds``, free of any level: f's m
    draws come first in a seed's stream, then g's.  Uniform draws ``2u - 1``
    lie in [-1, 1); gaussian draws are standard normals, two uniforms each."""
    if not isinstance(seeds, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ValidationError(f"seeds must be a list of integers, got {seeds!r}")
    if model not in ("uniform", "gaussian"):
        raise ValidationError(f"unknown noise model {model!r}")
    return (2.0 * uniforms(seeds, 2 * m) - 1.0 if model == "uniform"
            else normals(seeds, 2 * m))


def _perturbations(data: CauchyData, level: float, draws: np.ndarray):
    """(k, m) perturbations of f and g: the draws times level * sup|channel|."""
    m = len(data.f)
    return (level * np.abs(data.f).max(initial=0.0) * draws[:, :m],
            level * np.abs(data.g).max(initial=0.0) * draws[:, m:])


def noisy_batch(data: CauchyData, level: float, draws: np.ndarray) -> NoisyBatch:
    """The clean ``data`` perturbed at ``level`` by each row of
    :func:`draw_noise`'s draws, bit for bit :func:`add_noise`'s f and g."""
    df, dg = _perturbations(data, level, draws)
    return NoisyBatch(level, data.f + df, data.g + dg)


def add_noise(data: CauchyData, level: float, seeds: list[int],
              model: str = "uniform") -> list[CauchyData]:
    """Perturb both channels, scaled to ``level`` relative to each sup norm,
    once per seed: one CauchyData per entry of ``seeds``, in order, with the
    f and g of :func:`noisy_batch`.  The realized data error, which only
    ``run`` reports, combines the graph norm of the f perturbation with the
    plain quadrature norm of the g one.
    """
    # no level draws nothing, but the seeds and the model are checked at any level
    draws = draw_noise(seeds, 0 if level == 0 else len(data.f), model)
    if level < 0:
        raise ValidationError(f"noise level cannot be negative, got {level}")
    if data.partition is None:
        raise ValidationError("adding noise needs the data's partition, for the "
                              "realized data error's Γ quadrature")
    if level == 0:
        return [replace(data, noise_level=0.0, seed=s, noise_model=model,
                        realized_eps=0.0) for s in seeds]
    df, dg = _perturbations(data, level, draws)
    sigma, d1 = data.partition.gamma_sigma, data.partition.tangential_d1
    return [replace(data, f=data.f + dfi, g=data.g + dgi, noise_level=level,
                    seed=s, noise_model=model,
                    realized_eps=float(graph_norm(sigma, d1, dfi)
                                       + np.sqrt((sigma * dgi * dgi).sum())))
            for s, dfi, dgi in zip(seeds, df, dg)]
