"""Rectangles, uniform node-centered grids, and boundary bookkeeping.

Index contract
--------------
A grid over ``rect`` with spacing ``h`` has ``nx`` by ``ny`` nodes; node
``(i, j)`` sits at ``(x0 + i*h, y0 + j*h)``.  Field arrays are stored with
shape ``(ny, nx)`` and indexed ``values[j, i]``; the flat (CSV) order is
row-major by j then i, i.e. ``flat = j*nx + i``.  This contract is relied on
by every module and must not change.

Boundary nodes are enumerated once, counterclockwise, starting at
``(x0, y0)``: bottom row left-to-right, right column upward, top row
right-to-left, left column downward.  Each boundary node appears exactly
once in that sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

SIDES = ("bottom", "right", "top", "left")

# Outward unit normals of the four sides of an axis-aligned rectangle.
SIDE_NORMALS = {
    "bottom": (0.0, -1.0),
    "right": (1.0, 0.0),
    "top": (0.0, 1.0),
    "left": (-1.0, 0.0),
}


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (x0, y0) .. (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValidationError(
                f"degenerate rectangle: need x0 < x1 and y0 < y1, got {self}"
            )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def strictly_contains(self, other: "Rect") -> bool:
        return (
            self.x0 < other.x0
            and self.y0 < other.y0
            and other.x1 < self.x1
            and other.y1 < self.y1
        )

    def padded(self, p: float) -> "Rect":
        return Rect(self.x0 - p, self.y0 - p, self.x1 + p, self.y1 + p)


def _divisions(length: float, h: float, axis: str) -> int:
    n_real = length / h
    n = int(round(n_real)) if math.isfinite(n_real) else 0
    if n < 1 or abs(n_real - n) > 1e-9 * max(1.0, abs(n_real)):
        raise ValidationError(
            f"spacing h={h} does not divide the {axis}-extent {length} "
            f"(got {n_real} intervals)"
        )
    return n


@dataclass(frozen=True)
class Grid2D:
    """Uniform node-centered grid; construct via :func:`build_grid`."""

    rect: Rect
    h: float
    nx: int
    ny: int

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape of fields on this grid: (ny, nx)."""
        return (self.ny, self.nx)

    @property
    def xs(self) -> np.ndarray:
        return self.rect.x0 + self.h * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.rect.y0 + self.h * np.arange(self.ny)

    def nearest_node(self, x: float, y: float) -> tuple[int, int]:
        i = int(round((x - self.rect.x0) / self.h))
        j = int(round((y - self.rect.y0) / self.h))
        return (min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1))

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) coordinate arrays of shape (ny, nx)."""
        return np.meshgrid(self.xs, self.ys)


def build_grid(rect: Rect, h: float) -> Grid2D:
    """Build the uniform grid with spacing ``h``; ``h`` must divide both extents."""
    if h <= 0:
        raise ValidationError(f"grid spacing must be positive, got h={h}")
    nx = _divisions(rect.width, h, "x") + 1
    ny = _divisions(rect.height, h, "y") + 1
    return Grid2D(rect=rect, h=h, nx=nx, ny=ny)


def _boundary_walk(nx: int, ny: int) -> np.ndarray:
    """Counterclockwise (i, j) pairs of all boundary nodes, each exactly once."""
    bottom = [(i, 0) for i in range(nx)]
    right = [(nx - 1, j) for j in range(1, ny)]
    top = [(i, ny - 1) for i in range(nx - 2, -1, -1)]
    left = [(0, j) for j in range(ny - 2, 0, -1)]
    return np.array(bottom + right + top + left, dtype=np.int64)


def _side_of_node(i: int, j: int, nx: int, ny: int) -> str:
    # Corner tie-break: the horizontal sides own their corner nodes, so a
    # corner's label always points at the side with vertical normal.
    if j == 0:
        return "bottom"
    if j == ny - 1:
        return "top"
    if i == 0:
        return "left"
    return "right"


def _node_sides(i: int, j: int, nx: int, ny: int) -> set[str]:
    """All sides a boundary node geometrically belongs to (two at corners)."""
    sides = set()
    if j == 0:
        sides.add("bottom")
    if j == ny - 1:
        sides.add("top")
    if i == 0:
        sides.add("left")
    if i == nx - 1:
        sides.add("right")
    return sides


@dataclass(frozen=True)
class BoundaryPartition:
    """Ordered boundary nodes of a grid with quadrature weights and the Γ mask.

    nodes        (K, 2) int array of (i, j) pairs, counterclockwise.
    sigma        full-perimeter trapezoid arc weights; every node gets h
                 (half a segment from each of its two incident segments),
                 so sum(sigma) equals the perimeter.
    gamma_mask   bool per node, True on the measurement sides (corner nodes
                 of a flagged side included).
    gamma_sigma  trapezoid weights restricted to Γ: each node receives h/2
                 per *flagged* incident segment, so a run endpoint gets h/2
                 and sum(gamma_sigma) equals the arc length of Γ.
    """

    grid: Grid2D
    gamma_sides: frozenset
    nodes: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    gamma_mask: np.ndarray = field(repr=False)
    gamma_sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.nodes, self.sigma, self.gamma_mask, self.gamma_sigma):
            arr.setflags(write=False)

    @property
    def n_boundary(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        """Number of measurement (Γ) nodes."""
        return int(self.gamma_mask.sum())

    @property
    def gamma_nodes(self) -> np.ndarray:
        """(m, 2) int array of Γ node (i, j) pairs, in boundary order."""
        return self.nodes[self.gamma_mask]

    @property
    def gamma_points(self) -> np.ndarray:
        """(m, 2) float array of Γ node coordinates."""
        g = self.gamma_nodes
        return np.column_stack(
            [self.grid.rect.x0 + g[:, 0] * self.grid.h,
             self.grid.rect.y0 + g[:, 1] * self.grid.h]
        )

    def gamma_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward normal side assignment for every Γ node.

        Returns (sides, normals): sides is an array of side names, normals
        an (m, 2) float array.  A corner shared by a flagged and an
        unflagged side takes the flagged side's normal; a corner of two
        flagged sides takes the vertical normal (bottom/top tie-break).
        """
        nx, ny = self.grid.nx, self.grid.ny
        sides = []
        for i, j in self.gamma_nodes:
            label = _side_of_node(int(i), int(j), nx, ny)
            if label not in self.gamma_sides:
                incident = _node_sides(int(i), int(j), nx, ny) & self.gamma_sides
                label = sorted(incident)[0]
            sides.append(label)
        sides = np.array(sides)
        normals = np.array([SIDE_NORMALS[s] for s in sides], dtype=float)
        return sides, normals

    def gamma_runs(self) -> list[np.ndarray]:
        """Maximal contiguous runs of Γ nodes along the (circular) boundary walk.

        Each run is an index array into the Γ-node ordering (0..m-1).  Runs
        are the arcs on which tangential differences are taken; a run may
        wrap around the start of the walk.
        """
        mask = self.gamma_mask
        k = len(mask)
        if mask.all():
            return [np.arange(self.m)]
        # rotate so the walk starts just after a gap: runs never straddle 0
        start = 0
        while mask[(start - 1) % k]:
            start += 1
        order = (np.arange(k) + start) % k
        gamma_pos = np.full(k, -1)
        gamma_pos[np.where(mask)[0]] = np.arange(self.m)
        runs, current = [], []
        for idx in order:
            if mask[idx]:
                current.append(gamma_pos[idx])
            elif current:
                runs.append(np.array(current))
                current = []
        if current:
            runs.append(np.array(current))
        return runs

    @cached_property
    def tangential_d1(self) -> np.ndarray:
        """First-difference operator along Γ, (m, m), built once and read-only.

        Central differences inside each contiguous Γ run, one-sided at run
        endpoints, zero for an isolated node.  Arc-length spacing is h
        everywhere, including across corners inside a run.
        """
        m, h = self.m, self.grid.h
        d1 = np.zeros((m, m))
        for run in self.gamma_runs():
            if len(run) < 2:
                continue
            for pos, row in enumerate(run):
                if pos == 0:
                    d1[row, run[1]] += 1.0 / h
                    d1[row, run[0]] -= 1.0 / h
                elif pos == len(run) - 1:
                    d1[row, run[-1]] += 1.0 / h
                    d1[row, run[-2]] -= 1.0 / h
                else:
                    d1[row, run[pos + 1]] += 0.5 / h
                    d1[row, run[pos - 1]] -= 0.5 / h
        d1.setflags(write=False)
        return d1


def graph_norm(sigma: np.ndarray, d1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Γ graph norm ``sqrt(σ·v² + σ·(D1 v)²)`` of ``v`` (m,), or of each
    column of ``v`` (m, k), with σ the Γ quadrature weights and D1 the
    tangential difference operator."""
    dv = d1 @ v
    return np.sqrt(sigma @ (v * v) + sigma @ (dv * dv))


def boundary_partition(grid: Grid2D, gamma_sides) -> BoundaryPartition:
    """Enumerate the boundary and flag the measurement sides Γ.

    gamma_sides: iterable of side names from {"bottom", "right", "top", "left"}.
    Must be nonempty; Γ is the union of the named whole sides, endpoint
    (corner) nodes included.
    """
    sides = frozenset(gamma_sides)
    if not sides:
        raise ValidationError("Γ must be a nonempty open subset of the boundary")
    unknown = sides - set(SIDES)
    if unknown:
        raise ValidationError(f"unknown side name(s): {sorted(unknown)}")

    nx, ny, h = grid.nx, grid.ny, grid.h
    nodes = _boundary_walk(nx, ny)
    k = len(nodes)
    sigma = np.full(k, h)

    mask = np.array(
        [bool(_node_sides(int(i), int(j), nx, ny) & sides) for i, j in nodes]
    )

    # Γ-restricted trapezoid weights: h/2 per flagged incident segment.  The
    # segment after node p (counterclockwise) lies on the side of whichever
    # side both endpoints share.
    gamma_sigma = np.zeros(k)
    for p in range(k):
        q = (p + 1) % k
        seg_side = _node_sides(*map(int, nodes[p]), nx, ny) & _node_sides(
            *map(int, nodes[q]), nx, ny
        )
        if seg_side & sides:
            gamma_sigma[p] += 0.5 * h
            gamma_sigma[q] += 0.5 * h

    return BoundaryPartition(
        grid=grid,
        gamma_sides=sides,
        nodes=nodes,
        sigma=sigma,
        gamma_mask=mask,
        gamma_sigma=gamma_sigma[mask],
    )
