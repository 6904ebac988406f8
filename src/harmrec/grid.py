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
once in that sequence, and each segment between consecutive nodes lies on
one side.  :func:`boundary_partition` derives the Γ mask, weights, normals
and tangential difference from the side of each segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

SIDES = ("bottom", "right", "top", "left")

# Outward unit normals of the four sides, in SIDES order.
_NORMALS = np.array([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])


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


def _boundary_walk(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """The boundary walk: every boundary node once, counterclockwise from
    ``(0, 0)``, and the side of each segment.

    Returns ``(nodes, side)``: ``nodes`` is the (K, 2) int array of (i, j)
    pairs and ``side[p]`` the index into :data:`SIDES` of the segment from
    node p to node p + 1 (mod K).  This is the only place that lays out the
    walk; every other boundary quantity is derived from ``side``.
    """
    side = np.repeat(np.arange(4), [nx - 1, ny - 1, nx - 1, ny - 1])
    steps = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], dtype=np.int64)[side]
    nodes = np.concatenate([np.zeros((1, 2), np.int64), np.cumsum(steps[:-1], axis=0)])
    return nodes, side


@dataclass(frozen=True)
class BoundaryPartition:
    """Ordered boundary nodes of a grid with the Γ mask, weights and normals.

    nodes          (K, 2) int array of (i, j) pairs, counterclockwise.
    gamma_segments bool per node p: the segment from node p to the next lies
                   on Γ.  Every array below is derived from it.
    gamma_mask     bool per node, True when either of the node's segments
                   lies on Γ (so the corner nodes of a flagged side count).
    gamma_sigma    trapezoid weights on Γ, (m,): h/2 per flagged segment at
                   the node, so a run end gets h/2 and sum(gamma_sigma) is
                   the arc length of Γ.
    normal_side    (m,) index into SIDES of the side whose outward normal
                   each Γ node takes: the flagged side of its two segments,
                   the horizontal one (vertical normal) when both are.
    """

    grid: Grid2D
    gamma_sides: frozenset
    nodes: np.ndarray = field(repr=False)
    gamma_segments: np.ndarray = field(repr=False)
    gamma_mask: np.ndarray = field(repr=False)
    gamma_sigma: np.ndarray = field(repr=False)
    normal_side: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.nodes, self.gamma_segments, self.gamma_mask,
                    self.gamma_sigma, self.normal_side):
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

    def gamma_links(self) -> tuple[np.ndarray, np.ndarray]:
        """(after, before) bool per Γ node: the segment to the next, and
        from the previous, walk node lies on Γ.  A run end has exactly one."""
        seg = self.gamma_segments
        return seg[self.gamma_mask], np.roll(seg, 1)[self.gamma_mask]

    def gamma_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """(side names, (m, 2) outward unit normals) of the Γ nodes."""
        return np.array(SIDES)[self.normal_side], _NORMALS[self.normal_side]

    @cached_property
    def tangential_d1(self) -> np.ndarray:
        """First-difference operator along Γ, (m, m), built once and read-only.

        Central where both of a node's segments lie on Γ, one-sided where
        only one does.  Arc-length spacing is h everywhere, across corners
        too; with all four sides flagged Γ is a closed loop and D1 the
        circulant central difference.
        """
        m, h = self.m, self.grid.h
        after, before = self.gamma_links()
        pos = np.cumsum(self.gamma_mask) - 1  # Γ position of each walk node
        walk = np.flatnonzero(self.gamma_mask)
        nxt = pos[(walk + 1) % self.n_boundary]
        prv = pos[walk - 1]
        rows = np.arange(m)
        step = np.where(after & before, 0.5 / h, 1.0 / h)
        d1 = np.zeros((m, m))
        d1[rows, rows] = (before.astype(float) - after) / h
        d1[rows[after], nxt[after]] = step[after]
        d1[rows[before], prv[before]] = -step[before]
        d1.setflags(write=False)
        return d1


def graph_norm(sigma: np.ndarray, d1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Γ graph norm ``sqrt(σ·v² + σ·(D1 v)²)`` of ``v`` (m,), or of each
    column of ``v`` (m, k), with σ the Γ quadrature weights and D1 the
    tangential difference operator."""
    dv = d1 @ v
    return np.sqrt(sigma @ (v * v) + sigma @ (dv * dv))


def boundary_partition(grid: Grid2D, gamma_sides) -> BoundaryPartition:
    """Walk the boundary and flag the measurement sides Γ.

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

    nodes, seg_side = _boundary_walk(grid.nx, grid.ny)
    after = np.isin(seg_side, [SIDES.index(s) for s in sides])
    before = np.roll(after, 1)
    mask = after | before
    gamma_sigma = 0.5 * grid.h * (after.astype(float) + before)
    # a node takes the side of the flagged segment after it, unless only the
    # one before is flagged, or both are and the one after is vertical (odd
    # index in SIDES): at a corner of two measured sides the horizontal wins
    own = after & ~(before & (seg_side % 2 == 1))
    normal_side = np.where(own, seg_side, np.roll(seg_side, 1))
    return BoundaryPartition(
        grid=grid,
        gamma_sides=sides,
        nodes=nodes,
        gamma_segments=after,
        gamma_mask=mask,
        gamma_sigma=gamma_sigma[mask],
        normal_side=normal_side[mask],
    )
