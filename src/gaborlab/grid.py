"""Uniform rectangular sampling of the time-frequency plane and fields on it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TFGrid:
    """Uniform nx-by-nw node grid over [x_min, x_max] x [w_min, w_max].

    Nodes include both endpoints.  Each node owns a dx*dw quadrature cell
    centered on it, so the cells tile [x_min - dx/2, x_max + dx/2] x
    [w_min - dw/2, w_max + dw/2].
    """

    x_min: float
    x_max: float
    w_min: float
    w_max: float
    nx: int
    nw: int

    def __post_init__(self):
        if self.nx < 2 or self.nw < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        # also rejects bounds so close that the node spacing underflows and
        # nodes repeat
        for nodes in (self.x_nodes(), self.w_nodes()):
            if not np.all(np.diff(nodes) > 0):
                raise ValueError("grid nodes must be strictly increasing")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dw(self):
        return (self.w_max - self.w_min) / (self.nw - 1)

    @property
    def cell_area(self):
        return self.dx * self.dw

    @property
    def shape(self):
        return (self.nx, self.nw)

    @property
    def n_nodes(self):
        return self.nx * self.nw

    def x_nodes(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    def w_nodes(self):
        return np.linspace(self.w_min, self.w_max, self.nw)

    def mesh(self):
        """(X, W) arrays of shape (nx, nw); omega varies fastest in memory."""
        return np.meshgrid(self.x_nodes(), self.w_nodes(), indexing="ij")

    @staticmethod
    def cell_centered(x0, x1, w0, w1, nx, nw):
        """Grid whose nodes are the cell midpoints of an exact tiling of
        [x0, x1] x [w0, w1]; useful when the quadrature cells must cover a
        prescribed rectangle exactly (e.g. unit-square oracles)."""
        dx = (x1 - x0) / nx
        dw = (w1 - w0) / nw
        return TFGrid(x0 + dx / 2, x1 - dx / 2, w0 + dw / 2, w1 - dw / 2, nx, nw)


def _check_values(grid, values, dtype):
    values = np.asarray(values, dtype=dtype)
    if values.shape == (grid.n_nodes,):
        values = values.reshape(grid.shape)
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} != grid shape {grid.shape}")
    return values


@dataclass(frozen=True, eq=False)
class ComplexField:
    grid: TFGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, complex))

    def magnitude(self):
        return MagnitudeField(self.grid, np.abs(self.values))


@dataclass(frozen=True, eq=False)
class MagnitudeField:
    grid: TFGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _check_values(self.grid, self.values, float)
        if np.any(vals < 0):
            raise ValueError("magnitude field must be nonnegative")
        object.__setattr__(self, "values", vals)


def field_values(f):
    """Accept a field object or a bare array; return the value array."""
    return f.values if hasattr(f, "values") else np.asarray(f)


def require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def disk_mask(grid, radius, center=(0.0, 0.0)):
    # squared node offsets broadcast over the axes: no mesh arrays
    dw2 = (grid.w_nodes() - center[1]) ** 2
    return ((grid.x_nodes() - center[0]) ** 2)[:, None] + dw2 <= radius**2

