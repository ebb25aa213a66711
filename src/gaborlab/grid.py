"""Uniform rectangular sampling of the time-frequency plane and fields on it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the most grid nodes, lattice points, cuts or points along cuts one
# computation may ask for, checked before anything of that size is allocated
WORK_BUDGET = 10**7
# the largest |coordinate| of a grid extent or an atom: every square stays finite
COORD_BOUND = 1e150
# the default trim level of a weighted domain, relative to its weight's maximum;
# here and not in spectral, so that a command's defaults read it without the solver
DEFAULT_FLOOR_REL = 1e-14


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
        if self.nx * self.nw > WORK_BUDGET:
            raise ValueError(f"a grid of {self.nx} x {self.nw} nodes (nx x nw) exceeds"
                             f" the work budget of {WORK_BUDGET:.0e} nodes")
        for name in ("x_min", "x_max", "w_min", "w_max"):  # NaN fails the test too
            if not abs(getattr(self, name)) <= COORD_BOUND:
                raise ValueError(f"grid extent {name} {getattr(self, name)!r} is not"
                                 f" within ±{COORD_BOUND:.0e}")
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


def _check_values(grid, values, dtype):
    values = np.asarray(values, dtype=dtype)
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


def disk_mask(grid, radius):
    """Nodes within radius of the origin; the squared node coordinates are
    broadcast over the axes: no mesh arrays."""
    return (grid.x_nodes() ** 2)[:, None] + grid.w_nodes() ** 2 <= radius * radius
