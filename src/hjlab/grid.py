"""Space-time grids, discrete calculus and quadrature.

Everything downstream works on a uniform vertex-centered lattice over the
box [-R, R]^N x [0, T], optionally masked to the ball {|x| < R}.  One face
table, every face between two active face neighbours, holds the lattice's
connectivity.  The interior is the active nodes with all 2N faces; the
boundary layer, the nodes that carry Dirichlet/absorbing values, is the rest
of the active set (the rim of the box, the stair-step shell of the ball).
The Dirichlet Laplacian, the boundary faces and the Fokker-Planck transport
are all read from the table.  Fields are stored one array per time level;
all operators here are pure functions of field snapshots.  The module runs
on numpy alone.

Problem data (a coefficient h, a right-hand side f or g, a drift b) are
None, a number, callable(x, t) or a ScalarField/VectorField, and evaluate()
is the one place that reads them: at a set of points (a grid's nodes by
default) and times, linear in time between levels and multilinear in space,
with one bracketing rule (bracket) that takes a node or level exactly.  A
field on another grid is resampled when its grid covers the points and
times asked for, and is a ValueError naming both grids otherwise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericalFailure(RuntimeError):
    """Blow-up, CFL exhaustion or other runtime numerical failure (CLI exit 3)."""


def _is_integer(x, tol=1e-9):
    return abs(x - round(x)) <= tol * max(1.0, abs(x))


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time discretization of [-R, R]^N x [0, T].

    ball_mask restricts the active node set to {x : |x| < R}.
    """

    dim: int
    half_width: float
    dx: float
    horizon: float
    dt: float
    ball_mask: bool = False

    def validate(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not np.isfinite(self.dx) or self.dx <= 0:
            raise ValueError("dx must be positive")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError("dt must be positive")
        if not np.isfinite(self.half_width) or self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError("horizon must be positive")
        r = self.half_width / self.dx
        if not _is_integer(r) or round(r) < 2:
            raise ValueError("half_width/dx must be an integer >= 2")
        k = self.horizon / self.dt
        if not _is_integer(k) or round(k) < 2:
            raise ValueError("horizon/dt must be an integer >= 2")

    @property
    def nt(self) -> int:
        """Number of time steps (levels = nt + 1)."""
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class Cylinder:
    """Axis-aligned space-time cylinder; radius set => spatial ball about 0."""

    xmin: tuple
    xmax: tuple
    t0: float
    t1: float
    radius: float | None = None

    @property
    def dim(self):
        return len(self.xmin)

    def contains(self, x, t):
        """Whether (x, t) lies in the closed cylinder, up to 1e-12."""
        tol = 1e-12
        x = np.asarray(x, dtype=float)
        if t < self.t0 - tol or t > self.t1 + tol:
            return False
        if self.radius is not None:
            return float(np.linalg.norm(x)) < self.radius + tol
        return all(
            self.xmin[a] - tol <= x[a] <= self.xmax[a] + tol for a in range(self.dim)
        )

    def space_distance(self, x):
        """Euclidean distance from x to the spatial boundary of the cylinder."""
        x = np.asarray(x, dtype=float)
        if self.radius is not None:
            return self.radius - float(np.linalg.norm(x))
        side = min(
            min(x[a] - self.xmin[a], self.xmax[a] - x[a]) for a in range(self.dim)
        )
        return side


def centered_cylinder(R, tau, dim=1, ball=False) -> Cylinder:
    return Cylinder(
        xmin=tuple([-float(R)] * dim),
        xmax=tuple([float(R)] * dim),
        t0=0.0,
        t1=float(tau),
        radius=float(R) if ball else None,
    )


def parabolic_distance(point, Q: Cylinder, kind="d", alpha=None, gamma=None):
    """Distance from (x, t) in Q to the backward parabolic boundary of Q.

    kind "d"       : d(x, dOmega) + |t1 - t|^(1/2)
    kind "d_alpha" : d(x, dOmega)^alpha + |t1 - t|^(alpha/gamma)
    """
    x, t = point
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not Q.contains(x, t):
        raise ValueError(f"point {tuple(x.tolist())}, t={t} lies outside the cylinder")
    ds = max(Q.space_distance(x), 0.0)
    dtb = abs(Q.t1 - t)
    if kind == "d":
        return ds + np.sqrt(dtb)
    if kind == "d_alpha":
        if alpha is None or gamma is None:
            raise ValueError("kind d_alpha needs alpha and gamma")
        return ds ** alpha + dtb ** (alpha / gamma)
    raise ValueError(f"unknown distance kind {kind!r}")


class Grid:
    """Realized lattice: node coordinates, active mask, face table, interior and boundary layer."""

    def __init__(self, spec: GridSpec):
        spec.validate()
        self.spec = spec
        n = int(round(spec.half_width / spec.dx))
        axis = (np.arange(2 * n + 1) - n) * spec.dx
        self.axes = tuple([axis.copy() for _ in range(spec.dim)])
        self.ts = np.arange(spec.nt + 1) * spec.dt
        self.shape = tuple([len(a) for a in self.axes])
        mesh = np.meshgrid(*self.axes, indexing="ij")
        self.coords = np.stack(mesh, axis=-1)  # (*shape, dim)

        if spec.ball_mask:
            r2 = np.sum(self.coords ** 2, axis=-1)
            self.active = r2 < spec.half_width ** 2 - 1e-12
        else:
            self.active = np.ones(self.shape, dtype=bool)

        # The face table: every face between two active face neighbours, as
        # the flat (C-order) indices lo < hi of its ends and its axis.  The
        # interior is the active nodes with all 2N faces; the rest of the
        # active set is the boundary layer.
        flat = np.arange(self.active.size).reshape(self.shape)
        per_axis = []
        for a in range(spec.dim):
            below = (slice(None),) * a + (slice(None, -1),)
            above = (slice(None),) * a + (slice(1, None),)
            both = self.active[below] & self.active[above]
            per_axis.append((flat[below][both], flat[above][both], np.full(int(both.sum()), a)))
        self.faces = tuple(np.concatenate(c) for c in zip(*per_axis))
        lo, hi, _ = self.faces
        degree = np.bincount(np.concatenate((lo, hi)), minlength=self.active.size)
        self.interior = degree.reshape(self.shape) == 2 * spec.dim
        self.boundary = self.active & ~self.interior

        self._stencils = None

    # -- basic geometry ----------------------------------------------------

    @property
    def dim(self):
        return self.spec.dim

    @property
    def dx(self):
        return self.spec.dx

    @property
    def dt(self):
        return self.spec.dt

    @property
    def n_levels(self):
        return self.spec.nt + 1

    def cylinder(self) -> Cylinder:
        R = self.spec.half_width
        return centered_cylinder(R, self.spec.horizon, self.dim, self.spec.ball_mask)

    def nearest_node(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = []
        for a in range(self.dim):
            i = int(round((x[a] - self.axes[a][0]) / self.dx))
            idx.append(int(np.clip(i, 0, self.shape[a] - 1)))
        return tuple(idx)

    def subgrid_slices(self, half_width):
        """Index slices selecting the centered sub-box of given half width."""
        m = half_width / self.dx
        if not _is_integer(m):
            raise ValueError("sub half_width must be a node multiple of dx")
        n = int(round(self.spec.half_width / self.dx))
        m = int(round(m))
        if m > n:
            raise ValueError("sub half_width exceeds the grid")
        return tuple([slice(n - m, n + m + 1)] * self.dim)

    # -- the face table -----------------------------------------------------

    def interior_faces(self):
        """(lo, hi, axis) of the faces between two interior nodes, in table order."""
        lo, hi, axis = self.faces
        inner = self.interior.ravel()
        both = inner[lo] & inner[hi]
        return lo[both], hi[both], axis[both]

    def interior_neighbours(self) -> np.ndarray:
        """Flat indices of each interior node's face neighbours, shape (dim, 2, n_interior).

        [a, 0] is the neighbour below along axis a and [a, 1] the one above;
        interior nodes in C order.  Read from the face table, in which every
        interior node has one face on each side along each axis.
        """
        lo, hi, axis = self.faces
        out = np.empty((self.dim, 2, self.active.size), dtype=np.intp)
        out[axis, 0, hi] = lo
        out[axis, 1, lo] = hi
        return out[..., self.interior.ravel()]

    def boundary_face_nodes(self):
        """(inner, outer): flat indices of the interior and boundary ends of each face between the two.

        These faces carry the diffusive outflux.  Ordered by interior node in
        C order, then axis, then the lower side first.
        """
        lo, hi, axis = self.faces
        inner_lo = self.interior.ravel()[lo]
        cross = inner_lo != self.interior.ravel()[hi]
        lo, hi, axis, inner_lo = lo[cross], hi[cross], axis[cross], inner_lo[cross]
        inner, outer = np.where(inner_lo, lo, hi), np.where(inner_lo, hi, lo)
        order = np.argsort((inner * self.dim + axis) * 2 + inner_lo)
        return inner[order], outer[order]

    # -- Dirichlet Laplacian machinery --------------------------------------

    def laplacian_stencils(self):
        """(L, B) as Stencils, on numpy alone: Delta u|int = L @ u_int + B @ u_bnd.

        Interior and boundary nodes are numbered in C order.  Each face
        between interior nodes gives L its two off-diagonal 1/dx^2, each face
        from an interior to a boundary node one 1/dx^2 of B; the diagonal is
        2N subtractions of 1/dx^2 in sequence.
        """
        if self._stencils is None:
            is_int, is_bnd = self.interior.ravel(), self.boundary.ravel()
            n_int, n_bnd = int(is_int.sum()), int(is_bnd.sum())
            # each interior node's number among the interior, each boundary node's among the boundary
            number = np.where(is_int, np.cumsum(is_int), np.cumsum(is_bnd)) - 1
            inv_dx2 = 1.0 / self.dx ** 2
            diag = 0.0
            for _ in range(2 * self.dim):
                diag -= inv_dx2
            lo, hi, _ = self.interior_faces()
            r, c, k = number[lo], number[hi], np.arange(n_int)
            vals = np.concatenate((np.full(2 * len(r), inv_dx2), np.full(n_int, diag)))
            L = Stencil(np.concatenate((r, c, k)), np.concatenate((c, r, k)), vals, (n_int, n_int))
            inner, outer = self.boundary_face_nodes()
            B = Stencil(number[inner], number[outer], np.full(len(inner), inv_dx2), (n_int, n_bnd))
            self._stencils = (L, B)
        return self._stencils


class Stencil:
    """A sparse matrix in numpy: each row's columns and entries in column order, padded with zero entries.

    stencil @ x gathers every row's terms at once and sums them from 0 in
    column order, as scipy's compressed-sparse-row product adds a row, so it
    has that product's bits, NaN and infinities included; x is one vector or,
    as for a scipy matrix, several as columns.  A padding entry reads a zero
    appended to x.
    """

    def __init__(self, rows, cols, vals, shape):
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        self.shape = shape
        counts = np.bincount(rows, minlength=shape[0])
        at = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        # [k] holds each row's k-th entry
        self.cols = np.full((counts.max(initial=0), shape[0]), shape[1])
        self.vals = np.zeros(self.cols.shape)
        self.cols[at, rows] = cols
        self.vals[at, rows] = vals

    def __matmul__(self, x):
        x = np.concatenate((x, np.zeros((1,) + x.shape[1:])))
        terms = x.take(self.cols, axis=0)
        terms *= self.vals.reshape(self.vals.shape + (1,) * (x.ndim - 1))
        # from 0, term after term: a row holds at most 2N + 1 < 8 entries, which numpy's reduction adds in
        # sequence whichever axis it loops over first
        return np.add.reduce(terms, axis=0, initial=0.0)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.shape[0], self.shape[1] + 1))
        out[np.arange(self.shape[0]), self.cols] = self.vals
        return out[:, :-1]

    def upper_band(self) -> np.ndarray:
        """The upper triangle in LAPACK's band storage: out[kd + r - c, c] = self[r, c] for r <= c <= r + kd.

        kd, the widest reach of a row to its right, is len(out) - 1; the
        diagonal is the last row.  Slots outside the matrix or its entries
        hold 0.
        """
        rows = np.broadcast_to(np.arange(self.shape[0])[None], self.cols.shape)
        upper = (self.cols >= rows) & (self.cols < self.shape[1])
        r, c = rows[upper], self.cols[upper]
        kd = int((c - r).max(initial=0))
        out = np.zeros((kd + 1, self.shape[1]))
        out[kd + r - c, c] = self.vals[upper]
        return out


def make_grid(spec: GridSpec) -> Grid:
    """Validate the grid parameters and realize the lattice."""
    return Grid(spec)


# -- fields ------------------------------------------------------------------


@dataclass
class ScalarField:
    """One real value per active space-time node; shape (levels, *spatial)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_levels,) + self.grid.shape
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "ScalarField":
        """fn(x, t) on every node and level (evaluate), 0 on inactive nodes."""
        vals = evaluate(fn, grid)
        vals[:, ~grid.active] = 0.0
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "ScalarField":
        vals = np.full((grid.n_levels,) + grid.shape, float(c))
        vals[:, ~grid.active] = 0.0
        return cls(grid, vals)


@dataclass
class VectorField:
    """One N-vector per active node; shape (levels, *spatial, N)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_levels,) + self.grid.shape + (self.grid.dim,)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values ** 2, axis=-1))


# -- discrete calculus --------------------------------------------------------


def gradient_level(values: np.ndarray, dx: float, dim: int | None = None) -> np.ndarray:
    """Central differences interior, one-sided at the rim; exact for affine.

    The last dim axes are space (all axes by default); a leading axis, such
    as the levels of a field, is carried along.
    """
    lead = values.ndim - (values.ndim if dim is None else dim)
    comps = [np.gradient(values, dx, axis=a, edge_order=1) for a in range(lead, values.ndim)]
    return np.stack(comps, axis=-1)


def godunov_magnitude_gather(centre: np.ndarray, values: np.ndarray, neighbours: np.ndarray, dx: float) -> np.ndarray:
    """The monotone upwind surrogate of |Du| at chosen nodes, gathered from their face neighbours.

    Per axis max(backward-diff^+, -forward-diff^-), the Godunov selection for
    a convex Hamiltonian increasing in |p| under backward-in-time marching;
    the axes' squares are summed in axis order and the root taken.  centre
    holds the nodes' values; neighbours, shape (dim, 2) + centre.shape,
    indexes each node's neighbours below and above along each axis in
    values, flattened: at the interior nodes, centre = level[grid.interior],
    values = level.ravel() and neighbours = grid.interior_neighbours().
    centre (k, n) may so hold k fields as rows, read from the rows of a
    (k, m) values with neighbours offset by m per row, each gathered as if
    alone.  A NaN or an infinity in values gives a non-finite magnitude at
    the node or at the nodes it neighbours.  Steep or non-finite values make
    numpy warn of overflow and invalid operations unless the caller silences
    them, as a march does once for all its substeps.
    """
    # backward difference and negated forward difference, each at least 0
    diff = centre - values.take(neighbours)
    diff /= dx
    np.maximum(diff, 0.0, out=diff)
    g = np.maximum(diff[:, 0], diff[:, 1])
    g *= g
    total = g[0]
    for a in range(1, len(g)):
        total += g[a]
    return np.sqrt(total, out=total)


def time_derivative(u: ScalarField, levels: slice) -> np.ndarray:
    """du/dt on a run of levels that keeps one level clear of each end: central differences.

    Each is (u[k+1] - u[k-1]) / (2 dt), formed as np.gradient forms it at
    an inner level, so a level's value does not depend on the run.
    """
    k0, k1 = levels.start, levels.stop
    out = u.values[k0 + 1 : k1 + 1] - u.values[k0 - 1 : k1 - 1]
    out /= 2.0 * u.grid.dt
    return out


# -- quadrature ---------------------------------------------------------------


def _cell_weights(nodes: np.ndarray, h: float, lo: float, hi: float) -> np.ndarray:
    """Length of each node cell [x-h/2, x+h/2] clipped to [lo, hi]."""
    left = np.maximum(nodes - 0.5 * h, lo)
    right = np.minimum(nodes + 0.5 * h, hi)
    return np.maximum(right - left, 0.0)


def quadrature_weights(grid: Grid, sub: Cylinder | None = None):
    """(time weights, spatial weight array) for node-cell quadrature over sub."""
    if sub is None:
        sub = grid.cylinder()
    tw = _cell_weights(grid.ts, grid.dt, sub.t0, sub.t1)
    if grid.dim == 1:
        sw = _cell_weights(grid.axes[0], grid.dx, sub.xmin[0], sub.xmax[0])
    else:
        wx = _cell_weights(grid.axes[0], grid.dx, sub.xmin[0], sub.xmax[0])
        wy = _cell_weights(grid.axes[1], grid.dx, sub.xmin[1], sub.xmax[1])
        sw = np.outer(wx, wy)
    sel = grid.active.astype(float).copy()
    if sub.radius is not None:
        r2 = np.sum(grid.coords ** 2, axis=-1)
        sel *= (r2 < sub.radius ** 2 + 1e-12).astype(float)
    return tw, sw * sel


def lq_norm(u: ScalarField, q: float) -> float:
    """Space-time L^q norm over u's grid cylinder by node-cell quadrature.

    A field constant in time (its level axis of stride 0, as np.broadcast_to
    gives) raises one level to q, and spacetime_integral sums it once.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    values = u.values
    if values.strides[0] == 0:
        powered = np.broadcast_to(np.abs(values[0]) ** q, values.shape)
    else:
        powered = np.abs(values) ** q
    return spacetime_integral(u.grid, powered) ** (1.0 / q)


def _weighted_run(tw: np.ndarray) -> slice:
    run = np.flatnonzero(tw)
    return slice(int(run[0]), int(run[-1]) + 1) if len(run) else slice(0, 0)


def quadrature_levels(grid: Grid, sub: Cylinder | None = None) -> slice:
    """The levels of nonzero time weight over sub: a contiguous run, empty when sub holds no cell."""
    sub = grid.cylinder() if sub is None else sub
    return _weighted_run(_cell_weights(grid.ts, grid.dt, sub.t0, sub.t1))


def spacetime_integral(grid: Grid, level_values, sub: Cylinder | None = None) -> float:
    """Integral over sub of a per-level array stack: every level, or only quadrature_levels(grid, sub).

    The one quadrature: level k contributes tw[k] * sum(level_values[k] * sw),
    the per-level sums come from one reduction over the levels of nonzero
    weight (a contiguous run), and the contributions are added in level
    order to a running sum that starts at 0.  A stack constant in time (its
    level axis of stride 0, as np.broadcast_to gives) sums one level, and
    that sum stands for every weighted level's, with the same bits.  A stack
    of another length is a ValueError.
    """
    tw, sw = quadrature_weights(grid, sub)
    run = _weighted_run(tw)
    n = run.stop - run.start
    if len(level_values) == grid.n_levels:
        level_values = level_values[run]
    elif len(level_values) != n:
        raise ValueError(f"a stack of {len(level_values)} levels: want {grid.n_levels}, or the {n} weighted ones")
    if n == 0:
        return 0.0
    if level_values.strides[0] == 0:
        level_values = level_values[:1]
    sums = (level_values * sw).reshape(len(level_values), -1).sum(axis=1)
    return float(np.cumsum(np.concatenate(([0.0], tw[run] * sums)))[-1])


def space_integral(grid: Grid, values: np.ndarray) -> float:
    """Spatial integral of one level over the grid's spatial domain."""
    _, sw = quadrature_weights(grid)
    return float(np.sum(values * sw))


# -- interpolation --------------------------------------------------------------


def bracket(nodes, x, step: float):
    """(i, f): x lies the fraction f of the way from nodes[i] to nodes[i + 1].

    The one bracketing rule of every sampled datum, in time and on each
    space axis of a uniform lattice nodes[0] + k * step.  A coordinate equal
    to a node takes it exactly: f = 0 there, or f = 1 of the last interval
    at the last node.  Any other x takes the interval of
    floor((x - nodes[0]) / step), clamped to the first and the last one, and
    f = (x - nodes[i]) / step clamped to [0, 1].  x is one number (i and f
    come back as an int and a float, in scalar arithmetic, as a march asks
    for one time per substep) or an ndarray (i and f are arrays of its
    shape).
    """
    last = len(nodes) - 1
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = float(x)
        r = (x - nodes[0]) / step
        j = min(max(round(r), 0), last)
        if x == nodes[j]:
            i = min(j, last - 1)
            return i, float(j - i)
        i = min(max(math.floor(r), 0), last - 1)
        return i, min(max((x - nodes[i]) / step, 0.0), 1.0)
    x = np.asarray(x, dtype=float)
    r = (x - nodes[0]) / step
    j = np.minimum(np.maximum(np.rint(r), 0), last).astype(int)
    on = x == nodes[j]
    i = np.where(on, np.minimum(j, last - 1), np.clip(np.floor(r), 0, last - 1)).astype(int)
    return i, np.where(on, j - i, np.clip((x - nodes[i]) / step, 0.0, 1.0))


def sample_field(u: ScalarField, x, t) -> float:
    """Multilinear in space, linear in time.  Exact at nodes."""
    return float(sample_points(u, [x], t)[0])


def sample_points(u: ScalarField, pts, t) -> np.ndarray:
    """Vectorized multilinear sampling of many spatial points.

    Coordinates and times are bracketed by bracket(), so nodes and levels
    give u.values bit for bit, and a stack constant in time (its level axis
    of stride 0, as np.broadcast_to gives) is its level at every t.  t is
    one time (one value per point back) or a 1-D array of times (one row
    per time back).  With an array of times, pts of shape (len(t), n, dim)
    gives each time its own n points; row i is then what sampling pts[i] at
    t[i] alone gives, bit for bit.  A point set that every time shares is
    then passed flat, as (n, dim).  Points whose last axis is not of length
    dim raise ValueError.
    """
    g = u.grid
    times = np.asarray(t, dtype=float)
    tt = times.reshape(-1)
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1:] != (g.dim,):
        raise ValueError(f"points of shape {pts.shape} do not fit the grid of shape {g.shape}: the last axis must have length {g.dim}")
    if times.ndim == 1 and pts.ndim == 3:
        if pts.shape[0] != len(tt):
            raise ValueError(f"per-time points of shape {pts.shape} do not match {len(tt)} times in {g.dim}D")
    else:
        pts = pts.reshape(1, -1, g.dim)  # one point set shared by every time
    eps = 1e-9 * g.dx
    first = np.array([ax[0] for ax in g.axes])
    last = np.array([ax[-1] for ax in g.axes])
    out = (pts < first - eps) | (pts > last + eps)
    if out.any():
        # name the first point outside: first row, then first axis, then point order
        r = int(np.argmax(out.any(axis=(1, 2))))
        a = int(np.argmax(out[r].any(axis=0)))
        raise ValueError(f"sample point x={tuple(pts[r, np.argmax(out[r, :, a])].tolist())} outside the grid box")
    lo, hi = g.ts[0] - 1e-9 * g.dt, g.ts[-1] + 1e-9 * g.dt
    if not (lo <= tt.min() and tt.max() <= hi):
        bad = float(tt[~((tt >= lo) & (tt <= hi))][0])
        raise ValueError(f"sample time t={bad} outside the grid horizon")

    kt, ft = bracket(g.ts, tt, g.dt)
    idx, frac = zip(*(bracket(g.axes[a], pts[..., a], g.dx) for a in range(g.dim)))

    def space_interp(k, rows=slice(None)):
        # idx and frac hold one row per time, or one row that every time shares
        at = [(i, f) if len(i) == 1 else (i[rows], f[rows]) for i, f in zip(idx, frac)]
        lev = u.values
        k = k[:, None]
        if g.dim == 1:
            ((i, f),) = at
            return (1 - f) * lev[k, i] + f * lev[k, i + 1]
        (i, fx), (j, fy) = at
        return (
            (1 - fx) * (1 - fy) * lev[k, i, j]
            + fx * (1 - fy) * lev[k, i + 1, j]
            + (1 - fx) * fy * lev[k, i, j + 1]
            + fx * fy * lev[k, i + 1, j + 1]
        )

    vals = space_interp(kt)
    rows = np.flatnonzero(ft) if u.values.strides[0] else ()  # the times that blend in the level above
    if len(rows):
        fr = ft[rows, None]
        vals[rows] = (1 - fr) * vals[rows] + fr * space_interp(kt[rows] + 1, rows)
    return vals[0] if times.ndim == 0 else vals


def evaluate(datum, grid: Grid | None, ts=None, points=None) -> np.ndarray:
    """A problem datum at points and times: the one reader of h, f, g and drifts.

    datum is None (zero), a number or constant vector, callable(x, t), or a
    ScalarField/VectorField.  points (..., dim) default to the nodes of grid,
    ts to its levels; a single time gives one set of values back, a 1-D
    array one per time, shape (*times, *points) plus a vector's last axis.
    A callable is called once per time with the points as given.  A field
    on grid at all its nodes and levels is its values; otherwise a field is
    sampled by sample_points: exact on its nodes and levels, and a
    ValueError naming both GridSpecs when its grid does not cover the points
    and times.  grid may be None when points and ts are given.
    """
    times = grid.ts if ts is None else np.asarray(ts, dtype=float)
    pts = grid.coords if points is None else np.asarray(points, dtype=float)
    base = times.shape + pts.shape[:-1]
    if isinstance(datum, (ScalarField, VectorField)):
        if ts is None and points is None and datum.grid.spec == grid.spec:
            return datum.values
        comps = datum.values[..., None] if isinstance(datum, ScalarField) else datum.values
        flat = pts.reshape(-1, pts.shape[-1])
        try:
            vals = [sample_points(ScalarField(datum.grid, comps[..., a]), flat, times) for a in range(comps.shape[-1])]
        except ValueError as exc:
            if grid is None or datum.grid.spec == grid.spec:
                raise
            raise ValueError(f"a field on {datum.grid.spec} does not cover {grid.spec}: {exc}") from None
        vals = np.stack(vals, axis=-1).reshape(base + comps.shape[-1:])
        return vals[..., 0] if isinstance(datum, ScalarField) else vals
    if callable(datum):

        def at(t):
            val = np.asarray(datum(pts, float(t)), dtype=float)
            shape = pts.shape[:-1] + val.shape[pts.ndim - 1 :]
            return val if val.shape == shape else np.broadcast_to(val, shape)

        return at(times) if times.ndim == 0 else np.stack([at(t) for t in times])
    c = np.asarray(0.0 if datum is None else datum, dtype=float)
    return np.full(base + c.shape, c)


# -- serialization ---------------------------------------------------------------


def write_field_csv(u: ScalarField, path_or_buf):
    """CSV per spec: '# grid: N,R,dx,T,dt,mask' then rows t,x1[,x2],value.

    One row per active node and level, levels in order, nodes in C order,
    every number as '%.17g'.  The coordinates are formatted once and each
    level's time once; only the values are formatted per row.
    path_or_buf is a path (str or os.PathLike) or a text buffer.
    """
    g = u.grid
    s = g.spec
    # the text of each row after its time, with a slot for its value
    tails = ["," + ",".join(["%.17g" % c for c in x]) + ",%.17g\n" for x in g.coords[g.active].tolist()]
    tails.insert(0, "")  # so that joining on a time puts the time before each tail
    own = isinstance(path_or_buf, (str, os.PathLike))
    fh = open(path_or_buf, "w") if own else path_or_buf
    try:
        fh.write(
            "# grid: %d,%.17g,%.17g,%.17g,%.17g,%d\n"
            % (s.dim, s.half_width, s.dx, s.horizon, s.dt, int(s.ball_mask))
        )
        for t, lev in zip(g.ts.tolist(), u.values):
            fh.write(("%.17g" % t).join(tails) % tuple(lev[g.active].tolist()))
    finally:
        if own:
            fh.close()


def read_field_csv(path_or_buf) -> ScalarField:
    """Inverse of write_field_csv; every active node exactly once, finite.

    Rows off the lattice (beyond 1e-9 of a step), at inactive or repeated
    nodes, with non-finite entries, and nodes without a row raise ValueError
    naming the row (data rows counted from 1) or the missing node.
    path_or_buf is a path (str or os.PathLike) or a text buffer.
    """
    own = isinstance(path_or_buf, (str, os.PathLike))
    fh = open(path_or_buf, "r") if own else path_or_buf
    try:
        header = fh.readline().strip()
        while header.startswith("#") and not header.startswith("# grid:"):
            header = fh.readline().strip()
        if not header.startswith("# grid:"):
            raise ValueError("missing '# grid:' header")
        fields = header.split(":", 1)[1].split(",")
        try:
            if len(fields) != 6:
                raise ValueError(f"{len(fields)} fields, expected 6")
            if fields[5].strip() not in ("0", "1"):
                raise ValueError(f"mask {fields[5].strip()!r} is neither 0 nor 1")
            spec = GridSpec(int(fields[0]), *map(float, fields[1:5]), ball_mask=fields[5].strip() == "1")
            grid = Grid(spec)
        except ValueError as exc:
            raise ValueError(f"bad header {header!r} (expected '# grid: N,R,dx,T,dt,mask'): {exc}") from None
        rows = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
    finally:
        if own:
            fh.close()
    ncol = grid.dim + 2
    if rows.size == 0:
        rows = rows.reshape(0, ncol)
    if rows.shape[1] != ncol:
        raise ValueError(f"{rows.shape[1]} columns per row, expected {ncol} (t, x..., value)")

    def bad_row(mask, what):
        i = int(np.argmax(mask))
        return ValueError(f"row {i + 1} (t={rows[i, 0]:.17g}, x={rows[i, 1:-1].tolist()}): {what}")

    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise bad_row(~finite, "non-finite entry")
    index = []
    steps = (spec.dt,) + (spec.dx,) * grid.dim
    for col, axis, h in zip(rows[:, :-1].T, (grid.ts,) + grid.axes, steps):
        i = np.clip(np.rint((col - axis[0]) / h), 0, len(axis) - 1).astype(np.int64)
        off = np.abs(col - axis[i]) > 1e-9 * h
        if off.any():
            raise bad_row(off, "not a grid node")
        index.append(i)
    index = tuple(index)
    inactive = ~grid.active[index[1:]]
    if inactive.any():
        raise bad_row(inactive, "inactive node")
    full_shape = (grid.n_levels,) + grid.shape
    repeat = np.ones(len(rows), dtype=bool)
    repeat[np.unique(np.ravel_multi_index(index, full_shape), return_index=True)[1]] = False
    if repeat.any():
        raise bad_row(repeat, "node given more than once")
    vals = np.zeros(full_shape)
    vals[index] = rows[:, -1]
    seen = np.zeros(full_shape, dtype=bool)
    seen[index] = True
    missing = ~seen & grid.active
    if missing.any():
        k, *idx = (int(i) for i in np.argwhere(missing)[0])
        raise ValueError(f"no row for node t={grid.ts[k]:.17g}, x={grid.coords[tuple(idx)].tolist()}")
    return ScalarField(grid, vals)
