"""Space-time grids, discrete calculus and quadrature.

Everything downstream works on a uniform vertex-centered lattice over the
box [-R, R]^N x [0, T], optionally masked to the ball {|x| < R}.  One face
table, every face between two active face neighbours, holds the lattice's
connectivity.  The interior is the active nodes with all 2N faces; the
boundary layer, the nodes that carry Dirichlet/absorbing values, is the rest
of the active set (the rim of the box, the stair-step shell of the ball).
The Dirichlet Laplacian, the boundary faces and the Fokker-Planck transport
are all read from the table.  Fields are stored one array per time level;
all operators here are pure functions of field snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp


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
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.horizon <= 0:
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

    def contains(self, x, t, tol=1e-12):
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
        raise ValueError(f"point {tuple(x)}, t={t} lies outside the cylinder")
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

        self._laplacian_ops = None

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

    def boundary_face_nodes(self):
        """(inner, outer): flat indices of the interior and boundary ends of each face between the two.

        In the order of boundary_faces: interior node in C order, then axis,
        then the lower side first.
        """
        lo, hi, axis = self.faces
        inner_lo = self.interior.ravel()[lo]
        cross = inner_lo != self.interior.ravel()[hi]
        lo, hi, axis, inner_lo = lo[cross], hi[cross], axis[cross], inner_lo[cross]
        inner, outer = np.where(inner_lo, lo, hi), np.where(inner_lo, hi, lo)
        order = np.argsort((inner * self.dim + axis) * 2 + inner_lo)
        return inner[order], outer[order]

    # -- Dirichlet Laplacian machinery --------------------------------------

    def laplacian_ops(self):
        """(L_int, B, int_flat, bnd_flat): Delta u|int = L_int u_int + B u_bnd.

        Each face between interior nodes gives L its two off-diagonal 1/dx^2,
        each face from an interior to a boundary node one 1/dx^2 of B; the
        diagonal is 2N subtractions of 1/dx^2 in sequence.
        """
        if self._laplacian_ops is None:
            int_idx = np.argwhere(self.interior)
            bnd_idx = np.argwhere(self.boundary)
            n_int, n_bnd = len(int_idx), len(bnd_idx)
            # each interior node's number among the interior, each boundary node's among the boundary
            is_int, is_bnd = self.interior.ravel(), self.boundary.ravel()
            number = np.where(is_int, np.cumsum(is_int), np.cumsum(is_bnd)) - 1
            inv_dx2 = 1.0 / self.dx ** 2
            diag = 0.0
            for _ in range(2 * self.dim):
                diag -= inv_dx2
            lo, hi, _ = self.interior_faces()
            r, c, k = number[lo], number[hi], np.arange(n_int)
            vals = np.concatenate((np.full(2 * len(r), inv_dx2), np.full(n_int, diag)))
            L = sp.csr_matrix((vals, (np.concatenate((r, c, k)), np.concatenate((c, r, k)))), shape=(n_int, n_int))
            inner, outer = self.boundary_face_nodes()
            B = sp.csr_matrix((np.full(len(inner), inv_dx2), (number[inner], number[outer])), shape=(n_int, n_bnd))
            self._laplacian_ops = (L, B, int_idx, bnd_idx)
        return self._laplacian_ops

    def boundary_faces(self):
        """Faces (interior node, boundary node) carrying the diffusive outflux, as index tuples."""
        inner, outer = (np.stack(np.unravel_index(f, self.shape), axis=-1).tolist() for f in self.boundary_face_nodes())
        return list(zip(map(tuple, inner), map(tuple, outer)))


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
        vals = np.zeros((grid.n_levels,) + grid.shape)
        for k, t in enumerate(grid.ts):
            vals[k] = np.asarray(fn(grid.coords, float(t)), dtype=float)
        vals[:, ~grid.active] = 0.0
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "ScalarField":
        vals = np.full((grid.n_levels,) + grid.shape, float(c))
        vals[:, ~grid.active] = 0.0
        return cls(grid, vals)

    def level(self, k: int) -> np.ndarray:
        return self.values[k]

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """One N-vector per active node; shape (levels, *spatial, N)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_levels,) + self.grid.shape + (self.grid.dim,)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    def level(self, k: int) -> np.ndarray:
        return self.values[k]

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


def godunov_magnitude_level(values: np.ndarray, dx: float) -> np.ndarray:
    """Monotone upwind surrogate of |Du| per node.

    Per axis max(backward-diff^+, -forward-diff^-): the Godunov selection for
    a convex Hamiltonian increasing in |p| under backward-in-time marching.
    Edge nodes keep only the one-sided branch that exists.
    """
    total = None
    with np.errstate(over="ignore"):  # inf is a valid surrogate while probing CFL
        for a in range(values.ndim):
            pre = (slice(None),) * a
            diff = (values[pre + (slice(1, None),)] - values[pre + (slice(None, -1),)]) / dx
            back = np.maximum(diff, 0.0)  # backward branch of nodes 1..n-1
            fwd = np.maximum(-diff, 0.0)  # forward branch of nodes 0..n-2
            g = np.empty_like(values)
            np.maximum(back[pre + (slice(None, -1),)], fwd[pre + (slice(1, None),)], out=g[pre + (slice(1, -1),)])
            g[pre + (0,)] = fwd[pre + (0,)]
            g[pre + (-1,)] = back[pre + (-1,)]
            g *= g
            if total is None:
                total = g
            else:
                total += g
    return np.sqrt(total, out=total)


def laplacian_level(values: np.ndarray, dx: float, dim: int | None = None) -> np.ndarray:
    """(2N+1)-point stencil at interior nodes; rim entries set to 0.

    The last dim axes are space (all axes by default); a leading axis, such
    as the levels of a field, is carried along.
    """
    nd = values.ndim
    space = range(nd - (nd if dim is None else dim), nd)
    inner = (slice(None),) * space.start + (slice(1, -1),) * len(space)
    out = np.zeros_like(values)
    acc = np.zeros_like(values[inner])
    for a in space:
        sl_p = list(inner)
        sl_m = list(inner)
        sl_p[a] = slice(2, None)
        sl_m[a] = slice(0, -2)
        acc += values[tuple(sl_p)] - 2.0 * values[inner] + values[tuple(sl_m)]
    out[inner] = acc / dx ** 2
    return out


def time_derivative(u: ScalarField) -> np.ndarray:
    """Central in time at interior levels, one-sided at the ends."""
    return np.gradient(u.values, u.grid.dt, axis=0, edge_order=1)


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


def lq_norm(u: ScalarField, q: float, sub: Cylinder | None = None) -> float:
    """Space-time L^q norm by node-cell quadrature."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return spacetime_integral(u.grid, np.abs(u.values) ** q, sub) ** (1.0 / q)


def spacetime_integral(grid: Grid, level_values, sub: Cylinder | None = None) -> float:
    """Integral of a per-level array stack (levels, *shape) over sub.

    The one quadrature: level k contributes tw[k] * sum(level_values[k] * sw),
    the per-level sums come from one reduction over the levels of nonzero
    weight (a contiguous run), and the contributions are added in level
    order to a running sum that starts at 0.
    """
    tw, sw = quadrature_weights(grid, sub)
    run = np.flatnonzero(tw)
    if len(run) == 0:
        return 0.0
    k0, k1 = run[0], run[-1] + 1
    sums = (level_values[k0:k1] * sw).reshape(k1 - k0, -1).sum(axis=1)
    return float(np.cumsum(np.concatenate(([0.0], tw[k0:k1] * sums)))[-1])


def space_integral(grid: Grid, values: np.ndarray, sub: Cylinder | None = None) -> float:
    """Spatial integral of one level over the spatial section of sub."""
    _, sw = quadrature_weights(grid, sub)
    return float(np.sum(values * sw))


# -- interpolation --------------------------------------------------------------


def sample_field(u: ScalarField, x, t) -> float:
    """Multilinear in space, linear in time.  Exact at nodes."""
    return float(sample_points(u, [x], t)[0])


def sample_points(u: ScalarField, pts, t) -> np.ndarray:
    """Vectorized multilinear sampling of many spatial points.

    t is one time (one value per point back) or a 1-D array of times (one
    row per time back); each time blends the two levels around it, or takes
    the lower level alone when it falls on it.  With an array of times, pts
    of shape (len(t), n, dim) gives each time its own n points; row i is
    then what sampling pts[i] at t[i] alone gives, bit for bit.  A point set
    that every time shares is then passed flat, as (n, dim).  Points whose
    last axis is not of length dim raise ValueError.
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
        raise ValueError(f"sample point x={tuple(pts[r, np.argmax(out[r, :, a])])} outside the grid box")
    lo, hi = g.ts[0] - 1e-9 * g.dt, g.ts[-1] + 1e-9 * g.dt
    if not (lo <= tt.min() and tt.max() <= hi):
        bad = float(tt[~((tt >= lo) & (tt <= hi))][0])
        raise ValueError(f"sample time t={bad} outside the grid horizon")

    kt = np.minimum(np.maximum(np.floor(tt / g.dt), 0), g.n_levels - 2).astype(int)
    ft = np.minimum(np.maximum((tt - g.ts[kt]) / g.dt, 0.0), 1.0)

    idx = []
    frac = []
    for a in range(g.dim):
        i = np.clip(np.floor((pts[..., a] - g.axes[a][0]) / g.dx).astype(int), 0, g.shape[a] - 2)
        f = np.clip((pts[..., a] - g.axes[a][i]) / g.dx, 0.0, 1.0)
        idx.append(i)
        frac.append(f)

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
    rows = np.flatnonzero(ft)  # the times that blend in the level above
    if len(rows):
        fr = ft[rows, None]
        vals[rows] = (1 - fr) * vals[rows] + fr * space_interp(kt[rows] + 1, rows)
    return vals[0] if times.ndim == 0 else vals


# -- serialization ---------------------------------------------------------------


def write_field_csv(u: ScalarField, path_or_buf):
    """CSV per spec: '# grid: N,R,dx,T,dt,mask' then rows t,x1[,x2],value."""
    g = u.grid
    s = g.spec
    xs = g.coords[g.active]
    row = ",".join(["%.17g"] * (g.dim + 2)) + "\n"
    own = isinstance(path_or_buf, (str,))
    fh = open(path_or_buf, "w") if own else path_or_buf
    try:
        fh.write(
            "# grid: %d,%.17g,%.17g,%.17g,%.17g,%d\n"
            % (s.dim, s.half_width, s.dx, s.horizon, s.dt, int(s.ball_mask))
        )
        for t, lev in zip(g.ts, u.values):
            cols = np.column_stack([np.full(len(xs), t), xs, lev[g.active]])
            fh.write((row * len(xs)) % tuple(cols.ravel().tolist()))
    finally:
        if own:
            fh.close()


def read_field_csv(path_or_buf) -> ScalarField:
    """Inverse of write_field_csv; every active node exactly once, finite.

    Rows off the lattice (beyond 1e-9 of a step), at inactive or repeated
    nodes, with non-finite entries, and nodes without a row raise ValueError
    naming the row (data rows counted from 1) or the missing node.
    """
    own = isinstance(path_or_buf, (str,))
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
