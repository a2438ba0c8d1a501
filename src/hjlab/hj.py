"""Backward viscous Hamilton-Jacobi solver.

Solves -du/dt - sigma*Lap(u) + h(x,t)|Du|^gamma = f(x,t) on the grid cylinder,
gamma > 2, marching from the terminal level with implicit diffusion and an
explicit Godunov Hamiltonian.  The time step adapts to the realized gradient;
constants are exact fixed points of the scheme.  The data h and f are read
as grid.evaluate reads them, at the solve grid's nodes and at each
substep's time (linear between levels, exact on them); a field h, f or
terminal datum must live on the solve grid itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (
    Grid,
    NumericalFailure,
    ScalarField,
    bracket,
    evaluate,
    godunov_magnitude_gather,
    godunov_magnitude_level,
    laplacian_level,
)

CFL_EPS = 1e-12
CFL_SAFETY = 1.0  # substeps satisfy dt <= CFL_SAFETY * dx / (gamma h1 P^(gamma-1) + CFL_EPS)
MAX_HALVINGS = 10  # retries one rung down per substep
MAX_SUBSTEPS = 100000  # substeps per macro step
RESIDUAL_BLOCK = 32  # accepted group substeps whose linear residuals one sparse product forms


# -- derived exponents ---------------------------------------------------------


def gamma_conjugate(gamma: float) -> float:
    return gamma / (gamma - 1.0)


def critical_q0(gamma: float, dim: int) -> float:
    """Threshold integrability exponent (N+2)(gamma-1)/gamma."""
    return (dim + 2) / gamma_conjugate(gamma)


def alpha_zero(gamma: float) -> float:
    """Intrinsic Hölder exponent (gamma-2)/(gamma-1)."""
    return (gamma - 2.0) / (gamma - 1.0)


def time_pair_exponent(M: float, gamma: float) -> float:
    """M^(2/gamma + alpha0*(gamma-1)/gamma); identically M for every M > 0."""
    a0 = alpha_zero(gamma)
    return M ** (2.0 / gamma + a0 * (gamma - 1.0) / gamma)


# -- problem definition ----------------------------------------------------------


def _reject(grid: Grid, levels: np.ndarray, ts, ok: np.ndarray, what: str) -> None:
    """ValueError naming the first active node (level, then C order) where ok fails, if any."""
    bad = np.argwhere(grid.active & ~ok)
    if len(bad):
        k, *idx = (int(i) for i in bad[0])
        raise ValueError(
            f"{what} = {float(levels[(k, *idx)])!r} "
            f"at x={tuple(grid.coords[tuple(idx)].tolist())}, t={float(ts[k])!r}"
        )


def _finite(name: str):
    """A check for _interior_sampler: ValueError at the first active node where datum name is not finite."""

    def check(grid, levels, ts):
        _reject(grid, levels, ts, np.isfinite(levels), f"{name} is not finite: {name}")

    return check


class _Sampler(NamedTuple):
    """A datum at the interior nodes: at(t), and a constant's value or a field's levels for stacking."""

    at: Callable
    const: float | None = None
    levels: np.ndarray | None = None


def _level_blend(grid: Grid, level: Callable) -> Callable:
    """t -> level(k), blended with level(k + 1) as grid.bracket places t unless t is level k.

    level(k) is formed at most once per backward march, which reads levels
    k and k + 1 with k falling.
    """
    ts = grid.ts.tolist()
    level = functools.lru_cache(maxsize=2)(level)

    def at(t):
        k, f = bracket(ts, t, grid.dt)
        lo = level(k)
        return lo if f == 0 else (1 - f) * lo + f * level(k + 1)

    return at


def _interior_sampler(grid: Grid, obj, check=None) -> _Sampler:
    """obj at the interior nodes, prepared once per solve.

    Values are those of evaluate(obj, grid, t) restricted to the interior.
    A constant comes back as a float.  A ScalarField (on grid) takes the
    level pair that bracket gives for t, and blends them unless t is a
    level.  A callable is evaluated at every call.
    check(grid, levels, ts), if given, sees every value that can come back:
    a constant's or a field's once, here, and a callable's at each call.
    """
    interior = grid.interior
    if isinstance(obj, ScalarField):
        if check is not None:
            check(grid, obj.values, grid.ts)
        return _Sampler(_level_blend(grid, lambda k: obj.values[k][interior]), levels=obj.values)
    if callable(obj):

        def at(t):
            arr = evaluate(obj, grid, t)
            if check is not None:
                check(grid, arr[None], [t])
            return arr[interior]

        return _Sampler(at)
    c = 0.0 if obj is None else float(obj)
    if check is not None:
        check(grid, np.full((1,) + grid.shape, c), grid.ts[:1])
    return _Sampler(lambda t: c, const=c)


def _stacked(grid: Grid, samplers: list) -> Callable:
    """t -> the data of a group's columns at the interior nodes, column i with the bits of samplers[i].at(t).

    A group of one column reads its own sampler; constants become one row,
    fields are stacked once per level and blended as one, and any other
    mix is gathered column by column.
    """
    if len(samplers) == 1:
        return samplers[0].at
    if all(s.const is not None for s in samplers):
        c = np.array([s.const for s in samplers])
        return lambda t: c
    interior = grid.interior
    if all(s.levels is not None for s in samplers):
        return _level_blend(grid, lambda k: np.stack([s.levels[k][interior] for s in samplers], axis=1))
    n = int(interior.sum())
    return lambda t: np.stack([np.broadcast_to(s.at(t), n) for s in samplers], axis=1)


@dataclass
class HJProblem:
    gamma: float
    sigma: float
    h0: float
    h1: float
    h: object = None  # number, callable(x, t) or ScalarField; default h0
    f: object = 0.0  # None (zero), number, callable(x, t) or ScalarField
    terminal: object = 0.0  # constant, callable(x) or ScalarField for u(., T)
    lateral: object = 0.0  # constant or callable(x, t) on the boundary layer

    def __post_init__(self):
        if not self.gamma > 2:
            raise ValueError("gamma must exceed 2")
        if not (0 < self.sigma <= 1):
            raise ValueError("sigma must lie in (0, 1]")
        if not (0 < self.h0 <= self.h1):
            raise ValueError("coefficient bounds need 0 < h0 <= h1")
        for name in ("gamma", "h0", "h1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.h is None:
            self.h = self.h0

    def check_h(self, grid: Grid, levels: np.ndarray, ts) -> None:
        """Raise ValueError if h leaves [h0, h1] (up to 1e-9*max(1, h1)).

        levels holds h at the times ts, shape (len(ts), *grid.shape); the
        message names the first offending active node in level, then C order.
        """
        tol = 1e-9 * max(1.0, self.h1)
        ok = (levels >= self.h0 - tol) & (levels <= self.h1 + tol)
        _reject(grid, levels, ts, ok, "h(x,t) leaves the [h0, h1] bounds: h")

    def terminal_level(self, grid: Grid) -> np.ndarray:
        if callable(self.terminal):
            return np.asarray(self.terminal(grid.coords), dtype=float) * np.ones(grid.shape)
        return evaluate(self.terminal, grid, grid.ts[-1])

    def lateral_values(self, xs: np.ndarray, t: float) -> np.ndarray:
        """Lateral data at the points xs, shape (n, dim): a grid's boundary layer in C order."""
        if callable(self.lateral):
            return np.asarray(self.lateral(xs, float(t)), dtype=float) * np.ones(len(xs))
        return np.full(len(xs), float(self.lateral))


@dataclass
class HJSolution:
    u: ScalarField
    log: list = field(default_factory=list)


# -- solver -----------------------------------------------------------------------


def solve_hj(problem: HJProblem, grid: Grid, gradient_bound: float | None = None) -> HJSolution:
    """March the backward equation from the terminal level: solve_hj_many with one problem.

    Its NumericalFailure is raised.
    """
    (result,) = solve_hj_many([problem], grid, [gradient_bound])
    if isinstance(result, NumericalFailure):
        raise result
    return result


def solve_hj_many(problems, grid: Grid, gradient_bounds=None) -> list:
    """March several problems on one grid: an HJSolution or a NumericalFailure for each.

    Each problem (a column) is marched as if alone, with its own
    gradient_bounds entry (default None).  Diffusion is implicit (direct
    sparse solve per step), the Hamiltonian h * (Godunov |Du|)^gamma
    explicit.  Every substep length is a dyadic rung grid.dt / 2**j: the
    largest rung that fits in what is left of the macro step and satisfies
    dt <= CFL_SAFETY * dx / (gamma*h1*P^(gamma-1) + eps) for P the larger
    of the column's current Godunov gradient and its gradient bound.  A step
    whose realized gradient invalidates its own dt is retried one rung down,
    at most MAX_HALVINGS times, and a macro step may not need more than
    MAX_SUBSTEPS substeps.  The time left in a macro step is kept as an
    exact dyadic fraction, so round-off never opens an extra rung.

    A substep is the explicit update, one LU solve and one Godunov pass over
    the interior nodes, gathered from their face neighbours.  A non-finite
    solve is a NumericalFailure naming the first non-finite node and the
    time.  Each accepted substep's relative linear residual
    max|(I - sigma dt L) sol - rhs| / max(1, max|rhs|) is logged; the
    residuals are formed after the solves, RESIDUAL_BLOCK group substeps
    per sparse product, and equal those of one mat-vec per substep.  A column
    that fails drops out and the others go on.

    Columns that share sigma, gamma and h1 and stand at the same place on
    the ladder march as one group: each group substep makes one explicit
    update, one LU solve and one Godunov gather on (nodes, columns) arrays,
    and a group splits where its columns pick different rungs or the CFL
    check accepts some of them only.  In 1D one solve serves the group's
    right-hand sides together; in 2D SuperLU's multi-right-hand-side solve
    rounds differently from single solves, so each column is solved alone.
    The diffusion matrix is LU-factored once per sigma and rung used.
    Every column's values, log and failure are those of its solo march, bit
    for bit.

    A field h, f or terminal datum must live on grid (ValueError naming both
    GridSpecs otherwise).  What cannot change within the march is prepared
    and checked for every column before any factorization: a constant or
    ScalarField h against [h0, h1] on all its nodes; the terminal level, a
    constant or ScalarField f and constant lateral data for finiteness
    (ValueError naming the datum, its value, the first offending node and
    its time).  Constant h, f and lateral data become scalars or one vector
    (the lateral term once per rung), a callable lateral datum is evaluated
    at boundary-layer coordinates gathered once, and a field's two
    bracketing levels are gathered once per macro step.  A callable h is
    checked each time it is evaluated, and its ValueError ends the march; a
    callable f or lateral datum that is not finite shows as a blow-up.
    """
    problems = list(problems)
    bounds = [None] * len(problems) if gradient_bounds is None else list(gradient_bounds)
    if len(bounds) != len(problems):
        raise ValueError(f"{len(bounds)} gradient bounds for {len(problems)} problems")
    march = _March(grid)
    cols = [_Column(i, p, b, march) for i, p, b in zip(range(len(problems)), problems, bounds)]
    nt = grid.spec.nt
    march.levels = np.zeros((len(cols), nt + 1, grid.active.size))
    for c in cols:
        march.levels[c.index, nt] = c.terminal.ravel()
    families = {}
    for c in cols:
        families.setdefault((c.problem.sigma, c.problem.gamma, c.problem.h1), []).append(c)
    # a blow-up shows as non-finite values, checked after each solve, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        groups = [march.start(fam) for fam in families.values()]
        while groups:  # groups that split march on from the level they split at, merged per family
            k = max(g.k for g in groups)
            ready = march.regroup([g for g in groups if g.k == k])
            groups = [g for g in groups if g.k != k] + [part for g in ready for part in march.advance(g)]
        march.log_pending()
    shape = (nt + 1,) + grid.shape
    return [
        c.failure if c.failure is not None else HJSolution(ScalarField(grid, march.levels[c.index].reshape(shape)), c.log)
        for c in cols
    ]


class _Column:
    """One problem of a march, prepared as a solo solve prepares it: data, bounds, log, failure."""

    def __init__(self, index, problem: HJProblem, gradient_bound, march):
        grid = march.grid
        for datum in (problem.h, problem.f, problem.terminal):
            if isinstance(datum, ScalarField) and datum.grid.spec != grid.spec:
                raise ValueError(f"field lives on {datum.grid.spec}, not on the solve grid {grid.spec}")
        self.index, self.problem = index, problem
        self.h = _interior_sampler(grid, problem.h, problem.check_h)
        self.f = _interior_sampler(grid, problem.f, None if callable(problem.f) else _finite("f"))
        self.terminal = np.empty(grid.shape)
        self.terminal[...] = problem.terminal_level(grid)
        _finite("terminal")(grid, self.terminal[None], grid.ts[-1:])
        self.terminal[~grid.active] = 0.0
        sigma, macro_dt, B, bnd_xs = problem.sigma, grid.dt, march.B, march.bnd_xs
        self.lateral_varies = callable(problem.lateral)
        if self.lateral_varies:

            def lateral_at(t, j):
                bnd = problem.lateral_values(bnd_xs, t)
                return bnd, sigma * math.ldexp(macro_dt, -j) * (B @ bnd)

        else:
            _finite("lateral")(grid, np.full((1,) + grid.shape, float(problem.lateral)), grid.ts[:1])
            bnd_const = problem.lateral_values(bnd_xs, grid.ts[-1])
            B_bnd = B @ bnd_const
            per_rung = {}

            def lateral_at(t, j):  # the same on every substep of a rung
                if j not in per_rung:
                    per_rung[j] = bnd_const, sigma * math.ldexp(macro_dt, -j) * B_bnd
                return per_rung[j]

        self.lateral_at = lateral_at
        self.P_user = gradient_bound if gradient_bound is not None else 0.0
        self.cfl_user = _cfl_dt(self.P_user, problem.gamma, problem.h1, grid.dx)
        self.log = []
        self.failure = None


def _stacked_lateral(cols) -> Callable:
    """(t, j) -> (boundary values, lateral term) of a group's columns, one column each."""
    if len(cols) == 1:
        return cols[0].lateral_at

    def columns(t, j):
        pairs = [c.lateral_at(t, j) for c in cols]
        return _columns([b for b, _ in pairs]), _columns([x for _, x in pairs])

    if any(c.lateral_varies for c in cols):
        return columns
    per_rung = {}

    def at(t, j):  # the same on every substep of a rung
        if j not in per_rung:
            per_rung[j] = columns(t, j)
        return per_rung[j]

    return at


class _Group:
    """Columns of one (sigma, gamma, h1) at one place on the ladder, marching together.

    V and G hold the columns' interior values and Godunov magnitudes, one
    column each, or vectors in a group of one column, which so does the
    work of a single solve; cfl their CFL steps for the next rung choice;
    t_cur the time reached, k the level to reach next, and left / 2**e
    the time left to it in units of grid.dt.
    """

    def __init__(self, march, cols, V, cfl, t_cur, k, G=None, left=1, e=0, substeps=0):
        self.cols, self.V, self.G, self.cfl, self.t_cur, self.k = cols, V, G, cfl, t_cur, k
        self.bnd = None  # the boundary values that go with V, once a substep has set them
        self.left, self.e, self.substeps = left, e, substeps
        self.at = _index([c.index for c in cols])
        # the columns' levels as a view (levels, nodes[, columns]), where numpy can make one
        if len(cols) == 1:
            self.levels = march.levels[cols[0].index]
        else:
            self.levels = march.levels[self.at].transpose(1, 2, 0) if isinstance(self.at, slice) else None
        p = cols[0].problem
        self.sigma, self.gamma, self.h1 = p.sigma, p.gamma, p.h1
        self.f_at = _stacked(march.grid, [c.f for c in cols])
        self.h_at = _stacked(march.grid, [c.h for c in cols])
        self.lateral_at = _stacked_lateral(cols)
        # a state column: the interior values, then the boundary layer's
        self.state = np.empty((march.n_int + len(march.bnd_flat),) + V.shape[1:])
        self.one_solve = march.grid.dim == 1 or len(cols) == 1
        self.bounds = [(c.P_user, c.cfl_user) for c in cols]

    def take(self, march, idx):
        """The group of the columns at positions idx, at the same place on the ladder."""
        return _Group(march, [self.cols[i] for i in idx], _pick(self.V, idx), [self.cfl[i] for i in idx],
                      self.t_cur, self.k, _pick(self.G, idx), self.left, self.e, self.substeps)


def _cfl_dt(P, gamma, h1, dx):
    return dx / (gamma * h1 * max(P, 0.0) ** (gamma - 1.0) + CFL_EPS)


def _index(idx):
    """idx (ascending ints) as numpy indexes it fastest: a slice for a run, else an array."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return np.asarray(idx)


def _columns(vectors):
    """The vectors as the columns of a group's array: the vector itself for one column."""
    return vectors[0] if len(vectors) == 1 else np.stack(vectors, axis=1)


def _pick(a, idx):
    """The columns idx of a group's (n, m) array: a vector for one column."""
    return a[:, idx[0]] if len(idx) == 1 else a[:, idx]


def _column(a, i):
    """Column i of a group's array, a vector in a group of one column."""
    return a if a.ndim == 1 else a[:, i]


def _rows(a):
    """A group's (n, m) array as rows, one per column; a vector as one row."""
    return a[None] if a.ndim == 1 else a.T


def _column_max(a) -> list:
    """The largest entry of each column, a vector being one column."""
    return [float(a.max())] if a.ndim == 1 else a.max(axis=0).tolist()


class _March:
    """What the columns of one march share: the grid's operators, the LU factors, the levels and the pending log."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.L, self.B, int_idx, _ = grid.laplacian_ops()
        self.n_int = n_int = len(int_idx)
        self.int_flat, self.bnd_flat = np.flatnonzero(grid.interior), np.flatnonzero(grid.boundary)
        self.int_at, self.bnd_at = _index(self.int_flat), _index(self.bnd_flat)
        self.bnd_xs = grid.coords[grid.boundary]
        self.ts = grid.ts.tolist()
        self.eye = sp.identity(n_int, format="csc")
        self.lu = {}
        # each interior node's face neighbours as rows of a group's state
        slot = np.empty(grid.active.size, dtype=np.intp)
        slot[self.int_flat] = np.arange(n_int)
        slot[self.bnd_flat] = np.arange(n_int, n_int + len(self.bnd_flat))
        self.neighbours = slot[grid.interior_neighbours()]
        # A -inf solve value turns the Godunov magnitude non-finite only at its
        # interior neighbours; an interior node without one needs its own check.
        self.lone = not (self.neighbours < n_int).any(axis=(0, 1)).all()
        # accepted group substeps whose linear residuals are not formed yet, their solutions and right-hand sides as _rows
        self.pending = []
        self.levels = None

    def factor(self, sigma, j):
        lus = self.lu.setdefault(sigma, {})
        if j not in lus:
            lus[j] = spla.splu((self.eye - sigma * math.ldexp(self.grid.dt, -j) * self.L).tocsc())
        return lus[j]

    def start(self, cols):
        """The group of cols at the terminal level."""
        g = _Group(self, cols, _columns([c.terminal.ravel()[self.int_flat] for c in cols]), None, self.ts[-1], self.grid.spec.nt - 1)
        g.state[: self.n_int] = g.V
        g.state[self.n_int :] = _columns([c.terminal.ravel()[self.bnd_flat] for c in cols])
        g.G = godunov_magnitude_gather(g.V, g.state, self.neighbours, self.grid.dx)
        g.cfl = [_cfl_dt(max(m, c.P_user), g.gamma, g.h1, self.grid.dx) for c, m in zip(cols, _column_max(g.G))]
        return g

    def regroup(self, done):
        """The groups that reached one level, merged per (sigma, gamma, h1), at the start of the next macro step."""
        families = {}
        for g in done:
            g.left, g.e, g.substeps = 1, 0, 0
            families.setdefault((g.sigma, g.gamma, g.h1), []).append(g)
        if len(families) == len(done):  # nothing to merge
            return done
        groups = []
        for parts in families.values():
            if len(parts) == 1:
                g = parts[0]
            else:
                cols = [c for p in parts for c in p.cols]
                cfl = [x for p in parts for x in p.cfl]
                order = np.argsort([c.index for c in cols])
                V = np.column_stack([p.V for p in parts])[:, order]
                G = np.column_stack([p.G for p in parts])[:, order]
                g = _Group(self, [cols[i] for i in order], V, [cfl[i] for i in order], parts[0].t_cur, parts[0].k, G)
            groups.append(g)
        return groups

    def store(self, g, k, V, bnd):
        """Interior values V and boundary values bnd become level k of g's columns."""
        if g.levels is None:  # columns that do not follow one another
            self.levels[g.at[:, None], k, self.int_flat] = V.T
            self.levels[g.at[:, None], k, self.bnd_flat] = bnd.T
        else:
            level = g.levels[k]
            level[self.int_at] = V
            level[self.bnd_at] = bnd

    def advance(self, g, retry=None, stop=0):
        """March group g from level g.k + 1 down to level stop, storing each level.

        A column that fails drops out with its failure.  Where the columns
        pick different rungs, or the CFL check passes some of them only, g
        splits: each part marches alone to the end of that macro step, and
        the parts come back, to be merged, with the next level still to
        reach; retry = (rung, halvings, hamiltonian) resumes a part whose
        substep is retried.  Returns the groups that still have levels to
        reach.
        """
        grid, dx, macro_dt, n_int, lone, neighbours = self.grid, self.grid.dx, self.grid.dt, self.n_int, self.lone, self.neighbours
        gamma, sigma, pending = g.gamma, g.sigma, self.pending
        gh, gm1 = gamma * g.h1, gamma - 1.0
        lus = self.lu.setdefault(sigma, {})  # LU factors by rung
        f_at, h_at, lateral_at, state, one_solve, bounds = g.f_at, g.h_at, g.lateral_at, g.state, g.one_solve, g.bounds
        # g's state lives in locals while it marches, and goes back to g where it splits or stops
        cols, V, G, bnd, cfl, t_cur, left, e, substeps, k = g.cols, g.V, g.G, g.bnd, g.cfl, g.t_cur, g.left, g.e, g.substeps, g.k
        done = []

        while k >= stop:
            t_target = self.ts[k]
            while left > 0:
                if retry is not None:
                    (j, halvings, hamiltonian), retry = retry, None
                else:
                    substeps += 1
                    if substeps > MAX_SUBSTEPS:
                        for c in cols:
                            c.failure = NumericalFailure(
                                f"CFL subcycle limit exceeded: > {MAX_SUBSTEPS} substeps in one macro step"
                            )
                        return done
                    j0 = 0
                    while (left << j0) < (1 << e):
                        j0 += 1
                    rungs = []
                    for limit in cfl:
                        limit *= CFL_SAFETY
                        j = j0
                        while math.ldexp(macro_dt, -j) > limit:
                            j += 1
                        rungs.append(j)
                    j = rungs[0]
                    if rungs.count(j) < len(rungs):
                        # g splits where it stands; each part takes this substep again, on one rung
                        g.V, g.G, g.cfl, g.t_cur, g.left, g.e, g.substeps, g.k = V, G, cfl, t_cur, left, e, substeps - 1, k
                        for r in sorted(set(rungs)):
                            done += self.advance(g.take(self, [i for i, ri in enumerate(rungs) if ri == r]), stop=k)
                        return done
                    hamiltonian = G ** gamma
                    halvings = 0
                while True:
                    dt = math.ldexp(macro_dt, -j)
                    if j > e:
                        left, e = left << (j - e), j
                    left_new = left - (1 << (e - j))
                    t_new = t_target + (left_new / (1 << e)) * macro_dt
                    rhs = V + dt * (f_at(t_new) - h_at(t_new) * hamiltonian)
                    bnd_new, lateral_term = lateral_at(t_new, j)
                    rhs += lateral_term
                    lu = lus[j] if j in lus else self.factor(sigma, j)
                    if one_solve:
                        sol = lu.solve(rhs)
                    else:  # in 2D SuperLU's multi-right-hand-side solve rounds differently from single solves
                        sol = np.stack([lu.solve(rhs[:, i]) for i in range(len(cols))], axis=1)
                    state[:n_int] = sol
                    state[n_int:] = bnd_new
                    G_new = godunov_magnitude_gather(sol, state, neighbours, dx)
                    g_max = _column_max(G_new)
                    blown = []
                    if lone or not all(map(math.isfinite, g_max)):
                        blown = [
                            i for i, m in enumerate(g_max)
                            if (lone or not math.isfinite(m)) and not np.isfinite(_column(sol, i)).all()
                        ]
                    cfl_new = [dx / (gh * max(m, 0.0) ** gm1 + CFL_EPS) for m in g_max]  # _cfl_dt, inlined
                    ok = [dt <= c * (1.0 + 1e-12) for c in cfl_new]
                    if not blown and False not in ok:
                        break
                    if not blown and True not in ok:  # all of g retries one rung down
                        halvings += 1
                        if halvings > MAX_HALVINGS:
                            for i, c in enumerate(cols):
                                c.failure = self.retry_failure(_column(sol, i), _column(bnd_new, i), g_max[i], t_new)
                            return done
                        j += 1
                        continue
                    # g splits where it stands: the blown columns fail, the passed ones go on, the others retry
                    g.V, g.G, g.cfl, g.t_cur, g.left, g.e, g.substeps, g.k = V, G, cfl, t_cur, left, e, substeps, k
                    for i in blown:
                        cols[i].failure = self.blowup(_column(sol, i), t_new)
                    acc = [i for i, passed in enumerate(ok) if passed and i not in blown]
                    rej = [i for i, passed in enumerate(ok) if not passed and i not in blown]
                    if acc:
                        ahead = g.take(self, acc)
                        g_acc = [g_max[i] for i in acc]
                        pending.append((ahead.cols, t_cur, t_new, sigma * dt, dt, halvings, g_acc, _rows(_pick(sol, acc)), _rows(_pick(rhs, acc))))
                        ahead.V, ahead.G, ahead.bnd, ahead.t_cur, ahead.left = _pick(sol, acc), _pick(G_new, acc), _pick(bnd_new, acc), t_new, left_new
                        ahead.cfl = [u if P > m else cfl_new[i] for (P, u), m, i in zip(ahead.bounds, g_acc, acc)]
                        done += self.advance(ahead, stop=k)
                    if rej and halvings == MAX_HALVINGS:
                        for i in rej:
                            cols[i].failure = self.retry_failure(_column(sol, i), _column(bnd_new, i), g_max[i], t_new)
                    elif rej:
                        done += self.advance(g.take(self, rej), (j + 1, halvings + 1, _pick(hamiltonian, rej)), stop=k)
                    return done
                pending.append((cols, t_cur, t_new, sigma * dt, dt, halvings, g_max, _rows(sol), _rows(rhs)))
                if len(pending) >= RESIDUAL_BLOCK:
                    self.log_pending()
                # the next rung is chosen for the larger of the new gradient and the column's bound
                cfl = [u if P > m else x for (P, u), m, x in zip(bounds, g_max, cfl_new)]
                V, G, bnd, t_cur, left = sol, G_new, bnd_new, t_new, left_new
            self.store(g, k, V, bnd)
            k -= 1
            left, e, substeps = 1, 0, 0
        g.V, g.G, g.bnd, g.cfl, g.t_cur, g.left, g.e, g.substeps, g.k = V, G, bnd, cfl, t_cur, left, e, substeps, k
        return [g] if k >= 0 else []

    def retry_failure(self, sol, bnd, g_max, t):
        """The failure of a column whose substep ended at t with the values sol, bnd still breaking its CFL bound."""
        v = np.zeros(self.grid.shape)
        v[self.grid.interior] = sol
        v[self.grid.boundary] = bnd
        worst = np.argwhere(godunov_magnitude_level(v, self.grid.dx) == g_max)
        idx = tuple(int(i) for i in worst[0])
        return NumericalFailure(f"CFL retry limit exceeded at node x={tuple(self.grid.coords[idx].tolist())}, t={t}")

    def blowup(self, sol, t):
        full = np.zeros(self.grid.shape)
        full[self.grid.interior] = sol
        bad = np.argwhere(~np.isfinite(full))
        idx = tuple(int(i) for i in bad[0]) if len(bad) else None
        x = self.grid.coords[idx].tolist() if idx is not None else None
        return NumericalFailure(f"blow-up detected at (x={None if x is None else tuple(x)}, t={t})")

    def log_pending(self):
        """The pending substeps' linear residuals, one sparse product for all, into their columns' logs."""
        if not self.pending:
            return
        sols = np.concatenate([p[7] for p in self.pending])
        rhss = np.concatenate([p[8] for p in self.pending])
        coef = np.repeat([p[3] for p in self.pending], [len(p[0]) for p in self.pending])
        res = np.abs(sols - coef[:, None] * (self.L @ sols.T).T - rhss).max(axis=1).tolist()
        rows = zip(res, np.abs(rhss).max(axis=1).tolist())
        for cols, t0, t1, _, dt, n, g_max, _, _ in self.pending:
            for c, g, (r, scale) in zip(cols, g_max, rows):
                c.log.append(
                    {
                        "t_from": t0,
                        "t_to": t1,
                        "dt": dt,
                        "halvings": n,
                        "linear_residual": r / max(1.0, scale),
                        "godunov_max": g,
                    }
                )
        self.pending.clear()


def discrete_residual(u: ScalarField, problem: HJProblem) -> ScalarField:
    """Defect of the stored-level scheme equation at interior nodes.

    -(u^{k+1}-u^k)/dt - sigma*Lap(u^k) + h(t_k)*Godunov(u^{k+1})^gamma - f(t_k),
    all levels k < nt at once (the last level is 0); zero when the marching
    needed no substepping, otherwise it carries the splitting/substep
    consistency error.  h is checked against [h0, h1] on every level used.
    """
    g = u.grid
    ts = g.ts[:-1]
    h = evaluate(problem.h, g, ts)
    problem.check_h(g, h, ts)
    now, after = u.values[:-1], u.values[1:]
    r = (
        -(after - now) / g.dt
        - problem.sigma * laplacian_level(now, g.dx, g.dim)
        + h * godunov_magnitude_level(after, g.dx, g.dim) ** problem.gamma
        - evaluate(problem.f, g, ts)
    )
    out = np.zeros_like(u.values)
    out[:-1] = np.where(g.interior, r, 0.0)
    return ScalarField(g, out)


# -- manufactured solutions --------------------------------------------------------


class _LastPoints:
    """fn(x) for the last point set x it saw, compared by value."""

    def __init__(self, fn: Callable):
        self.fn, self.last = fn, None  # last: (points, fn(points)), replaced as one

    def __call__(self, x):
        last = self.last
        if last is None or last[0].shape != x.shape or not np.array_equal(last[0], x):
            last = self.last = np.array(x, dtype=float), self.fn(x)
        return last[1]


@dataclass
class ManufacturedSolution:
    """A closed-form u = phi(x) psi(t), with its time derivative, gradient and Laplacian.

    The spatial factor comes with its gradient and Laplacian, the time
    factor with its derivative; u, u_t, grad and lap are their products, in
    the operation order of each closed form, so they give its bits.
    """

    phi: Callable  # coords (..., N) -> (...)
    grad_phi: Callable  # coords -> (..., N)
    lap_phi: Callable
    psi: Callable  # t -> number
    dpsi: Callable
    name: str = ""

    def u(self, x, t):
        return self.phi(x) * self.psi(t)

    def u_t(self, x, t):
        return self.phi(x) * self.dpsi(t)

    def grad(self, x, t):
        return self.grad_phi(x) * self.psi(t)

    def lap(self, x, t):
        return self.lap_phi(x) * self.psi(t)

    def terminal(self, T):
        return lambda x: self.u(x, T)

    def lateral(self):
        """u as lateral data; phi is formed once per point set."""
        phi = _LastPoints(self.phi)
        return lambda x, t: phi(x) * self.psi(t)


def _zeros_beyond_x1(first, x):
    """The vector field (first, 0, ..., 0) at the points x."""
    return np.stack([first] + [np.zeros_like(x[..., 0])] * (x.shape[-1] - 1), axis=-1)


def ms_sine(T: float) -> ManufacturedSolution:
    """u = sin(pi x1) (T - t)."""
    return ManufacturedSolution(
        phi=lambda x: np.sin(np.pi * x[..., 0]),
        grad_phi=lambda x: _zeros_beyond_x1(np.pi * np.cos(np.pi * x[..., 0]), x),
        lap_phi=lambda x: -np.pi ** 2 * np.sin(np.pi * x[..., 0]),
        psi=lambda t: T - t,
        dpsi=lambda t: -1.0,
        name="sine",
    )


def ms_cosine(T: float, A: float = 1.0) -> ManufacturedSolution:
    """u = A cos(pi x1 / 2) (T - t); symmetric bump, zero at x1 = +-1."""
    return ManufacturedSolution(
        phi=lambda x: A * np.cos(0.5 * np.pi * x[..., 0]),
        grad_phi=lambda x: _zeros_beyond_x1(-A * 0.5 * np.pi * np.sin(0.5 * np.pi * x[..., 0]), x),
        lap_phi=lambda x: -A * 0.25 * np.pi ** 2 * np.cos(0.5 * np.pi * x[..., 0]),
        psi=lambda t: T - t,
        dpsi=lambda t: -1.0,
        name="cosine",
    )


def ms_linear_time(c: float, T: float) -> ManufacturedSolution:
    """u = c (T - t); rhs is identically c."""
    return ManufacturedSolution(
        phi=lambda x: c * np.ones_like(x[..., 0]),
        grad_phi=np.zeros_like,
        lap_phi=lambda x: np.zeros_like(x[..., 0]),
        psi=lambda t: T - t,
        dpsi=lambda t: -1.0,
        name="linear_time",
    )


def ms_constant(c: float) -> ManufacturedSolution:
    """u = c; its u_t is a zero signed like c."""
    return ManufacturedSolution(
        phi=lambda x: c * np.ones_like(x[..., 0]),
        grad_phi=np.zeros_like,
        lap_phi=lambda x: np.zeros_like(x[..., 0]),
        psi=lambda t: 1.0,
        dpsi=lambda t: 0.0,
        name="constant",
    )


MANUFACTURED = {
    "sine": ms_sine,
    "cosine": ms_cosine,
}


def manufactured_rhs(ms: ManufacturedSolution, gamma: float, sigma: float, h) -> Callable:
    """f = -du/dt - sigma*Lap(u) + h |Du|^gamma sampled analytically.

    The spatial factors are formed once per point set, not once per time.
    """
    spatial = _LastPoints(lambda x: (ms.phi(x), ms.grad_phi(x), ms.lap_phi(x)))

    def f(x, t):
        phi, grad_phi, lap_phi = spatial(x)
        psi = ms.psi(t)
        gmag = np.sqrt(np.sum((grad_phi * psi) ** 2, axis=-1))
        return -(phi * ms.dpsi(t)) - sigma * (lap_phi * psi) + evaluate(h, None, t, x) * gmag ** gamma

    return f


def manufactured_problem(
    ms: ManufacturedSolution, gamma: float, sigma: float, h0: float, h1: float, h=None
) -> HJProblem:
    hh = h if h is not None else h0
    return HJProblem(
        gamma=gamma,
        sigma=sigma,
        h0=h0,
        h1=h1,
        h=hh,
        f=manufactured_rhs(ms, gamma, sigma, hh),
        terminal=None,
        lateral=ms.lateral(),
    )


def solve_manufactured(ms, gamma, sigma, grid, h0=1.0, h1=1.0, h=None, gradient_bound=None):
    p = manufactured_problem(ms, gamma, sigma, h0, h1, h)
    p.terminal = ms.terminal(grid.ts[-1])
    return solve_hj(p, grid, gradient_bound=gradient_bound)


def linf_error(u: ScalarField, exact: Callable) -> float:
    g = u.grid
    err = 0.0
    for k, t in enumerate(g.ts):
        ex = np.asarray(exact(g.coords, float(t)), dtype=float)
        err = max(err, float(np.max(np.abs((u.values[k] - ex)[g.active]))))
    return err


# -- Legendre-transform gap ----------------------------------------------------------


def legendre_gap(h: float, gamma: float, p_samples, grid_points: int = 33, refinements: int = 48):
    """max_p |sup_q {p.q - ell|q|^gc} - h|p|^gamma|, sup taken numerically.

    ell = h(gamma-1)/(h*gamma)^gc.  The objective is maximal for q parallel to
    p, so the search runs over the magnitude t = |q| >= 0 on an iteratively
    refined grid.
    """
    if h <= 0 or gamma <= 2:
        raise ValueError("need h > 0 and gamma > 2")
    gc = gamma_conjugate(gamma)
    ell = h * (gamma - 1.0) / (h * gamma) ** gc

    def phi(pn, t):
        return pn * t - ell * t ** gc

    worst = 0.0
    for p in np.atleast_1d(np.asarray(p_samples, dtype=float)).reshape(len(p_samples), -1):
        pn = float(np.linalg.norm(p))
        target = h * pn ** gamma
        hi = 1.0
        while phi(pn, 2 * hi) > phi(pn, hi) and hi < 1e30:
            hi *= 2.0
        hi *= 2.0
        lo = 0.0
        best = 0.0  # q = 0 always admissible
        for _ in range(refinements):
            ts = np.linspace(lo, hi, grid_points)
            vals = phi(pn, ts)
            kk = int(np.argmax(vals))
            best = max(best, float(vals[kk]))
            lo = ts[max(kk - 1, 0)]
            hi = ts[min(kk + 1, grid_points - 1)]
        worst = max(worst, abs(best - target))
    return worst
