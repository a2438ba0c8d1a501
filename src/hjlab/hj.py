"""Backward viscous Hamilton-Jacobi solver.

Solves -du/dt - sigma*Lap(u) + h(x,t)|Du|^gamma = f(x,t) on the grid cylinder,
gamma > 2, marching from the terminal level with implicit diffusion and an
explicit Godunov Hamiltonian.  The time step adapts to the realized gradient;
constants are exact fixed points of the scheme.  The data h, f and the
lateral values are each one stack of the solve grid's levels, read exactly
on them and linearly between them: a field as it is (it must live on the
solve grid itself), a callable as grid.evaluate gives it at every node and
level, once per solve, and a number as a stack constant in time (its level
axis of stride 0), which is its one level at every t, as
grid.sample_points reads such a stack.  The Laplacian and the Godunov
gradient, in the march and in discrete_residual alike, come from the
grid's face table.

Each rung's diffusion matrix I - sigma dt L is inverted with numpy when the
grid's interior has at most DENSE_MAX nodes, and factored by LAPACK's banded
Cholesky above that (tridiagonal on 1D grids).  scipy is loaded by the
march's first banded factorization, not by importing this module: a march on
a small interior never loads it.  Every product with L or B (the lateral
terms, the linear residuals) is a grid.Stencil product, in numpy.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    Grid,
    NumericalFailure,
    ScalarField,
    bracket,
    evaluate,
    godunov_magnitude_gather,
)

CFL_EPS = 1e-12
MAX_HALVINGS = 10  # retries one rung down per substep
MAX_SUBSTEPS = 100000  # substeps per macro step
# Pending linear residual values (rows times interior nodes) at which one Stencil product forms them all; a row
# is one column's substep, so a block holds about as many values in 1D and 2D and for any batch size.  One thread
# of a 2-vCPU Xeon VM, numpy 2.4 and scipy 1.17, medians in ms of 15 runs of the README 1D solve-hj / a 2D
# manufactured solve-hj on 961 nodes / the README sweep-maxreg: 2^11 values 81.7 / 61.4 / 84.2, 2^13 80.5 / 59.3 /
# 80.0, 2^15 82.4 / 60.6 / 83.3.  A second round put the three within 4% of each other on every command.
RESIDUAL_BLOCK = 1 << 13
# Interior nodes up to which a rung's matrix is inverted with numpy, not factored by LAPACK's banded Cholesky.
# One thread of a 2-vCPU Xeon VM, numpy 2.4 and scipy 1.17, in us, dense vs banded:
#   1D, 63 / 127 / 191 / 255 nodes: factor 220 / 555 / 1687 / 4280 vs 4.9 / 3.2 / 3.9 / 4.5;
#     solve of one column 4.4 / 4.2 / 7.1 / 11.7 vs 1.3 / 1.7 / 2.3 / 3.0, of six 5.1 / 16.5 / 33.3 / 62.8 vs 3.3 / 6.2 / 9.1 / 13.7;
#   2D, 121 / 225 nodes: factor 807 / 3046 vs 25 / 35, solve of one column 5.6 / 8.9 vs 5.2 / 6.2, of six 19.1 / 43.9 vs 22.4 / 34.5.
# The banded kernel wins everywhere but on six 2D columns at 121 nodes.  The inverse stays because the
# banded kernel needs scipy.linalg, whose import in a fresh process costs 0.19-0.27 s and 28 MB, more than
# a whole small solve (the README 1D solve-hj: 934 solves, 4 factorizations).  Up to 128 nodes the dense
# solve's relative residual stays below 2e-13; the inverse's memory grows as n^2.
DENSE_MAX = 128


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
    """A check for _levels: ValueError at the first active node where datum name is not finite."""

    def check(grid, levels, ts):
        _reject(grid, levels, ts, np.isfinite(levels), f"{name} is not finite: {name}")

    return check


def _levels(grid: Grid, datum, check: Callable) -> np.ndarray:
    """datum's level stack on grid, prepared once per solve, shape (levels, *grid.shape).

    A ScalarField (on grid) is its values, a callable is evaluated once at
    every node and level as ScalarField.from_function evaluates it, and a
    number (None: zero) is broadcast over every node and level, a stack
    constant in time (its level axis of stride 0) as the sweep's forcing is.
    check(grid, levels, ts) sees every value first; of a stack constant in
    time, level 0 alone, which holds its first offending node.
    """
    if isinstance(datum, ScalarField):
        levels = datum.values
    elif callable(datum):
        levels = evaluate(datum, grid)
    else:
        levels = np.broadcast_to(0.0 if datum is None else float(datum), (grid.n_levels,) + grid.shape)
    n = 1 if levels.strides[0] == 0 else len(levels)
    check(grid, levels[:n], grid.ts[:n])
    return levels


def _batched(grid: Grid, stacks: list, nodes: np.ndarray) -> Callable:
    """idx -> t -> the data of the columns idx (a list) at the nodes (a mask of grid) at time t, one row per column.

    A row is its stack's level k where grid.bracket puts t on level k, and
    levels k and k + 1 blended otherwise; a stack constant in time is its
    level at every t.  When every stack is constant in time, the rows are
    stacked once per solve.  Otherwise they are stacked once per level for
    all the columns, gathered when the backward march first reads the level,
    and a batch of some of the columns copies its rows once per level.
    """
    const = np.array([s.strides[0] == 0 for s in stacks])
    if const.all():
        once = np.stack([s[0][nodes] for s in stacks])
        return lambda idx: lambda t, rows=once[idx]: rows
    stacked = functools.lru_cache(maxsize=2)(lambda k: np.array([s[k][nodes] for s in stacks]))
    ts = grid.ts.tolist()

    def bind(idx):
        keep = const[idx]  # the rows constant in time, or None when there are none
        keep = keep if keep.any() else None
        # idx ascends, so a batch of every column reads the stacked rows as they are
        level = stacked if len(idx) == len(stacks) else functools.lru_cache(maxsize=2)(lambda k: stacked(k)[idx])

        def at(t):
            k, f = bracket(ts, t, grid.dt)
            lo = level(k)
            if f == 0:
                return lo
            rows = (1 - f) * lo + f * level(k + 1)
            if keep is not None:
                rows[keep] = lo[keep]
            return rows

        return at

    return bind


def _batched_lateral(B, sigma: float, macro_dt: float, stacks: list, nodes: np.ndarray) -> Callable:
    """idx -> (bnd, j) -> the lateral term sigma * dt_j * (B @ bnd) of the columns idx on rung j.

    B is the _March's, and bnd what _batched gives for the columns' lateral
    stacks at the boundary nodes at the substep's end.  Each row has the
    bits of one column's vector product.  A batch whose stacks are all
    constant in time forms its terms once per rung; others form them per
    substep.
    """
    const = np.array([s.strides[0] == 0 for s in stacks])
    term = lambda bnd, j: sigma * math.ldexp(macro_dt, -j) * (B @ bnd.T).T

    def bind(idx):
        if const[idx].all():
            mine = functools.cache(lambda j, bnd=np.stack([stacks[i][0][nodes] for i in idx]): term(bnd, j))
            return lambda bnd, j: mine(j)
        return term

    return bind


@dataclass
class HJProblem:
    """The data of one backward HJ problem.

    h, f and lateral are read on the solve grid's levels, linearly between
    them; a callable among them is evaluated once per solve, at every node
    and level, as ScalarField.from_function evaluates it, and a number is
    its level at every t.
    """

    gamma: float
    sigma: float
    h0: float
    h1: float
    h: object = None  # number, callable(x, t) or ScalarField; default h0
    f: object = 0.0  # None (zero), number, callable(x, t) or ScalarField
    terminal: object = 0.0  # constant, callable(x) or ScalarField for u(., T)
    lateral: object = 0.0  # number, callable(x, t) or ScalarField, read on the boundary layer

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


LOG_FIELDS = ("t_from", "t_to", "dt", "halvings", "linear_residual", "godunov_max")


@dataclass
class HJSolution:
    """The levels u of a march, and one tuple of LOG_FIELDS per accepted substep, in march order.

    The levels below the march's down_to level are NaN.
    """

    u: ScalarField
    substeps: list

    @property
    def log(self) -> list:
        """The substeps as dicts keyed by LOG_FIELDS, built when read."""
        return [dict(zip(LOG_FIELDS, row)) for row in self.substeps]


# -- solver -----------------------------------------------------------------------


def solve_hj(problem: HJProblem, grid: Grid, gradient_bound: float | None = None) -> HJSolution:
    """March the backward equation from the terminal level: solve_hj_many with one problem.

    Its NumericalFailure is raised.
    """
    (result,) = solve_hj_many([problem], grid, [gradient_bound])
    if isinstance(result, NumericalFailure):
        raise result
    return result


def solve_hj_many(problems, grid: Grid, gradient_bounds=None, down_to: int = 0) -> list:
    """March several problems on one grid: an HJSolution or a NumericalFailure for each.

    Each problem (a column) is marched as if alone, with its own
    gradient_bounds entry (default None; else a finite number >= 0), from
    the terminal level down to level down_to (an int in 0..nt, default 0).
    The levels below it are NaN, so a norm that reads one is NaN; the
    marched levels, the log and a failure on the way are those of the march
    to level 0, bit for bit, and a failure below down_to is never met.
    Diffusion is implicit (a direct solve per step), the Hamiltonian
    h * (Godunov |Du|)^gamma explicit.  Every substep length is a dyadic
    rung grid.dt / 2**j: the largest rung that fits in what is left of the
    macro step and satisfies dt <= dx / (gamma*h1*P^(gamma-1) + eps) for P
    the larger of the column's current Godunov gradient and its gradient
    bound.  A step whose realized gradient invalidates its own dt
    is retried one rung down, at most MAX_HALVINGS times, and a macro step
    may not need more than MAX_SUBSTEPS substeps.  The time left in a macro
    step is kept as an exact dyadic fraction, so round-off never opens an
    extra rung.

    A substep is the explicit update, one linear solve and one Godunov pass
    over the interior nodes, gathered from their face neighbours.  The
    diffusion matrix is factored once per sigma and rung used: inverted
    with numpy when the interior has at most DENSE_MAX nodes (a solve is
    one matrix-vector product per column, and scipy is never loaded), and
    factored by LAPACK's banded Cholesky above that (dpttrf on 1D grids,
    dpbtrf on 2D ones, whose band is one grid row wide).  A non-finite
    solve is a NumericalFailure naming the first non-finite node and the
    time, and a substep still breaking its CFL bound after MAX_HALVINGS
    retries one naming the interior node of the largest Godunov magnitude.
    Each accepted substep's relative linear residual
    max|(I - sigma dt L) sol - rhs| / max(1, max|rhs|) is logged; the
    residuals are formed by one grid.Stencil product (with the bits of
    scipy's sparse product) once the pending substeps' rows
    times the interior nodes reach RESIDUAL_BLOCK values, and a row's
    residual is its own product row and its own max, as one mat-vec per
    substep gives it.  A column that fails drops out
    and the others go on.

    Columns with the same sigma, gamma and h1 start each level as one batch
    (_March.family), which takes a substep with one solve call: both
    kernels solve each right-hand side on its own.  A batch parts where its
    columns pick different rungs, pass the CFL check apart or blow up, and
    its parts meet again at the level.  Every column's values, log and
    failure are those of its solo march, bit for bit.

    A field datum must live on grid (ValueError naming both GridSpecs
    otherwise).  A callable h, f or lateral datum is evaluated once, at
    every node and level of grid, as ScalarField.from_function evaluates
    it, and the march reads it on those levels as it reads a field; a
    number is read as the stack constant in time that np.broadcast_to
    makes of it.  Before any factorization, a ValueError names a bad
    gradient bound and its problem's position, an h that leaves [h0, h1],
    or a terminal level, f or lateral datum that is not finite, with the
    value, the first offending active node (level, then C order) and its
    time.
    """
    problems = list(problems)
    bounds = [None] * len(problems) if gradient_bounds is None else list(gradient_bounds)
    if len(bounds) != len(problems):
        raise ValueError(f"{len(bounds)} gradient bounds for {len(problems)} problems")
    for i, b in enumerate(bounds):
        if b is not None and not 0.0 <= b < math.inf:
            raise ValueError(f"gradient bound of problem {i} must be a finite number >= 0, got {b!r}")
    nt = grid.spec.nt
    if not 0 <= operator.index(down_to) <= nt:
        raise ValueError(f"down_to must be a level in 0..{nt}, got {down_to!r}")
    march = _March(grid)
    cols = [_Column(i, p, b, march) for i, p, b in zip(range(len(problems)), problems, bounds)]
    # every level from down_to up is written for a column that does not fail
    march.levels = np.empty((len(cols), nt + 1, grid.active.size))
    march.levels[:, :down_to] = np.nan
    families = {}
    for c in cols:
        march.levels[c.index, nt] = c.terminal.ravel()
        families.setdefault((c.problem.sigma, c.problem.gamma, c.problem.h1), []).append(c)
    # a blow-up shows as non-finite values, checked after each solve, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for family in families.values():
            march.family(family, down_to)
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
        for datum in (problem.h, problem.f, problem.terminal, problem.lateral):
            if isinstance(datum, ScalarField) and datum.grid.spec != grid.spec:
                raise ValueError(f"field lives on {datum.grid.spec}, not on the solve grid {grid.spec}")
        self.index, self.problem = index, problem
        self.h = _levels(grid, problem.h, problem.check_h)
        self.f = _levels(grid, problem.f, _finite("f"))
        self.terminal = np.empty(grid.shape)
        self.terminal[...] = problem.terminal_level(grid)
        _finite("terminal")(grid, self.terminal[None], grid.ts[-1:])
        self.terminal[~grid.active] = 0.0
        self.lateral = _levels(grid, problem.lateral, _finite("lateral"))
        self.P_user = gradient_bound if gradient_bound is not None else 0.0
        self.cfl_user = _cfl_dt(self.P_user, problem.gamma, problem.h1, grid.dx)
        self.log = []
        self.failure = None


def _cfl_dt(P, gamma, h1, dx):
    return dx / (gamma * h1 * max(P, 0.0) ** (gamma - 1.0) + CFL_EPS)


def _rungs(left, e, cfls, macro_dt) -> list:
    """The rung j of a fresh substep for each CFL step in cfls: the largest macro_dt / 2**j within the time left, left / 2**e macro steps, and within the step."""
    j0 = max(0, e + 1 - left.bit_length())  # the least j with macro_dt / 2**j within the time left
    rungs = []
    for limit in cfls:
        j = j0
        while math.ldexp(macro_dt, -j) > limit:
            j += 1
        rungs.append(j)
    return rungs


def _index(idx):
    """idx (ascending ints) as numpy indexes it fastest: a slice for a run, else an array."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return np.asarray(idx)


class _DenseInverse:
    """A small matrix's inverse; solve takes right-hand sides as rows, one matrix-vector product each.

    np.matmul runs one GEMV per row, so a row's solution has the same bits
    alone and in any batch.
    """

    def __init__(self, A):
        self.inv = np.linalg.inv(A)

    def solve(self, rows):
        return np.matmul(self.inv, rows[:, :, None])[:, :, 0]


class _BandedCholesky:
    """A symmetric positive definite band matrix factored by LAPACK; solve takes right-hand sides as rows.

    ab is the matrix's upper triangle in LAPACK's band storage (Stencil.upper_band):
    a tridiagonal matrix (one superdiagonal) goes to dpttrf/dpttrs, a wider
    band to dpbtrf/dpbtrs.  Both solves handle each right-hand side on its
    own, so a row's solution has the same bits alone and in any batch.
    """

    def __init__(self, ab):
        from scipy.linalg import lapack

        if len(ab) == 2:
            d, e, info = lapack.dpttrf(ab[1], ab[0, 1:])
            self.solve_columns = lambda b: lapack.dpttrs(d, e, b)[0]
        else:
            c, info = lapack.dpbtrf(ab)
            self.solve_columns = lambda b: lapack.dpbtrs(c, b)[0]
        # info > 0 says the matrix is not positive definite, as I - sigma dt L always is
        if info != 0:
            raise NumericalFailure(f"banded Cholesky factorization failed (info={info})")

    def solve(self, rows):
        # rows.T is Fortran-ordered, as LAPACK takes its columns; the solves report only illegal arguments
        return self.solve_columns(rows.T).T


class _March:
    """What the columns of one march share: the grid's operators, the rung solves, the levels and the pending log."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.n_int = n_int = int(grid.interior.sum())
        self.dense = n_int <= DENSE_MAX  # the rung matrices are inverted, not factored by LAPACK
        self.L, self.B = grid.laplacian_stencils()
        # the rung matrices' L: dense up to DENSE_MAX nodes, its upper band in LAPACK's storage above
        self.L_factored = self.L.dense() if self.dense else self.L.upper_band()
        self.ts = grid.ts.tolist()
        self.solves = {}
        # A state holds a level of some columns, one column each, in slots: the
        # interior nodes, the boundary layer's, and one zero row for the inactive ones.
        self.nodes = np.concatenate([np.flatnonzero(grid.interior), np.flatnonzero(grid.boundary)])
        self.slot = np.full(grid.active.size, len(self.nodes))
        self.slot[self.nodes] = np.arange(len(self.nodes))
        self.neighbours = self.slot[grid.interior_neighbours()]
        # A -inf solve value turns the Godunov magnitude non-finite only at its
        # interior neighbours; an interior node without one needs its own check.
        self.lone = not (self.neighbours < n_int).any(axis=(0, 1)).all()
        # accepted batch substeps whose linear residuals are not formed yet, their solutions and right-hand sides as
        # rows, and how many rows they hold
        self.pending, self.pending_rows = [], 0
        self.levels = None

    def factor(self, sigma, j):
        """Rung j's solve for sigma: right-hand sides as rows -> their solutions with I - sigma dt_j L as rows.

        The matrix is inverted when the interior has at most DENSE_MAX nodes,
        and factored by LAPACK's banded Cholesky above that.
        """
        solves = self.solves.setdefault(sigma, {})
        if j not in solves:
            c = sigma * math.ldexp(self.grid.dt, -j)
            L = self.L_factored
            if self.dense:
                solves[j] = _DenseInverse(np.identity(self.n_int) - c * L).solve
            else:
                identity = np.zeros_like(L)
                identity[-1] = 1.0  # the diagonal's row
                solves[j] = _BandedCholesky(identity - c * L).solve
        return solves[j]

    def family(self, cols, down_to):
        """March the columns of one family (shared sigma, gamma and h1) from the terminal level to level down_to.

        The live columns start each level as one batch, which keeps its
        interior values V and Godunov magnitudes G with one row per column
        and takes each substep with one solve call.  A batch parts where its
        columns pick different rungs, where the CFL check passes only some
        of them, or where some blow up.  Each part marches alone to the
        level, and the parts meet there as one batch; a batch that holds
        every live column goes straight on.  A part is its columns, their V,
        G and CFL steps, its place left / 2**e macro steps before the level
        at time t, its substeps in the macro step, and the rung and halvings
        of its next try (rung None: a fresh substep, on the rung the CFL
        steps pick).
        """
        grid, neighbours, lone, pending, ts, n_int, slot = self.grid, self.neighbours, self.lone, self.pending, self.ts, self.n_int, self.slot
        dx, macro_dt, n_rows = grid.dx, grid.dt, len(self.nodes) + 1
        p = cols[0].problem
        sigma, gamma, gh, gm1 = p.sigma, p.gamma, p.gamma * p.h1, p.gamma - 1.0
        solves, m = self.solves.setdefault(sigma, {}), len(cols)  # by rung
        # the interior nodes' neighbours in a flattened state of b rows
        neighbours_of = functools.lru_cache(lambda b: neighbours[:, :, None, :] + n_rows * np.arange(b)[:, None])
        state = np.zeros((m, n_rows))
        state[:, :-1] = np.stack([c.terminal.ravel()[self.nodes] for c in cols])
        V = state[:, :n_int]
        G = godunov_magnitude_gather(V, state, neighbours_of(m), dx)
        f_of, h_of = _batched(grid, [c.f for c in cols], grid.interior), _batched(grid, [c.h for c in cols], grid.interior)
        lateral = [c.lateral for c in cols]
        lateral_of, term_of = _batched(grid, lateral, grid.boundary), _batched_lateral(self.B, sigma, macro_dt, lateral, grid.boundary)
        bounds = [(c.P_user, c.cfl_user) for c in cols]
        # the next rung is chosen for the larger of the gradient and the column's bound
        cfl = [u if P > g else _cfl_dt(g, gamma, p.h1, dx) for (P, u), g in zip(bounds, G.max(axis=1).tolist())]

        @functools.cache
        def bind(idx):
            """The columns idx (a tuple), where their levels go, their bounds and their data."""
            rows = list(idx)
            batch = [cols[i] for i in rows]
            return batch, _index([c.index for c in batch]), [bounds[i] for i in rows], f_of(rows), h_of(rows), lateral_of(rows), term_of(rows)

        def part(idx, V_b, G_b, cfl_b, sel, *place):
            """The part of the rows sel of a batch's columns, V, G and CFL steps, at place."""
            return (tuple(idx[c] for c in sel), V_b[sel], G_b[sel], [cfl_b[c] for c in sel], *place)

        batch = tuple(range(m)), V, G, cfl
        for k in range(len(ts) - 2, down_to - 1, -1):
            parts, reached = [(*batch, 1, 0, ts[k + 1], 0, None, 0)], []
            while parts:
                idx, V_b, G_b, cfl_b, lf, ef, t_from, subs, j, halvings = parts.pop()
                cols_b, at, bounds_b, f_at, h_at, lateral_at, term_at = bind(idx)
                b = len(idx)
                state = np.zeros((b, n_rows))
                while True:
                    if j is None:  # a fresh substep
                        subs += 1
                        if subs > MAX_SUBSTEPS:
                            for c in cols_b:
                                c.failure = NumericalFailure(f"CFL subcycle limit exceeded: > {MAX_SUBSTEPS} substeps in one macro step")
                            break
                        rungs = _rungs(lf, ef, cfl_b, macro_dt)
                        j, halvings = rungs[0], 0
                        if rungs.count(j) < b:  # the batch parts by rung
                            for r in dict.fromkeys(rungs):
                                parts.append(part(idx, V_b, G_b, cfl_b, [c for c, x in enumerate(rungs) if x == r], lf, ef, t_from, subs, r, 0))
                            break
                    hamiltonian = G_b ** gamma
                    while True:  # tries on rung j, then one rung down while the whole batch breaks its CFL bound
                        dt = math.ldexp(macro_dt, -j)
                        if j > ef:
                            lf, ef = lf << (j - ef), j
                        lf_new = lf - (1 << (ef - j))
                        t_new = ts[k] + (lf_new / (1 << ef)) * macro_dt
                        f = f_at(t_new)
                        rhs = h_at(t_new) * hamiltonian  # then V_b + dt * (f - rhs) + the lateral term, in place
                        np.subtract(f, rhs, out=rhs)
                        rhs *= dt
                        rhs += V_b
                        bnd_new = lateral_at(t_new)
                        rhs += term_at(bnd_new, j)
                        sol = (solves[j] if j in solves else self.factor(sigma, j))(rhs)
                        state[:, :n_int] = sol
                        state[:, n_int:-1] = bnd_new
                        G_new = godunov_magnitude_gather(sol, state, neighbours_of(b), dx)
                        g_max = G_new.max(axis=1).tolist()
                        blown = []
                        if lone or not all(map(math.isfinite, g_max)):
                            blown = [c for c, g in enumerate(g_max) if (lone or not math.isfinite(g)) and not np.isfinite(sol[c]).all()]
                        cfl_new = [dx / (gh * max(g, 0.0) ** gm1 + CFL_EPS) for g in g_max]  # _cfl_dt, inlined
                        ok = [dt <= x * (1.0 + 1e-12) for x in cfl_new]
                        if blown or True in ok or halvings >= MAX_HALVINGS:
                            break
                        halvings += 1
                        j += 1
                    if blown or False in ok:  # the batch parts: the blown fail, the rejected retry one rung down, the others march on
                        acc, rejected = [], []
                        for c, passed in enumerate(ok):
                            if c in blown:
                                cols_b[c].failure = self.blowup(sol[c], t_new)
                            elif passed:
                                acc.append(c)
                            elif halvings >= MAX_HALVINGS:
                                cols_b[c].failure = self.retry_failure(G_new[c], t_new)
                            else:
                                rejected.append(c)
                        if rejected:
                            parts.append(part(idx, V_b, G_b, cfl_b, rejected, lf, ef, t_from, subs, j + 1, halvings + 1))
                        if not acc:
                            break
                        idx, g_max, cfl_new = tuple(idx[c] for c in acc), [g_max[c] for c in acc], [cfl_new[c] for c in acc]
                        sol, G_new, rhs, state, b = sol[acc], G_new[acc], rhs[acc], state[acc], len(acc)
                        cols_b, at, bounds_b, f_at, h_at, lateral_at, term_at = bind(idx)
                    pending.append((cols_b, t_from, t_new, sigma * dt, dt, halvings, g_max, sol, rhs))
                    self.pending_rows += b
                    if self.pending_rows * n_int >= RESIDUAL_BLOCK:
                        self.log_pending()
                    cfl_b = [u if P > g else x for (P, u), g, x in zip(bounds_b, g_max, cfl_new)]
                    V_b, G_b, t_from, lf, j = sol, G_new, t_new, lf_new, None
                    if not lf:  # level k reached
                        self.levels[at, k] = state.take(slot, axis=1)
                        reached.append((idx, V_b, G_b, cfl_b))
                        break
            if len(reached) == 1:
                batch = reached[0]
            elif reached:  # the parts meet as one batch, its columns in order
                idx, V_b, G_b, cfl_b = map(np.concatenate, zip(*reached))
                order = np.argsort(idx)
                batch = tuple(idx[order].tolist()), V_b[order], G_b[order], cfl_b[order].tolist()
            else:
                return

    def node(self, i):
        """The coordinates of interior node i (C order) as a tuple."""
        return tuple(self.grid.coords.reshape(-1, self.grid.dim)[self.nodes[i]].tolist())

    def retry_failure(self, G, t):
        """The failure of a column whose substep ended at t with the interior Godunov magnitudes G still breaking its CFL bound.

        It names the first interior node (C order) where G is largest.
        """
        return NumericalFailure(f"CFL retry limit exceeded at node x={self.node(int(np.argmax(G)))}, t={t}")

    def blowup(self, sol, t):
        """The failure of a column whose solve gave the interior values sol at t, some not finite: the first such node."""
        return NumericalFailure(f"blow-up detected at (x={self.node(int(np.argmax(~np.isfinite(sol))))}, t={t})")

    def log_pending(self):
        """The pending substeps' linear residuals, one Stencil product for all, into their columns' logs as LOG_FIELDS tuples."""
        if not self.pending:
            return
        sols = np.concatenate([p[7] for p in self.pending])
        rhss = np.concatenate([p[8] for p in self.pending])
        coef = np.repeat([p[3] for p in self.pending], [len(p[0]) for p in self.pending])
        res = np.abs(sols - coef[:, None] * (self.L @ sols.T).T - rhss).max(axis=1).tolist()
        rows = zip(res, np.abs(rhss).max(axis=1).tolist())
        for cols, t0, t1, _, dt, n, g_max, _, _ in self.pending:
            for c, g, (r, scale) in zip(cols, g_max, rows):
                c.log.append((t0, t1, dt, n, r / max(1.0, scale), g))  # LOG_FIELDS
        self.pending.clear()
        self.pending_rows = 0


def discrete_residual(u: ScalarField, problem: HJProblem) -> ScalarField:
    """Defect of the stored-level scheme equation at interior nodes.

    -(u^{k+1}-u^k)/dt - sigma*Lap(u^k) + h(t_k)*Godunov(u^{k+1})^gamma - f(t_k),
    all levels k < nt at once (the last level is 0); zero when the marching
    needed no substepping, otherwise it carries the splitting/substep
    consistency error.  h is checked against [h0, h1] on every level used.
    The operators are the march's: the Laplacian L @ u_int + B @ u_bnd of
    grid.laplacian_stencils, and the Godunov magnitude gathered from the
    face neighbours.
    """
    g = u.grid
    ts = g.ts[:-1]
    h = evaluate(problem.h, g, ts)
    problem.check_h(g, h, ts)
    inner = g.interior.ravel()
    L, B = g.laplacian_stencils()
    flat = u.values.reshape(g.n_levels, -1)
    now, after = flat[:-1], flat[1:]
    neighbours = g.interior_neighbours()[:, :, None, :] + flat.shape[1] * np.arange(len(after))[:, None]
    lap = (L @ now[:, inner].T + B @ now[:, g.boundary.ravel()].T).T
    r = (
        -(after[:, inner] - now[:, inner]) / g.dt
        - problem.sigma * lap
        + h.reshape(len(ts), -1)[:, inner] * godunov_magnitude_gather(after[:, inner], after, neighbours, g.dx) ** problem.gamma
        - evaluate(problem.f, g, ts).reshape(len(ts), -1)[:, inner]
    )
    out = np.zeros(u.values.shape)
    out[:-1].reshape(len(ts), -1)[:, inner] = r
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
    h_const = None if callable(h) or isinstance(h, ScalarField) else float(0.0 if h is None else h)

    def f(x, t):
        phi, grad_phi, lap_phi = spatial(x)
        psi = ms.psi(t)
        grad = grad_phi * psi
        grad *= grad
        gsq = grad[..., 0]  # plain adds: the same bits as np.sum over one or two axes, without its overhead
        for a in range(1, grad.shape[-1]):
            gsq = gsq + grad[..., a]
        h_at = h_const if h_const is not None else evaluate(h, None, t, x)
        return -(phi * ms.dpsi(t)) - sigma * (lap_phi * psi) + h_at * np.sqrt(gsq) ** gamma

    return f


def manufactured_problem(
    ms: ManufacturedSolution, gamma: float, sigma: float, h0: float, h1: float, h=None
) -> HJProblem:
    """The problem ms solves with coefficient h (default h0): its f and lateral data; no terminal data.

    The caller sets `terminal` to ms.terminal(T) for its horizon T.
    """
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


def solve_manufactured(ms, gamma, sigma, grid, gradient_bound=None):
    """Solve the problem of ms with h = h0 = h1 = 1 and ms's terminal data on grid."""
    p = manufactured_problem(ms, gamma, sigma, 1.0, 1.0)
    p.terminal = ms.terminal(grid.ts[-1])
    return solve_hj(p, grid, gradient_bound=gradient_bound)


def linf_error(u: ScalarField, exact: Callable) -> float:
    """max |u - exact| over the active nodes and levels of u's grid, exact(x, t) read as grid.evaluate reads it."""
    g = u.grid
    return float(np.max(np.abs(u.values - evaluate(exact, g))[:, g.active]))


# -- Legendre-transform gap ----------------------------------------------------------


def legendre_gap(h: float, gamma: float, p_samples):
    """max_p |sup_q {p.q - ell|q|^gc} - h|p|^gamma|, the sup in closed form.

    ell = h(gamma-1)/(h*gamma)^gc and gc = gamma/(gamma-1).  At |q| = t the
    objective is largest for q parallel to p, where it is
    phi(t) = |p|t - ell*t^gc, concave on t >= 0 since gc > 1.  phi'(t*) = 0 at
    t* = (|p|/(gc*ell))^(1/(gc-1)); with gc*ell = (h*gamma)^(1-gc) and
    1/(gc-1) = gamma-1 this is t* = h*gamma*|p|^(gamma-1), and
    phi(t*) = t*(|p| - ell*t*^(gc-1)) = t*|p|(1 - 1/gc) = h|p|^gamma.  The gap
    is phi evaluated at t* against h|p|^gamma, so it is round-off.
    """
    if h <= 0 or gamma <= 2:
        raise ValueError("need h > 0 and gamma > 2")
    gc = gamma_conjugate(gamma)
    ell = h * (gamma - 1.0) / (h * gamma) ** gc
    ps = np.asarray(p_samples, dtype=float)
    pn = np.linalg.norm(ps.reshape(len(ps), -1), axis=1)
    t = h * gamma * pn ** (gamma - 1.0)
    return float(np.max(np.abs(pn * t - ell * t ** gc - h * pn ** gamma), initial=0.0))
