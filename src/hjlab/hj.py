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
from typing import Callable

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
RESIDUAL_BLOCK = 32  # accepted substeps whose linear residuals one sparse product forms


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


def _interior_sampler(grid: Grid, obj, check=None):
    """t -> obj at the interior nodes, prepared once per solve.

    Values are those of evaluate(obj, grid, t) restricted to the interior.
    A constant comes back as a float.  A ScalarField (on grid) takes the
    level pair that bracket gives for t, and blends them unless t is a
    level; a backward march gathers each level's interior nodes once.  A callable is evaluated
    at every call.  check(grid, levels, ts), if given, sees every value that
    can come back: a constant's or a field's once, here, and a callable's at
    each call.
    """
    interior = grid.interior
    if isinstance(obj, ScalarField):
        if check is not None:
            check(grid, obj.values, grid.ts)
        ts = grid.ts.tolist()

        @functools.lru_cache(maxsize=2)  # a backward march reads levels k and k + 1, k falling
        def level(k):
            return obj.values[k][interior]

        def at(t):
            k, f = bracket(ts, t, grid.dt)
            lo = level(k)
            return lo if f == 0 else (1 - f) * lo + f * level(k + 1)

        return at
    if callable(obj):

        def at(t):
            arr = evaluate(obj, grid, t)
            if check is not None:
                check(grid, arr[None], [t])
            return arr[interior]

        return at
    c = 0.0 if obj is None else float(obj)
    if check is not None:
        check(grid, np.full((1,) + grid.shape, c), grid.ts[:1])
    return lambda t: c


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
    """March the backward equation from the terminal level.

    Diffusion is implicit (direct sparse solve per step), the Hamiltonian
    h * (Godunov |Du|)^gamma explicit.  Every substep length is a dyadic rung
    grid.dt / 2**j: the largest rung that fits in what is left of the macro
    step and satisfies dt <= CFL_SAFETY * dx / (gamma*h1*P^(gamma-1) + eps)
    for P the larger of the current Godunov gradient and gradient_bound.  A
    step whose realized gradient invalidates its own dt is retried one rung
    down, at most MAX_HALVINGS times, and a macro step may not need more
    than MAX_SUBSTEPS substeps.  The time left in a macro step is kept as an
    exact dyadic fraction, so round-off never opens an extra rung, and the
    diffusion matrix is LU-factored once per rung used.

    A substep is the explicit update, one LU solve and one Godunov pass over
    the interior nodes, gathered from their face neighbours.  A non-finite
    solve is a NumericalFailure naming the first non-finite node and the
    time.  Each accepted substep's relative linear residual
    max|(I - sigma dt L) sol - rhs| / max(1, max|rhs|) is logged; the
    residuals are formed after the solves, RESIDUAL_BLOCK substeps per
    sparse product, and equal those of one mat-vec per substep.

    A field h, f or terminal datum must live on grid (ValueError naming both
    GridSpecs otherwise).  What cannot change within the solve is prepared
    and checked before the march, before any factorization: a constant or
    ScalarField h against [h0, h1] on all its nodes; the terminal level, a
    constant or ScalarField f and constant lateral data for finiteness
    (ValueError naming the datum, its value, the first offending node and
    its time).  Constant h, f and lateral data become scalars or one vector
    (the lateral term once per rung), a callable lateral datum is evaluated
    at boundary-layer coordinates gathered once, and a field's two
    bracketing levels are gathered once per macro step.  A callable h is
    checked each time it is evaluated; a callable f or lateral datum that is
    not finite shows as a blow-up.
    """
    for datum in (problem.h, problem.f, problem.terminal):
        if isinstance(datum, ScalarField) and datum.grid.spec != grid.spec:
            raise ValueError(f"field lives on {datum.grid.spec}, not on the solve grid {grid.spec}")
    h_at = _interior_sampler(grid, problem.h, problem.check_h)
    f_at = _interior_sampler(grid, problem.f, None if callable(problem.f) else _finite("f"))
    nt = grid.spec.nt
    levels = np.zeros((nt + 1,) + grid.shape)
    levels[nt] = problem.terminal_level(grid)
    _finite("terminal")(grid, levels[nt:], grid.ts[nt:])
    levels[nt][~grid.active] = 0.0

    L, B, int_idx, _ = grid.laplacian_ops()
    dx, macro_dt = grid.dx, grid.dt
    sigma = problem.sigma
    int_mask, bnd_mask = grid.interior, grid.boundary
    n_int = len(int_idx)
    eye = sp.identity(n_int, format="csc")
    lu_cache: dict[int, object] = {}
    bnd_xs = grid.coords[bnd_mask]
    if callable(problem.lateral):

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

    def factor(j):
        if j not in lu_cache:
            lu_cache[j] = spla.splu((eye - sigma * math.ldexp(macro_dt, -j) * L).tocsc())
        return lu_cache[j]

    def blowup_at(arr, t):
        bad = np.argwhere(~np.isfinite(arr))
        idx = tuple(int(i) for i in bad[0]) if len(bad) else None
        x = grid.coords[idx].tolist() if idx is not None else None
        raise NumericalFailure(f"blow-up detected at (x={None if x is None else tuple(x)}, t={t})")

    def cfl_dt(P):
        return dx / (problem.gamma * problem.h1 * max(P, 0.0) ** (problem.gamma - 1.0) + CFL_EPS)

    # The march state: the interior values, then the boundary layer's, and
    # each interior node's face neighbours as positions in it.
    v_int = levels[nt][int_mask]  # the interior of the accepted substep
    state = np.concatenate((v_int, levels[nt][bnd_mask]))
    slot = np.empty(grid.active.size, dtype=np.intp)
    slot[int_mask.ravel()] = np.arange(n_int)
    slot[bnd_mask.ravel()] = np.arange(n_int, len(state))
    neighbours = slot[grid.interior_neighbours()]
    # A -inf solve value turns the Godunov magnitude non-finite only at its
    # interior neighbours; an interior node without one needs its own check.
    lone = not (neighbours < n_int).any(axis=(0, 1)).all()

    log = []
    pending = []  # accepted substeps whose linear residuals are not formed yet

    def log_pending():
        t_from, t_to, dts, halvings, g_max, sols, rhss = zip(*pending)
        sols, rhss = np.array(sols), np.array(rhss)
        res = np.abs(sols - (sigma * np.array(dts))[:, None] * (L @ sols.T).T - rhss).max(axis=1)
        scales = np.abs(rhss).max(axis=1)
        for t0, t1, dt, n, r, scale, g in zip(t_from, t_to, dts, halvings, res.tolist(), scales.tolist(), g_max):
            log.append(
                {
                    "t_from": t0,
                    "t_to": t1,
                    "dt": dt,
                    "halvings": n,
                    "linear_residual": r / max(1.0, scale),
                    "godunov_max": g,
                }
            )
        pending.clear()

    P_user = gradient_bound if gradient_bound is not None else 0.0
    cfl_user = cfl_dt(P_user)
    G_int = godunov_magnitude_gather(v_int, state, neighbours, dx)
    G_max = float(G_int.max())
    cfl_cur = cfl_dt(max(G_max, P_user))
    t_cur = float(grid.ts[-1])
    for k in range(nt - 1, -1, -1):
        t_target = float(grid.ts[k])
        # time left in this macro step: left / 2**e units of grid.dt
        left, e = 1, 0
        substeps = 0
        while left > 0:
            substeps += 1
            if substeps > MAX_SUBSTEPS:
                raise NumericalFailure(
                    f"CFL subcycle limit exceeded: > {MAX_SUBSTEPS} substeps in one macro step"
                )
            limit = CFL_SAFETY * cfl_cur
            j = 0
            while (left << j) < (1 << e) or math.ldexp(macro_dt, -j) > limit:
                j += 1
            hamiltonian = G_int ** problem.gamma
            halvings = 0
            while True:
                dt = math.ldexp(macro_dt, -j)
                if j > e:
                    left, e = left << (j - e), j
                left_new = left - (1 << (e - j))
                t_new = t_target + (left_new / (1 << e)) * macro_dt
                rhs = v_int + dt * (f_at(t_new) - h_at(t_new) * hamiltonian)
                bnd_new, lateral_term = lateral_at(t_new, j)
                rhs += lateral_term
                sol = factor(j).solve(rhs)
                state[:n_int] = sol
                state[n_int:] = bnd_new
                G_new_int = godunov_magnitude_gather(sol, state, neighbours, dx)
                G_new_max = float(G_new_int.max())
                if (lone or not math.isfinite(G_new_max)) and not np.isfinite(sol).all():
                    full = np.zeros(grid.shape)
                    full[int_mask] = sol
                    blowup_at(full, t_new)
                cfl_new = cfl_dt(G_new_max)
                if dt <= cfl_new * (1.0 + 1e-12):
                    break
                halvings += 1
                if halvings > MAX_HALVINGS:
                    v = np.zeros(grid.shape)
                    v[int_mask] = sol
                    v[bnd_mask] = bnd_new
                    worst = np.argwhere(godunov_magnitude_level(v, dx) == G_new_max)
                    idx = tuple(int(i) for i in worst[0])
                    raise NumericalFailure(
                        f"CFL retry limit exceeded at node x={tuple(grid.coords[idx].tolist())}, t={t_new}"
                    )
                j += 1
            pending.append((t_cur, t_new, dt, halvings, G_new_max, sol, rhs))
            if len(pending) == RESIDUAL_BLOCK:
                log_pending()
            v_int, G_int = sol, G_new_int
            cfl_cur = cfl_user if P_user > G_new_max else cfl_new
            t_cur = t_new
            left = left_new
        levels[k][int_mask] = sol
        levels[k][bnd_mask] = bnd_new
    if pending:
        log_pending()

    return HJSolution(u=ScalarField(grid, levels), log=log)


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


@dataclass
class ManufacturedSolution:
    """Closed-form u with analytic time derivative, gradient and Laplacian."""

    u: Callable  # (coords, t) -> values
    u_t: Callable
    grad: Callable  # (coords, t) -> (..., N)
    lap: Callable
    name: str = ""

    def terminal(self, T):
        return lambda x: self.u(x, T)

    def lateral(self):
        return lambda x, t: self.u(x, t)


def ms_sine(T: float) -> ManufacturedSolution:
    """u = sin(pi x1) (T - t)."""
    return ManufacturedSolution(
        u=lambda x, t: np.sin(np.pi * x[..., 0]) * (T - t),
        u_t=lambda x, t: -np.sin(np.pi * x[..., 0]) * np.ones_like(x[..., 0]),
        grad=lambda x, t: np.stack(
            [np.pi * np.cos(np.pi * x[..., 0]) * (T - t)]
            + [np.zeros_like(x[..., 0])] * (x.shape[-1] - 1),
            axis=-1,
        ),
        lap=lambda x, t: -np.pi ** 2 * np.sin(np.pi * x[..., 0]) * (T - t),
        name="sine",
    )


def ms_cosine(T: float, A: float = 1.0) -> ManufacturedSolution:
    """u = A cos(pi x1 / 2) (T - t); symmetric bump, zero at x1 = +-1."""
    return ManufacturedSolution(
        u=lambda x, t: A * np.cos(0.5 * np.pi * x[..., 0]) * (T - t),
        u_t=lambda x, t: -A * np.cos(0.5 * np.pi * x[..., 0]) * np.ones_like(x[..., 0]),
        grad=lambda x, t: np.stack(
            [-A * 0.5 * np.pi * np.sin(0.5 * np.pi * x[..., 0]) * (T - t)]
            + [np.zeros_like(x[..., 0])] * (x.shape[-1] - 1),
            axis=-1,
        ),
        lap=lambda x, t: -A * 0.25 * np.pi ** 2 * np.cos(0.5 * np.pi * x[..., 0]) * (T - t),
        name="cosine",
    )


def ms_linear_time(c: float, T: float) -> ManufacturedSolution:
    """u = c (T - t); rhs is identically c."""
    return ManufacturedSolution(
        u=lambda x, t: c * (T - t) * np.ones_like(x[..., 0]),
        u_t=lambda x, t: -c * np.ones_like(x[..., 0]),
        grad=lambda x, t: np.zeros_like(x),
        lap=lambda x, t: np.zeros_like(x[..., 0]),
        name="linear_time",
    )


def ms_constant(c: float) -> ManufacturedSolution:
    return ManufacturedSolution(
        u=lambda x, t: c * np.ones_like(x[..., 0]),
        u_t=lambda x, t: np.zeros_like(x[..., 0]),
        grad=lambda x, t: np.zeros_like(x),
        lap=lambda x, t: np.zeros_like(x[..., 0]),
        name="constant",
    )


MANUFACTURED = {
    "sine": ms_sine,
    "cosine": ms_cosine,
}


def manufactured_rhs(ms: ManufacturedSolution, gamma: float, sigma: float, h) -> Callable:
    """f = -du/dt - sigma*Lap(u) + h |Du|^gamma sampled analytically."""

    def f(x, t):
        gmag = np.sqrt(np.sum(ms.grad(x, t) ** 2, axis=-1))
        return -ms.u_t(x, t) - sigma * ms.lap(x, t) + evaluate(h, None, t, x) * gmag ** gamma

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
