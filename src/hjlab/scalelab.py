"""Blow-up rescalings, worst-pair selection, Liouville decay probe, norm sweeps.

Two zoom variants: "alpha0" keeps the transport part of the operator and
shrinks the viscosity (sigma_n = r^(g-2)/M^(g-1), time scale r^g/M^(g-1));
"alpha" keeps the linear parabolic scaling (time scale r^2) and carries the
Hamiltonian factor theta_n = M^(g-1)/r^(g-2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Cylinder,
    Grid,
    GridSpec,
    NumericalFailure,
    ScalarField,
    evaluate,
    lq_norm,
    make_grid,
    parabolic_distance,
    quadrature_levels,
    sample_field,
    sample_points,
)
from .hj import (
    HJProblem,
    alpha_zero,
    discrete_residual,
    gamma_conjugate,
    solve_hj,
    solve_hj_many,
)
from .seminorm import (
    check_w21q_cylinder,
    nonlinear_space,
    nonlinear_time,
    w21q_norms,
    weighted_holder,
)


@dataclass
class BlowupParams:
    basepoint_x: np.ndarray
    basepoint_t: float
    M: float
    r: float
    variant: str  # "alpha0" or "alpha"
    gamma: float
    z: float = 1.0
    d: float = 0.0
    case: str | None = None  # "space" / "time" for the alpha0 variant
    y0: np.ndarray | None = None
    s0: float | None = None
    sandwich: tuple | None = None  # (L, weighted quotient, 2L)

    def __post_init__(self):
        self.basepoint_x = np.atleast_1d(np.asarray(self.basepoint_x, dtype=float))
        if self.variant not in ("alpha0", "alpha"):
            raise ValueError("variant must be 'alpha0' or 'alpha'")
        if self.M <= 0 or self.r <= 0:
            raise ValueError("M and r must be positive")

    @property
    def sigma_n(self):
        if self.variant != "alpha0":
            return None
        return self.r ** (self.gamma - 2.0) / self.M ** (self.gamma - 1.0)

    @property
    def theta_n(self):
        if self.variant != "alpha":
            return None
        return self.M ** (self.gamma - 1.0) / self.r ** (self.gamma - 2.0)

    @property
    def time_scale(self):
        if self.variant == "alpha0":
            return self.r ** self.gamma / self.M ** (self.gamma - 1.0)
        return self.r ** 2

    @property
    def scale_factor(self):
        """The populated one of sigma_n / theta_n."""
        return self.sigma_n if self.variant == "alpha0" else self.theta_n


@dataclass
class BlowupResult:
    w: ScalarField
    g: ScalarField | None
    params: BlowupParams


def _map_points(params: BlowupParams, ys, s):
    """(xbar + r y, tbar + lambda s) for points ys and an array of times s."""
    xs = params.basepoint_x + params.r * np.asarray(ys, dtype=float)
    t = params.basepoint_t + params.time_scale * np.asarray(s, dtype=float)
    return xs, t


def blowup_transform(
    u: ScalarField, params: BlowupParams, target_spec: GridSpec, f=None
) -> BlowupResult:
    """Rescale u (and the right-hand side f) onto the target (y, s) grid.

    w(y, s) = u(xbar + r y, tbar + lambda s)/M with lambda the variant time
    scale; g picks up r^g/M^g (alpha0) or r^2/M (alpha).  Sampling is
    multilinear; points leaving u's grid raise, naming the offending node,
    and f is read at the mapped nodes and times by evaluate.
    """
    tg = make_grid(target_spec)
    if tg.dim != u.grid.dim:
        raise ValueError(f"target grid dimension mismatch: a {tg.dim}D target for a {u.grid.dim}D field")
    stack = (tg.n_levels,) + tg.shape
    xs, ts = _map_points(params, tg.coords.reshape(-1, tg.dim), tg.ts)
    if params.variant == "alpha0":
        g_factor = params.r ** params.gamma / params.M ** params.gamma
    else:
        g_factor = params.r ** 2 / params.M
    w_vals = (sample_points(u, xs, ts) / params.M).reshape(stack)
    w = ScalarField(tg, w_vals)
    g = None if f is None else ScalarField(tg, g_factor * evaluate(f, tg, ts, xs.reshape(tg.shape + (tg.dim,))))
    return BlowupResult(w=w, g=g, params=params)


def inverse_blowup_transform(w: ScalarField, params: BlowupParams, u_grid: Grid) -> ScalarField:
    """u(x, t) = M * w((x - xbar)/r, (t - tbar)/lambda) sampled on u_grid."""
    ys = (u_grid.coords.reshape(-1, u_grid.dim) - params.basepoint_x) / params.r
    s = (u_grid.ts - params.basepoint_t) / params.time_scale
    vals = params.M * sample_points(w, ys, s)
    return ScalarField(u_grid, vals.reshape((u_grid.n_levels,) + u_grid.shape))


def rescaled_residual(w: ScalarField, g: ScalarField, params: BlowupParams, h_sample: float) -> ScalarField:
    """Interior residual of the rescaled equation, same stencil as the solver.

    alpha0: -dw/ds - sigma_n Lap w + h |Dw|^g = g_n
    alpha:  -dw/ds - Lap w + theta_n h |Dw|^g = g_n
    """
    if params.variant == "alpha0":
        if params.sigma_n > 1.0:
            raise ValueError("sigma_n > 1: not a vanishing-viscosity zoom")
        sigma, h = params.sigma_n, h_sample
    else:
        sigma, h = 1.0, params.theta_n * h_sample
    return discrete_residual(w, HJProblem(gamma=params.gamma, sigma=sigma, h0=h, h1=h, f=g))


def normalization_check(w: ScalarField, params: BlowupParams) -> float:
    """The quotient the point selection drove to 1 (space / alpha cases) or z."""
    origin = np.zeros(w.grid.dim)
    w00 = sample_field(w, origin, 0.0)
    if params.variant == "alpha":
        return abs(sample_field(w, params.y0, params.s0) - w00)
    if params.case == "time":
        return abs(sample_field(w, origin, 1.0) - w00)
    return abs(sample_field(w, params.y0, 0.0) - w00)


# -- worst-pair selection ------------------------------------------------------------


def worst_pair_selection(u: ScalarField, kind: str, alpha: float, z: float, gamma: float) -> BlowupParams:
    """Argmax pair of the requested seminorm on u's grid cylinder turned into ready blow-up data.

    kind "space": same-time pair of the nonlinear space seminorm (zoom alpha0);
    kind "time":  same-position pair of the nonlinear time seminorm, requires
                  alpha == alpha0(gamma);
    kind "weighted": pair of the distance-weighted classical seminorm with
                  c = alpha - alpha0 (zoom alpha, linear space-time scaling).
    The basepoint is the earlier-time / nearer-boundary endpoint, the sandwich
    uses the pair's min distance, so L <= quotient <= 2L holds exactly with
    L = quotient/2.
    """
    g = u.grid
    Q = g.cylinder()
    a0 = alpha_zero(gamma)

    if kind == "space":
        res = nonlinear_space(u, alpha, gamma, Q)
        if res.degenerate or res.value == 0.0:
            raise ValueError("u is constant on Q: no blow-up pair")
        (xa, ta), (xb, tb) = res.pair
        da = parabolic_distance(res.pair, Q, "d_alpha", alpha, gamma)
        base, other = (0, 1) if da[0] <= da[1] else (1, 0)
        pts = [np.atleast_1d(np.asarray(p[0], dtype=float)) for p in res.pair]
        x_base, x_other = pts[base], pts[other]
        t_base = res.pair[base][1]
        M = abs(
            sample_field(u, x_other, res.pair[other][1]) - sample_field(u, x_base, t_base)
        )
        r = float(np.linalg.norm(x_other - x_base))
        quotient = min(da) * M / r ** alpha
        L = quotient / 2.0
        return BlowupParams(
            basepoint_x=x_base,
            basepoint_t=t_base,
            M=M,
            r=r,
            variant="alpha0",
            gamma=gamma,
            z=z,
            d=float(max(Q.space_distance(x_base), 0.0)),
            case="space",
            y0=(x_other - x_base) / r,
            sandwich=(L, quotient, 2.0 * L),
        )

    if kind == "time":
        if abs(alpha - a0) > 1e-12:
            raise ValueError("time-kind selection requires alpha == alpha0(gamma)")
        res = nonlinear_time(u, alpha, gamma, Q)
        if res.degenerate or res.value == 0.0:
            raise ValueError("u is constant on Q: no blow-up pair")
        (xa, ta), (xb, tb) = res.pair
        early, late = ((xa, ta), (xb, tb)) if ta <= tb else ((xb, tb), (xa, ta))
        x_base = np.atleast_1d(np.asarray(early[0], dtype=float))
        dt_pair = late[1] - early[1]
        M = abs(sample_field(u, x_base, late[1]) - sample_field(u, x_base, early[1])) / z
        r = dt_pair ** (1.0 / gamma) * M ** ((gamma - 1.0) / gamma)
        da = parabolic_distance((early, late), Q, "d_alpha", alpha, gamma)
        quotient = min(da) * M / r ** alpha
        L = quotient / 2.0
        return BlowupParams(
            basepoint_x=x_base,
            basepoint_t=early[1],
            M=M,
            r=r,
            variant="alpha0",
            gamma=gamma,
            z=z,
            d=float(max(Q.space_distance(x_base), 0.0)),
            case="time",
            y0=np.zeros(g.dim),
            sandwich=(L, quotient, 2.0 * L),
        )

    if kind == "weighted":
        if alpha <= a0 + 1e-14:
            raise ValueError("weighted-kind selection requires alpha > alpha0(gamma)")
        res = weighted_holder(u, alpha, alpha - a0, Q)
        if res.degenerate or res.value == 0.0:
            raise ValueError("u is constant on Q: no blow-up pair")
        (xa, ta), (xb, tb) = res.pair
        early, late = ((xa, ta), (xb, tb)) if ta <= tb else ((xb, tb), (xa, ta))
        x_base = np.atleast_1d(np.asarray(early[0], dtype=float))
        x_other = np.atleast_1d(np.asarray(late[0], dtype=float))
        dd = parabolic_distance((early, late), Q, "d")
        M = abs(sample_field(u, x_other, late[1]) - sample_field(u, x_base, early[1]))
        r = float(np.linalg.norm(x_other - x_base)) + np.sqrt(late[1] - early[1])
        quotient = min(dd) ** (alpha - a0) * M / r ** alpha
        L = quotient / 2.0
        return BlowupParams(
            basepoint_x=x_base,
            basepoint_t=early[1],
            M=M,
            r=r,
            variant="alpha",
            gamma=gamma,
            z=z,
            d=float(min(dd)),
            y0=(x_other - x_base) / r,
            s0=(late[1] - early[1]) / r ** 2,
            sandwich=(L, quotient, 2.0 * L),
        )

    raise ValueError(f"unknown selection kind {kind!r}")


# -- Liouville decay probe --------------------------------------------------------------


def closed_form_decay_budget(tau: float, alpha: float, gamma: float) -> float:
    """Large-R limit of the space-oscillation budget for the homogeneous case.

    ((tau^(a/2) + tau^(a0/2) + tau^(a/(g-a(g-1)))) / tau)^(1/g) + tau^-(g'-1).
    Strictly decreasing in tau >= 1 since every exponent involved is < 1.
    """
    a0 = alpha_zero(gamma)
    gc = gamma_conjugate(gamma)
    core = tau ** (alpha / 2.0) + tau ** (a0 / 2.0) + tau ** (
        alpha / (gamma - alpha * (gamma - 1.0))
    )
    return (core / tau) ** (1.0 / gamma) + tau ** (-(gc - 1.0))


def liouville_probe(
    h: float,
    gamma: float,
    alpha: float,
    R_list,
    tau_list,
    dx: float,
    dt: float,
    amplitude: float = 1.0,
    z: float = 1.0,
) -> list[dict]:
    """Solve the homogeneous problem on growing cylinders and tabulate budgets.

    Terminal data A*sin(pi*x1/Rp) on the padded box (zero lateral data), then
    the oscillation budgets at (R, tau) with g = 0, h0 = h1 = h.
    """
    from .dual import oscillation_report

    rows = []
    for R in R_list:
        Rp = R + 1.0
        for tau in tau_list:
            grid = make_grid(GridSpec(1, Rp, dx, tau, dt))
            prob = HJProblem(
                gamma=gamma,
                sigma=1.0,
                h0=h,
                h1=h,
                h=h,
                f=0.0,
                terminal=lambda x: amplitude * np.sin(np.pi * x[..., 0] / Rp),
                lateral=0.0,
            )
            sol = solve_hj(prob, grid, gradient_bound=abs(amplitude) * np.pi / Rp)
            rep = oscillation_report(sol.u, 1.0, h, h, gamma, alpha, z, R, tau)
            rows.append(
                {
                    "R": R,
                    "tau": tau,
                    "kinetic": rep.kinetic,
                    "test0_lhs": rep.test0_lhs,
                    "test0_rhs": rep.test0_rhs,
                    "xest0_lhs": rep.xest0_lhs,
                    "xest0_rhs": rep.xest0_rhs,
                    "fitted_c2": rep.fitted_c2,
                    "fitted_c3": rep.fitted_c3,
                    "measured_osc": abs(rep.xest0_lhs),
                    "closed_budget": closed_form_decay_budget(tau, alpha, gamma),
                    "space_quotient": rep.space_quotient,
                    "time_quotient": rep.time_quotient,
                }
            )
    return rows


# -- maximal-regularity sweep --------------------------------------------------------------


def singular_family(q: float, eps: float, dim: int):
    """Truncated radial power min(|x|^-beta, eps^-beta), beta = 0.95*(N+2)/q."""
    beta = 0.95 * (dim + 2) / q

    def f(x, t):
        r = np.sqrt(np.sum(x ** 2, axis=-1))
        with np.errstate(divide="ignore"):
            vals = np.where(r > 0, r ** (-beta), np.inf)
        return np.minimum(vals, eps ** (-beta))

    return f, beta


class SweepEntryError(ValueError):
    """A bad entry of one of maxreg_sweep's lists; arg names the list: q_list, eps_list or dx_list."""

    def __init__(self, arg: str, message: str):
        super().__init__(message)
        self.arg = arg


def _sweep_forcing(grid: Grid, q: float, eps: float, norm_target: float):
    """(beta, c_eps, f) of a sweep row: singular_family(q, eps) scaled to ||f||_q = norm_target, one level for all.

    SweepEntryError when eps gives the family no finite positive norm on
    grid, or no finite positive scale to norm_target.
    """
    f_raw, beta = singular_family(q, eps, grid.dim)
    stack = (grid.n_levels,) + grid.shape
    try:
        with np.errstate(over="ignore"):
            raw = np.asarray(f_raw(grid.coords, 0.0), dtype=float)  # the same on every level
            raw[~grid.active] = 0.0
            c_eps = norm_target / lq_norm(ScalarField(grid, np.broadcast_to(raw, stack)), q)
    except (OverflowError, ZeroDivisionError):  # eps ** -beta leaves the floats, or the family vanishes
        c_eps = np.nan
    if not 0.0 < c_eps < np.inf:
        raise SweepEntryError(
            "eps_list",
            f"eps = {eps!r} gives the q = {q!r} family no finite positive scale to ||f||_q = {norm_target!r}"
            f" at dx = {grid.dx!r}",
        )
    return beta, c_eps, ScalarField(grid, np.broadcast_to(c_eps * raw, stack))


def maxreg_sweep(
    q_list,
    eps_list,
    gamma: float,
    dx_list,
    norm_target: float = 1.0,
    dim: int = 1,
) -> list[dict]:
    """Ratio table (regularity norms / ||f||_q) across sharpening singularities.

    One row per (q, eps, dx): f is singular_family(q, eps, dim) scaled to
    ||f||_q = norm_target on the grid [-1, 1]^dim x [0, 1] of step dx and
    dt = dx/4, and the norms of the solution are taken on the middle cylinder
    Qp = [-1/2, 1/2]^dim x [1/4, 3/4].  The rows of one grid march together
    (hj.solve_hj_many), each as if alone, from t = 1 down to the first level
    w21q_norms reads: the level below Qp's first weighted level
    (grid.quadrature_levels), where du/dt is central.  A row whose march
    fails on the way carries the failure in its status column.

    Every row is checked before any march: a SweepEntryError (a ValueError)
    names the list and the entry when a q is below 1, an eps is not positive
    or gives its family no finite positive scale to norm_target, or a dx
    gives no grid or one on which Qp lacks the margins of w21q_norms; a
    dim other than 1 or 2 or a norm_target that is not finite and positive
    is a ValueError.
    """
    if dim not in (1, 2) or not 0.0 < norm_target < np.inf:
        raise ValueError(f"dim must be 1 or 2 and norm_target finite and positive, got {dim!r} and {norm_target!r}")
    for q in q_list:
        if not q >= 1:
            raise SweepEntryError("q_list", f"q must be >= 1, got {q!r}")
    for eps in eps_list:
        if not eps > 0:
            raise SweepEntryError("eps_list", f"eps must be positive, got {eps!r}")
    sub = Cylinder(xmin=(-0.5,) * dim, xmax=(0.5,) * dim, t0=0.25, t1=0.75)
    plans = []
    for dx in dx_list:
        try:
            grid = make_grid(GridSpec(dim, 1.0, dx, 1.0, dx / 4.0))
            check_w21q_cylinder(grid, sub)
        except ValueError as exc:
            raise SweepEntryError("dx_list", f"dx = {dx!r}: {exc}") from None
        grid_rows, problems = [], []
        for q in q_list:
            for eps in eps_list:
                beta, c_eps, f_field = _sweep_forcing(grid, q, eps, norm_target)
                problems.append(HJProblem(gamma=gamma, sigma=1.0, h0=1.0, h1=1.0, h=1.0, f=f_field))
                grid_rows.append(
                    {"q": q, "epsilon": eps, "dx": dx, "beta": beta, "c_eps": c_eps, "f_norm": norm_target}
                )
        plans.append((grid, grid_rows, problems))
    rows = []
    for grid, grid_rows, problems in plans:
        down_to = quadrature_levels(grid, sub).start - 1
        for row, sol in zip(grid_rows, solve_hj_many(problems, grid, down_to=down_to)):
            if isinstance(sol, NumericalFailure):
                row.update(
                    {
                        "dt_norm": np.nan,
                        "hessian_norm": np.nan,
                        "grad_gamma_norm": np.nan,
                        "ratio": np.nan,
                        "status": f"failed: {sol}".replace(",", ";"),
                    }
                )
            else:
                norms = w21q_norms(sol.u, row["q"], gamma, sub)
                total = norms["dt"] + norms["hessian"] + norms["grad_gamma"]
                row.update(
                    {
                        "dt_norm": norms["dt"],
                        "hessian_norm": norms["hessian"],
                        "grad_gamma_norm": norms["grad_gamma"],
                        "ratio": total / norm_target,
                        "status": "ok",
                    }
                )
        rows += grid_rows
    return rows
