"""Blow-up rescalings, worst-pair selection, Liouville decay probe, norm sweeps.

Two zoom variants: "alpha0" keeps the transport part of the operator and
shrinks the viscosity (sigma_n = r^(g-2)/M^(g-1), time scale r^g/M^(g-1));
"alpha" keeps the linear parabolic scaling (time scale r^2) and carries the
Hamiltonian factor theta_n = M^(g-1)/r^(g-2).

The blow-up selection kinds are declared once, in KINDS: the seminorm each
scans, its alpha rule, its sandwich weight, its basepoint rule, M, r, the
rescaled time s0 of the pair's other endpoint, the reported distance d and
its zoom.  One path (worst_pair_selection) serves every kind, and one
formula (normalization_check) reads the rescaled pair of any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    d: float = 0.0
    y0: np.ndarray | None = None  # the other endpoint of the selected pair in the rescaled frame, (y0, s0)
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
    """|w(y0, s0) - w(0, 0)|: the rescaled pair's value gap, which the selection drives to 1 (space) or z (time).

    ValueError when params has no y0 or s0, as a record built without a selection has not.
    """
    if params.y0 is None or params.s0 is None:
        raise ValueError("normalization_check needs the rescaled pair: params has no y0 or s0")
    return abs(sample_field(w, params.y0, params.s0) - sample_field(w, np.zeros(w.grid.dim), 0.0))


# -- worst-pair selection ------------------------------------------------------------


class SelectionKind(NamedTuple):
    """Everything that differs between blow-up selection kinds; worst_pair_selection reads nothing else."""

    scan: Callable  # (u, alpha, gamma, Q) -> the argmax pair's SeminormResult, through the seminorm's module-level name
    rule: Callable  # (alpha, alpha0) -> the alpha rule the kind breaks, as its error states it, or None
    weight: str  # the parabolic_distance kind whose smaller value over the pair weights the sandwich
    power: Callable  # (alpha, alpha0) -> that weight's exponent
    nearer_base: bool  # the basepoint is the endpoint of smaller weight distance; else the earlier one
    per_z: bool  # M = |du| / z; else |du|
    r: Callable  # (|dx|, dt, M, gamma) -> the zoom's length scale r, for the pair's separation |dx| and time gap dt
    s0: Callable  # (dt, r) -> the rescaled time of the other endpoint
    d: Callable  # (Q, x_base, the pair's weight distances) -> the reported distance d
    variant: str  # the zoom


def _room(Q, x_base, dists):
    """The basepoint's distance to the spatial rim."""
    return float(max(Q.space_distance(x_base), 0.0))


KINDS = {
    "space": SelectionKind(
        scan=lambda u, alpha, gamma, Q: nonlinear_space(u, alpha, gamma, Q), rule=lambda alpha, a0: None,
        weight="d_alpha", power=lambda alpha, a0: 1.0, nearer_base=True, per_z=False,
        r=lambda dx, dt, M, gamma: dx, s0=lambda dt, r: 0.0, d=_room, variant="alpha0",
    ),
    "time": SelectionKind(
        scan=lambda u, alpha, gamma, Q: nonlinear_time(u, alpha, gamma, Q),
        rule=lambda alpha, a0: "alpha == alpha0(gamma)" if abs(alpha - a0) > 1e-12 else None,
        weight="d_alpha", power=lambda alpha, a0: 1.0, nearer_base=False, per_z=True,
        r=lambda dx, dt, M, gamma: dt ** (1.0 / gamma) * M ** ((gamma - 1.0) / gamma),
        s0=lambda dt, r: 1.0,  # set, not computed: dt is the zoom's time scale only up to round-off
        d=_room, variant="alpha0",
    ),
    "weighted": SelectionKind(
        scan=lambda u, alpha, gamma, Q: weighted_holder(u, alpha, alpha - alpha_zero(gamma), Q),
        rule=lambda alpha, a0: "alpha > alpha0(gamma)" if alpha <= a0 + 1e-14 else None,
        weight="d", power=lambda alpha, a0: alpha - a0, nearer_base=False, per_z=False,
        r=lambda dx, dt, M, gamma: dx + np.sqrt(dt), s0=lambda dt, r: dt / r ** 2,
        d=lambda Q, x_base, dists: float(min(dists)), variant="alpha",
    ),
}


def worst_pair_selection(u: ScalarField, kind: str, alpha: float, z: float, gamma: float) -> BlowupParams:
    """Argmax pair of the kind's seminorm on u's grid cylinder turned into ready blow-up data.

    KINDS declares each kind: "space" scans nl_space (zoom alpha0), "time"
    nl_time with alpha == alpha0(gamma) (zoom alpha0), "weighted" the
    d-weighted classical seminorm with c = alpha - alpha0 (zoom alpha).  The
    alpha rule and an unknown kind are rejected before the scan, a constant
    u after it.  The basepoint is the pair's endpoint nearer the boundary
    (space) or its earlier endpoint; M = |u(other) - u(base)| (over z for
    time); y0 = (x_other - x_base)/r and s0 place the other endpoint in the
    rescaled frame.  The sandwich weight is the pair's smaller distance, so
    L <= quotient <= 2L holds exactly with L = quotient/2.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown selection kind {kind!r}")
    K, a0 = KINDS[kind], alpha_zero(gamma)
    broken = K.rule(alpha, a0)
    if broken:
        raise ValueError(f"{kind}-kind selection requires {broken}")
    Q = u.grid.cylinder()
    res = K.scan(u, alpha, gamma, Q)
    if res.degenerate or res.value == 0.0:
        raise ValueError("u is constant on Q: no blow-up pair")
    dists = parabolic_distance(res.pair, Q, K.weight, alpha, gamma)
    key = dists if K.nearer_base else [t for _, t in res.pair]
    (x_base, t_base), (x_other, t_other) = res.pair if key[0] <= key[1] else res.pair[::-1]
    x_base, x_other = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (x_base, x_other))
    M = abs(sample_field(u, x_other, t_other) - sample_field(u, x_base, t_base)) / (z if K.per_z else 1.0)
    dt = t_other - t_base
    r = K.r(float(np.linalg.norm(x_other - x_base)), dt, M, gamma)
    quotient = min(dists) ** K.power(alpha, a0) * M / r ** alpha
    L = quotient / 2.0
    return BlowupParams(x_base, t_base, M, r, K.variant, gamma, d=K.d(Q, x_base, dists), y0=(x_other - x_base) / r,
                        s0=K.s0(dt, r), sandwich=(L, quotient, 2.0 * L))


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
