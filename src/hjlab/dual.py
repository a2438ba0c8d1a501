"""Duality representation, bent-trajectory inequality and oscillation budgets.

Verifies, on concrete solve pairs (w, m): the value representation through the
dual density, the shifted ("bent") suboptimal-drift inequality, the two-sided
time/space oscillation budgets with their fitted constants, and the elementary
power inequality behind the drift-perturbation estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fp import FPProblem, FPSolution, drift_from_solution, kinetic_energy, solve_fp
from .grid import (
    Grid,
    GridSpec,
    ScalarField,
    centered_cylinder,
    lq_norm,
    make_grid,
    sample_field,
    sample_points,
    space_integral,
    spacetime_integral,
)
from .hj import (
    HJProblem,
    _eval_on,
    alpha_zero,
    critical_q0,
    gamma_conjugate,
    manufactured_rhs,
    ms_cosine,
    solve_hj,
)
from .seminorm import space_quotient, time_quotient


def ell_constant(h: float, gamma: float) -> float:
    """Legendre prefactor h(gamma-1)/(h*gamma)^gamma'."""
    gc = gamma_conjugate(gamma)
    return h * (gamma - 1.0) / (h * gamma) ** gc


def _field_levels(grid: Grid, obj) -> np.ndarray:
    return (
        obj.values
        if isinstance(obj, ScalarField) and obj.grid is grid
        else np.stack([_eval_on(grid, obj, t) for t in grid.ts])
    )


@dataclass
class DualityReport:
    lhs: float
    lagrangian: float
    running_cost: float
    terminal: float
    boundary: float
    ell0: float
    ell1: float
    kinetic: float

    @property
    def rhs_terms(self) -> dict:
        return {
            "lagrangian": self.lagrangian,
            "running_cost": self.running_cost,
            "terminal": self.terminal,
            "boundary": self.boundary,
        }

    @property
    def residual(self) -> float:
        return self.lhs - sum(self.rhs_terms.values())


def manufactured_pair(A: float, dx: float, gamma: float = 3.0, sigma: float = 1.0, h: float = 1.0, T: float = 1.0):
    """(w, f, sol): a solved HJ/FP pair whose duality terms are all nonzero.

    w solves the HJ problem of the cosine manufactured solution of amplitude A
    (its f, terminal and lateral data, constant h) on [-2, 2] x [0, T]; sol is
    the dual density on [-1, 1] driven by the drift taken from w, source at 0.
    Both grids have the step dx and dt = dx/4.
    """
    ms = ms_cosine(T, A)
    f = manufactured_rhs(ms, gamma, sigma, h)
    prob = HJProblem(gamma=gamma, sigma=sigma, h0=h, h1=h, f=f, terminal=ms.terminal(T), lateral=ms.lateral())
    w = solve_hj(prob, make_grid(GridSpec(1, 2.0, dx, T, dx / 4)), gradient_bound=A * np.pi).u
    b = drift_from_solution(w, h, gamma)
    sol = solve_fp(FPProblem(sigma=sigma, R=1.0, tau=T, drift=b, source=0.0), make_grid(GridSpec(1, 1.0, dx, T, dx / 4)))
    return w, f, sol


def _boundary_sum(w: ScalarField, sol: FPSolution, shift=lambda s: 0.0) -> float:
    """Sum of w(boundary node + shift(s), s) * outflux increment over faces and levels.

    One interpolation call samples every level at its own shifted points;
    only the faces with a nonzero increment at a level are sampled there (the
    others sit at the origin, a node of w's centered grid), and the terms are
    added one by one in level and face order.
    """
    g = sol.grid
    bnd = g.coords.reshape(-1, g.dim)[g.boundary_face_nodes()[1]]
    ts = g.ts[1:]
    incr = sol.boundary_flux[1:]
    hit = incr != 0.0
    shifts = np.array([np.broadcast_to(shift(float(s)), (g.dim,)) for s in ts])
    pts = np.where(hit[..., None], bnd + shifts[:, None], 0.0)
    terms = sample_points(w, pts, ts)[hit] * incr[hit]
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def duality_identity(w: ScalarField, f, sol: FPSolution, h: float, gamma: float) -> DualityReport:
    """w(x0, 0) against Lagrangian + running cost + terminal + boundary terms.

    h constant here (the identity is exact only for h0 = h1); the Lagrangian
    term is ell(h) * K = h(gamma-1) * iint |Dw|^gamma m.
    """
    g = sol.grid
    if w.grid.dim != g.dim or abs(w.grid.dt - g.dt) > 1e-14 or abs(w.grid.dx - g.dx) > 1e-14:
        raise ValueError("w and the FP solution must share dx and dt")
    ell = ell_constant(h, gamma)
    K = kinetic_energy(sol, gamma)
    lhs = sample_field(w, sol.source, 0.0)

    f_levels = _field_levels(g, f)
    running = spacetime_integral(g, f_levels * sol.m.values)

    tau = sol.tau
    w_tau = sample_points(w, g.coords.reshape(-1, g.dim), tau).reshape(g.shape)
    terminal = space_integral(g, w_tau * sol.m.values[-1])

    return DualityReport(
        lhs=lhs,
        lagrangian=ell * K,
        running_cost=running,
        terminal=terminal,
        boundary=_boundary_sum(w, sol),
        ell0=ell,
        ell1=ell,
        kinetic=K,
    )


@dataclass
class BentReport:
    lhs: float  # w(y0, 0)
    lagrangian: float  # ell0 * iint |b - xi'|^gamma' m
    running_cost: float  # iint g(y + xi_s, s) m
    terminal: float
    boundary: float
    slack: float  # rhs - lhs, >= -O(dx + dt) expected


def bent_duality(w: ScalarField, g_rhs, sol: FPSolution, y0, gamma: float, ell0: float) -> BentReport:
    """Suboptimal-drift inequality with the straightened trajectory shift.

    xi_s = ((tau - s)/tau) y0 bends the comparison density from y0 back to the
    source; shifted evaluations of g and w use multilinear interpolation, so w
    (and g if a field) must cover the R + |y0| padded box.
    """
    grid = sol.grid
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if np.linalg.norm(y0) > 1 + 1e-12:
        raise ValueError("|y0| must be <= 1")
    tau = sol.tau
    R = grid.spec.half_width
    pad_needed = R + float(np.max(np.abs(y0)))
    wR = w.grid.spec.half_width
    if wR < pad_needed - 1e-12:
        raise ValueError(
            f"insufficient padding: w lives on half-width {wR}, shift needs {pad_needed}"
        )

    xi_rate = y0 / tau  # -xi'_s
    mag = np.sqrt(np.sum((sol.b.values + xi_rate) ** 2, axis=-1))
    gc = gamma_conjugate(gamma)
    lagr = ell0 * spacetime_integral(grid, mag ** gc * sol.m.values)

    pts = grid.coords.reshape(-1, grid.dim)

    def g_shifted(s):
        shift = (tau - s) / tau * y0
        if isinstance(g_rhs, ScalarField):
            return sample_points(g_rhs, pts + shift, s).reshape(grid.shape)
        if callable(g_rhs):
            return np.asarray(g_rhs(grid.coords + shift, s), dtype=float) * np.ones(grid.shape)
        return _eval_on(grid, g_rhs, s)

    g_sh = np.stack([g_shifted(float(s)) for s in grid.ts])
    running = spacetime_integral(grid, g_sh * sol.m.values)

    w_tau = sample_points(w, pts, tau).reshape(grid.shape)
    terminal = space_integral(grid, w_tau * sol.m.values[-1])

    boundary = _boundary_sum(w, sol, lambda s: (tau - s) / tau * y0)

    lhs = sample_field(w, y0, 0.0)
    rhs = lagr + running + terminal + boundary
    return BentReport(
        lhs=lhs,
        lagrangian=lagr,
        running_cost=running,
        terminal=terminal,
        boundary=boundary,
        slack=rhs - lhs,
    )


# -- oscillation budgets -----------------------------------------------------------


@dataclass
class OscillationBudget:
    fnorm_value: float  # sigma^{-gamma'(N+1)/(N+2)} ||g||_{q0}
    shape_value: float  # z (R^alpha + tau^{alpha/2}) / R
    r2_ok: bool  # R^2 >= sigma tau
    space_quotient: float
    time_quotient: float
    test0_lhs: float
    test0_rhs: float
    xest0_lhs: float
    xest0_rhs: float
    kinetic: float
    fitted_c2: float
    fitted_c3: float
    ell0: float
    ell1: float
    ell_gap: float


def normalize_amplitude(w: ScalarField, g_rhs, h0, h1, gamma, z, alpha, Q=None):
    """Divide w by a constant so the oscillation-estimate normalization holds.

    Rescales the coefficient bounds and the right-hand side accordingly
    (w/k solves the inequalities with h_i k^(gamma-1) and g/k), the same
    renormalization used to reduce entire solutions to unit quotients.
    """
    sq = space_quotient(w, alpha, Q)
    tq = time_quotient(w, alpha, Q)
    kappa = max(1.0, sq / 3.0, tq / (3.0 ** (gamma / 2.0) * z))
    if kappa == 1.0:
        return w, g_rhs, h0, h1, 1.0
    w2 = ScalarField(w.grid, w.values / kappa)
    if g_rhs is None:
        g2 = None
    elif isinstance(g_rhs, ScalarField):
        g2 = ScalarField(g_rhs.grid, g_rhs.values / kappa)
    elif callable(g_rhs):
        g2 = lambda x, t, _f=g_rhs, _k=kappa: np.asarray(_f(x, t)) / _k
    else:
        g2 = float(g_rhs) / kappa
    scale = kappa ** (gamma - 1.0)
    return w2, g2, h0 * scale, h1 * scale, kappa


def oscillation_report(
    w: ScalarField,
    g_rhs,
    sigma: float,
    h0: float,
    h1: float,
    gamma: float,
    alpha: float,
    z: float,
    R: float,
    tau: float,
    y0,
) -> OscillationBudget:
    """Evaluate the time and space oscillation budgets on Q_{R,tau}.

    Requires the normalization sup-quotients (space <= 3, time <= 3^{g/2} z)
    on the closed cylinder; rejects otherwise with the offending value.
    Fitted constants are the smallest making each budget inequality hold.
    """
    grid = w.grid
    N = grid.dim
    if abs(grid.spec.horizon - tau) > 1e-12:
        raise ValueError("w must live on horizon tau")
    if grid.spec.half_width < R - 1e-12:
        raise ValueError("w must cover the half-width R box")
    QR = centered_cylinder(R, tau, N)
    sq = space_quotient(w, alpha, QR)
    tq = time_quotient(w, alpha, QR)
    tol = 1.0 + 1e-9
    if sq > 3.0 * tol:
        raise ValueError(f"normalization failed: space quotient {sq} > 3")
    if tq > 3.0 ** (gamma / 2.0) * z * tol:
        raise ValueError(f"normalization failed: time quotient {tq} > 3^(gamma/2) z")

    q0 = critical_q0(gamma, N)
    gc = gamma_conjugate(gamma)
    a0 = alpha_zero(gamma)

    # dual density driven by the drift extracted from w
    fp_grid = make_grid(GridSpec(N, R, grid.dx, tau, grid.dt))
    b = drift_from_solution(w, h1, gamma)
    sol = solve_fp(FPProblem(sigma=sigma, R=R, tau=tau, drift=b, source=0.0), fp_grid)
    K = kinetic_energy(sol, gamma)

    # conditions
    g_is_none = g_rhs is None
    if g_is_none:
        g_norm_R = g_norm_R1 = 0.0
    else:
        g_field = g_rhs if isinstance(g_rhs, ScalarField) else ScalarField(
            grid, _field_levels(grid, g_rhs)
        )
        g_norm_R = lq_norm(g_field, q0, centered_cylinder(R, tau, N))
        R1 = min(R + 1.0, grid.spec.half_width)
        g_norm_R1 = lq_norm(g_field, q0, centered_cylinder(R1, tau, N))
    pref = sigma ** (-gc * (N + 1) / (N + 2))
    fnorm_value = pref * g_norm_R
    shape_value = z * (R ** alpha + tau ** (alpha / 2.0)) / R
    r2_ok = R ** 2 >= sigma * tau - 1e-12

    w00 = sample_field(w, np.zeros(N), 0.0)
    w0tau = sample_field(w, np.zeros(N), tau)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    wy0 = sample_field(w, y0, 0.0)

    test0_lhs = abs(w00 - w0tau) + K
    test0_rhs = (
        tau ** (alpha / 2.0)
        + tau ** (a0 / 2.0)
        + tau ** (alpha / (gamma - alpha * (gamma - 1.0)))
        + tau * shape_value
    )
    ell0 = ell_constant(h0, gamma)
    ell1 = ell_constant(h1, gamma)
    xest0_lhs = wy0 - w00
    xest0_rhs = (
        K ** (1.0 / gamma) / tau ** (1.0 / gamma)
        + 1.0 / tau ** (gc - 1.0)
        + pref * (K + tau ** (a0 / 2.0)) * g_norm_R1
        + tau ** (1.0 / gamma) * K ** (1.0 / gc) / R
        + tau / R ** 2
        + (ell0 - ell1) * K
    )

    return OscillationBudget(
        fnorm_value=fnorm_value,
        shape_value=shape_value,
        r2_ok=bool(r2_ok),
        space_quotient=sq,
        time_quotient=tq,
        test0_lhs=test0_lhs,
        test0_rhs=test0_rhs,
        xest0_lhs=xest0_lhs,
        xest0_rhs=xest0_rhs,
        kinetic=K,
        fitted_c2=test0_lhs / test0_rhs,
        fitted_c3=max(xest0_lhs, 0.0) / xest0_rhs,
        ell0=ell0,
        ell1=ell1,
        ell_gap=ell0 - ell1,
    )


# -- exit measure (driftless dual density) --------------------------------------------


@dataclass
class ExitMeasureReport:
    moment: float  # integral |y|^alpha mu(y, tau) dy
    norm_q0p: float  # ||mu||_{q0'}
    outflux: float
    sol: FPSolution


def exit_measure_report(sigma, R, tau, dx, dt, alpha, gamma, dim=1) -> ExitMeasureReport:
    grid = make_grid(GridSpec(dim, R, dx, tau, dt))
    sol = solve_fp(FPProblem(sigma=sigma, R=R, tau=tau, drift=None, source=0.0), grid)
    q0 = critical_q0(gamma, dim)
    q0p = q0 / (q0 - 1.0)
    r = np.sqrt(np.sum(grid.coords ** 2, axis=-1))
    moment = space_integral(grid, r ** alpha * sol.m.values[-1])
    return ExitMeasureReport(
        moment=moment,
        norm_q0p=lq_norm(sol.m, q0p),
        outflux=float(sol.outflux[-1]),
        sol=sol,
    )


# -- elementary power inequality -------------------------------------------------------


def ldiff_cap(gamma_conj: float) -> float:
    """Analytic worst-branch cap for the fitted power-inequality constant."""
    return max(
        gamma_conj * 2.0 ** (gamma_conj - 1.0),
        gamma_conj * (gamma_conj - 1.0) + gamma_conj,
    )


@lru_cache(maxsize=1)
def _ldiff_samples(n: int, seed: int):
    """The seeded |z|, |x| and |z+x|^2 behind ldiff_constant, read-only.

    They do not depend on gamma', so a list of gamma' values draws them once.
    """
    rng = np.random.default_rng(seed)
    rz = 10.0 ** rng.uniform(-6, 6, n)
    rx = 10.0 ** rng.uniform(-6, 6, n)
    dims = rng.integers(1, 4, n)
    dz = rng.normal(size=(n, 3))
    dxv = rng.normal(size=(n, 3))
    for d in (1, 2):
        mask = dims == d
        dz[mask, d:] = 0.0
        dxv[mask, d:] = 0.0
    dz /= np.linalg.norm(dz, axis=1, keepdims=True)
    dxv /= np.linalg.norm(dxv, axis=1, keepdims=True)
    zeta = rz[:, None] * dz
    xi = rx[:, None] * dxv
    sum_sq = np.sum((zeta + xi) ** 2, axis=1)
    for arr in (rz, rx, sum_sq):
        arr.flags.writeable = False
    return rz, rx, sum_sq


def ldiff_constant(gamma_conj: float, n_samples: int = 100000, seed: int = 0) -> float:
    """max over seeded samples of (|z+x|^gc - |z|^gc)/(|z|^(gc-1)|x| + |x|^gc).

    Magnitudes log-uniform over [1e-6, 1e6], random directions, dimensions
    cycling through {1, 2, 3}.  The samples depend only on (n_samples, seed)
    and are drawn once for consecutive calls that share them.
    """
    if not (1.0 < gamma_conj < 2.0):
        raise ValueError("gamma' must lie in (1, 2)")
    rz, rx, sum_sq = _ldiff_samples(int(n_samples), int(seed))
    num = sum_sq ** (gamma_conj / 2.0) - rz ** gamma_conj
    den = rz ** (gamma_conj - 1.0) * rx + rx ** gamma_conj
    return float(np.max(num / den))
