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
    GridSpec,
    ScalarField,
    centered_cylinder,
    evaluate,
    make_grid,
    sample_field,
    sample_points,
    space_integral,
    spacetime_integral,
)
from .hj import alpha_zero, gamma_conjugate, manufactured_problem, ms_cosine, solve_hj
from .seminorm import space_quotient, time_quotient


def ell_constant(h: float, gamma: float) -> float:
    """Legendre prefactor h(gamma-1)/(h*gamma)^gamma'."""
    gc = gamma_conjugate(gamma)
    return h * (gamma - 1.0) / (h * gamma) ** gc


@dataclass
class DualityReport:
    lhs: float
    lagrangian: float
    running_cost: float
    terminal: float
    boundary: float

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
    prob = manufactured_problem(ms, T, gamma, sigma, h, h)
    w = solve_hj(prob, make_grid(GridSpec(1, 2.0, dx, T, dx / 4)), gradient_bound=abs(A) * np.pi).u
    b = drift_from_solution(w, h, gamma)
    sol = solve_fp(FPProblem(sigma=sigma, R=1.0, tau=T, drift=b, source=0.0), make_grid(GridSpec(1, 1.0, dx, T, dx / 4)))
    return w, prob.f, sol


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


def _duality_terms(w: ScalarField, g_rhs, sol: FPSolution, y0: np.ndarray, gamma: float):
    """(lhs, kinetic, running, terminal, boundary) along xi_s = ((tau - s)/tau) y0.

    The comparison density is sol.m shifted by xi_s: it starts at
    source + y0 and ends on sol's grid at s = tau.  lhs = w(source + y0, 0),
    kinetic = iint |b - xi'_s|^gamma' m, running = iint g(x + xi_s, s) m
    (g read by evaluate at the shifted nodes), terminal = int w(x, tau)
    m(x, tau) and the boundary sum of w at the shifted faces.  y0 = 0 gives
    the terms of the duality identity.  w (and g if a field) must cover the
    R + |y0| padded box.
    """
    grid = sol.grid
    tau = sol.tau
    pad_needed = grid.spec.half_width + float(np.max(np.abs(y0)))
    wR = w.grid.spec.half_width
    if wR < pad_needed - 1e-12:
        raise ValueError(
            f"insufficient padding: w lives on half-width {wR}, shift needs {pad_needed}"
        )

    xi_rate = y0 / tau  # -xi'_s
    mag = np.sqrt(np.sum((sol.b.values + xi_rate) ** 2, axis=-1))
    kinetic = spacetime_integral(grid, mag ** gamma_conjugate(gamma) * sol.m.values)

    def shift(s):
        return (tau - s) / tau * y0

    g_sh = np.stack([evaluate(g_rhs, grid, s, grid.coords + shift(s)) for s in grid.ts])
    running = spacetime_integral(grid, g_sh * sol.m.values)

    w_tau = sample_points(w, grid.coords.reshape(-1, grid.dim), tau).reshape(grid.shape)
    terminal = space_integral(grid, w_tau * sol.m.values[-1])

    lhs = sample_field(w, sol.source + y0, 0.0)
    return lhs, kinetic, running, terminal, _boundary_sum(w, sol, shift)


def duality_identity(w: ScalarField, f, sol: FPSolution, h: float, gamma: float) -> DualityReport:
    """w(x0, 0) against Lagrangian + running cost + terminal + boundary terms.

    h constant here (the identity is exact only for h0 = h1); the Lagrangian
    term is ell(h) * K = h(gamma-1) * iint |Dw|^gamma m.  The terms are
    those of bent_duality at y0 = 0.
    """
    g = sol.grid
    if w.grid.dim != g.dim or abs(w.grid.dt - g.dt) > 1e-14 or abs(w.grid.dx - g.dx) > 1e-14:
        raise ValueError("w and the FP solution must share dx and dt")
    ell = ell_constant(h, gamma)
    lhs, K, running, terminal, boundary = _duality_terms(w, f, sol, np.zeros(g.dim), gamma)
    return DualityReport(
        lhs=lhs,
        lagrangian=ell * K,
        running_cost=running,
        terminal=terminal,
        boundary=boundary,
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

    xi_s = ((tau - s)/tau) y0 bends the comparison density from source + y0
    back to the source; shifted evaluations of g and w use multilinear
    interpolation, so w (and g if a field) must cover the R + |y0| padded
    box.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if np.linalg.norm(y0) > 1 + 1e-12:
        raise ValueError("|y0| must be <= 1")
    lhs, kinetic, running, terminal, boundary = _duality_terms(w, g_rhs, sol, y0, gamma)
    lagr = ell0 * kinetic
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


def oscillation_report(
    w: ScalarField,
    sigma: float,
    h0: float,
    h1: float,
    gamma: float,
    alpha: float,
    z: float,
    R: float,
    tau: float,
) -> OscillationBudget:
    """Evaluate the time and space oscillation budgets on Q_{R,tau} of a homogeneous solve.

    w solves the equation with g = 0, so the budgets carry no forcing term;
    the space budget compares w at y0 = e_1 with w at the origin, both at
    t = 0.  Requires the normalization sup-quotients (space <= 3, time <=
    3^{g/2} z) on the closed cylinder; rejects otherwise with the offending
    value.  Fitted constants are the smallest making each budget inequality
    hold.
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

    gc = gamma_conjugate(gamma)
    a0 = alpha_zero(gamma)

    # dual density driven by the drift extracted from w
    fp_grid = make_grid(GridSpec(N, R, grid.dx, tau, grid.dt))
    b = drift_from_solution(w, h1, gamma)
    sol = solve_fp(FPProblem(sigma=sigma, R=R, tau=tau, drift=b, source=0.0), fp_grid)
    K = kinetic_energy(sol, gamma)

    # conditions
    shape_value = z * (R ** alpha + tau ** (alpha / 2.0)) / R
    r2_ok = R ** 2 >= sigma * tau - 1e-12

    w00 = sample_field(w, np.zeros(N), 0.0)
    w0tau = sample_field(w, np.zeros(N), tau)
    wy0 = sample_field(w, np.eye(N)[0], 0.0)

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
        + tau ** (1.0 / gamma) * K ** (1.0 / gc) / R
        + tau / R ** 2
        + (ell0 - ell1) * K
    )

    return OscillationBudget(
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
    rz = rng.uniform(-6, 6, n)
    np.power(10.0, rz, out=rz)
    rx = rng.uniform(-6, 6, n)
    np.power(10.0, rx, out=rx)
    dims = rng.integers(1, 4, n)
    dz = rng.normal(size=(n, 3))
    dxv = rng.normal(size=(n, 3))
    for d in (1, 2):
        mask = dims == d
        dz[mask, d:] = 0.0
        dxv[mask, d:] = 0.0
    del dims, mask  # not needed below, and 0.9 MB fewer at the peak of the norms
    # zeta = rz * dz / |dz| and xi = rx * dxv / |dxv|, then |zeta + xi|^2, in place
    for v, r in ((dz, rz), (dxv, rx)):
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= r[:, None]
    dz += dxv
    dz *= dz
    sum_sq = np.sum(dz, axis=1)
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
    if n_samples < 1:
        raise ValueError(f"samples must be >= 1, got {n_samples}")
    rz, rx, sum_sq = _ldiff_samples(int(n_samples), int(seed))
    num = sum_sq ** (gamma_conj / 2.0) - rz ** gamma_conj
    den = rz ** (gamma_conj - 1.0) * rx + rx ** gamma_conj
    return float(np.max(num / den))
