"""Dual Fokker-Planck solver and its densities' functionals.

dm/ds - sigma*Lap(m) - div(b m) = 0 on the grid cylinder, m(0) a single-node
Dirac, absorbing lateral boundary.  Conservative finite-volume update: one
implicit upwind drift-and-diffusion solve per level (an M-matrix for every
dt, so no transport CFL bound), exact per-face accounting of the diffusive
boundary loss so that mass(s) + outflux(s) = 1 holds to solver precision at
every level.  The matrix is factored once per distinct drift level: by
LAPACK's tridiagonal LU on 1D grids, by SuperLU otherwise.  A drift that is
not finite somewhere is rejected before the march.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .grid import (
    Cylinder,
    Grid,
    NumericalFailure,
    ScalarField,
    VectorField,
    gradient_level,
    sample_points,
    space_integral,
    spacetime_integral,
)
from .hj import gamma_conjugate

_NEG_TOL = 1e-12
_BLOCK = 64  # distinct drift levels whose matrix entries are formed together


@dataclass
class FPProblem:
    sigma: float
    R: float
    tau: float
    drift: object = None  # None, constant vector, callable(x, t) or VectorField
    source: object = 0.0  # point x0, strictly interior

    def validate(self, grid: Grid):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if abs(grid.spec.half_width - self.R) > 1e-12:
            raise ValueError("grid half_width must equal R")
        if abs(grid.spec.horizon - self.tau) > 1e-12:
            raise ValueError("grid horizon must equal tau")
        if grid.dx > self.R / 8 + 1e-12:
            raise ValueError("grid must resolve the ball: dx <= R/8")
        x0 = np.atleast_1d(np.asarray(self.source, dtype=float)) * np.ones(grid.dim)
        if np.max(np.abs(x0)) > self.R - 2 * grid.dx + 1e-12:
            raise ValueError("source must sit at least 2*dx inside the boundary")
        return x0


@dataclass
class FPSolution:
    grid: Grid
    m: ScalarField
    b: VectorField
    sigma: float
    source: np.ndarray
    source_index: tuple
    mass: np.ndarray  # per level
    outflux: np.ndarray  # cumulative per level
    boundary_flux: np.ndarray  # (levels, n_faces) per-step increments
    faces: list

    @property
    def subcycles(self):
        """Solves per level: always one."""
        return [1] * self.grid.spec.nt

    @property
    def tau(self):
        return float(self.grid.ts[-1])

    @property
    def conservation_defect(self):
        return float(np.max(np.abs(self.mass + self.outflux - 1.0)))

    def min_density(self):
        return float(np.min(self.m.values[:, self.grid.active]))


def _sample_drift(grid: Grid, drift) -> VectorField:
    """The drift on every node and level of grid; raises at a non-finite value."""
    shape = (grid.n_levels,) + grid.shape + (grid.dim,)
    if drift is None:
        return VectorField(grid, np.zeros(shape))
    if isinstance(drift, VectorField):
        if drift.grid.spec == grid.spec:
            b = drift
        else:
            # resample multilinearly onto the FP nodes; the drift's grid must cover them
            pts = grid.coords.reshape(-1, grid.dim)
            vals = np.zeros(shape)
            try:
                for a in range(grid.dim):
                    comp = ScalarField(drift.grid, drift.values[..., a])
                    vals[..., a] = sample_points(comp, pts, grid.ts).reshape(shape[:-1])
            except ValueError as exc:
                raise ValueError(f"drift VectorField does not cover the FP grid: {exc}") from exc
            b = VectorField(grid, vals)
    elif callable(drift):
        vals = np.zeros(shape)
        for k, t in enumerate(grid.ts):
            vals[k] = np.asarray(drift(grid.coords, float(t)), dtype=float)
        b = VectorField(grid, vals)
    else:
        vals = np.zeros(shape)
        vals[...] = np.atleast_1d(np.asarray(drift, dtype=float))
        b = VectorField(grid, vals)
    bad = np.argwhere(~np.all(np.isfinite(b.values), axis=-1))
    if len(bad):
        k, *idx = (int(i) for i in bad[0])
        raise ValueError(
            f"drift is not finite: b = {tuple(b.values[(k, *idx)].tolist())} "
            f"at x={tuple(grid.coords[tuple(idx)].tolist())}, t={float(grid.ts[k])!r}"
        )
    return b


def solve_fp(problem: FPProblem, grid: Grid) -> FPSolution:
    """Solve the FP problem; verifies mass accounting and nonnegativity.

    Each level is one implicit solve (I - sigma*dt*L + dt*U(b_k)) m^{k+1} = m^k.
    U is upwind transport over the grid's faces between interior nodes, with
    face velocity -(b_l + b_r)/2, and no drift flux on the faces that touch a
    non-interior node; its off-diagonals are <= 0 and its columns sum to 0,
    so the matrix is an M-matrix for every dt.  The matrix entries of the distinct drift levels
    (a level whose interior drift differs from the previous level's) are
    formed with stacked array operations, _BLOCK levels at a time, and each
    is LU-factored once: by LAPACK's tridiagonal dgttrf when the matrix is
    tridiagonal (every 1D grid), by SuperLU otherwise.  The march solves,
    checks the new level for negative density and clamps it; the boundary
    fluxes, outflux and mass of all levels follow from the stacked densities.
    """
    x0 = problem.validate(grid)
    b = _sample_drift(grid, problem.drift)
    interior = grid.interior
    n_int = int(interior.sum())
    flo, fhi, faxis = grid.interior_faces()
    number = np.cumsum(interior.ravel()) - 1  # of each interior node, in C order
    lo, hi = number[flo], number[fhi]
    n_face = len(lo)
    # the matrix entries: (lo, hi) and (hi, lo) of each face, then the diagonal;
    # CSC storage takes them column by column, rows ascending
    rows = np.concatenate((lo, hi, np.arange(n_int)))
    cols = np.concatenate((hi, lo, np.arange(n_int)))
    csc = np.lexsort((rows, cols))
    by_column = csc[csc < 2 * n_face]  # the off-diagonal entries in CSC order
    # the diffusion matrix I - sigma*dt*L at the face entries and on the diagonal
    D = sp.identity(n_int, format="csr") - problem.sigma * grid.dt * grid.laplacian_ops()[0]
    off_base = np.asarray(D[rows[: 2 * n_face], cols[: 2 * n_face]]).ravel()
    diag_base = D.diagonal()

    # a level factors anew unless its interior drift equals the previous level's
    nt = grid.spec.nt
    new = np.ones(nt, dtype=bool)
    new[1:] = np.any((b.values[1:nt] != b.values[: nt - 1])[:, interior], axis=(1, 2))
    steps = np.flatnonzero(new)
    tridiagonal = bool(np.all(hi - lo == 1))
    if not tridiagonal:
        indptr = np.searchsorted(cols[csc], np.arange(n_int + 1))
        A = sp.csc_matrix((np.zeros(len(csc)), rows[csc], indptr), shape=(n_int, n_int))

    def factorizations():
        """A solve function per distinct drift level, the entries formed _BLOCK levels at a time."""
        for start in range(0, len(steps), _BLOCK):
            block = steps[start : start + _BLOCK]
            bd = b.values[block].reshape(len(block), -1, grid.dim)
            v = -0.5 * (bd[:, flo, faxis] + bd[:, fhi, faxis])
            # U[lo, hi] = min(v, 0)/dx, U[hi, lo] = -max(v, 0)/dx, U[c, c] = -sum_r U[r, c]
            u_off = np.concatenate((np.minimum(v, 0.0), -np.maximum(v, 0.0)), axis=1) / grid.dx
            col_sums = np.bincount(
                (cols[by_column] + n_int * np.arange(len(block))[:, None]).ravel(),
                weights=u_off[:, by_column].ravel(),
                minlength=len(block) * n_int,
            ).reshape(len(block), n_int)
            off_data = off_base + grid.dt * u_off
            diag_data = diag_base - grid.dt * col_sums
            if tridiagonal:
                du, dl = np.zeros((2, len(block), n_int - 1))
                du[:, lo], dl[:, lo] = off_data[:, :n_face], off_data[:, n_face:]
            for i, k in enumerate(block):
                if tridiagonal:
                    *lu, info = lapack.dgttrf(dl[i], diag_data[i], du[i])
                    if info != 0:
                        raise NumericalFailure(f"tridiagonal LU failed (info={info}) at FP step {k}")
                    # dgttrs reports only illegal arguments, which f2py's checks exclude
                    yield lambda rhs, lu=lu: lapack.dgttrs(*lu, rhs)[0]
                else:
                    A.data[:] = np.concatenate((off_data[i], diag_data[i]))[csc]
                    yield spla.splu(A).solve

    cell = grid.dx ** grid.dim
    levels = np.zeros((nt + 1,) + grid.shape)
    src_idx = grid.nearest_node(x0)
    if not grid.interior[src_idx]:
        raise ValueError("source node is not interior")
    levels[0][src_idx] = 1.0 / cell

    factors = factorizations()
    for k in range(nt):
        if new[k]:
            solve = next(factors)
        sol = solve(levels[k][interior])
        m_new = levels[k + 1]
        m_new[interior] = sol
        low = float(np.min(sol)) if len(sol) else 0.0
        scale = max(1.0, float(np.max(np.abs(sol)))) if len(sol) else 1.0
        if not (low >= -_NEG_TOL * scale):
            raise NumericalFailure(f"negative density {low} after FP step {k}: internal scheme bug")
        np.maximum(m_new, 0.0, out=m_new)

    faces = grid.boundary_faces()
    face_int, _ = grid.boundary_face_nodes()
    face_factor = problem.sigma * grid.dt * grid.dx ** (grid.dim - 2)
    flat = levels.reshape(nt + 1, -1)
    bflux = np.zeros((nt + 1, len(faces)))
    bflux[1:] = face_factor * flat[1:, face_int]
    outflux = np.cumsum(bflux.sum(axis=1))  # bflux[0] = 0
    mass = flat.sum(axis=1) * cell

    sol = FPSolution(
        grid=grid,
        m=ScalarField(grid, levels),
        b=b,
        sigma=problem.sigma,
        source=x0,
        source_index=src_idx,
        mass=mass,
        outflux=outflux,
        boundary_flux=bflux,
        faces=faces,
    )
    if not (sol.conservation_defect <= 1e-8):
        raise NumericalFailure(
            f"mass accounting broke: max |mass + outflux - 1| = {sol.conservation_defect}"
        )
    return sol


# -- drift construction -----------------------------------------------------------


def drift_from_solution(w: ScalarField, h1: float, gamma: float) -> VectorField:
    """b = h1 * gamma * |Dw|^(gamma-2) Dw with the central gradient; 0 where Dw = 0."""
    g = w.grid
    grad = gradient_level(w.values, g.dx, g.dim)
    mag = np.sqrt(np.sum(grad ** 2, axis=-1))
    fac = h1 * gamma * mag ** (gamma - 2.0)  # gamma > 2 extends continuously by 0
    grad *= fac[..., None]
    return VectorField(g, grad)


# -- functionals of the density -----------------------------------------------------


def kinetic_energy(sol: FPSolution, gamma: float) -> float:
    """K = integral of |b|^gamma' m over the cylinder."""
    gc = gamma_conjugate(gamma)
    return spacetime_integral(sol.grid, sol.b.magnitude() ** gc * sol.m.values)


def drift_l1(sol: FPSolution) -> float:
    return spacetime_integral(sol.grid, sol.b.magnitude() * sol.m.values)


@dataclass
class MomentReport:
    moment: float
    drift_budget: float  # (iint |b| m)^alpha
    diffusion_budget: float  # (sigma*tau)^(alpha/2)
    fitted_c: float


def moment_alpha(sol: FPSolution, alpha: float, level: int | None = None) -> MomentReport:
    """integral |x - x0|^alpha m(x, s_level) dx plus its two budget terms."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    g = sol.grid
    k = g.spec.nt if level is None else int(level)
    s = float(g.ts[k])
    r = np.sqrt(np.sum((g.coords - sol.source) ** 2, axis=-1))
    moment = space_integral(g, r ** alpha * sol.m.values[k])
    b1 = drift_l1(sol) ** alpha
    b2 = (sol.sigma * s) ** (alpha / 2.0)
    denom = b1 + b2
    return MomentReport(moment, b1, b2, moment / denom if denom > 0 else 0.0)


@dataclass
class BoundaryLossReport:
    outflux: float
    drift_term: float  # tau^(1/gamma)/R * K^(1/gamma')
    diffusion_term: float  # sigma*tau/R^2
    fitted_c: float
    kinetic: float


def boundary_loss_check(sol: FPSolution, gamma: float) -> BoundaryLossReport:
    gc = gamma_conjugate(gamma)
    R = sol.grid.spec.half_width
    tau = sol.tau
    K = kinetic_energy(sol, gamma)
    t_drift = tau ** (1.0 / gamma) / R * K ** (1.0 / gc)
    t_diff = sol.sigma * tau / R ** 2
    out = float(sol.outflux[-1])
    denom = t_drift + t_diff
    return BoundaryLossReport(out, t_drift, t_diff, out / denom if denom > 0 else 0.0, K)


@dataclass
class MNormReport:
    lhs: float  # sigma^(gamma'(N+1)/(N+2)) ||m||_{q0'}
    kinetic: float
    sigma_term: float  # sigma^(gamma'/2) tau^(alpha0/2)
    fitted_c: float
    tail_lhs: float  # same norm restricted to s in (fraction*tau, tau)
    tail_fitted_c: float
    initial_layer_share: float
    initial_layer_dominates: bool


def m_norm_bound_check(sol: FPSolution, q0: float, layer_fraction: float = 0.1) -> MNormReport:
    """Both sides of the dual L^{q0'} density bound, with the initial-layer caveat.

    The single-node Dirac makes ||m||_{q0'} near s = 0 resolution-dependent;
    the share of the norm carried by s < layer_fraction*tau is reported and
    flagged, never hidden.
    """
    g = sol.grid
    N = g.dim
    gc = (N + 2) / q0  # q0 = (N+2)/gamma' inverted
    if not (1 < gc < 2):
        raise ValueError("q0 must correspond to gamma' in (1, 2)")
    gamma = gc / (gc - 1.0)
    alpha0 = 2.0 - gc
    R, tau = g.spec.half_width, sol.tau
    if R ** 2 < tau * sol.sigma - 1e-12:
        raise ValueError("requires R^2 >= tau*sigma")
    q0p = q0 / (q0 - 1.0)

    from .grid import lq_norm

    full = lq_norm(sol.m, q0p)
    cut = layer_fraction * tau
    tail_cyl = Cylinder(
        xmin=tuple([-R] * N), xmax=tuple([R] * N), t0=cut, t1=tau, radius=None
    )
    tail = lq_norm(sol.m, q0p, tail_cyl)

    K = kinetic_energy(sol, gamma)
    pref = sol.sigma ** (gc * (N + 1) / (N + 2))
    s_term = sol.sigma ** (gc / 2.0) * tau ** (alpha0 / 2.0)
    rhs = K + s_term
    share = 1.0 - (tail / full) ** q0p if full > 0 else 0.0
    return MNormReport(
        lhs=pref * full,
        kinetic=K,
        sigma_term=s_term,
        fitted_c=pref * full / rhs if rhs > 0 else 0.0,
        tail_lhs=pref * tail,
        tail_fitted_c=pref * tail / rhs if rhs > 0 else 0.0,
        initial_layer_share=share,
        initial_layer_dominates=bool(share > 0.5),
    )


# -- reference kernels ----------------------------------------------------------------


def gaussian_kernel(coords, x0, sigma, t):
    """Free heat kernel (4 pi sigma t)^(-N/2) exp(-|x-x0|^2 / 4 sigma t)."""
    coords = np.asarray(coords, dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    N = coords.shape[-1]
    r2 = np.sum((coords - x0) ** 2, axis=-1)
    return (4 * np.pi * sigma * t) ** (-N / 2.0) * np.exp(-r2 / (4 * sigma * t))


def interval_kernel(x, x0, R, sigma, t, images=12):
    """Absorbing heat kernel on (-R, R) by the method of images."""
    x = np.asarray(x, dtype=float)

    def phi(z):
        return np.exp(-z ** 2 / (4 * sigma * t)) / np.sqrt(4 * np.pi * sigma * t)

    out = np.zeros_like(x)
    for n in range(-images, images + 1):
        out += phi(x - x0 - 4 * R * n) - phi(x + x0 + 2 * R - 4 * R * n)
    return out


def box_kernel(coords, x0, R, sigma, t, images=12):
    """Product of interval kernels: absorbing box (-R, R)^N."""
    coords = np.asarray(coords, dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    out = np.ones(coords.shape[:-1])
    for a in range(coords.shape[-1]):
        out *= interval_kernel(coords[..., a], x0[a], R, sigma, t, images)
    return out
