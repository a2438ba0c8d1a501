"""Dual Fokker-Planck solver and its densities' functionals.

dm/ds - sigma*Lap(m) - div(b m) = 0 on the grid cylinder, m(0) a single-node
Dirac, absorbing lateral boundary.  Conservative finite-volume update: one
implicit upwind drift-and-diffusion solve per level (an M-matrix for every
dt, so no transport CFL bound), exact per-face accounting of the diffusive
boundary loss so that mass(s) + outflux(s) = 1 holds to solver precision at
every level.  The matrix entries are formed once per distinct drift level;
on 1D grids each level is one call of LAPACK's tridiagonal solver, and
otherwise the matrix is factored once per distinct drift level by its banded
LU.  A drift
that is not finite somewhere is rejected before the march.  solve_fp imports
scipy's LAPACK when it is called, so importing this module loads numpy
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    NumericalFailure,
    ScalarField,
    VectorField,
    evaluate,
    gradient_level,
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
        x0 = np.atleast_1d(np.asarray(self.source, dtype=float))
        if x0.shape not in ((1,), (grid.dim,)):
            raise ValueError(f"source has {x0.size} coordinates on a {grid.dim}D grid")
        x0 = x0 * np.ones(grid.dim)
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
    mass: np.ndarray  # per level
    outflux: np.ndarray  # cumulative per level
    boundary_flux: np.ndarray  # (levels, n_faces) per-step increments, faces as in Grid.boundary_face_nodes

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
    """The drift on every node and level of grid (evaluate; None is no drift).

    A VectorField on another grid is resampled when it covers the FP grid;
    a value that is not finite raises, naming the node and time.
    """
    b = VectorField(grid, evaluate(np.zeros(grid.dim) if drift is None else drift, grid))
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
    formed with stacked array operations, _BLOCK levels at a time.  When the
    matrix is tridiagonal (every 1D grid) each level is solved by one call
    of LAPACK's dgtsv on its entries: partial pivoting never swaps the rows
    of an M-matrix, so this is the arithmetic of dgttrf then dgttrs.
    Otherwise each distinct drift level is LU-factored once by the banded
    dgbtrf, with as many sub- as superdiagonals as the Laplacian's band (one
    grid row in 2D).  The march solves, checks the new level for negative
    density (NaN included) and clamps it; the boundary fluxes, outflux and
    mass of all levels follow from the stacked densities.
    """
    from scipy.linalg import lapack

    x0 = problem.validate(grid)
    b = _sample_drift(grid, problem.drift)
    interior = grid.interior
    n_int = int(interior.sum())
    flo, fhi, faxis = grid.interior_faces()
    number = np.cumsum(interior.ravel()) - 1  # of each interior node, in C order
    lo, hi = number[flo], number[fhi]
    n_face = len(lo)
    # the matrix entries: (lo, hi) and (hi, lo) of each face, then the diagonal
    rows = np.concatenate((lo, hi, np.arange(n_int)))
    cols = np.concatenate((hi, lo, np.arange(n_int)))
    csc = np.lexsort((rows, cols))  # the entries column by column, rows ascending
    by_column = csc[csc < 2 * n_face]  # the off-diagonal entries in that order
    # the diffusion matrix I - sigma*dt*L at these entries, read from L's upper band (L is symmetric, lo < hi)
    band = grid.laplacian_stencils()[0].upper_band()
    kd = len(band) - 1
    face = band[kd + lo - hi, hi]
    D = (rows == cols) - problem.sigma * grid.dt * np.concatenate((face, face, band[kd]))
    off_base, diag_base = D[: 2 * n_face], D[2 * n_face :]

    # a level factors anew unless its interior drift equals the previous level's
    nt = grid.spec.nt
    new = np.ones(nt, dtype=bool)
    new[1:] = np.any((b.values[1:nt] != b.values[: nt - 1])[:, interior], axis=(1, 2))
    steps = np.flatnonzero(new)
    tridiagonal = kd == 1
    if not tridiagonal:  # LAPACK's general band storage, kd sub- and kd superdiagonals and room for the LU's fill
        ab = np.zeros((3 * kd + 1, n_int))
        in_band = (2 * kd + rows - cols, cols)

    def systems():
        """Per distinct drift level its entries (dl, d, du) in 1D, else its banded LU (lu, piv); _BLOCK levels at a time."""
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
                    yield dl[i], diag_data[i], du[i]
                else:
                    ab[in_band] = np.concatenate((off_data[i], diag_data[i]))
                    lu, piv, info = lapack.dgbtrf(ab, kd, kd)
                    if info != 0:
                        raise NumericalFailure(f"banded LU failed (info={info}) at FP step {k}")
                    yield lu, piv

    cell = grid.dx ** grid.dim
    levels = np.zeros((nt + 1,) + grid.shape)
    src_idx = grid.nearest_node(x0)
    if not grid.interior[src_idx]:
        raise ValueError("source node is not interior")
    levels[0][src_idx] = 1.0 / cell

    pending = systems()
    for k in range(nt):
        if new[k]:
            system = next(pending)
        if tridiagonal:
            *_, sol, info = lapack.dgtsv(*system, levels[k][interior])
            if info != 0:
                raise NumericalFailure(f"tridiagonal LU failed (info={info}) at FP step {k}")
        else:  # dgbtrs reports only illegal arguments, which f2py's checks exclude
            sol = lapack.dgbtrs(system[0], kd, kd, levels[k][interior], system[1])[0]
        m_new = levels[k + 1]
        m_new[interior] = sol
        low = float(sol.min())  # not empty: validate leaves the grid interior nodes
        if not low >= 0.0 and not low >= -_NEG_TOL * max(1.0, float(np.max(np.abs(sol)))):
            raise NumericalFailure(f"negative density {low} after FP step {k}: internal scheme bug")
        np.maximum(m_new, 0.0, out=m_new)

    face_int, _ = grid.boundary_face_nodes()
    face_factor = problem.sigma * grid.dt * grid.dx ** (grid.dim - 2)
    flat = levels.reshape(nt + 1, -1)
    bflux = np.zeros((nt + 1, len(face_int)))
    bflux[1:] = face_factor * flat[1:, face_int]
    outflux = np.cumsum(bflux.sum(axis=1))  # bflux[0] = 0
    mass = flat.sum(axis=1) * cell

    sol = FPSolution(
        grid=grid,
        m=ScalarField(grid, levels),
        b=b,
        sigma=problem.sigma,
        source=x0,
        mass=mass,
        outflux=outflux,
        boundary_flux=bflux,
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


def moment_alpha(sol: FPSolution, alpha: float) -> MomentReport:
    """integral |x - x0|^alpha m(x, tau) dx plus its two budget terms."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    g = sol.grid
    r = np.sqrt(np.sum((g.coords - sol.source) ** 2, axis=-1))
    moment = space_integral(g, r ** alpha * sol.m.values[-1])
    b1 = drift_l1(sol) ** alpha
    b2 = (sol.sigma * sol.tau) ** (alpha / 2.0)
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


# -- reference kernel -----------------------------------------------------------------


def interval_kernel(x, x0, R, sigma, t):
    """Absorbing heat kernel on (-R, R) by the method of images, 12 on each side."""
    x = np.asarray(x, dtype=float)

    def phi(z):
        return np.exp(-z ** 2 / (4 * sigma * t)) / np.sqrt(4 * np.pi * sigma * t)

    out = np.zeros_like(x)
    for n in range(-12, 13):
        out += phi(x - x0 - 4 * R * n) - phi(x + x0 + 2 * R - 4 * R * n)
    return out
