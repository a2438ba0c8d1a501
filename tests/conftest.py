import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from hjlab import hj
from hjlab.acceptance import random_field  # noqa: F401 - shared with the test modules
from hjlab.grid import Grid, GridSpec, NumericalFailure, ScalarField, evaluate, make_grid
from hjlab.hj import CFL_EPS, DENSE_MAX, MAX_HALVINGS, MAX_SUBSTEPS, HJSolution


@pytest.fixture
def grid_1d() -> Grid:
    return make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))


@pytest.fixture
def grid_1d_fine() -> Grid:
    return make_grid(GridSpec(1, 1.0, 0.0625, 1.0, 0.125))


def counting_lu(solve, *args, **kwargs):
    """solve(*args, **kwargs) and the number of factorizations it made.

    Counts LAPACK's tridiagonal solves and banded LU (scipy.linalg.lapack.dgtsv,
    which a 1D FP solve calls once per level, and dgbtrf, once per distinct
    drift level) and the HJ march's dense inverses and banded Cholesky factors
    (hj._DenseInverse, hj._BandedCholesky) alike.  An exception from solve
    propagates with the count as its lu_calls.
    """
    calls = []

    def counted(real):
        def factor(*a, **kw):
            calls.append(real.__name__)
            return real(*a, **kw)

        return factor

    with mock.patch.object(lapack, "dgtsv", counted(lapack.dgtsv)), mock.patch.object(
        lapack, "dgbtrf", counted(lapack.dgbtrf)
    ), mock.patch.object(hj, "_DenseInverse", counted(hj._DenseInverse)), mock.patch.object(
        hj, "_BandedCholesky", counted(hj._BandedCholesky)
    ):
        try:
            res = solve(*args, **kwargs)
        except Exception as exc:
            exc.lu_calls = len(calls)
            raise
    return res, len(calls)


class _CountedSolves:
    """An HJ rung factor (dense inverse or banded Cholesky) whose solves, each of one right-hand side or a batch of them, are counted in calls."""

    def __init__(self, factor, calls):
        self.factor, self.calls = factor, calls

    def solve(self, rows):
        self.calls.append(rows.shape)
        return self.factor.solve(rows)


def counting_lu_solves(solve, *args, **kwargs):
    """solve(*args, **kwargs) and the number of HJ rung solves it made, a batch of right-hand sides counting once."""
    calls = []

    def counted(real):
        return lambda *a, **kw: _CountedSolves(real(*a, **kw), calls)

    with mock.patch.object(hj, "_DenseInverse", counted(hj._DenseInverse)), mock.patch.object(
        hj, "_BandedCholesky", counted(hj._BandedCholesky)
    ):
        res = solve(*args, **kwargs)
    return res, len(calls)


# -- oracle lattice ---------------------------------------------------------------
# The lattice as Grid built it node by node before the face table: the box rim
# and the ball's stair-step shell as the boundary layer, then L, B and the
# boundary faces from the face neighbours of each interior node in C order.


def oracle_lattice(grid):
    """SimpleNamespace(interior, boundary, L, B, int_idx, bnd_idx, faces) of grid."""
    spec, shape = grid.spec, grid.shape
    boundary = np.zeros(shape, dtype=bool)
    for a in range(spec.dim):
        sl_lo = [slice(None)] * spec.dim
        sl_hi = [slice(None)] * spec.dim
        sl_lo[a] = 0
        sl_hi[a] = -1
        boundary[tuple(sl_lo)] = True
        boundary[tuple(sl_hi)] = True
    if spec.ball_mask:
        near_inactive = np.zeros(shape, dtype=bool)
        for a in range(spec.dim):
            pad = np.ones(shape, dtype=bool)
            sl_c = [slice(None)] * spec.dim
            sl_n = [slice(None)] * spec.dim
            sl_c[a] = slice(0, -1)
            sl_n[a] = slice(1, None)
            nb = np.ones(shape, dtype=bool)
            nb[tuple(sl_c)] &= grid.active[tuple(sl_n)]
            nb2 = np.ones(shape, dtype=bool)
            nb2[tuple(sl_n)] &= grid.active[tuple(sl_c)]
            pad &= nb & nb2
            near_inactive |= ~pad
        boundary = grid.active & (near_inactive | boundary)
    boundary = boundary & grid.active
    interior = grid.active & ~boundary

    flat_of = -np.ones(shape, dtype=np.int64)
    int_idx = np.argwhere(interior)
    for k, idx in enumerate(int_idx):
        flat_of[tuple(idx)] = k
    bnd_of = -np.ones(shape, dtype=np.int64)
    bnd_idx = np.argwhere(boundary)
    for k, idx in enumerate(bnd_idx):
        bnd_of[tuple(idx)] = k
    n_int, n_bnd = len(int_idx), len(bnd_idx)
    inv_dx2 = 1.0 / grid.dx ** 2
    rows, cols, vals = [], [], []
    browz, bcolz, bvalz = [], [], []
    faces = []
    for k, idx in enumerate(int_idx):
        idx = tuple(int(i) for i in idx)
        diag = 0.0
        for a in range(spec.dim):
            for step in (-1, 1):
                nb = list(idx)
                nb[a] += step
                nb = tuple(nb)
                j = flat_of[nb]
                diag -= inv_dx2
                if j >= 0:
                    rows.append(k)
                    cols.append(int(j))
                    vals.append(inv_dx2)
                else:
                    browz.append(k)
                    bcolz.append(int(bnd_of[nb]))
                    bvalz.append(inv_dx2)
                if boundary[nb]:
                    faces.append((idx, nb))
        rows.append(k)
        cols.append(k)
        vals.append(diag)
    return SimpleNamespace(
        interior=interior,
        boundary=boundary,
        L=sp.csr_matrix((vals, (rows, cols)), shape=(n_int, n_int)),
        B=sp.csr_matrix((bvalz, (browz, bcolz)), shape=(n_int, n_bnd)),
        int_idx=int_idx,
        bnd_idx=bnd_idx,
        faces=faces,
    )


def stencil_csr(stencil):
    """A grid.Stencil's entries as a canonical scipy CSR matrix, read off its padded entry rows."""
    real = stencil.cols.T < stencil.shape[1]
    indptr = np.concatenate(([0], np.cumsum(real.sum(axis=1))))
    return sp.csr_matrix((stencil.vals.T[real], stencil.cols.T[real], indptr), shape=stencil.shape)


# -- oracle field-CSV writer ------------------------------------------------------
# write_field_csv as it was before it formatted each coordinate once: every row
# formatted whole.  write_field_csv must give the same text.


def oracle_write_field_csv(u, path_or_buf):
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


# -- oracle HJ march -------------------------------------------------------------
# The substep loop of solve_hj as it was before per-solve preparation: every
# attempt reads h, f and the lateral data afresh through grid.evaluate (and
# h's bounds are re-checked), the time left is a Fraction, and the Godunov
# kernel pads with zero-filled one-sided differences.  It picks its solver by
# the march's rule: a dense inverse up to DENSE_MAX interior nodes, banded
# Cholesky above, on the band it reads off the dense matrix; the log is one
# tuple of hj.LOG_FIELDS per substep.  A callable datum is read as the field
# ScalarField.from_function makes of it on the solve grid, and f and the
# lateral data must be finite at every active node and level.  A CFL retry
# failure names the first interior node (C order) of the largest magnitude.
# solve_hj must match it bit for bit.


def oracle_godunov(values, dx):
    total = np.zeros_like(values)
    with np.errstate(over="ignore"):
        for a in range(values.ndim):
            dminus = np.zeros_like(values)
            dplus = np.zeros_like(values)
            sl_c = [slice(None)] * values.ndim
            sl_m = [slice(None)] * values.ndim
            sl_c[a] = slice(1, None)
            sl_m[a] = slice(0, -1)
            diff = (values[tuple(sl_c)] - values[tuple(sl_m)]) / dx
            dminus[tuple(sl_c)] = diff
            dplus[tuple(sl_m)] = diff
            g = np.maximum(np.maximum(dminus, 0.0), np.maximum(-dplus, 0.0))
            total += g * g
    return np.sqrt(total)


def oracle_upper_band(A):
    """A symmetric dense matrix's upper triangle in LAPACK's band storage, diagonal by diagonal."""
    kd = max(j - i for i, j in zip(*np.nonzero(A)))
    ab = np.zeros((kd + 1, len(A)))
    for d in range(kd + 1):
        ab[kd - d, d:] = np.diagonal(A, d)
    return ab


def oracle_solve_hj(problem, grid, gradient_bound=None):
    lattice = oracle_lattice(grid)
    L, B, int_idx = lattice.L, lattice.B, lattice.int_idx
    int_mask = grid.interior
    eye = sp.identity(len(int_idx), format="csc")
    lu_cache = {}

    def factor(j):
        if j not in lu_cache:
            A = (eye - problem.sigma * math.ldexp(grid.dt, -j) * L).toarray()
            if len(int_idx) <= DENSE_MAX:
                kernel = hj._DenseInverse(A)
            else:
                kernel = hj._BandedCholesky(oracle_upper_band(A))
            lu_cache[j] = lambda rhs: kernel.solve(rhs[None])[0]
        return lu_cache[j]

    def blowup_at(arr, t):
        bad = np.argwhere(~np.isfinite(arr))
        idx = tuple(int(i) for i in bad[0]) if len(bad) else None
        x = grid.coords[idx].tolist() if idx is not None else None
        raise NumericalFailure(f"blow-up detected at (x={None if x is None else tuple(x)}, t={t})")

    def cfl_dt(P):
        return grid.dx / (problem.gamma * problem.h1 * max(P, 0.0) ** (problem.gamma - 1.0) + CFL_EPS)

    h, f, lateral = (ScalarField.from_function(grid, d) if callable(d) else d for d in (problem.h, problem.f, problem.lateral))
    for name, datum in (("f", f), ("lateral", lateral)):
        vals = evaluate(datum, grid)
        bad = np.argwhere(grid.active & ~np.isfinite(vals))
        if len(bad):
            k, *idx = bad[0]
            x = tuple(grid.coords[tuple(idx)].tolist())
            raise ValueError(f"{name} is not finite: {name} = {float(vals[tuple(bad[0])])!r} at x={x}, t={float(grid.ts[k])!r}")

    nt = grid.spec.nt
    levels = np.zeros((nt + 1,) + grid.shape)
    levels[nt] = problem.terminal_level(grid)
    levels[nt][~grid.active] = 0.0

    log = []
    P_user = gradient_bound if gradient_bound is not None else 0.0
    v = levels[nt].copy()
    G = oracle_godunov(v, grid.dx)
    t_cur = float(grid.ts[-1])
    for k in range(nt - 1, -1, -1):
        t_target = float(grid.ts[k])
        left = Fraction(1)
        substeps = 0
        while left > 0:
            substeps += 1
            if substeps > MAX_SUBSTEPS:
                raise NumericalFailure(
                    f"CFL subcycle limit exceeded: > {MAX_SUBSTEPS} substeps in one macro step"
                )
            Pmax = max(float(np.max(G[int_mask])), P_user)
            limit = cfl_dt(Pmax)
            j = 0
            while left * 2 ** j < 1 or math.ldexp(grid.dt, -j) > limit:
                j += 1
            halvings = 0
            while True:
                dt = math.ldexp(grid.dt, -j)
                left_new = left - Fraction(1, 2 ** j)
                t_new = t_target + float(left_new) * grid.dt
                h_arr = evaluate(h, grid, t_new)
                problem.check_h(grid, h_arr[None], [t_new])
                f_arr = evaluate(f, grid, t_new)
                expl = v[int_mask] + dt * (f_arr[int_mask] - h_arr[int_mask] * G[int_mask] ** problem.gamma)
                bnd_new = evaluate(lateral, grid, t_new)[grid.boundary]
                rhs = expl + problem.sigma * dt * (B @ bnd_new)
                sol = factor(j)(rhs)
                if not np.all(np.isfinite(sol)):
                    full = np.zeros(grid.shape)
                    full[int_mask] = sol
                    blowup_at(full, t_new)
                v_new = np.zeros(grid.shape)
                v_new[int_mask] = sol
                v_new[grid.boundary] = bnd_new
                G_new = oracle_godunov(v_new, grid.dx)
                G_new_max = float(np.max(G_new[int_mask]))
                if dt <= cfl_dt(G_new_max) * (1.0 + 1e-12):
                    break
                halvings += 1
                if halvings > MAX_HALVINGS:
                    worst = np.argwhere(int_mask & (G_new == np.max(G_new[int_mask])))
                    idx = tuple(int(i) for i in worst[0])
                    raise NumericalFailure(
                        f"CFL retry limit exceeded at node x={tuple(grid.coords[idx].tolist())}, t={t_new}"
                    )
                j += 1
            lin_res = float(np.max(np.abs(sol - problem.sigma * dt * (L @ sol) - rhs)))
            scale = max(1.0, float(np.max(np.abs(rhs))))
            log.append((t_cur, t_new, dt, halvings, lin_res / scale, G_new_max))
            v, G = v_new, G_new
            t_cur = t_new
            left = left_new
        levels[k] = v

    return HJSolution(u=ScalarField(grid, levels), substeps=log)


# -- oracle manufactured solutions ---------------------------------------------------
# The manufactured families as closed-form lambdas of (x, t), and the right-hand
# side formed from them at every call, as they were before ManufacturedSolution
# was written as phi(x) psi(t).  The separable members must give the same values.


def oracle_manufactured(name, *args):
    """SimpleNamespace(u, u_t, grad, lap) of the family name with its parameters."""
    if name == "sine":
        (T,) = args
        return SimpleNamespace(
            u=lambda x, t: np.sin(np.pi * x[..., 0]) * (T - t),
            u_t=lambda x, t: -np.sin(np.pi * x[..., 0]) * np.ones_like(x[..., 0]),
            grad=lambda x, t: np.stack(
                [np.pi * np.cos(np.pi * x[..., 0]) * (T - t)] + [np.zeros_like(x[..., 0])] * (x.shape[-1] - 1),
                axis=-1,
            ),
            lap=lambda x, t: -np.pi ** 2 * np.sin(np.pi * x[..., 0]) * (T - t),
        )
    if name == "cosine":
        T, A = args
        return SimpleNamespace(
            u=lambda x, t: A * np.cos(0.5 * np.pi * x[..., 0]) * (T - t),
            u_t=lambda x, t: -A * np.cos(0.5 * np.pi * x[..., 0]) * np.ones_like(x[..., 0]),
            grad=lambda x, t: np.stack(
                [-A * 0.5 * np.pi * np.sin(0.5 * np.pi * x[..., 0]) * (T - t)]
                + [np.zeros_like(x[..., 0])] * (x.shape[-1] - 1),
                axis=-1,
            ),
            lap=lambda x, t: -A * 0.25 * np.pi ** 2 * np.cos(0.5 * np.pi * x[..., 0]) * (T - t),
        )
    if name == "linear_time":
        c, T = args
        return SimpleNamespace(
            u=lambda x, t: c * (T - t) * np.ones_like(x[..., 0]),
            u_t=lambda x, t: -c * np.ones_like(x[..., 0]),
            grad=lambda x, t: np.zeros_like(x),
            lap=lambda x, t: np.zeros_like(x[..., 0]),
        )
    (c,) = args
    return SimpleNamespace(
        u=lambda x, t: c * np.ones_like(x[..., 0]),
        u_t=lambda x, t: np.zeros_like(x[..., 0]),
        grad=lambda x, t: np.zeros_like(x),
        lap=lambda x, t: np.zeros_like(x[..., 0]),
    )


def oracle_manufactured_rhs(ms, gamma, sigma, h):
    def f(x, t):
        gmag = np.sqrt(np.sum(ms.grad(x, t) ** 2, axis=-1))
        return -ms.u_t(x, t) - sigma * ms.lap(x, t) + evaluate(h, None, t, x) * gmag ** gamma

    return f


# -- oracle ldiff samples -------------------------------------------------------------
# dual._ldiff_samples as it was before it normalized, scaled, added and squared
# in place: every step a fresh array.  It must give the same bits.


def oracle_ldiff_samples(n, seed):
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
    return rz, rx, sum_sq
