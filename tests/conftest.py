import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from hjlab.acceptance import random_field  # noqa: F401 - shared with the test modules
from hjlab.grid import Grid, GridSpec, NumericalFailure, ScalarField, make_grid
from hjlab.hj import CFL_EPS, HJSolution


@pytest.fixture
def grid_1d() -> Grid:
    return make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))


@pytest.fixture
def grid_1d_fine() -> Grid:
    return make_grid(GridSpec(1, 1.0, 0.0625, 1.0, 0.125))


def counting_lu(solve, *args, **kwargs):
    """solve(*args, **kwargs) and the number of LU factorizations it made.

    Counts SuperLU (scipy.sparse.linalg.splu) and LAPACK tridiagonal
    (scipy.linalg.lapack.dgttrf) factorizations alike.  An exception from
    solve propagates with the count as its lu_calls.
    """
    calls = []

    def counted(real):
        def factor(*a, **kw):
            calls.append(real.__name__)
            return real(*a, **kw)

        return factor

    with mock.patch.object(spla, "splu", counted(spla.splu)), mock.patch.object(
        lapack, "dgttrf", counted(lapack.dgttrf)
    ):
        try:
            res = solve(*args, **kwargs)
        except Exception as exc:
            exc.lu_calls = len(calls)
            raise
    return res, len(calls)


# -- oracle HJ march -------------------------------------------------------------
# The substep loop of solve_hj as it was before per-solve preparation: every
# attempt evaluates h, f and the lateral data afresh (h_level re-checks the
# bounds), the time left is a Fraction, and the Godunov kernel pads with
# zero-filled one-sided differences.  solve_hj must match it bit for bit.


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


def oracle_solve_hj(problem, grid, gradient_bound=None, cfl_safety=1.0, max_halvings=10, max_substeps=100000):
    L, B, int_idx, _ = grid.laplacian_ops()
    int_mask = grid.interior
    eye = sp.identity(len(int_idx), format="csc")
    lu_cache = {}

    def factor(j):
        if j not in lu_cache:
            lu_cache[j] = spla.splu((eye - problem.sigma * math.ldexp(grid.dt, -j) * L).tocsc())
        return lu_cache[j]

    def blowup_at(arr, t):
        bad = np.argwhere(~np.isfinite(arr))
        idx = tuple(int(i) for i in bad[0]) if len(bad) else None
        x = grid.coords[idx] if idx is not None else None
        raise NumericalFailure(f"blow-up detected at (x={None if x is None else tuple(x)}, t={t})")

    def cfl_dt(P):
        return grid.dx / (problem.gamma * problem.h1 * max(P, 0.0) ** (problem.gamma - 1.0) + CFL_EPS)

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
            if substeps > max_substeps:
                raise NumericalFailure(
                    f"CFL subcycle limit exceeded: > {max_substeps} substeps in one macro step"
                )
            Pmax = max(float(np.max(G[int_mask])), P_user)
            limit = cfl_safety * cfl_dt(Pmax)
            j = 0
            while left * 2 ** j < 1 or math.ldexp(grid.dt, -j) > limit:
                j += 1
            halvings = 0
            while True:
                dt = math.ldexp(grid.dt, -j)
                left_new = left - Fraction(1, 2 ** j)
                t_new = t_target + float(left_new) * grid.dt
                h_arr = problem.h_level(grid, t_new)
                f_arr = problem.f_level(grid, t_new)
                expl = v[int_mask] + dt * (f_arr[int_mask] - h_arr[int_mask] * G[int_mask] ** problem.gamma)
                bnd_new = problem.lateral_values(grid, t_new)
                rhs = expl + problem.sigma * dt * (B @ bnd_new)
                sol = factor(j).solve(rhs)
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
                if halvings > max_halvings:
                    worst = np.argwhere(G_new == np.max(G_new[int_mask]))
                    idx = tuple(int(i) for i in worst[0])
                    raise NumericalFailure(
                        f"CFL retry limit exceeded at node x={tuple(grid.coords[idx])}, t={t_new}"
                    )
                j += 1
            lin_res = float(np.max(np.abs(sol - problem.sigma * dt * (L @ sol) - rhs)))
            scale = max(1.0, float(np.max(np.abs(rhs))))
            log.append(
                {
                    "t_from": t_cur,
                    "t_to": t_new,
                    "dt": dt,
                    "halvings": halvings,
                    "linear_residual": lin_res / scale,
                    "godunov_max": G_new_max,
                }
            )
            v, G = v_new, G_new
            t_cur = t_new
            left = left_new
        levels[k] = v

    return HJSolution(u=ScalarField(grid, levels), log=log)
