import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hjlab.grid import (
    GridSpec,
    NumericalFailure,
    ScalarField,
    make_grid,
)
from hjlab import hj
from hjlab.dual import ell_constant
from hjlab.hj import (
    HJProblem,
    alpha_zero,
    critical_q0,
    discrete_residual,
    gamma_conjugate,
    legendre_gap,
    linf_error,
    manufactured_problem,
    manufactured_rhs,
    ms_cosine,
    ms_linear_time,
    ms_sine,
    solve_hj,
    solve_hj_many,
    solve_manufactured,
    time_pair_exponent,
)

from conftest import counting_lu, counting_lu_solves, oracle_godunov, oracle_lattice, oracle_manufactured, oracle_manufactured_rhs, oracle_solve_hj, random_field


class TestProblemValidation:
    def test_gamma_must_exceed_two(self):
        with pytest.raises(ValueError, match="gamma"):
            HJProblem(gamma=2.0, sigma=1.0, h0=1.0, h1=1.0)

    def test_sigma_range(self):
        with pytest.raises(ValueError, match="sigma"):
            HJProblem(gamma=3.0, sigma=1.5, h0=1.0, h1=1.0)
        with pytest.raises(ValueError, match="sigma"):
            HJProblem(gamma=3.0, sigma=0.0, h0=1.0, h1=1.0)

    @pytest.mark.parametrize("name", ["gamma", "h0", "h1"])
    def test_infinite_parameters_rejected(self, name):
        kw = {**dict(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0), name: math.inf}
        if name == "h0":
            kw["h1"] = math.inf  # h0 <= h1 holds, finiteness does not
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf$"):
            HJProblem(**kw)

    @pytest.mark.parametrize("name", ["gamma", "sigma", "h0", "h1"])
    def test_nan_parameters_rejected(self, name):
        with pytest.raises(ValueError):
            HJProblem(**{**dict(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0), name: math.nan})

    def test_h_bounds(self):
        with pytest.raises(ValueError, match="h0"):
            HJProblem(gamma=3.0, sigma=1.0, h0=0.0, h1=1.0)
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, h=lambda x, t: 3.0 + 0 * x[..., 0])
        with pytest.raises(ValueError, match=r"bounds: h = 3\.0 at x=\(-1\.0,\), t=0\.0"):
            discrete_residual(ScalarField.constant(g, 0.0), p)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bad_field_h_fails_before_the_march(self, dim):
        g = make_grid(GridSpec(dim, 1.0, 0.25, 1.0, 0.25))
        vals = np.full((g.n_levels,) + g.shape, 1.5)
        node = (2,) + (6,) * dim  # one interior node at one interior level
        vals[node] = 2.5
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, h=ScalarField(g, vals))
        at = r"h = 2\.5 at x=\(" + ", ".join([r"0\.5"] * dim) + r",?\), t=0\.5"
        with pytest.raises(ValueError, match="bounds: " + at) as info:
            counting_lu(solve_hj, p, g)
        assert info.value.lu_calls == 0

    def test_bad_constant_h_fails_before_the_march(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, h=2.0 + 1e-8)
        with pytest.raises(ValueError, match=r"bounds: h = 2\.00000001 at x=\(-1\.0,\), t=0\.0") as info:
            counting_lu(solve_hj, p, g)
        assert info.value.lu_calls == 0
        p.h = 2.0 + 1e-10  # within the tolerance 1e-9 * max(1, h1)
        solve_hj(p, g)

    def test_bad_callable_h_fails_before_the_march(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        h = lambda x, t: np.where((x[..., 0] > 0.4) & (t < 0.5), 0.5, 1.0)
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, h=h)
        with pytest.raises(ValueError, match=r"bounds: h = 0\.5 at x=\(0\.5,\), t=0\.0") as info:
            counting_lu(solve_hj, p, g)
        assert info.value.lu_calls == 0  # every level is checked, the first offending one named

    @pytest.mark.parametrize(
        "datum, value, at",
        [
            ("f", np.nan, "f = nan at x=(-1.0,), t=0.0"),
            ("f", "field", "f = -inf at x=(-0.375,), t=0.5"),
            ("f", lambda x, t: np.where((x[..., 0] > 0.3) & (t > 0.4), np.nan, 1.0), "f = nan at x=(0.375,), t=0.5"),
            ("lateral", np.inf, "lateral = inf at x=(-1.0,), t=0.0"),
            ("lateral", lambda x, t: np.where((x[..., 0] > 0.9) & (t > 0.6), -np.inf, t), "lateral = -inf at x=(1.0,), t=0.75"),
            ("terminal", np.nan, "terminal = nan at x=(-1.0,), t=1.0"),
        ],
    )
    def test_non_finite_data_fail_before_the_march(self, datum, value, at):
        g = make_grid(GridSpec(1, 1.0, 1 / 8, 1.0, 1 / 4))
        if isinstance(value, str):
            vals = np.zeros((g.n_levels,) + g.shape)
            vals[2, 5] = -np.inf  # one interior node at one interior level
            vals[3, 6] = np.nan  # a later level: not the first
            value = ScalarField(g, vals)
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, **{datum: value})
        with pytest.raises(ValueError) as info:
            counting_lu(solve_hj, p, g)
        assert str(info.value) == f"{datum} is not finite: {at}"
        assert info.value.lu_calls == 0

    def test_forcing_field_from_other_grid_rejected(self):
        # same node count and levels, different coordinates
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        other = make_grid(GridSpec(1, 2.0, 0.5, 1.0, 0.25))
        f = ScalarField.constant(other, 1.0)
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=f)
        with pytest.raises(ValueError, match="half_width=2.0.*half_width=1.0"):
            solve_hj(p, g)
        with pytest.raises(ValueError, match="half_width=2.0.*half_width=1.0"):
            solve_hj(replace(p, f=0.0, lateral=f), g)  # a lateral field too


class TestExponentIdentities:
    @pytest.mark.parametrize(
        "gamma, dim, gc, a0, q0",
        [(3.0, 1, "3/2", "1/2", "2"), (4.0, 2, "4/3", "2/3", "3"), (2.5, 3, "5/3", "1/3", "3"), (5.0, 1, "5/4", "3/4", "12/5")],
    )
    def test_derived_exponents(self, gamma, dim, gc, a0, q0):
        # gamma' = gamma/(gamma-1), alpha0 = (gamma-2)/(gamma-1), q0 = (N+2)(gamma-1)/gamma
        assert math.isclose(gamma_conjugate(gamma), Fraction(gc), rel_tol=1e-15)
        assert math.isclose(alpha_zero(gamma), Fraction(a0), rel_tol=1e-15)
        assert math.isclose(critical_q0(gamma, dim), Fraction(q0), rel_tol=1e-15)

    def test_q0_gammaconj_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = 2.0 + 1e-6 + 6.0 * rng.random()
            for N in (1, 2):
                gc = gamma_conjugate(g)
                assert abs(critical_q0(g, N) * gc - (N + 2)) <= 1e-12 * (N + 2)
                assert abs(alpha_zero(g) - (2.0 - gc)) <= 1e-12

    def test_time_pair_exponent_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = 10.0 ** rng.uniform(-4, 4)
            g = 2.0 + 1e-6 + 6.0 * rng.random()
            assert abs(time_pair_exponent(M, g) - M) <= 1e-12 * M


class TestSolver:
    def test_constants_fixed_point(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        p = HJProblem(gamma=3, sigma=1.0, h0=1.0, h1=1.0, f=0.0, terminal=5.0, lateral=5.0)
        sol = solve_hj(p, g)
        assert np.max(np.abs(sol.u.values - 5.0)) < 1e-12

    def test_linear_time_exact(self):
        # f = c with compatible data: u = c(T - t), gradient term inactive
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        ms = ms_linear_time(2.0, 1.0)
        sol = solve_manufactured(ms, 3.0, 1.0, g)
        assert linf_error(sol.u, ms.u) < 1e-10

    def test_residual_log_below_tolerance(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        sol = solve_manufactured(ms_sine(1.0), 3.0, 1.0, g, gradient_bound=np.pi)
        assert all(row["linear_residual"] <= 1e-10 for row in sol.log)

    def test_manufactured_convergence_quick(self):
        # coarse smoke triple; the acceptance suite runs the finer {1/32..1/128}
        ms = ms_sine(1.0)
        errs = []
        for dx in (1 / 16, 1 / 32, 1 / 64):
            g = make_grid(GridSpec(1, 1.0, dx, 1.0, dx / 4))
            sol = solve_manufactured(ms, 3.0, 1.0, g, gradient_bound=np.pi)
            errs.append(linf_error(sol.u, ms.u))
        slope = np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1)[0]
        assert slope >= 0.8

    def test_comparison_monotone_in_f(self):
        # identical data, f1 <= f2 pointwise: u1 <= u2 (monotone scheme)
        g = make_grid(GridSpec(1, 1.0, 0.125, 0.5, 1 / 64))
        term = lambda x: 0.1 * np.cos(0.5 * np.pi * x[..., 0])
        lat = lambda x, t: 0.1 * np.cos(0.5 * np.pi * x[..., 0]) * np.ones_like(x[..., 0])
        f1 = lambda x, t: np.sin(np.pi * x[..., 0])
        f2 = lambda x, t: np.sin(np.pi * x[..., 0]) + 0.5
        base = dict(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, terminal=term, lateral=lat)
        u1 = solve_hj(HJProblem(f=f1, **base), g, gradient_bound=2.0).u
        u2 = solve_hj(HJProblem(f=f2, **base), g, gradient_bound=2.0).u
        assert np.min(u2.values - u1.values) >= -1e-10

    def test_cfl_retry_limit_error(self, monkeypatch):
        # flat terminal data take the full step; the forcing's gradient then breaks its CFL bound
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        p = HJProblem(
            gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=lambda x, t: 50.0 * np.sin(3 * np.pi * x[..., 0]),
        )
        monkeypatch.setattr(hj, "MAX_HALVINGS", 0)
        with pytest.raises(NumericalFailure, match=r"^CFL retry limit exceeded at node x=\(-0\.5,\), t=0\.75$"):
            solve_hj(p, g)

    def test_cfl_retry_limit_on_a_ball_names_an_interior_node(self):
        """The failure names the interior node of the largest magnitude, not a boundary-layer node that has it too.

        (-0.875, -0.375) is a Dirichlet node: its neighbour (-1, -0.375) lies
        outside the ball, and no CFL bound is checked there.
        """
        g = make_grid(GridSpec(2, 1.0, 1 / 8, 1.0, 1 / 8, ball_mask=True))
        p = HJProblem(gamma=3.0, sigma=0.75, h0=1.0, h1=2.0, h=1.2, f=lambda x, t: -1e300 * (t < 0.2), terminal=lambda x: 0 * x[..., 0])
        (failed,) = solve_hj_many([p], g, [4.0])
        assert str(failed) == "CFL retry limit exceeded at node x=(-0.75, -0.375), t=0.2499990463256836"
        assert _outcome(oracle_solve_hj, p, g, 4.0) == (NumericalFailure, str(failed))

    def test_constants_on_2d_ball(self):
        g = make_grid(GridSpec(2, 1.0, 0.25, 0.5, 0.125, ball_mask=True))
        p = HJProblem(gamma=3, sigma=1.0, h0=1.0, h1=1.0, f=0.0, terminal=2.0, lateral=2.0)
        sol = solve_hj(p, g)
        assert np.max(np.abs(sol.u.values[:, g.active] - 2.0)) < 1e-12

    def test_2d_manufactured_smoke(self):
        T = 0.5
        u_exact = lambda x, t: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]) * (T - t)
        grad = lambda x, t: np.stack(
            [
                np.pi * np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]) * (T - t),
                np.pi * np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]) * (T - t),
            ],
            axis=-1,
        )
        f = lambda x, t: (
            np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
            + 2 * np.pi ** 2 * u_exact(x, t)
            + np.sqrt(np.sum(grad(x, t) ** 2, axis=-1)) ** 3
        )
        g = make_grid(GridSpec(2, 1.0, 1 / 16, T, 1 / 64))
        p = HJProblem(
            gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=f,
            terminal=lambda x: u_exact(x, T), lateral=lambda x, t: u_exact(x, t),
        )
        sol = solve_hj(p, g, gradient_bound=np.pi * np.sqrt(2) * T)
        err = max(
            float(np.max(np.abs(sol.u.values[k] - u_exact(g.coords, t))))
            for k, t in enumerate(g.ts)
        )
        assert err < 0.05

    def test_blowup_detected_on_overflowing_values(self):
        # finite terminal data whose gradient overflows: the CFL step is 0, and 0 * inf is nan
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, terminal=lambda x: 1e300 * np.cos(0.5 * np.pi * x[..., 0]))
        with pytest.raises(NumericalFailure, match=r"^blow-up detected at \(x=\(-0\.75,\), t=1\.0\)$"):
            solve_hj(p, g)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_blowup_detected_at_a_lone_interior_node(self, dim):
        # the ball of two steps has one interior node, all of whose face
        # neighbours are boundary nodes: finite data whose explicit update
        # overflows to -inf there leave every Godunov magnitude at 0
        g = make_grid(GridSpec(dim, 1.0, 0.5, 1.0, 0.25, ball_mask=True))
        assert g.interior.sum() == 1
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=-1e308, terminal=-1.7e308)
        at = ", ".join(["0.0"] * dim) + ("," if dim == 1 else "")
        with pytest.raises(NumericalFailure, match=re.escape(f"blow-up detected at (x=({at}), t=0.75)")):
            solve_hj(p, g)

    def test_overflowing_rhs_is_a_numerical_failure(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=1e308, terminal=0.0, lateral=0.0)
        with pytest.raises(NumericalFailure):
            solve_hj(p, g)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_callable_data_are_read_once_per_level(self, dim):
        """A callable h, f or lateral datum sees every node of the grid once per level, however many substeps the march takes."""
        g = make_grid(GridSpec(dim, 1.0, 0.25, 0.5, 0.25))
        seen = {"h": [], "f": [], "lateral": []}

        def datum(name, value):
            def fn(x, t):
                seen[name].append((x.shape, t))
                return value(x, t)

            return fn

        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, h=datum("h", lambda x, t: 1.5 + 0 * x[..., 0]),
                      f=datum("f", lambda x, t: 8.0 * np.cos(x[..., 0]) * t), lateral=datum("lateral", lambda x, t: t))
        sol = solve_hj(p, g, gradient_bound=4.0)
        assert len(sol.log) > g.spec.nt  # substeps end between levels
        for calls in seen.values():
            assert calls == [(g.coords.shape, t) for t in g.ts.tolist()]

    def test_time_varying_h_within_bounds(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 0.5, 1 / 32))
        h = lambda x, t: 1.0 + 0.5 * (1 + np.cos(np.pi * x[..., 0]))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, h=h, f=1.0)
        sol = solve_hj(p, g)
        assert np.all(np.isfinite(sol.u.values))


class TestComparison:
    """Ordered data give ordered solutions: each step of the scheme is monotone
    (Barles & Souganidis 1991) when both solves take the same rungs, and the
    shared gradient_bound, above both realized gradients, fixes the rungs."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125]),
        dt=st.sampled_from([0.1, 0.125, 0.25]),
        gamma=st.sampled_from([2.5, 3.0]),
        sigma=st.sampled_from([0.05, 1.0]),
        amplitude=st.floats(0.0, 0.5),
        a=st.floats(-1.0, 1.0),
        c=st.floats(-1.0, 1.0),
        lateral_gap=st.floats(0.0, 0.1),
        seed=st.integers(0, 2 ** 16),
    )
    def test_ordered_data_give_ordered_solutions(self, dim, ball, dx, dt, gamma, sigma, amplitude, a, c, lateral_gap, seed):
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))
        rng = np.random.default_rng(seed)
        stack = (g.n_levels,) + g.shape
        noise = lambda: 0.1 * dx * rng.normal(size=stack)
        terminal = ScalarField(g, c + amplitude * np.prod(np.cos(0.5 * np.pi * g.coords), axis=-1) + noise())
        f = ScalarField(g, a * np.cos(np.pi * g.coords[..., 0]) + noise())
        lateral = lambda x, t: c + 0.1 * t * x[..., 0]
        h = ScalarField(g, rng.uniform(1.0, 2.0, stack))
        low = HJProblem(gamma=gamma, sigma=sigma, h0=1.0, h1=2.0, h=h, f=f, terminal=terminal, lateral=lateral)
        gap = lambda: np.abs(noise()) * (rng.random(stack) < 0.1)  # sparse gaps expose a non-monotone step
        high = replace(
            low, terminal=ScalarField(g, terminal.values + gap()), f=ScalarField(g, f.values + gap()),
            lateral=lambda x, t: lateral(x, t) + lateral_gap,
        )
        # realized gradients stay below about 2.3 on these data
        sols = [solve_hj(p, g, gradient_bound=4.0) for p in (low, high)]
        assert max(row["godunov_max"] for sol in sols for row in sol.log) < 4.0
        assert [row["dt"] for row in sols[0].log] == [row["dt"] for row in sols[1].log]
        u1, u2 = (sol.u.values[:, g.active] for sol in sols)
        scale = max(1.0, float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))
        assert np.all(u1 <= u2 + 1e-12 * scale)


class TestConstantFixedPoints:
    """Constant data with f = 0 stay constant whatever h does: the Godunov
    gradient of a constant is 0, so h multiplies 0 at every substep."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125]),
        dt=st.sampled_from([0.1, 0.125, 0.25]),
        gamma=st.sampled_from([2.5, 3.0, 4.0]),
        sigma=st.sampled_from([0.05, 1.0]),
        h0=st.floats(0.1, 2.0),
        spread=st.floats(0.1, 3.0),
        field_h=st.booleans(),
        c=st.floats(-100.0, 100.0),
        seed=st.integers(0, 2 ** 16),
    )
    def test_constants_are_fixed_points_under_an_h_varying_in_x_and_t(
        self, dim, ball, dx, dt, gamma, sigma, h0, spread, field_h, c, seed
    ):
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))
        rng = np.random.default_rng(seed)
        if field_h:
            h = ScalarField(g, rng.uniform(h0, h0 + spread, (g.n_levels,) + g.shape))
        else:
            k, w = rng.normal(size=dim), rng.uniform(0.5, 5.0)
            h = lambda x, t: h0 + 0.5 * spread * (1.0 + np.sin(x @ k + w * t))
        p = HJProblem(gamma=gamma, sigma=sigma, h0=h0, h1=h0 + spread, h=h, f=0.0, terminal=c, lateral=c)
        u = solve_hj(p, g).u.values[:, g.active]
        assert np.all(np.abs(u - c) < 1e-12 * max(1.0, abs(c)))


def rung_of(grid, dt):
    """j with dt == grid.dt / 2**j exactly, or None."""
    j = round(math.log2(grid.dt / dt))
    return j if j >= 0 and dt == math.ldexp(grid.dt, -j) else None


class TestDyadicLadder:
    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125]),
        dt=st.sampled_from([0.1, 0.125, 0.25, 1 / 3]),
        amplitude=st.floats(0.0, 4.0),
        c=st.floats(-10.0, 10.0),
    )
    @example(dim=1, ball=False, dx=0.125, dt=0.1, amplitude=3.0, c=1.0)
    @example(dim=2, ball=True, dx=0.125, dt=0.1, amplitude=3.0, c=-2.5)
    def test_substeps_are_rungs_factored_once(self, dim, ball, dx, dt, amplitude, c):
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))

        const = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, terminal=c, lateral=c)
        sol, n_lu = counting_lu(solve_hj, const, g)
        assert np.max(np.abs(sol.u.values[:, g.active] - c)) <= 1e-12 * max(1.0, abs(c))
        assert n_lu == 1 and all(row["dt"] == g.dt for row in sol.log)

        bump = lambda x: amplitude * np.prod(np.cos(0.5 * np.pi * x), axis=-1)
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, terminal=bump, lateral=0.0)
        sol, n_lu = counting_lu(solve_hj, p, g)
        rungs = [rung_of(g, row["dt"]) for row in sol.log]
        assert None not in rungs
        tried = {j - h for j, row in zip(rungs, sol.log) for h in range(row["halvings"] + 1)}
        assert n_lu == len(tried)
        # the rungs of each macro step add up to grid.dt exactly
        ends, done = [], Fraction(0)
        for j, row in zip(rungs, sol.log):
            done += Fraction(1, 2 ** j)
            if done.denominator == 1:
                ends.append(row["t_to"])
        assert done == g.spec.nt and ends == list(g.ts[-2::-1])

    def test_readme_1d_solve_factors_at_most_15_times(self):
        g = make_grid(GridSpec(1, 1.0, 1 / 64, 1.0, 1 / 256))
        p = manufactured_problem(ms_sine(1.0), 1.0, 3.0, 1.0, 1.0, 1.0)
        sol, n_lu = counting_lu(solve_hj, p, g)
        assert n_lu <= 15


class TestDenseInverse:
    """Rung solves on an interior of at most DENSE_MAX nodes: numpy's inverse, as accurate as SuperLU."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.one_of(
            st.tuples(st.just(1), st.integers(2, 64), st.booleans()),
            st.tuples(st.just(2), st.integers(2, 7), st.booleans()),
        ),
        ratio_exp=st.floats(-2.0, math.log10(6.5e4)),
        sigma=st.floats(0.1, 1.0),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2 ** 16),
    )
    @example(grid=(1, 64, False), ratio_exp=math.log10(6.5e4), sigma=1.0, rows=6, seed=0)
    def test_residual_and_superlu_agree(self, grid, ratio_exp, sigma, rows, seed):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        dim, n, ball = grid
        dx = 1.0 / n
        dt = 10.0 ** ratio_exp * dx * dx / sigma  # sigma dt / dx^2 = 10^ratio_exp
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))
        n_int = int(g.interior.sum())
        assume(0 < n_int <= hj.DENSE_MAX)
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=(rows, n_int)) * 10.0 ** rng.uniform(-3, 3)
        sol = hj._March(g).factor(sigma, 0)(rhs)
        L = oracle_lattice(g).L
        A = (sp.identity(n_int, format="csc") - sigma * dt * L).tocsc()
        residual = np.abs(sol - sigma * dt * (L @ sol.T).T - rhs).max(axis=1) / np.maximum(1.0, np.abs(rhs).max(axis=1))
        assert residual.max() <= 1e-12
        ref = spla.splu(A).solve(rhs.T).T
        assert np.abs(sol - ref).max() <= 1e-12 * np.abs(ref).max()


class TestBandedCholesky:
    """Rung solves on an interior of more than DENSE_MAX nodes: LAPACK's banded Cholesky, one right-hand side at a time."""

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.one_of(
            st.tuples(st.just(1), st.integers(65, 256), st.booleans()),
            st.tuples(st.just(2), st.integers(7, 16), st.booleans()),
        ),
        ratio_exp=st.floats(-2.0, math.log10(6.5e4)),
        sigma=st.floats(0.1, 1.0),
        seed=st.integers(0, 2 ** 16),
    )
    @example(grid=(2, 16, False), ratio_exp=math.log10(6.5e4), sigma=1.0, seed=0)
    def test_residual_agreement_and_batch_bits(self, grid, ratio_exp, sigma, seed):
        dim, n, ball = grid
        dx = 1.0 / n
        dt = 10.0 ** ratio_exp * dx * dx / sigma  # sigma dt / dx^2 = 10^ratio_exp
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))
        n_int = int(g.interior.sum())
        assume(n_int > hj.DENSE_MAX)
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=(6, n_int)) * 10.0 ** rng.uniform(-3, 3)
        solve = hj._March(g).factor(sigma, 0)
        sol = solve(rhs)
        L = oracle_lattice(g).L
        residual = np.abs(sol - sigma * dt * (L @ sol.T).T - rhs).max(axis=1) / np.maximum(1.0, np.abs(rhs).max(axis=1))
        assert residual.max() <= 1e-12
        ref = np.linalg.solve(np.identity(n_int) - sigma * dt * L.toarray(), rhs.T).T
        assert np.abs(sol - ref).max() <= 1e-12 * np.abs(ref).max()
        solo = [solve(rhs[i : i + 1])[0] for i in range(6)]
        for rows in (1, 2, 6):
            assert all(np.array_equal(got, want) for got, want in zip(solve(rhs[:rows]), solo))


class TestManufacturedRhs:
    def test_constant_solution_gives_zero(self):
        from hjlab.hj import ms_constant

        f = manufactured_rhs(ms_constant(4.0), 3.0, 1.0, 1.0)
        x = np.linspace(-1, 1, 7).reshape(-1, 1)
        assert np.all(f(x, 0.3) == 0.0)

    def test_linear_time_gives_constant(self):
        f = manufactured_rhs(ms_linear_time(2.5, 1.0), 3.0, 1.0, 1.0)
        x = np.linspace(-1, 1, 7).reshape(-1, 1)
        np.testing.assert_allclose(f(x, 0.3), 2.5, rtol=1e-14)

    def test_sine_value_at_half(self):
        f = manufactured_rhs(ms_sine(1.0), 3.0, 1.0, 1.0)
        val = f(np.array([[0.5]]), 0.0)[0]
        assert abs(val - (1.0 + np.pi ** 2)) < 1e-12

    @pytest.mark.parametrize(
        "name, args",
        [("sine", (1.0,)), ("sine", (0.75,)), ("cosine", (1.0, 1.0)), ("cosine", (0.5, -3.0)),
         ("linear_time", (2.0, 1.0)), ("linear_time", (-1.5, 0.5)), ("constant", (4.0,)), ("constant", (-2.0,))],
    )
    def test_separable_members_equal_the_closed_forms(self, name, args):
        """u, u_t, grad and lap equal the closed forms; f and the lateral data have their bits.

        The point sets alternate, so the spatial factors that f and lateral()
        keep are formed anew whenever the points change.  A zero may differ
        in sign only (ms_constant's u_t for c < 0), which f does not see.
        """
        ms = {"sine": ms_sine, "cosine": ms_cosine, "linear_time": ms_linear_time, "constant": hj.ms_constant}[name](*args)
        ref = oracle_manufactured(name, *args)
        h = lambda x, t: 1.5 + 0.5 * np.sin(x[..., 0] + t)
        f, f_ref = manufactured_rhs(ms, 2.5, 0.75, h), oracle_manufactured_rhs(ref, 2.5, 0.75, h)
        f_const, f_const_ref = manufactured_rhs(ms, 2.5, 0.75, 1.25), oracle_manufactured_rhs(ref, 2.5, 0.75, 1.25)
        lateral = ms.lateral()
        rng = np.random.default_rng(0)
        grids = [make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25)).coords, make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.25)).coords,
                 rng.uniform(-1.0, 1.0, (9, 2))]
        for x in grids + grids[::-1] + [grids[0].copy()]:
            for t in (0.0, 0.3, 0.5):
                for member in ("u", "u_t", "grad", "lap"):
                    assert np.array_equal(getattr(ms, member)(x, t), getattr(ref, member)(x, t))
                assert f(x, t).tobytes() == f_ref(x, t).tobytes()
                assert f_const(x, t).tobytes() == f_const_ref(x, t).tobytes()
                assert lateral(x, t).tobytes() == ref.u(x, t).tobytes()


def legendre_scale(h, g, ps):
    """h * max |p|^gamma over the rows of ps: the size of the largest sup."""
    return h * float(np.max(np.linalg.norm(ps, axis=1))) ** g


class TestLegendre:
    def test_zero_momentum(self):
        assert legendre_gap(1.0, 3.0, np.zeros((1, 1))) == 0.0

    def test_gap_small_for_sampled_p(self):
        rng = np.random.default_rng(5)
        for h, g in ((1.0, 3.0), (1.0, 4.0), (2.0, 3.0)):
            ps = rng.normal(size=(25, 1))
            assert legendre_gap(h, g, ps) <= 1e-12 * legendre_scale(h, g, ps)

    def test_unit_p_gamma4(self):
        # h=1, gamma=4: sup is h|p|^4 = 1 at |p| = 1
        assert legendre_gap(1.0, 4.0, np.array([[1.0]])) <= 1e-12

    def test_2d_momenta(self):
        rng = np.random.default_rng(6)
        ps = rng.normal(size=(10, 2))
        assert legendre_gap(2.0, 3.0, ps) <= 1e-12 * legendre_scale(2.0, 3.0, ps)

    def test_half_momentum_h2(self):
        ps = np.array([[0.5]])
        assert legendre_gap(2.0, 3.0, ps) <= 1e-12 * legendre_scale(2.0, 3.0, ps)

    @pytest.mark.parametrize("h, g", [(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (0.5, 2.5)])
    def test_no_grid_point_beats_the_closed_form(self, h, g):
        # q on a dense polar grid around t* = h*gamma*|p|^(gamma-1) in p's direction,
        # and on a fine radial grid next to t*: none exceeds h|p|^gamma, and the grid reaches it
        gc, ell = gamma_conjugate(g), ell_constant(h, g)
        rng = np.random.default_rng(7)
        for p in rng.normal(scale=1.5, size=(4, 2)):
            pn = float(np.linalg.norm(p))
            target, t_star = h * pn ** g, h * g * pn ** (g - 1.0)
            theta = math.atan2(p[1], p[0]) + np.linspace(-math.pi, math.pi, 361)
            radii = t_star * np.concatenate((np.linspace(0.0, 3.0, 1001), 1.0 + np.linspace(-1e-3, 1e-3, 1001)))
            q = radii[:, None, None] * np.stack((np.cos(theta), np.sin(theta)), axis=-1)
            values = q @ p - ell * np.linalg.norm(q, axis=-1) ** gc
            assert values.max() <= target * (1.0 + 1e-12)
            assert values.max() >= target * (1.0 - 1e-9)
            assert legendre_gap(h, g, p[None]) <= 1e-12 * target


class TestDiscreteResidual:
    @pytest.mark.parametrize("dim, ball", [(1, False), (2, True)])
    def test_residual_is_that_of_a_per_level_loop(self, dim, ball):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.1, ball_mask=ball))
        u, f = random_field(g, 51), random_field(g, 52)
        h = lambda x, t: 1.5 + 0.5 * np.sin(3 * x[..., 0] + t)
        p = HJProblem(gamma=2.5, sigma=0.7, h0=1.0, h1=2.0, h=h, f=f)
        ref = oracle_lattice(g)
        want = np.zeros_like(u.values)
        for k in range(g.spec.nt):
            now, after = u.values[k], u.values[k + 1]
            lap = ref.L @ now[ref.interior] + ref.B @ now[ref.boundary]
            G = oracle_godunov(after, g.dx)[ref.interior]
            r = (-(after - now) / g.dt)[ref.interior] - p.sigma * lap + h(g.coords, g.ts[k])[ref.interior] * G ** p.gamma - f.values[k][ref.interior]
            want[k][ref.interior] = r
        got = discrete_residual(u, p).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim, ball", [(1, False), (2, True)])
    def test_constant_with_zero_forcing_has_zero_residual(self, dim, ball):
        g = make_grid(GridSpec(dim, 1.0, 0.25, 1.0, 0.25, ball_mask=ball))
        h = lambda x, t: 1.5 + 0.5 * np.sin(3 * x[..., 0] + t)
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, h=h, f=0.0)
        assert not np.any(discrete_residual(ScalarField.constant(g, 2.0), p).values)

    @pytest.mark.parametrize("ms", [ms_sine(1.0), ms_cosine(1.0)], ids=["sine", "cosine"])
    def test_sampled_exact_solution_has_first_order_residual(self, ms):
        # one-sided differences in x and t: the defect of the exact solution halves with dx and dt
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=manufactured_rhs(ms, 3.0, 1.0, 1.0))
        res = []
        for dx in (1 / 16, 1 / 32, 1 / 64):
            g = make_grid(GridSpec(1, 1.0, dx, 1.0, dx / 4))
            res.append(np.max(np.abs(discrete_residual(ScalarField.from_function(g, ms.u), p).values)))
        assert all(1.6 <= a / b <= 2.4 for a, b in zip(res, res[1:]))

    def test_sampled_linear_time_solution_solves_the_scheme(self):
        ms = ms_linear_time(2.0, 1.0)
        g = make_grid(GridSpec(2, 1.0, 0.125, 1.0, 1 / 16, ball_mask=True))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=manufactured_rhs(ms, 3.0, 1.0, 1.0))
        assert np.max(np.abs(discrete_residual(ScalarField.from_function(g, ms.u), p).values)) <= 1e-12

    def test_solver_output_with_varying_h(self):
        g = make_grid(GridSpec(1, 1.0, 1 / 32, 1.0, 1 / 128))
        h = lambda x, t: 1.0 + 0.25 * (1 + np.cos(np.pi * x[..., 0]))
        p = HJProblem(
            gamma=3.0, sigma=1.0, h0=1.0, h1=1.5, h=h,
            f=lambda x, t: 0.5 * np.ones_like(x[..., 0]),
        )
        sol = solve_hj(p, g)
        # one substep per level: the stored levels solve the scheme up to round-off
        assert all(row["dt"] == g.dt for row in sol.log)
        assert np.max(np.abs(discrete_residual(sol.u, p).values)) <= 1e-10


class TestMarchMatchesOracle:
    """solve_hj against the plain substep loop kept in conftest, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125]),
        dt=st.sampled_from([0.1, 0.125, 0.25]),
        gamma=st.sampled_from([2.5, 3.0]),
        h_kind=st.sampled_from(["constant", "callable", "field"]),
        f_kind=st.sampled_from(["constant", "callable", "field", "huge_late"]),
        lateral_kind=st.sampled_from(["constant", "callable"]),
        forced=st.booleans(),
        amplitude=st.floats(0.0, 2.0),
        seed=st.integers(0, 2 ** 16),
    )
    @example(dim=2, ball=True, dx=0.125, dt=0.1, gamma=3.0, h_kind="field", f_kind="field",
             lateral_kind="callable", forced=True, amplitude=2.0, seed=0)
    @example(dim=1, ball=False, dx=0.125, dt=0.25, gamma=2.5, h_kind="callable", f_kind="callable",
             lateral_kind="constant", forced=False, amplitude=2.0, seed=1)
    # 512 substeps, more than two blocks of linear residuals (hj.RESIDUAL_BLOCK)
    @example(dim=1, ball=False, dx=0.125, dt=0.25, gamma=3.0, h_kind="field", f_kind="field",
             lateral_kind="constant", forced=True, amplitude=2.0, seed=2)
    # fails at substep 257, after the first block of linear residuals: the forcing's overflow breaks every CFL retry
    @example(dim=2, ball=False, dx=0.125, dt=0.25, gamma=3.0, h_kind="constant", f_kind="huge_late",
             lateral_kind="callable", forced=True, amplitude=1.0, seed=3)
    def test_bit_for_bit(self, dim, ball, dx, dt, gamma, h_kind, f_kind, lateral_kind, forced, amplitude, seed):
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        stack = (g.n_levels,) + g.shape
        h = {
            "constant": float(rng.uniform(1.0, 2.0)),
            "callable": lambda x, t: 1.5 + 0.5 * np.sin(3 * x[..., 0] + t) * np.cos(x[..., -1]),
            "field": ScalarField(g, rng.uniform(1.0, 2.0, stack)),
        }[h_kind]
        f = {
            "constant": 3.0 * a,
            "callable": lambda x, t: 3.0 * a * np.cos(np.pi * x[..., 0]) + b * t,
            "field": ScalarField(g, 2.0 * rng.normal(size=stack)),
            "huge_late": lambda x, t: np.where(t < dt, -1e300, 3.0 * a) * np.ones_like(x[..., 0]),
        }[f_kind]
        lateral = {
            "constant": c,
            "callable": lambda x, t: c + b * t * x[..., 0],
        }[lateral_kind]
        terminal = lambda x: c + amplitude * np.prod(np.cos(0.5 * np.pi * x), axis=-1)
        p = HJProblem(gamma=gamma, sigma=0.75, h0=1.0, h1=2.0, h=h, f=f, terminal=terminal, lateral=lateral)
        kw = dict(gradient_bound=4.0) if forced else {}

        def run(solve):
            try:
                return counting_lu(solve, p, g, **kw), None
            except (NumericalFailure, ValueError) as exc:
                return None, (type(exc), str(exc), exc.lu_calls)

        got, got_err = run(solve_hj)
        want, want_err = run(oracle_solve_hj)
        assert got_err == want_err
        if want is not None:
            (sol, n_lu), (ref, ref_lu) = got, want
            assert np.array_equal(sol.u.values, ref.u.values)
            assert sol.log == ref.log
            assert n_lu == ref_lu
            assert len(sol.log) > g.spec.nt or not forced  # the bound forces substeps


def _batch_problem(g, seed, gamma, h_kind, f_kind, lateral_kind, amplitude):
    """An HJ problem on g with h, f and lateral data of the given kinds, drawn from seed."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-1.0, 1.0, 3)
    stack = (g.n_levels,) + g.shape
    h = {
        "constant": float(rng.uniform(1.0, 2.0)),
        "callable": lambda x, t: 1.5 + 0.5 * np.sin(3 * x[..., 0] + t) * np.cos(x[..., -1]),
        "field": ScalarField(g, rng.uniform(1.0, 2.0, stack)),
    }[h_kind]
    f = {
        "constant": 3.0 * a,
        "callable": lambda x, t: 3.0 * a * np.cos(np.pi * x[..., 0]) + b * t,
        "field": ScalarField(g, 2.0 * rng.normal(size=stack)),
        "huge_late": lambda x, t: np.where(t < g.dt, -1e300, 3.0 * a) * np.ones_like(x[..., 0]),
    }[f_kind]
    lateral = {"constant": c, "callable": lambda x, t: c + b * t * x[..., 0]}[lateral_kind]
    terminal = lambda x: c + amplitude * np.prod(np.cos(0.5 * np.pi * x), axis=-1)
    return HJProblem(gamma=gamma, sigma=0.75, h0=1.0, h1=2.0, h=h, f=f, terminal=terminal, lateral=lateral)


def _outcome(solve, *args):
    """(values, log) of a solution, or (type, message) of the NumericalFailure it raised or returned."""
    try:
        res = solve(*args)
    except NumericalFailure as exc:
        res = exc
    if isinstance(res, NumericalFailure):
        return type(res), str(res)
    return res.u.values, res.log


def _same(got, want):
    if isinstance(want[0], np.ndarray):
        return np.array_equal(got[0], want[0]) and got[1] == want[1]
    return got == want


class TestSolveMany:
    """solve_hj_many: each column as the plain substep loop solves it alone, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125]),
        dt=st.sampled_from([0.125, 0.25]),
        columns=st.lists(
            st.tuples(
                st.sampled_from([2.5, 3.0]),
                st.sampled_from(["constant", "callable", "field"]),
                st.sampled_from(["constant", "callable", "field", "huge_late"]),
                st.sampled_from(["constant", "callable"]),
                st.sampled_from([None, 4.0, 8.0]),
                st.floats(0.0, 2.0),
                st.integers(0, 2 ** 16),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    # groups that split on their rungs and on the CFL check, with a failure among them
    @example(dim=1, ball=False, dx=0.125, dt=0.25, columns=[
        (3.0, "constant", "constant", "constant", None, 2.0, 0),
        (3.0, "constant", "field", "constant", 4.0, 2.0, 1),
        (3.0, "field", "constant", "callable", None, 0.5, 2),
        (3.0, "callable", "huge_late", "constant", 8.0, 1.0, 3),
        (2.5, "constant", "callable", "callable", None, 2.0, 4),
    ])
    @example(dim=2, ball=True, dx=0.125, dt=0.125, columns=[
        (3.0, "field", "field", "callable", None, 2.0, 5),
        (3.0, "field", "field", "constant", None, 2.0, 6),
        (3.0, "constant", "huge_late", "constant", 4.0, 1.0, 7),
    ])
    # columns that part within a macro step and later stand at one time on one rung, where they march on
    # apart until the level: column 1 leaves for a coarser rung and reaches column 2 at t = 0.4609375 ...
    @example(dim=1, ball=False, dx=0.25, dt=0.25, columns=[
        (2.5, "field", "constant", "callable", None, 2.0, 12748),
        (2.5, "field", "field", "constant", None, 1.5, 4765),
        (2.5, "constant", "field", "callable", None, 1.5, 46485),
    ])
    # ... and columns 1 and 2 part at t = 0.2265625 and stand together again at t = 0.2109375, beside a failure
    @example(dim=1, ball=False, dx=0.25, dt=0.125, columns=[
        (3.0, "constant", "huge_late", "constant", None, 2.0, 7749),
        (3.0, "field", "callable", "callable", None, 1.5, 13864),
        (3.0, "field", "constant", "constant", None, 1.5, 7252),
        (3.0, "constant", "callable", "callable", None, 1.5, 60854),
    ])
    def test_each_column_is_its_solo_march(self, dim, ball, dx, dt, columns):
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))
        problems = [_batch_problem(g, seed, gamma, hk, fk, lk, amp) for gamma, hk, fk, lk, _, amp, seed in columns]
        bounds = [col[4] for col in columns]
        results = solve_hj_many(problems, g, bounds)
        assert len(results) == len(problems)
        for res, p, bound in zip(results, problems, bounds):
            assert _same(_outcome(lambda: res), _outcome(oracle_solve_hj, p, g, bound))

    @settings(max_examples=20, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125]),
        dt=st.sampled_from([0.0625, 0.125]),
        stop=st.sampled_from(["0", "1", "nt-1", "nt"]),
        columns=st.lists(
            st.tuples(
                st.sampled_from([2.5, 3.0]),
                st.sampled_from(["constant", "callable", "field"]),
                st.sampled_from(["constant", "callable", "field", "huge_late"]),
                st.sampled_from(["constant", "callable"]),
                st.sampled_from([None, 4.0, 8.0]),
                st.floats(0.0, 2.0),
                st.integers(0, 2 ** 16),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    # huge_late blows up in the last macro step, below every down_to but 0
    @example(dim=1, ball=False, dx=0.125, dt=0.125, stop="1", columns=[
        (3.0, "field", "huge_late", "constant", None, 2.0, 1),
        (3.0, "constant", "field", "callable", 4.0, 2.0, 2),
    ])
    def test_a_march_down_to_a_level_is_the_full_march_above_it(self, dim, ball, dx, dt, stop, columns):
        g = make_grid(GridSpec(dim, 1.0, dx, 4 * dt, dt, ball_mask=ball))
        nt = g.spec.nt
        down_to = {"0": 0, "1": 1, "nt-1": nt - 1, "nt": nt}[stop]
        problems = [_batch_problem(g, seed, gamma, hk, fk, lk, amp) for gamma, hk, fk, lk, _, amp, seed in columns]
        bounds = [col[4] for col in columns]
        t_stop = g.ts[down_to]
        for got, want in zip(solve_hj_many(problems, g, bounds, down_to=down_to), solve_hj_many(problems, g, bounds)):
            if isinstance(got, NumericalFailure):
                assert isinstance(want, NumericalFailure) and str(got) == str(want)
            elif isinstance(want, NumericalFailure):  # met below down_to only
                assert float(re.search(r"\bt=([-+.e0-9]+)", str(want)).group(1)) < t_stop
            else:
                assert got.u.values[down_to:].tobytes() == want.u.values[down_to:].tobytes()
                assert np.isnan(got.u.values[:down_to]).all()
                n = len(got.substeps)
                assert repr(got.substeps) == repr(want.substeps[:n])
                assert all(row[1] < t_stop for row in want.substeps[n:])  # t_to

    def test_down_to_must_be_a_level(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 0.5, 0.25))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0)
        for bad in (-1, 3):
            with pytest.raises(ValueError, match=re.escape(f"down_to must be a level in 0..2, got {bad}")):
                solve_hj_many([p], g, down_to=bad)
        with pytest.raises(TypeError):
            solve_hj_many([p], g, down_to=1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_residual_blocks_do_not_change_the_log(self, monkeypatch, dim):
        """A row's linear residual is its own product row and its own max, whatever the rows formed with it."""
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.125))
        problems = [_batch_problem(g, seed, 3.0, "field", "field", "callable", 2.0) for seed in range(3)]
        bounds = [None, 4.0, 8.0]
        logs = {}
        for block in (1, hj.RESIDUAL_BLOCK, 1 << 40):
            monkeypatch.setattr(hj, "RESIDUAL_BLOCK", block)
            logs[block] = repr([res.substeps for res in solve_hj_many(problems, g, bounds)])
        assert len(set(logs.values())) == 1

    @pytest.mark.parametrize("datum, bad", [("f", math.nan), ("h", 3.0)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_time_constant_datum_is_rejected_as_its_copy(self, dim, datum, bad):
        """Level 0 of a stride-0 datum holds its first offending node, so the message is the materialized datum's."""
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.125))
        level = np.ones(g.shape)
        level[tuple(np.argwhere(g.interior)[[5, 9]].T)] = bad
        steady = np.broadcast_to(level, (g.n_levels,) + g.shape)
        messages = []
        for values in (steady, steady.copy()):
            p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, **{datum: ScalarField(g, values)})
            with pytest.raises(ValueError) as info:
                solve_hj(p, g)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith(f"t={float(g.ts[0])!r}")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_time_constant_fields_are_their_solo_marches(self, dim):
        """Fields whose levels share one array, as the sweep's forcing, are stacked once and keep their bits.

        Two columns march together; the third, with a gradient bound, takes
        substeps that end between levels, where the levels are blended.
        """
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.125))
        rng = np.random.default_rng(5)
        stack = (g.n_levels,) + g.shape

        def steady(values):
            return ScalarField(g, np.broadcast_to(values, stack))

        problems = [
            HJProblem(gamma=3.0, sigma=0.75, h0=1.0, h1=2.0, h=steady(rng.uniform(1.0, 2.0, g.shape)),
                      f=steady(2.0 * rng.normal(size=g.shape)), terminal=lambda x: np.cos(0.5 * np.pi * x[..., 0]))
            for _ in range(3)
        ]
        bounds = [None, None, 4.0]
        for res, p, bound in zip(solve_hj_many(problems, g, bounds), problems, bounds):
            assert _same(_outcome(lambda: res), _outcome(oracle_solve_hj, p, g, bound))

    def test_permuting_the_problems_permutes_the_results(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 0.5, 0.25))
        kinds = [("constant", "field", "constant"), ("callable", "huge_late", "callable"),
                 ("field", "callable", "constant"), ("constant", "constant", "callable")]
        problems = [_batch_problem(g, i, 3.0, *k, 1.5) for i, k in enumerate(kinds)]
        bounds = [None, 4.0, 8.0, None]
        base = [_outcome(lambda r=r: r) for r in solve_hj_many(problems, g, bounds)]
        assert {type(r[0]) for r in base} == {np.ndarray, type}  # solutions and a failure
        for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
            got = solve_hj_many([problems[i] for i in perm], g, [bounds[i] for i in perm])
            for res, i in zip(got, perm):
                assert _same(_outcome(lambda: res), base[i])

    def test_sweep_rows_share_one_factorization(self, monkeypatch):
        """The six rows of a dx = 1/64 sweep factor once; marched one by one they factor six times."""
        from hjlab import scalelab

        kw = dict(q_list=[1.6, 2.4], eps_list=[1 / 4, 1 / 8, 1 / 16], gamma=3.0, dx_list=[1 / 64])
        rows, n_lu = counting_lu(scalelab.maxreg_sweep, **kw)
        monkeypatch.setattr(scalelab, "solve_hj_many", lambda problems, grid, down_to: [solve_hj(p, grid) for p in problems])
        solo_rows, solo_lu = counting_lu(scalelab.maxreg_sweep, **kw)
        assert (n_lu, solo_lu) == (1, 6)
        assert repr(rows) == repr(solo_rows)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_blow_up_fails_its_column_only(self, dim):
        """On the one-interior-node ball the three columns share each substep; the overflowing one blows up there."""
        g = make_grid(GridSpec(dim, 1.0, 0.5, 1.0, 0.25, ball_mask=True))
        calm = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=1.0, lateral=lambda x, t: t)
        bomb = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=-1e308, terminal=-1.7e308)
        alone = solve_hj(calm, g)
        (first, failed, last), n_solves = counting_lu_solves(solve_hj_many, [calm, bomb, calm], g)
        at = ", ".join(["0.0"] * dim) + ("," if dim == 1 else "")
        assert str(failed) == f"blow-up detected at (x=({at}), t=0.75)"
        for res in (first, last):
            assert np.array_equal(res.u.values, alone.u.values) and res.log == alone.log
        # one batch solve per substep: a one-node interior takes the dense inverse, which solves a batch at once in 2D too
        assert n_solves == len(alone.log)

    @pytest.mark.parametrize("dim, dx, ball", [(1, 1 / 128, False), (2, 1 / 16, False), (2, 1 / 16, True)])
    def test_a_batch_above_dense_max_takes_one_solve_per_substep(self, dim, dx, ball):
        """Banded Cholesky solves a batch in one call per substep, and each column is its solo march.

        With a gradient bound, the third column parts from the others within
        each macro step and meets them again at the levels.
        """
        g = make_grid(GridSpec(dim, 1.0, dx, 0.5, 0.25, ball_mask=ball))
        assert int(g.interior.sum()) > hj.DENSE_MAX
        problems = [  # a bump, and the bump raised by a constant: the same rungs, other values
            HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, lateral=c,
                      terminal=lambda x, c=c: c + 0.5 * np.prod(np.cos(0.5 * np.pi * x), axis=-1))
            for c in (0.0, 0.25)
        ]
        alone = [solve_hj(p, g) for p in problems]
        rungs = [[(row["dt"], row["halvings"]) for row in solo.log] for solo in alone]
        assert rungs[0] == rungs[1] and not np.array_equal(alone[0].u.values, alone[1].u.values)
        results, n_solves = counting_lu_solves(solve_hj_many, problems, g)
        for res, solo in zip(results, alone):
            assert np.array_equal(res.u.values, solo.u.values) and res.log == solo.log
        assert n_solves == sum(1 + halvings for _, halvings in rungs[0])  # a retry one rung down is a solve too
        problems.append(problems[0])
        bounds = [None, None, 4.0]
        for res, p, bound in zip(solve_hj_many(problems, g, bounds), problems, bounds):
            assert _same(_outcome(lambda: res), _outcome(oracle_solve_hj, p, g, bound))

    def test_data_errors_come_before_any_factorization(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 0.5, 0.25))
        good = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=1.0)
        bad = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=math.inf)
        with pytest.raises(ValueError, match="f is not finite") as info:
            counting_lu(solve_hj_many, [good, bad], g)
        assert info.value.lu_calls == 0

    def test_empty_and_mismatched_bounds(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 0.5, 0.25))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0)
        assert solve_hj_many([], g) == []
        with pytest.raises(ValueError, match="2 gradient bounds for 1 problems"):
            solve_hj_many([p], g, [None, 4.0])

    def test_limits_fail_their_columns_only(self, monkeypatch):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        calm = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, terminal=lambda x: 0.1 * np.cos(0.5 * np.pi * x[..., 0]))
        # flat terminal data take the full step; the forcing's gradient then breaks its CFL bound
        steep = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, f=lambda x, t: 50.0 * np.sin(3 * np.pi * x[..., 0]))
        alone = solve_hj(calm, g)
        monkeypatch.setattr(hj, "MAX_HALVINGS", 0)
        first, failed, last = solve_hj_many([calm, steep, calm], g)
        assert str(failed) == "CFL retry limit exceeded at node x=(-0.5,), t=0.75"
        for res in (first, last):
            assert np.array_equal(res.u.values, alone.u.values) and res.log == alone.log
        monkeypatch.setattr(hj, "MAX_HALVINGS", 10)
        monkeypatch.setattr(hj, "MAX_SUBSTEPS", 1)
        kept, failed = solve_hj_many([calm, calm], g, [None, 40.0])  # the bound forces substeps
        assert str(failed) == "CFL subcycle limit exceeded: > 1 substeps in one macro step"
        assert np.array_equal(kept.u.values, alone.u.values) and kept.log == alone.log


class TestCallablesAreFields:
    """A callable h, f or lateral datum is read as the field ScalarField.from_function makes of it on the solve grid.

    A number is read as the stack constant in time (its level axis of stride
    0) that np.broadcast_to makes of it.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125]),
        dt=st.sampled_from([0.1, 0.125, 0.25]),
        name=st.sampled_from(["h", "f", "lateral"]),
        bound=st.sampled_from([None, 4.0]),
        others=st.lists(
            st.tuples(
                st.sampled_from(["constant", "callable", "field"]),
                st.sampled_from(["constant", "callable", "field", "huge_late"]),
                st.sampled_from(["constant", "callable"]),
            ),
            max_size=3,
        ),
        seed=st.integers(0, 2 ** 16),
        number=st.booleans(),
    )
    # a number h in a batch whose other h varies in time: a substep between levels must not blend it with itself
    @example(dim=1, ball=False, dx=0.25, dt=0.125, name="h", bound=None, others=[("field", "field", "callable")], seed=19, number=True)
    def test_bit_identical_solo_and_in_a_batch(self, dim, ball, dx, dt, name, bound, others, seed, number):
        g = make_grid(GridSpec(dim, 1.0, dx, 2 * dt, dt, ball_mask=ball))
        p = _batch_problem(g, seed, 3.0, "callable", "callable", "callable", 1.5)
        if not number:
            as_field = replace(p, **{name: ScalarField.from_function(g, getattr(p, name))})
        else:  # the number against its stride-0 stack; a full mantissa, which a blend with itself may round
            number = float(np.random.default_rng(seed).uniform(1.0, 2.0))
            p = replace(p, **{name: number})
            as_field = replace(p, **{name: ScalarField(g, np.broadcast_to(number, (g.n_levels,) + g.shape))})
        batch = [_batch_problem(g, seed + 1 + i, 3.0, *kinds, 1.0) for i, kinds in enumerate(others)]
        at = seed % (len(batch) + 1)

        def in_batch(q):
            return solve_hj_many(batch[:at] + [q] + batch[at:], g, [4.0] * at + [bound] + [None] * (len(batch) - at))[at]

        want = _outcome(solve_hj, p, g, bound)
        for got in (_outcome(solve_hj, as_field, g, bound), _outcome(in_batch, p), _outcome(in_batch, as_field)):
            if isinstance(want[0], np.ndarray):
                assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            else:
                assert got == want


class TestNonlinearSweep:
    SWEEP = dict(q_list=[1.6, 2.4], eps_list=[1 / 4, 1 / 8, 1 / 16], gamma=3.0, dx_list=[1 / 64])

    def test_rows_are_their_solo_marches(self, monkeypatch):
        """At ||f||_q = 8 the rows part within macro steps and meet again at the levels; each row is still its solo march."""
        from hjlab import scalelab

        kw = dict(self.SWEEP, norm_target=8.0)
        rows = scalelab.maxreg_sweep(**kw)
        monkeypatch.setattr(scalelab, "solve_hj_many", lambda problems, grid, down_to: [solve_hj(p, grid) for p in problems])
        assert repr(rows) == repr(scalelab.maxreg_sweep(**kw))

    @pytest.mark.parametrize("norm_target, solves", [(1.0, 193), (8.0, 1020)])
    def test_parts_meet_again_at_each_level(self, norm_target, solves):
        """The six rows take one batch LU solve per substep they share: one per level at ||f||_q = 1.

        The march stops at level 63 of 256, the first the norms read, so it
        takes 193 macro steps.  At 8 the rows part within macro steps.
        Parts that marched apart to the end of a march to level 0 would take
        about 4830 solves there.
        """
        from hjlab import scalelab

        _, n_solves = counting_lu_solves(scalelab.maxreg_sweep, **self.SWEEP, norm_target=norm_target)
        assert n_solves == solves


    @pytest.mark.parametrize("dx_list", [[1 / 64], [0.1, 0.05]], ids=["dyadic", "non-dyadic"])
    def test_rows_are_those_of_the_march_to_level_0(self, monkeypatch, dx_list):
        """The march stops at the first level the norms read, and no row changes a bit."""
        from hjlab import scalelab

        kw = dict(self.SWEEP, dx_list=dx_list, norm_target=8.0)
        rows = scalelab.maxreg_sweep(**kw)
        monkeypatch.setattr(scalelab, "solve_hj_many", lambda problems, grid, down_to: solve_hj_many(problems, grid))
        assert repr(rows) == repr(scalelab.maxreg_sweep(**kw))

    def test_a_failing_row_keeps_its_status(self):
        from hjlab import scalelab

        (row,) = scalelab.maxreg_sweep([1.6], [1 / 16], 3.0, [1 / 16], norm_target=1e5)
        assert row["status"] == "failed: CFL retry limit exceeded at node x=(-0.0625;); t=0.9999847412109375"
        assert math.isnan(row["ratio"])


class TestGradientBounds:
    @pytest.mark.parametrize("bound", [math.nan, -1.0, math.inf])
    def test_bad_bound_fails_before_any_factorization(self, bound):
        g = make_grid(GridSpec(1, 1.0, 0.25, 0.5, 0.25))
        p = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0)
        with pytest.raises(ValueError, match=re.escape(f"gradient bound of problem 1 must be a finite number >= 0, got {bound!r}")) as info:
            counting_lu(solve_hj_many, [p, p], g, [4.0, bound])
        assert info.value.lu_calls == 0
        with pytest.raises(ValueError, match="gradient bound of problem 0"):
            solve_hj(p, g, gradient_bound=bound)
