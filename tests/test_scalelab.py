import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjlab.grid import (
    GridSpec,
    ScalarField,
    make_grid,
    parabolic_distance,
    sample_points,
)
from hjlab.hj import alpha_zero, critical_q0, gamma_conjugate, manufactured_rhs, solve_manufactured
from hjlab.scalelab import (
    BlowupParams,
    blowup_transform,
    closed_form_decay_budget,
    inverse_blowup_transform,
    liouville_probe,
    maxreg_sweep,
    normalization_check,
    rescaled_residual,
    singular_family,
    worst_pair_selection,
)

from hjlab.seminorm import nonlinear_space, nonlinear_time, weighted_holder

from conftest import counting_lu, oracle_normalization_check, oracle_worst_pair_selection, random_field


def aligned_params():
    # r = 1/2 maps dy = 1/4 onto dx = 1/8; M chosen so the time scale is 1/2
    return BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=0.5, r=0.5, variant="alpha0", gamma=3.0)


class TestBlowupParams:
    def test_variant_populates_one_scale(self):
        p = aligned_params()
        assert p.sigma_n is not None and p.sigma_n > 0
        assert p.theta_n is None
        q = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=0.5, r=0.5, variant="alpha", gamma=3.0)
        assert q.theta_n is not None and q.theta_n > 0
        assert q.sigma_n is None

    def test_time_scales(self):
        p = aligned_params()
        assert abs(p.time_scale - p.r ** 3 / p.M ** 2) < 1e-15
        q = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=2.0, r=0.25, variant="alpha", gamma=3.0)
        assert q.time_scale == 0.0625


class TestBlowupTransform:
    def test_identity_is_bitwise(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        u = random_field(g, seed=1)
        p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=1.0, r=1.0, variant="alpha0", gamma=3.0)
        res = blowup_transform(u, p, g.spec)
        assert np.array_equal(res.w.values, u.values)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_level_is_one_sample_at_its_time(self, dim):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.125))
        u, f = random_field(g, seed=3), random_field(g, seed=4)
        fn = lambda x, t: np.sin(x[..., 0]) * (1.0 + t)
        p = BlowupParams(basepoint_x=[0.1] * dim, basepoint_t=0.25, M=0.5, r=0.5, variant="alpha", gamma=3.0)
        tg = make_grid(GridSpec(dim, 0.5, 0.0625, 0.25, 1 / 32))
        by_field = blowup_transform(u, p, tg.spec, f=f)
        by_callable = blowup_transform(u, p, tg.spec, f=fn)
        xs = p.basepoint_x + p.r * tg.coords.reshape(-1, dim)
        for k, s in enumerate(tg.ts):
            t = p.basepoint_t + p.time_scale * float(s)
            assert np.array_equal(by_field.w.values[k].ravel(), sample_points(u, xs, t) / p.M)
            assert np.array_equal(by_field.g.values[k].ravel(), p.r ** 2 / p.M * sample_points(f, xs, t))
            fv = p.r ** 2 / p.M * fn(xs.reshape(tg.shape + (dim,)), t)
            assert np.array_equal(by_callable.g.values[k], fv)

    def test_round_trip_aligned(self):
        g = make_grid(GridSpec(1, 2.0, 0.125, 2.0, 0.125))
        u = random_field(g, seed=2)
        p = aligned_params()
        res = blowup_transform(u, p, GridSpec(1, 2.0, 0.25, 2.0, 0.25))
        back_grid = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        back = inverse_blowup_transform(res.w, p, back_grid)
        sl = g.subgrid_slices(1.0)
        ref = u.values[(slice(0, back_grid.n_levels),) + sl]
        assert np.max(np.abs(back.values - ref)) <= 1e-10

    def test_gradient_scaling_of_linear_field(self):
        # u = x, M = r^alpha0: w(y, s) = r^(1-alpha0) y
        g = make_grid(GridSpec(1, 2.0, 0.0625, 1.0, 0.0625))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0])
        r = 0.25
        a0 = alpha_zero(3.0)
        p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=r ** a0, r=r, variant="alpha0", gamma=3.0)
        res = blowup_transform(u, p, GridSpec(1, 2.0, 0.25, 2.0, 0.25))
        ys = res.w.grid.axes[0]
        np.testing.assert_allclose(res.w.values[0], r ** (1 - a0) * ys, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(2.0, 10.0, exclude_min=True),
        dim=st.sampled_from([1, 2]),
        log_r=st.floats(-3.0, 3.0),
        log_M=st.floats(-3.0, 3.0),
    )
    def test_forcing_norm_exponent_identity(self, gamma, dim, log_r, log_M):
        """The alpha0 zoom's forcing factor r^g/M^g is sigma_n^(g'(N+1)/(N+2)) (r^N lambda)^(1/q0).

        So ||g_n||_{q0} = sigma_n^(g'(N+1)/(N+2)) ||f||_{q0} on the preimage, whatever f is.
        """
        r, M = 10.0 ** log_r, 10.0 ** log_M
        p = BlowupParams(basepoint_x=[0.0] * dim, basepoint_t=0.0, M=M, r=r, variant="alpha0", gamma=gamma)
        q0, gc = critical_q0(gamma, dim), gamma_conjugate(gamma)
        rhs = p.sigma_n ** (gc * (dim + 1) / (dim + 2)) * (r ** dim * p.time_scale) ** (1.0 / q0)
        assert rhs == pytest.approx(r ** gamma / M ** gamma, rel=1e-12)

    def test_out_of_range_rejected(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        u = random_field(g, seed=5)
        p = BlowupParams(basepoint_x=[0.5], basepoint_t=0.0, M=1.0, r=1.0, variant="alpha0", gamma=3.0)
        with pytest.raises(ValueError, match="outside"):
            blowup_transform(u, p, GridSpec(1, 1.0, 0.25, 1.0, 0.25))


class TestRescaledResidual:
    def test_identity_transform_matches_solver_residual(self):
        from hjlab.hj import ms_sine, HJProblem, discrete_residual

        ms = ms_sine(1.0)
        g = make_grid(GridSpec(1, 1.0, 0.0625, 1.0, 0.0625 / 4))
        sol = solve_manufactured(ms, 3.0, 1.0, g, gradient_bound=np.pi)
        f = manufactured_rhs(ms, 3.0, 1.0, 1.0)
        fF = ScalarField.from_function(g, f)
        p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=1.0, r=1.0, variant="alpha0", gamma=3.0)
        res = blowup_transform(sol.u, p, g.spec, f=None)
        rr = rescaled_residual(res.w, fF, p, 1.0)
        prob = HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, h=1.0, f=fF)
        direct = discrete_residual(sol.u, prob)
        assert np.array_equal(rr.values, direct.values)

    def test_constant_field_zero_residual(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        w = ScalarField.constant(g, 2.0)
        zero = ScalarField.constant(g, 0.0)
        p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=1.0, r=1.0, variant="alpha0", gamma=3.0)
        rr = rescaled_residual(w, zero, p, 1.0)
        assert np.max(np.abs(rr.values)) == 0.0

    def test_manufactured_zoom_residual_small(self):
        # exact field zoomed onto a half-scale window: residual = O(dx + interpolation)
        from hjlab.hj import ms_sine

        ms = ms_sine(1.0)
        vals = []
        for dx in (1 / 32, 1 / 64):
            g = make_grid(GridSpec(1, 1.0, dx, 1.0, dx / 2))
            u = ScalarField.from_function(g, ms.u)
            f = manufactured_rhs(ms, 3.0, 1.0, 1.0)
            p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=1.0, r=0.5, variant="alpha", gamma=3.0)
            tspec = GridSpec(1, 1.0, 2 * dx, 2.0, 2 * dx)
            res = blowup_transform(u, p, tspec, f=f)
            # theta_n * h = M^2/r * h: residual of the rescaled equation
            rr = rescaled_residual(res.w, res.g, p, 1.0)
            vals.append(float(np.max(np.abs(rr.values[:-1, 2:-2]))))
        assert vals[1] < vals[0]

    def test_vanishing_viscosity_zoom_residual(self):
        # alpha0 variant: sigma_n = r^(g-2)/M^(g-1) multiplies the Laplacian
        from hjlab.hj import ms_sine

        ms = ms_sine(1.0)
        vals = []
        for dx in (1 / 32, 1 / 64):
            g = make_grid(GridSpec(1, 1.0, dx, 1.0, dx / 2))
            u = ScalarField.from_function(g, ms.u)
            f = manufactured_rhs(ms, 3.0, 1.0, 1.0)
            p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=1.0, r=0.5, variant="alpha0", gamma=3.0)
            assert p.sigma_n == 0.5 and p.time_scale == 0.125
            tspec = GridSpec(1, 1.0, 2 * dx, 2.0, 2 * dx)
            res = blowup_transform(u, p, tspec, f=f)
            rr = rescaled_residual(res.w, res.g, p, 1.0)
            vals.append(float(np.max(np.abs(rr.values[:-1, 2:-2]))))
        assert vals[1] < vals[0]

    def test_supercritical_viscosity_zoom_rejected(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        w = ScalarField.constant(g, 1.0)
        zero = ScalarField.constant(g, 0.0)
        p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=0.5, r=1.0, variant="alpha0", gamma=3.0)
        assert p.sigma_n > 1.0
        with pytest.raises(ValueError, match="sigma_n"):
            rescaled_residual(w, zero, p, 1.0)


class TestWorstPairSelection:
    def crafted_space_field(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        vals = np.zeros((g.n_levels,) + g.shape)
        vals[2, 4] = 1.0  # lone spike at (x=0, t=0.5)
        return ScalarField(g, vals), g

    def test_space_case_hand_values(self):
        u, g = self.crafted_space_field()
        a0 = alpha_zero(3.0)
        bp = worst_pair_selection(u, "space", a0, 2.0, 3.0)
        # argmax pair is the spike against its nearest same-time neighbor
        assert bp.variant == "alpha0" and bp.s0 == 0.0
        assert bp.M == 1.0
        assert bp.r == 0.25
        assert bp.basepoint_t == 0.5
        assert abs(abs(bp.y0[0]) - 1.0) < 1e-14
        L, quot, twoL = bp.sandwich
        assert L <= quot <= twoL and quot == twoL

    def test_time_case_hand_values(self):
        u, g = self.crafted_space_field()
        a0 = alpha_zero(3.0)
        z = 2.0
        bp = worst_pair_selection(u, "time", a0, z, 3.0)
        assert bp.variant == "alpha0" and bp.s0 == 1.0 and np.array_equal(bp.y0, [0.0])
        assert bp.M == 1.0 / z  # |du|/z with |du| = 1
        # r = dt^(1/gamma) M^((gamma-1)/gamma)
        dt_pair = 0.25
        assert abs(bp.r - dt_pair ** (1 / 3) * bp.M ** (2 / 3)) < 1e-15
        L, quot, twoL = bp.sandwich
        assert L <= quot <= twoL and quot == twoL

    def test_time_kind_needs_alpha0(self):
        u, _ = self.crafted_space_field()
        with pytest.raises(ValueError, match="alpha0"):
            worst_pair_selection(u, "time", 0.7, 1.0, 3.0)

    def test_weighted_case_unit_split(self):
        u, g = self.crafted_space_field()
        bp = worst_pair_selection(u, "weighted", 0.8, 1.0, 3.0)
        assert bp.variant == "alpha"
        assert abs(np.linalg.norm(bp.y0) + np.sqrt(bp.s0) - 1.0) < 1e-12
        L, quot, twoL = bp.sandwich
        assert L <= quot <= twoL and quot == twoL

    def test_constant_rejected(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        u = ScalarField.constant(g, 1.0)
        for kind in ("space", "time"):
            with pytest.raises(ValueError, match="constant"):
                worst_pair_selection(u, kind, alpha_zero(3.0), 1.0, 3.0)

    def test_diagnostic_mode_reports_without_assertion(self):
        # hand-built params unrelated to any selection: the check just reports
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        u = random_field(g, seed=9)
        p = BlowupParams(
            basepoint_x=[0.0], basepoint_t=0.0, M=1.0, r=1.0, variant="alpha0",
            gamma=3.0, y0=np.array([0.5]), s0=0.0,
        )
        res = blowup_transform(u, p, g.spec)
        val = normalization_check(res.w, p)
        assert np.isfinite(val)

    def test_normalization_check_space(self):
        u, g = self.crafted_space_field()
        a0 = alpha_zero(3.0)
        bp = worst_pair_selection(u, "space", a0, 2.0, 3.0)
        # sigma_n here is large; only the sampling normalization matters, so
        # pick a target window inside the mapped domain
        tspec = GridSpec(1, 2.0, 0.5, 2.0, 1.0)
        lam = bp.time_scale
        if bp.basepoint_t + lam * 2.0 <= 1.0 + 1e-12:
            res = blowup_transform(u, bp, tspec)
            assert abs(normalization_check(res.w, bp) - 1.0) <= 1e-12


    @pytest.mark.parametrize("dim,ball,seed", [(1, False, 31), (1, False, 32), (2, False, 33), (2, True, 34)])
    def test_sandwich_and_basepoint_use_the_documented_distances(self, dim, ball, seed):
        # space and time kinds weigh by d_alpha, the weighted kind by d; the
        # basepoint is the endpoint of smaller d_alpha (space) or the earlier one
        g = make_grid(GridSpec(dim, 1.0, 0.25 if dim == 2 else 0.125, 1.0, 0.25, ball_mask=ball))
        u = random_field(g, seed=seed)
        Q = g.cylinder()
        gamma, z, a0 = 3.0, 1.5, alpha_zero(3.0)

        def at(p):
            x, t = np.atleast_1d(np.asarray(p[0], dtype=float)), p[1]
            idx = tuple(int(i) for i in np.rint((x + 1.0) / g.dx))
            return u.values[(int(round(t / g.dt)),) + idx]

        def d_alpha(p, alpha):
            (d,) = parabolic_distance([p], Q, "d_alpha", alpha, gamma)
            return d

        def same(a, b):
            return abs(a - b) <= 1e-12 * abs(b)

        p, q = nonlinear_space(u, a0, gamma, Q).pair
        base, other = (p, q) if d_alpha(p, a0) <= d_alpha(q, a0) else (q, p)
        r = np.linalg.norm(np.subtract(other[0], base[0]))
        want = min(d_alpha(p, a0), d_alpha(q, a0)) * abs(at(other) - at(base)) / r ** a0
        bp = worst_pair_selection(u, "space", a0, z, gamma)
        assert same(bp.sandwich[1], want)
        assert np.array_equal(bp.basepoint_x, np.atleast_1d(base[0])) and bp.basepoint_t == base[1]

        early, late = sorted(nonlinear_time(u, a0, gamma, Q).pair, key=lambda e: e[1])
        M = abs(at(late) - at(early)) / z
        r = (late[1] - early[1]) ** (1 / gamma) * M ** ((gamma - 1) / gamma)
        want = min(d_alpha(early, a0), d_alpha(late, a0)) * M / r ** a0
        bp = worst_pair_selection(u, "time", a0, z, gamma)
        assert same(bp.sandwich[1], want)
        assert np.array_equal(bp.basepoint_x, np.atleast_1d(early[0])) and bp.basepoint_t == early[1]

        alpha = 0.8
        early, late = sorted(weighted_holder(u, alpha, alpha - a0, Q).pair, key=lambda e: e[1])
        d = min(parabolic_distance((early, late), Q, "d"))
        r = np.linalg.norm(np.subtract(late[0], early[0])) + np.sqrt(late[1] - early[1])
        want = d ** (alpha - a0) * abs(at(late) - at(early)) / r ** alpha
        bp = worst_pair_selection(u, "weighted", alpha, z, gamma)
        assert same(bp.sandwich[1], want) and bp.d == d
        assert np.array_equal(bp.basepoint_x, np.atleast_1d(early[0])) and bp.basepoint_t == early[1]


@st.composite
def selection_cases(draw):
    """A random 1D/2D box or ball field, a kind, gamma, an alpha (mostly one the kind admits) and z."""
    dim = draw(st.sampled_from([1, 2]))
    dx = draw(st.sampled_from([0.25, 0.125] if dim == 1 else [0.25, 0.5]))
    dt = draw(st.sampled_from([0.25, 0.125]))
    g = make_grid(GridSpec(dim, 1.0, dx, draw(st.sampled_from([0.5, 1.0])), dt, ball_mask=draw(st.booleans())))
    kind = draw(st.sampled_from(["space", "time", "weighted"]))
    gamma = draw(st.floats(2.1, 4.0))
    a0 = alpha_zero(gamma)
    admitted = {"space": st.floats(0.05, 1.0), "time": st.just(a0), "weighted": st.floats(a0 + 1e-6, 1.0)}[kind]
    alpha = draw(st.one_of(admitted, admitted, st.floats(0.05, 1.0)))
    return random_field(g, draw(st.integers(0, 2 ** 16))), kind, alpha, draw(st.floats(0.25, 4.0)), gamma


@settings(max_examples=150, deadline=None)
@given(case=selection_cases(), w_seed=st.integers(0, 2 ** 16))
def test_selection_is_the_three_branch_selection_bitwise(case, w_seed):
    # every record field and the normalization against the one-branch-per-kind oracle;
    # s0 is the rescaled time the oracle's normalization read, 0 (space) or 1 (time)
    u, kind, alpha, z, gamma = case

    def outcome(select):
        try:
            return select(u, kind, alpha, z, gamma)
        except ValueError as exc:
            return str(exc)

    bp, ref = outcome(worst_pair_selection), outcome(oracle_worst_pair_selection)
    if isinstance(ref, str):
        assert bp == ref
        return
    ref_s0 = {"space": 0.0, "time": 1.0}.get(ref.case, ref.s0)

    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    for name in ("basepoint_x", "basepoint_t", "M", "r", "gamma", "d", "y0", "sandwich"):
        assert bits(getattr(bp, name)) == bits(getattr(ref, name)), name
    assert bp.variant == ref.variant and bits(bp.s0) == bits(ref_s0)
    # a target grid that covers (y0, s0): |y0| <= 1 per axis and s0 <= 1 for every kind
    w = random_field(make_grid(GridSpec(u.grid.dim, 1.0, 0.25, 1.0, 0.25)), w_seed)
    assert bits(normalization_check(w, bp)) == bits(oracle_normalization_check(w, ref))


class TestNormalizationByConstruction:
    def build(self, kind, z):
        # central bump: argmax pairs stay well inside the cylinder
        g = make_grid(GridSpec(1, 2.0, 0.125, 4.0, 0.125))
        u = ScalarField.from_function(
            g, lambda x, t: np.exp(-2.0 * x[..., 0] ** 2) * (1.0 + 0.3 * t)
        )
        bp = worst_pair_selection(u, kind, alpha_zero(3.0), z, 3.0)
        lam = bp.time_scale
        assert abs(bp.basepoint_x[0]) + bp.r <= g.spec.half_width + 1e-12
        assert bp.basepoint_t + lam <= g.spec.horizon + 1e-12
        return u, bp

    def test_space_selection_normalizes_to_one(self):
        u, bp = self.build("space", 2.0)
        n = max(2, int(round(1.0 / (0.125 / bp.r))))
        smax = min(1.0, (u.grid.spec.horizon - bp.basepoint_t) / bp.time_scale)
        tspec = GridSpec(1, 1.0, 1.0 / n, smax, smax / 2)
        res = blowup_transform(u, bp, tspec)
        assert abs(normalization_check(res.w, bp) - 1.0) <= 1e-12

    def test_time_selection_normalizes_to_z(self):
        z = 2.0
        u, bp = self.build("time", z)
        n = max(2, int(round(1.0 / (0.125 / bp.r))))
        tspec = GridSpec(1, 1.0, 1.0 / n, 1.0, 0.5)
        res = blowup_transform(u, bp, tspec)
        assert abs(normalization_check(res.w, bp) - z) <= 1e-12 * max(1.0, z)


class TestClosedFormBudget:
    def test_structural_value_at_one(self):
        assert abs(closed_form_decay_budget(1.0, 0.5, 3.0) - (3.0 ** (1 / 3) + 1.0)) < 1e-14

    def test_strictly_decreasing_parameter_grid(self):
        alphas = np.linspace(0.1, 0.9, 5)
        gammas = np.linspace(2.2, 6.0, 5)
        for a in alphas:
            for g in gammas:
                vals = [closed_form_decay_budget(t, a, g) for t in (4.0, 16.0, 64.0)]
                assert vals[0] > vals[1] > vals[2]


class TestLiouvilleProbe:
    def test_probe_rows_and_decay(self):
        rows = liouville_probe(1.0, 3.0, 0.5, [4.0], [2.0, 8.0], dx=0.25, dt=0.125, amplitude=1.0)
        assert len(rows) == 2
        assert rows[0]["measured_osc"] > rows[1]["measured_osc"]
        for r in rows:
            assert r["space_quotient"] <= 3.0
            assert np.isfinite(r["fitted_c3"])


class TestMaxregSweep:
    def test_constant_family_flat_in_eps(self):
        # eps >= 1 truncates the family to f = eps^-beta on the whole grid [-1, 1]
        rows = maxreg_sweep([2.0], [1.0, 2.0, 4.0], 3.0, [1 / 16])
        ratios = [r["ratio"] for r in rows]
        assert max(ratios) - min(ratios) < 1e-12

    @pytest.mark.parametrize("q, eps, message", [(0.5, 0.25, "q must be >= 1, got 0.5"), (2.0, 0.0, "eps must be positive, got 0.0"),
                                                 (2.0, -0.25, "eps must be positive, got -0.25")])
    def test_bad_q_or_eps_fails_before_any_row(self, q, eps, message):
        with pytest.raises(ValueError, match=message) as info:
            counting_lu(maxreg_sweep, [1.6, q], [0.25, eps], 3.0, [1 / 16])
        assert info.value.lu_calls == 0

    def test_row_count_and_columns(self):
        rows = maxreg_sweep([1.6, 2.4], [0.25, 0.125], 3.0, [1 / 16])
        assert len(rows) == 4
        for r in rows:
            assert r["status"] == "ok"
            assert np.isfinite(r["ratio"])

    def test_exponent_header_values(self):
        # N=1, gamma=3: q0 = 2, alpha0 = 1/2 drive the family exponents
        from hjlab.hj import critical_q0

        assert critical_q0(3.0, 1) == 2.0
        assert alpha_zero(3.0) == 0.5
        _, beta = singular_family(2.0, 0.25, 1)
        assert abs(beta - 0.95 * 3.0 / 2.0) < 1e-15
