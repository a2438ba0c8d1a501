import tracemalloc

import numpy as np
import pytest

from hjlab.grid import GridSpec, ScalarField, make_grid, sample_field
from hjlab.hj import manufactured_rhs, ms_cosine, solve_hj, HJProblem
from hjlab.fp import FPProblem, drift_from_solution, solve_fp
from hjlab.dual import (
    _boundary_sum,
    _ldiff_samples,
    bent_duality,
    duality_identity,
    ell_constant,
    ldiff_cap,
    ldiff_constant,
    manufactured_pair,
    oscillation_report,
)

from conftest import oracle_ldiff_samples


class TestEll:
    def test_equal_bounds_no_gap(self):
        assert ell_constant(2.0, 3.0) == ell_constant(2.0, 3.0)
        gap = ell_constant(1.0, 3.0) - ell_constant(1.0, 3.0)
        assert gap == 0.0

    def test_gap_sign(self):
        # h0 < h1 gives ell0 > ell1
        assert ell_constant(1.0, 3.0) > ell_constant(2.0, 3.0)


class TestDualityIdentity:
    def test_constant_w_zero_f(self):
        g = make_grid(GridSpec(1, 2.0, 0.125, 1.0, 0.0625))
        w = ScalarField.constant(g, 7.0)
        b = drift_from_solution(w, 1.0, 3.0)
        sol = solve_fp(FPProblem(sigma=1.0, R=2.0, tau=1.0, drift=b, source=0.0), g)
        rep = duality_identity(w, 0.0, sol, 1.0, 3.0)
        assert rep.lagrangian == 0.0 and rep.running_cost == 0.0
        # terminal + boundary account for const * (mass + outflux) = const
        assert abs(rep.residual) < 1e-8 * 7.0

    def test_doubling_f_doubles_running_cost(self):
        w, f, sol = manufactured_pair(0.5, 1 / 16)
        r1 = duality_identity(w, f, sol, 1.0, 3.0)
        f2 = lambda x, t: 2.0 * f(x, t)
        r2 = duality_identity(w, f2, sol, 1.0, 3.0)
        assert r2.running_cost == 2.0 * r1.running_cost

    def test_residual_shrinks_under_refinement(self):
        resids = []
        for dx in (1 / 16, 1 / 32):
            w, f, sol = manufactured_pair(0.5, dx)
            resids.append(abs(duality_identity(w, f, sol, 1.0, 3.0).residual))
        assert resids[1] < resids[0]

    def test_constant_w_2d(self):
        g = make_grid(GridSpec(2, 2.0, 0.25, 0.5, 0.0625))
        w = ScalarField.constant(g, 4.0)
        sol = solve_fp(FPProblem(sigma=1.0, R=2.0, tau=0.5, drift=None, source=(0.0, 0.0)), g)
        rep = duality_identity(w, 0.0, sol, 1.0, 3.0)
        assert abs(rep.residual) < 1e-8 * 4.0

    def test_grid_mismatch_rejected(self):
        w, f, sol = manufactured_pair(0.5, 1 / 16)
        w_bad = ScalarField.constant(make_grid(GridSpec(1, 2.0, 1 / 8, 1.0, 1 / 32)), 0.0)
        with pytest.raises(ValueError, match="share"):
            duality_identity(w_bad, f, sol, 1.0, 3.0)


class TestBentDuality:
    def test_boundary_terms_are_the_per_face_sums(self):
        # reference: one interpolation per face and level, added in that order
        w, f, sol = manufactured_pair(2.0, 1 / 16)
        g, y0 = sol.grid, np.array([1.0])
        outer = g.coords.reshape(-1, g.dim)[g.boundary_face_nodes()[1]]
        ref = {0.0: 0.0, 1.0: 0.0}
        for k in range(1, g.n_levels):
            s = float(g.ts[k])
            for fi, x in enumerate(outer):
                incr = sol.boundary_flux[k, fi]
                if incr != 0.0:
                    for y in ref:
                        ref[y] += sample_field(w, x + (1.0 - s) * y * y0, s) * incr
        assert duality_identity(w, f, sol, 1.0, 3.0).boundary == ref[0.0]
        assert bent_duality(w, f, sol, y0, 3.0, ell_constant(1.0, 3.0)).boundary == ref[1.0]

    def test_faces_without_increment_are_not_sampled(self):
        # the shift carries the x = +1 face out of w's box; it has no outflux
        # increment, so the sum ignores it until a level gives it one
        gw = make_grid(GridSpec(1, 1.5, 0.125, 1.0, 0.0625))
        w = ScalarField.from_function(gw, lambda x, t: np.cos(x[..., 0]) + t)
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.0625))
        sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, drift=(0.5,), source=0.0), g)
        outer = g.coords.reshape(-1, g.dim)[g.boundary_face_nodes()[1]]
        plus = [fi for fi, x in enumerate(outer) if x[0] > 0]
        sol.boundary_flux[:, plus] = 0.0
        shift = lambda s: np.array([0.75])
        ref = 0.0
        for k in range(1, g.n_levels):
            for fi, x in enumerate(outer):
                incr = sol.boundary_flux[k, fi]
                if incr != 0.0:
                    ref += sample_field(w, x + 0.75, float(g.ts[k])) * incr
        assert _boundary_sum(w, sol, shift) == ref != 0.0
        sol.boundary_flux[3, plus] = 1e-3
        with pytest.raises(ValueError, match=r"^sample point x=\(1\.75,\) outside the grid box$"):
            _boundary_sum(w, sol, shift)

    def test_zero_bend_matches_identity_direction(self):
        w, f, sol = manufactured_pair(0.5, 1 / 16)
        ell0 = ell_constant(1.0, 3.0)
        brep = bent_duality(w, f, sol, [0.0], 3.0, ell0)
        rep = duality_identity(w, f, sol, 1.0, 3.0)
        # with y0 = 0 the bent terms are the identity's terms, to the last digit
        assert brep.slack == -rep.residual

    def test_constant_w_collapses_to_bookkeeping(self):
        g = make_grid(GridSpec(1, 2.0, 0.125, 1.0, 0.0625))
        w = ScalarField.constant(g, 3.0)
        gfp = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.0625))
        b = drift_from_solution(w, 1.0, 3.0)
        sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, drift=b, source=0.0), gfp)
        brep = bent_duality(w, 0.0, sol, [1.0], 3.0, ell_constant(1.0, 3.0))
        # every w-term cancels against const*(mass + outflux); what remains of
        # the slack is exactly the bending cost ell0 iint |y0/tau|^gc m >= 0
        assert brep.slack >= -1e-8
        assert abs(brep.slack - brep.lagrangian) <= 1e-8
        assert brep.running_cost == 0.0

    def test_slack_nonnegative_up_to_discretization(self):
        slacks = []
        for dx in (1 / 16, 1 / 32):
            w, f, sol = manufactured_pair(0.5, dx)
            brep = bent_duality(w, f, sol, [1.0], 3.0, ell_constant(1.0, 3.0))
            slacks.append(brep.slack)
        for dx, s in zip((1 / 16, 1 / 32), slacks):
            assert s >= -10.0 * (dx + dx / 4)

    def test_varying_h_keeps_inequality_direction(self):
        # w solves with h(x) in [h0, h1]; the bent bound holds with ell0 = ell(h0)
        # and the dual drift built from h1
        gamma, dx = 3.0, 1 / 32
        h0, h1 = 1.0, 1.5
        h = lambda x, t: h0 + (h1 - h0) * 0.5 * (1 + np.cos(np.pi * x[..., 0] / 2))
        ms = ms_cosine(1.0, 0.5)
        f = manufactured_rhs(ms, gamma, 1.0, h)
        gw = make_grid(GridSpec(1, 2.0, dx, 1.0, dx / 4))
        prob = HJProblem(
            gamma=gamma, sigma=1.0, h0=h0, h1=h1, h=h, f=f,
            terminal=ms.terminal(1.0), lateral=ms.lateral(),
        )
        w = solve_hj(prob, gw, gradient_bound=np.pi).u
        gfp = make_grid(GridSpec(1, 1.0, dx, 1.0, dx / 4))
        b = drift_from_solution(w, h1, gamma)
        sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, drift=b, source=0.0), gfp)
        brep = bent_duality(w, f, sol, [1.0], gamma, ell_constant(h0, gamma))
        assert brep.slack >= -10.0 * (dx + dx / 4)

    def test_insufficient_padding_rejected(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.0625))
        w = ScalarField.constant(g, 1.0)
        sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, drift=None, source=0.0), g)
        with pytest.raises(ValueError, match="padding"):
            bent_duality(w, 0.0, sol, [1.0], 3.0, ell_constant(1.0, 3.0))

    def test_constant_w_2d_diagonal_shift(self):
        gw = make_grid(GridSpec(2, 3.0, 0.25, 0.5, 0.0625))
        w = ScalarField.constant(gw, 2.0)
        gfp = make_grid(GridSpec(2, 2.0, 0.25, 0.5, 0.0625))
        sol = solve_fp(FPProblem(sigma=1.0, R=2.0, tau=0.5, drift=None, source=(0.0, 0.0)), gfp)
        y0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        brep = bent_duality(w, 0.0, sol, y0, 3.0, ell_constant(1.0, 3.0))
        assert brep.slack >= -1e-8
        assert abs(brep.slack - brep.lagrangian) <= 1e-8


class TestOscillationReport:
    def probe_w(self, amplitude=1.0, R=4.0, tau=2.0, dx=0.125, dt=0.0625, h=1.0, gamma=3.0):
        Rp = R + 1.0
        grid = make_grid(GridSpec(1, Rp, dx, tau, dt))
        prob = HJProblem(
            gamma=gamma, sigma=1.0, h0=h, h1=h, h=h, f=0.0,
            terminal=lambda x: amplitude * np.sin(np.pi * x[..., 0] / Rp), lateral=0.0,
        )
        return solve_hj(prob, grid).u

    def test_constant_w_all_zero(self):
        g = make_grid(GridSpec(1, 5.0, 0.125, 2.0, 0.0625))
        w = ScalarField.constant(g, 2.0)
        rep = oscillation_report(w, 1.0, 1.0, 1.0, 3.0, 0.5, 1.0, 4.0, 2.0)
        assert rep.test0_lhs == 0.0 and rep.kinetic == 0.0
        assert rep.fitted_c2 == 0.0 and rep.fitted_c3 == 0.0

    def test_equal_bounds_lose_gap_term(self):
        w = self.probe_w()
        rep = oscillation_report(w, 1.0, 1.0, 1.0, 3.0, 0.5, 1.0, 4.0, 2.0)
        assert rep.ell_gap == 0.0

    def test_distinct_bounds_gap_positive(self):
        w = self.probe_w()
        rep = oscillation_report(w, 1.0, 1.0, 2.0, 3.0, 0.5, 1.0, 4.0, 2.0)
        assert rep.ell_gap > 0.0

    def test_conditions_recorded(self):
        w = self.probe_w()
        rep = oscillation_report(w, 1.0, 1.0, 1.0, 3.0, 0.5, 1.0, 4.0, 2.0)
        expect_shape = 1.0 * (4.0 ** 0.5 + 2.0 ** 0.25) / 4.0
        assert abs(rep.shape_value - expect_shape) < 1e-12
        assert rep.r2_ok

    @pytest.mark.parametrize("amplitude, dx", [(40.0, 0.125), (25.0, 0.25)])
    def test_normalization_rejected_with_value(self, amplitude, dx):
        w = self.probe_w(amplitude=amplitude, dx=dx, dt=dx / 2)
        with pytest.raises(ValueError, match="quotient"):
            oscillation_report(w, 1.0, 1.0, 1.0, 3.0, 0.5, 1.0, 4.0, 2.0)

    def test_fitted_constants_stable_under_refinement(self):
        cs = []
        for dx in (0.25, 0.125):
            w = self.probe_w(amplitude=0.5, R=8.0, tau=4.0, dx=dx, dt=dx / 2)
            rep = oscillation_report(w, 1.0, 1.0, 1.0, 3.0, 0.5, 4.0, 8.0, 4.0)
            cs.append((rep.fitted_c2, rep.fitted_c3))
        for a, b in zip(*cs):
            if max(a, b) > 1e-12:
                assert max(a, b) / max(min(a, b), 1e-300) <= 2.0

    def test_shift_invariance_of_fitted_constants(self):
        # w -> w + const preserves the budgets within 10%
        w = self.probe_w(amplitude=0.5, R=8.0, tau=4.0, dx=0.25, dt=0.125)
        rep1 = oscillation_report(w, 1.0, 1.0, 1.0, 3.0, 0.5, 4.0, 8.0, 4.0)
        w2 = ScalarField(w.grid, w.values + 5.0)
        rep2 = oscillation_report(w2, 1.0, 1.0, 1.0, 3.0, 0.5, 4.0, 8.0, 4.0)
        assert abs(rep2.kinetic - rep1.kinetic) <= 1e-10 * max(1.0, rep1.kinetic)
        if rep1.fitted_c2 > 1e-12:
            assert abs(rep2.fitted_c2 - rep1.fitted_c2) / rep1.fitted_c2 < 0.10
        if rep1.fitted_c3 > 1e-12:
            assert abs(rep2.fitted_c3 - rep1.fitted_c3) / rep1.fitted_c3 < 0.10


class TestLdiff:
    def test_zero_zeta_ratio_is_one(self):
        gc = 1.5
        zeta = np.zeros(3)
        xi = np.array([0.3, -0.2, 0.1])
        num = np.linalg.norm(zeta + xi) ** gc - np.linalg.norm(zeta) ** gc
        den = np.linalg.norm(zeta) ** (gc - 1) * np.linalg.norm(xi) + np.linalg.norm(xi) ** gc
        assert abs(num / den - 1.0) < 1e-14

    def test_opposite_xi_never_max(self):
        gc = 1.5
        zeta = np.array([1.0, 0.0, 0.0])
        xi = -zeta
        num = np.linalg.norm(zeta + xi) ** gc - np.linalg.norm(zeta) ** gc
        assert num < 0.0

    @pytest.mark.parametrize("gc", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_cap_never_exceeded(self, gc):
        fitted = ldiff_constant(gc, 100000, seed=0)
        assert fitted <= ldiff_cap(gc)
        assert fitted > 1.0  # the zeta-dominated branch pushes past 1

    def test_deterministic_in_seed(self):
        assert ldiff_constant(1.5, 5000, seed=3) == ldiff_constant(1.5, 5000, seed=3)

    def test_a_gamma_conj_list_in_either_order_is_the_fresh_single_calls(self):
        gcs = [1.1, 1.3, 1.5, 1.7, 1.9]
        fresh = {}
        for gc in gcs:
            _ldiff_samples.cache_clear()
            fresh[gc] = ldiff_constant(gc, 20000, seed=4)
        for order in (gcs, gcs[::-1]):
            _ldiff_samples.cache_clear()
            assert [ldiff_constant(gc, 20000, seed=4) for gc in order] == [fresh[gc] for gc in order]
        # another seed or sample count draws afresh
        assert ldiff_constant(1.5, 20000, seed=5) != fresh[1.5]
        _ldiff_samples.cache_clear()
        assert ldiff_constant(1.5, 20000, seed=5) == ldiff_constant(1.5, 20000, seed=5)

    def test_gamma_conj_domain(self):
        with pytest.raises(ValueError):
            ldiff_constant(2.5, 100, seed=0)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
            ldiff_constant(1.5, 0)

    @pytest.mark.parametrize("n, seed", [(1, 0), (7, 3), (20000, 4), (100000, 0), (100000, 1)])
    def test_samples_are_the_fresh_array_formula(self, n, seed):
        _ldiff_samples.cache_clear()
        got = _ldiff_samples(n, seed)
        for a, b in zip(got, oracle_ldiff_samples(n, seed)):
            assert a.tobytes() == b.tobytes()

    def test_samples_are_drawn_in_place(self):
        """At 100000 samples the draws peak at 10.4 MB; one fresh array per step (the oracle formula) takes 15.3 MB."""
        _ldiff_samples.cache_clear()
        tracemalloc.start()
        try:
            _ldiff_samples(100000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _ldiff_samples.cache_clear()
        assert peak <= 11e6
