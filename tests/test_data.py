"""Problem data have one reader, grid.evaluate: the same datum in any form gives the same numbers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjlab.dual import bent_duality, duality_identity, ell_constant, manufactured_pair
from hjlab.fp import FPProblem, solve_fp
from hjlab.grid import GridSpec, ScalarField, bracket, evaluate, make_grid, sample_points
from hjlab.hj import HJProblem, discrete_residual, solve_hj

from conftest import random_field


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def three_forms(grid, c):
    """c as a number, as a callable and as the callable's field on grid."""
    fn = lambda x, t: np.full(x.shape[:-1], c)
    return [c, fn, ScalarField.from_function(grid, fn)]


class TestOneDatumThreeForms:
    """A number, its callable and its field give the same bits at level times."""

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dt=st.sampled_from([0.1, 0.125, 0.25]),
        c_h=st.floats(1.0, 2.0),
        c_f=st.floats(-0.05, 0.05),
        seed=st.integers(0, 2 ** 16),
    )
    def test_every_consumer(self, dim, ball, dt, c_h, c_f, seed):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 2 * dt, dt, ball_mask=ball))
        hs, fs = three_forms(g, c_h), three_forms(g, c_f)

        # solve_hj at level times only: these data need no substep
        sols = [solve_hj(HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=2.0, h=h, f=f), g) for h, f in zip(hs, fs)]
        assert all(row["dt"] == g.dt for sol in sols for row in sol.log)
        assert all(same_bits(sol.u.values, sols[0].u.values) and sol.log == sols[0].log for sol in sols)

        u = random_field(g, seed)
        res = [discrete_residual(u, HJProblem(gamma=3.0, sigma=0.5, h0=1.0, h1=2.0, h=h, f=f)).values for h, f in zip(hs, fs)]
        assert all(same_bits(r, res[0]) for r in res)

        # the duality terms, with the field on w's padded grid
        gw = make_grid(GridSpec(dim, 1.25, 0.125, 2 * dt, dt))
        w = random_field(gw, seed + 1)
        sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=2 * dt, drift=(0.3,) * dim, source=0.0), g)
        ell = ell_constant(1.0, 3.0)
        for report in (
            lambda f: duality_identity(w, f, sol, 1.0, 3.0),
            lambda f: bent_duality(w, f, sol, np.zeros(dim), 3.0, ell),
        ):
            reps = [report(f) for f in three_forms(gw, c_f)]
            assert reps[1] == reps[0] == reps[2]

    @pytest.mark.parametrize("dim, ball", [(1, False), (2, True)])
    def test_a_varying_callable_and_its_field(self, dim, ball):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.1, ball_mask=ball))
        fn = lambda x, t: 1.5 + 0.5 * np.sin(3 * x[..., 0] + t) * np.cos(x[..., -1])
        u = random_field(g, 3)
        pair = [fn, ScalarField.from_function(g, fn)]
        res = [discrete_residual(u, HJProblem(gamma=3.0, sigma=0.5, h0=1.0, h1=2.0, h=d, f=d)).values for d in pair]
        assert same_bits(res[0], res[1])


class TestFieldsFromAnotherGrid:
    def test_a_field_on_coarser_levels_is_resampled(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        # as many nodes and levels as g, over twice the horizon: level k of g is t = k/8
        other = make_grid(GridSpec(1, 1.0, 0.125, 2.0, 0.25))
        gf = random_field(other, 22, scale=5.0)
        v = gf.values
        on_g = np.stack([v[k // 2] if k % 2 == 0 else 0.5 * v[k // 2] + 0.5 * v[k // 2 + 1] for k in range(g.n_levels)])
        assert same_bits(evaluate(gf, g), on_g)

        short = random_field(make_grid(GridSpec(1, 1.0, 0.125, 0.5, 0.125)), 23)
        with pytest.raises(ValueError, match=r"GridSpec\(.*horizon=0\.5.*\) does not cover GridSpec\(.*horizon=1\.0"):
            evaluate(short, g)

    def test_a_field_on_a_finer_grid_is_resampled(self):
        g = make_grid(GridSpec(1, 1.0, 1 / 16, 1.0, 1 / 16))
        fn = lambda x, t: np.sin(3 * x[..., 0]) * (1.0 + t)
        same = ScalarField.from_function(g, fn).values
        finer = make_grid(GridSpec(1, 1.5, 1 / 32, 1.0, 1 / 32))  # holds every node and level of g
        assert same_bits(evaluate(ScalarField.from_function(finer, fn), g), same)

        narrow = ScalarField.from_function(make_grid(GridSpec(1, 0.5, 1 / 16, 1.0, 1 / 16)), fn)
        with pytest.raises(ValueError, match=r"half_width=0\.5.*does not cover GridSpec\(dim=1, half_width=1\.0"):
            evaluate(narrow, g)

    def test_duality_identity_takes_a_forcing_field_on_the_padded_grid(self):
        w, f, sol = manufactured_pair(0.5, 1 / 16)
        on_w = ScalarField.from_function(w.grid, f)
        assert duality_identity(w, on_w, sol, 1.0, 3.0) == duality_identity(w, f, sol, 1.0, 3.0)


class TestExactOnNodesAndLevels:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("dx", [0.1, 0.3, 1 / 3, 0.7, 0.125])
    @pytest.mark.parametrize("dt", [0.1, 0.3, 1 / 3, 0.7, 0.25])
    def test_sample_points_return_the_values(self, dim, dx, dt):
        g = make_grid(GridSpec(dim, 3 * dx, dx, 5 * dt, dt))
        u = random_field(g, 41)
        got = sample_points(u, g.coords.reshape(-1, dim), g.ts)
        assert same_bits(got.reshape(u.values.shape), u.values)
        for k, t in enumerate(g.ts):
            assert same_bits(evaluate(u, g, t), u.values[k])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        step=st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 0.125]),
        x=st.floats(-1.0, 50.0),
        node=st.integers(0, 40),
    )
    def test_bracket_of_a_number_is_that_of_an_array(self, n, step, x, node):
        nodes = (np.arange(n + 1) - n // 2) * step
        for xi in (x, float(nodes[min(node, n)])):
            i, f = bracket(nodes, xi, step)
            ia, fa = bracket(nodes, np.array([xi]), step)
            assert (i, f) == (int(ia[0]), float(fa[0]))
            assert isinstance(i, int) and isinstance(f, float)
        i, f = bracket(nodes, float(nodes[min(node, n)]), step)
        assert nodes[i] + f * (nodes[i + 1] - nodes[i]) == nodes[min(node, n)] and f in (0.0, 1.0)
