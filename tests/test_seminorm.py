import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjlab.cli import main
from hjlab.grid import Cylinder, GridSpec, ScalarField, gradient_level, make_grid, read_field_csv, spacetime_integral
from hjlab.seminorm import (
    _ALL_PAIRS,
    _SAME_LEVEL,
    _SAME_POSITION,
    MEMBERS,
    _BranchAndBound,
    _member,
    _Nodes,
    _pair_value,
    combine_nonlinear,
    hessian_frobenius_level,
    holder_seminorm,
    member_scan,
    nonlinear_space,
    nonlinear_time,
    oracle,
    seminorm_set,
    space_quotient,
    time_quotient,
    w21q_norms,
    weighted_holder,
)

from conftest import random_field


class TestClassical:
    def test_constant_is_zero(self, grid_1d):
        u = ScalarField.constant(grid_1d, 5.0)
        res = holder_seminorm(u, 0.5)
        assert res.value == 0.0

    def test_linear_profile_single_level(self):
        # u(x) = x, alpha = 1/2: quotient |dx|^(1/2) is largest at max separation,
        # so the sup over [0, 1] is 1 (frozen from the double-loop oracle)
        g = make_grid(GridSpec(1, 0.5, 0.01, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0])
        Q = Cylinder(xmin=(-0.5,), xmax=(0.5,), t0=0.0, t1=0.0)
        res = holder_seminorm(u, 0.5, Q)
        expect = oracle("classical", u, 0.5, Q=Q)
        assert res.value == expect.value
        assert abs(res.value - 1.0) < 1e-12
        (xa, _), (xb, _) = res.pair
        assert abs(abs(xa[0] - xb[0]) - 1.0) < 1e-12

    def test_time_ramp(self):
        # u = t, alpha = 1/2: sup |dt|^(3/4) attained at separation T = 1
        g = make_grid(GridSpec(1, 0.5, 0.25, 1.0, 0.04))
        u = ScalarField.from_function(g, lambda x, t: t * np.ones_like(x[..., 0]))
        res = holder_seminorm(u, 0.5)
        assert abs(res.value - 1.0) < 1e-12

    def test_degenerate_single_node(self, grid_1d):
        u = random_field(grid_1d, seed=2)
        Q = Cylinder(xmin=(0.0,), xmax=(0.0,), t0=0.0, t1=0.0)
        res = holder_seminorm(u, 0.5, Q)
        assert res.value == 0.0 and res.degenerate

    def test_alpha_out_of_range(self, grid_1d):
        with pytest.raises(ValueError):
            holder_seminorm(random_field(grid_1d, 1), 1.5)


class TestWeighted:
    def test_c_zero_equals_classical(self, grid_1d):
        u = random_field(grid_1d, seed=4)
        assert weighted_holder(u, 0.5, 0.0).value == holder_seminorm(u, 0.5).value

    def test_constant_zero_any_c(self, grid_1d):
        u = ScalarField.constant(grid_1d, 3.0)
        for c in (0.0, 0.5, 2.0):
            assert weighted_holder(u, 0.5, c).value == 0.0

    def test_linear_on_ball_matches_oracle(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0])
        res = weighted_holder(u, 0.5, 1.0)
        exp = oracle("weighted", u, 0.5, c=1.0)
        assert res.value == exp.value
        assert res.pair == exp.pair


class TestNonlinear:
    def test_constant_all_zero(self, grid_1d):
        u = ScalarField.constant(grid_1d, 1.0)
        s = seminorm_set(u, 0.5, 3.0, 0.5)
        assert s.nl_space.value == 0.0
        assert s.nl_time.value == 0.0
        assert combine_nonlinear(s.nl_space.value, s.nl_time.value, 1.0, 3.0) == 0.0

    def test_combined_max_formula(self):
        # gamma=3, z=1: max(0.5, 0.125^(2/3)) = max(0.5, 0.25) = 0.5
        assert combine_nonlinear(0.5, 0.125, 1.0, 3.0) == 0.5

    def test_large_z_limit_is_space_part(self, grid_1d):
        u = random_field(grid_1d, seed=6)
        s = nonlinear_space(u, 0.5, 3.0).value
        assert combine_nonlinear(s, nonlinear_time(u, 0.5, 3.0).value, 1e12, 3.0) == s

    def test_monotone_as_z_decreases(self, grid_1d):
        u = random_field(grid_1d, seed=7)
        s, t = nonlinear_space(u, 0.5, 3.0).value, nonlinear_time(u, 0.5, 3.0).value
        vals = [combine_nonlinear(s, t, z, 3.0) for z in (8.0, 4.0, 2.0, 1.0, 0.5)]
        assert all(vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1))

    @pytest.mark.parametrize("z", [0, -1])
    def test_nonpositive_z_rejected(self, z):
        # z = 0 divided by zero and z = -1 raised a negative number to 2/gamma
        with pytest.raises(ValueError, match="z must be positive"):
            combine_nonlinear(0.5, 0.125, z, 3.0)

    def test_degenerate_grids_flagged(self, grid_1d):
        u = random_field(grid_1d, seed=8)
        one_node = Cylinder(xmin=(0.0,), xmax=(0.0,), t0=0.0, t1=1.0)
        res = nonlinear_space(u, 0.5, 3.0, one_node)
        assert res.value == 0.0 and res.degenerate
        one_level = Cylinder(xmin=(-1.0,), xmax=(1.0,), t0=0.5, t1=0.5)
        res = nonlinear_time(u, 0.5, 3.0, one_level)
        assert res.value == 0.0 and res.degenerate

    def test_lipschitz_space_bound(self):
        # |du| <= L |dx| gives nl_space <= max-weight * L * max-sep^(1-alpha)
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        L, alpha, gamma = 2.0, 0.5, 3.0
        u = ScalarField.from_function(g, lambda x, t: L * x[..., 0])
        res = nonlinear_space(u, alpha, gamma, None)
        Q = g.cylinder()
        max_weight = max(
            Q.space_distance(np.array([x])) ** alpha + (Q.t1 - 0.0) ** (alpha / gamma)
            for x in g.axes[0]
        )
        max_sep = 2.0 * g.spec.half_width
        assert res.value <= max_weight * L * max_sep ** (1 - alpha) + 1e-12


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_equality_random_fields(self, seed):
        specs = [
            GridSpec(1, 1.0, 0.25, 1.0, 0.25),
            GridSpec(1, 1.0, 0.125, 1.0, 0.5),
            GridSpec(2, 1.0, 0.5, 1.0, 0.25),
        ]
        g = make_grid(specs[seed % len(specs)])
        u = random_field(g, seed=100 + seed)
        alpha, gamma, c = 0.5, 3.0, 1.0
        # the public functions against the oracle of the member each one scans
        for name, value in (
            ("classical", holder_seminorm(u, alpha).value),
            ("weighted", weighted_holder(u, alpha, c).value),
            ("nl_space", nonlinear_space(u, alpha, gamma).value),
            ("nl_time", nonlinear_time(u, alpha, gamma).value),
            ("space_quotient", space_quotient(u, alpha)),
            ("time_quotient", time_quotient(u, alpha)),
        ):
            assert value == oracle(name, u, alpha, gamma, c).value

    def test_argmax_pairs_agree(self, grid_1d):
        u = random_field(grid_1d, seed=42)
        a = holder_seminorm(u, 0.3)
        b = oracle("classical", u, 0.3)
        assert a.pair == b.pair

    def test_readme_field_above_old_pair_budget_is_exact(self, tmp_path):
        # the README 1D solve has 5.5e8 node pairs, above the 1e8 pairs that
        # once switched the scan to random sampling
        assert main(["solve-hj", "--grid", "1,1,1/64,1,1/256", "--manufactured", "sine",
                     "--out", str(tmp_path / "run")]) == 0
        u = read_field_csv(str(tmp_path / "run_solution.csv"))
        nodes = _Nodes(u, None)
        assert nodes.n * (nodes.n - 1) // 2 > 10 ** 8
        index = {(tuple(x), t): k for k, (x, t) in enumerate(zip(nodes.x, nodes.t))}
        for name in ("classical", "weighted"):
            res = member_scan(name, u, 0.5, c=1.0)
            assert res.exact and not res.degenerate
            i, j = (index[(tuple(x), t)] for x, t in res.pair)
            assert i < j
            _, family, weight, power = _member(name, u, 0.5, None, 1.0, None)
            one = _pair_value(nodes, np.array([i]), np.array([j]), family, 0.5, weight, power)
            assert res.value == one[0]
            assert 0 < res.pairs_evaluated < nodes.n * (nodes.n - 1) // 200

    def test_block_bounds_dominate_pair_values(self):
        # at every depth, each block pair's bound is >= every computed value of
        # a family pair between its tiles, and its first-pair key is that of its
        # first family pair, for every scan of each pair family
        cases = (
            (GridSpec(1, 1.0, 1 / 16, 1.0, 0.25), [(2, k) for k in range(0, 33, 3)],
             (_ALL_PAIRS, _SAME_LEVEL, _SAME_POSITION)),
            # 65 levels: a deep same-position hierarchy
            (GridSpec(1, 1.0, 0.25, 1.0, 1 / 64), [(k, 2) for k in range(0, 65, 8)],
             (_SAME_LEVEL, _SAME_POSITION)),
        )
        for spec, spikes, families in cases:
            g = make_grid(spec)
            fields = [random_field(g, seed=11)]
            for at in spikes:  # spikes: bounds as tight as they get
                vals = np.zeros((g.n_levels,) + g.shape)
                vals[at] = 1.0
                fields.append(ScalarField(g, vals))
            for u in fields:
                for name in MEMBERS:
                    nodes, family, weight, power = _member(name, u, 0.5, 3.0, 1.0, None)
                    if family in families:
                        _check_block_bounds(_BranchAndBound(nodes, family, 0.5, weight, power))

    def test_tile_extremes_are_their_first_extreme_members(self):
        # at every depth, each tile's vmax / vmin / dmax are its members' extremes, and imax / imin the
        # first member in tile order (level, then spatial order) that holds them, on fields full of ties
        for spec in (GridSpec(1, 1.0, 1 / 16, 1.0, 1 / 8), GridSpec(2, 1.0, 0.25, 1.0, 0.25, ball_mask=True)):
            g = make_grid(spec)
            for seed in range(3):
                u = _field_of_kind(g, "quantized", seed)
                for name in ("weighted", "nl_space", "nl_time"):
                    nodes, family, weight, power = _member(name, u, 0.5, 3.0, 1.0, None)
                    search = _BranchAndBound(nodes, family, 0.5, weight, power)
                    for d, T in enumerate(search.depths):
                        members = search.members(d)
                        rows = np.arange(len(members))
                        hi = np.where(members >= 0, nodes.v[members], -np.inf)
                        lo = np.where(members >= 0, nodes.v[members], np.inf)
                        assert np.array_equal(T.vmax, hi.max(axis=1)) and np.array_equal(T.vmin, lo.min(axis=1))
                        assert np.array_equal(T.imax, members[rows, hi.argmax(axis=1)])
                        assert np.array_equal(T.imin, members[rows, lo.argmin(axis=1)])
                        assert np.array_equal(T.dmax, np.where(members >= 0, weight[members], -np.inf).max(axis=1))

    def test_same_position_ties_go_position_major(self):
        # unweighted time quotients of {0, 1, 2} fields tie across positions and
        # level pairs: the first pair in (position, level, level) order wins
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        for seed in range(5):
            u = _field_of_kind(g, "quantized", seed)
            fast, slow = member_scan("time_quotient", u, 0.5), oracle("time_quotient", u, 0.5)
            assert (fast.value, fast.pair) == (slow.value, slow.pair)

    def test_non_finite_field_rejected_by_every_scan(self):
        # no block bound holds for a NaN, so every scan refuses the field
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        u = random_field(g, seed=3)
        u.values[2, 4] = np.nan
        for name in MEMBERS:
            with pytest.raises(ValueError, match="non-finite"):
                member_scan(name, u, 0.5, 3.0, 1.0)

    def test_zero_weight_everywhere(self):
        # both nodes sit on the cylinder's rim at its top level: every weight is 0
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        Q = Cylinder(xmin=(0.0,), xmax=(0.25,), t0=1.0, t1=1.0)
        u = random_field(g, seed=5)
        fast, slow = weighted_holder(u, 0.5, 1.0, Q), oracle("weighted", u, 0.5, c=1.0, Q=Q)
        assert fast.value == 0.0 and not fast.degenerate
        assert (fast.value, fast.pair) == (slow.value, slow.pair)

    def test_constant_field_prunes_without_scanning(self):
        g = make_grid(GridSpec(1, 1.0, 1 / 32, 1.0, 1 / 64))
        u = ScalarField.constant(g, 2.5)
        nodes = _Nodes(u, None)
        first = ((tuple(nodes.x[0]), nodes.t[0]), (tuple(nodes.x[1]), nodes.t[1]))
        for res in (holder_seminorm(u, 0.5), weighted_holder(u, 0.5, 1.0)):
            assert res.value == 0.0 and res.pair == first
            assert res.pairs_evaluated < nodes.n * (nodes.n - 1) // 2 // 1000


class TestWorkingSet:
    @pytest.mark.parametrize("name", ["space_quotient", "time_quotient"])
    def test_scan_holds_a_few_node_sized_arrays(self, name):
        """A 1025-level x 129-position scan peaks near 6 MB of numpy arrays.

        The cylinder is that of a tau = 64 liouville-probe, and the field is
        the heat-like decay of the probe's solution.  The nodes hold their
        positions, times and values (3.2 MB); leaf summaries and pair chunks
        stay small beside them.
        """
        g = make_grid(GridSpec(1, 8.0, 1 / 8, 64.0, 1 / 16))
        u = ScalarField.from_function(g, lambda x, t: np.sin(np.pi * x[..., 0] / 9) * np.exp((np.pi / 9) ** 2 * (t - 64)))
        assert (g.n_levels, g.shape) == (1025, (129,))
        tracemalloc.start()
        try:
            res = member_scan(name, u, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value > 0 and res.exact
        assert peak <= 11e6


def _check_block_bounds(search):
    """Every tile pair's bound and first key against its family pairs, at every depth."""
    nodes = search.nodes
    m, n = nodes.m_space, nodes.n
    rank = np.arange(n) if search.rank is None else search.rank
    for d, T in enumerate(search.depths):
        members = search.members(d)
        a, b = np.triu_indices(len(members))
        # the tiles of one depth share their whole level (position) range or none of it
        if search.family == _SAME_LEVEL:
            a, b = a[a // T.ns == b // T.ns], b[a // T.ns == b // T.ns]
        elif search.family == _SAME_POSITION:
            a, b = a[a % T.ns == b % T.ns], b[a % T.ns == b % T.ns]
        I, J = np.broadcast_arrays(members[a][:, :, None], members[b][:, None, :])
        pairs = (I >= 0) & (J >= 0) & (I != J)
        if search.family == _SAME_LEVEL:
            pairs &= I // m == J // m
        elif search.family == _SAME_POSITION:
            pairs &= I % m == J % m
        lo, hi = np.minimum(I, J)[pairs], np.maximum(I, J)[pairs]
        vals = np.full(I.shape, -np.inf)
        vals[pairs] = _pair_value(nodes, lo, hi, search.family, search.alpha, search.weight, search.power)
        keys = np.full(I.shape, n * n)
        keys[pairs] = rank[lo] * n + rank[hi]
        held = pairs.any(axis=(1, 2))
        assert held.any()
        assert np.all(vals.max(axis=(1, 2))[held] <= search._bound(T, a, b)[held])
        assert np.array_equal(keys.min(axis=(1, 2))[held], search._first_key(T, a, b)[held])


class TestScalingCovariance:
    def test_parabolic_rescaling_preserves_classical(self):
        # v(y, s) = u(r y, r^2 s)/r^alpha on the matching rescaled grid
        r, alpha = 2.0, 0.5
        gu = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        rng = np.random.default_rng(21)
        u = ScalarField(gu, rng.normal(size=(gu.n_levels,) + gu.shape))
        gv = make_grid(GridSpec(1, 0.5, 0.125, 0.25, 0.0625))
        vv = u.values / r ** alpha  # same node pairing under (x, t) = (r y, r^2 s)
        v = ScalarField(gv, vv)
        a = holder_seminorm(u, alpha).value
        b = holder_seminorm(v, alpha).value
        assert abs(a - b) < 1e-12 * max(1.0, a)

    @pytest.mark.parametrize("name", list(MEMBERS))
    def test_every_member_is_absolutely_homogeneous(self, name):
        # scaling u by a power of two scales every quotient exactly, so the sup and its pair follow
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.25, ball_mask=True))
        u = random_field(g, 61)
        base = member_scan(name, u, 0.5, gamma=3.0, c=1.0)
        for lam in (4.0, -0.5):
            got = member_scan(name, ScalarField(g, lam * u.values), 0.5, gamma=3.0, c=1.0)
            assert (got.value, got.pair) == (abs(lam) * base.value, base.pair)
        assert base.value > 0.0


class TestQuotients:
    def test_space_quotient_linear(self):
        g = make_grid(GridSpec(1, 0.5, 0.125, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0])
        # sup |dx|^(1/2) over [-0.5, 0.5] = 1
        assert abs(space_quotient(u, 0.5) - 1.0) < 1e-12

    def test_time_quotient_ramp(self):
        g = make_grid(GridSpec(1, 0.5, 0.25, 1.0, 0.25))
        u = ScalarField.from_function(g, lambda x, t: t * np.ones_like(x[..., 0]))
        assert abs(time_quotient(u, 0.5) - 1.0) < 1e-12


class TestW21qNorms:
    def test_constant_all_zero(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        u = ScalarField.constant(g, 3.0)
        Qp = Cylinder(xmin=(-0.5,), xmax=(0.5,), t0=0.25, t1=0.75)
        n = w21q_norms(u, 2.0, 3.0, Qp)
        assert n["dt"] == 0.0 and n["hessian"] == 0.0 and n["grad_gamma"] == 0.0

    def test_linear_time_profile(self):
        c, T, q = 2.0, 1.0, 2.0
        g = make_grid(GridSpec(1, 1.0, 0.125, T, 0.125))
        u = ScalarField.from_function(g, lambda x, t: c * (T - t) * np.ones_like(x[..., 0]))
        Qp = Cylinder(xmin=(-0.5,), xmax=(0.5,), t0=0.25, t1=0.75)
        n = w21q_norms(u, q, 3.0, Qp)
        vol = 1.0 * 0.5
        assert abs(n["dt"] - c * vol ** (1 / q)) < 1e-10
        assert n["hessian"] < 1e-10 and n["grad_gamma"] < 1e-10

    def test_quadratic_space_profile(self):
        q = 3.0
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        u = ScalarField.from_function(g, lambda x, t: 0.5 * x[..., 0] ** 2)
        Qp = Cylinder(xmin=(-0.5,), xmax=(0.5,), t0=0.25, t1=0.75)
        n = w21q_norms(u, q, 3.0, Qp)
        vol = 1.0 * 0.5
        assert abs(n["hessian"] - vol ** (1 / q)) < 1e-10

    def test_at_most_two_fields_beside_u(self):
        """The docstring's memory bound: tracemalloc's peak stays within 2.2 field sizes."""
        g = make_grid(GridSpec(1, 1.0, 1 / 128, 1.0, 1 / 512))
        u = ScalarField(g, np.random.default_rng(0).normal(size=(g.n_levels,) + g.shape))
        Qp = Cylinder(xmin=(-0.5,), xmax=(0.5,), t0=0.25, t1=0.75)
        tracemalloc.start()
        try:
            w21q_norms(u, 2.0, 3.0, Qp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * u.values.nbytes

    @settings(max_examples=30, deadline=None)
    @given(
        spec=st.sampled_from([GridSpec(1, 1.0, 1 / 16, 1.0, 1 / 32), GridSpec(2, 1.0, 1 / 8, 1.0, 1 / 16),
                              GridSpec(2, 1.0, 1 / 8, 1.0, 1 / 16, ball_mask=True)]),
        t0=st.floats(0.125, 0.875),
        length=st.floats(0.0, 0.875),
        half=st.floats(0.1, 0.75),
        q=st.sampled_from([1.2, 2.0, 3.5]),
        seed=st.integers(0, 2 ** 16),
    )
    def test_the_integrands_of_every_level_give_the_same_bits(self, spec, t0, length, half, q, seed):
        # formed on all levels and integrated over Qp, as before the weighted levels were picked out
        g = make_grid(spec)
        u = random_field(g, seed)
        Qp = Cylinder(xmin=(-half,) * g.dim, xmax=(half,) * g.dim, t0=t0, t1=min(t0 + length, 0.875),
                      radius=half if spec.ball_mask else None)

        def norm_of(stack):
            return spacetime_integral(g, np.abs(stack) ** q, Qp) ** (1.0 / q)

        grad = gradient_level(u.values, g.dx, g.dim)
        want = {
            "dt": norm_of(np.gradient(u.values, g.dt, axis=0, edge_order=1)),
            "hessian": norm_of(hessian_frobenius_level(u.values, g.dx, g.dim)),
            "grad_gamma": norm_of(np.sqrt(np.sum(grad * grad, axis=-1)) ** 3.0),
        }
        assert w21q_norms(u, q, 3.0, Qp) == want

    def test_margin_enforced(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
        u = ScalarField.constant(g, 1.0)
        with pytest.raises(ValueError, match="margin"):
            w21q_norms(u, 2.0, 3.0, Cylinder(xmin=(-1.0,), xmax=(0.5,), t0=0.25, t1=0.75))

    def test_cross_derivative_2d(self):
        # u = x*y: only the mixed second derivative survives, Frobenius sqrt(2)
        q = 2.0
        g = make_grid(GridSpec(2, 1.0, 0.125, 1.0, 0.125))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] * x[..., 1])
        Qp = Cylinder(xmin=(-0.5, -0.5), xmax=(0.5, 0.5), t0=0.25, t1=0.75)
        n = w21q_norms(u, q, 3.0, Qp)
        vol = 1.0 * 1.0 * 0.5
        assert abs(n["hessian"] - np.sqrt(2.0) * vol ** (1 / q)) < 1e-10
        assert n["dt"] < 1e-12


def _field_of_kind(g, kind, seed):
    """Random normal values, or one of the tie-heavy and degenerate fields."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return random_field(g, seed)
    if kind == "quantized":  # values in {0, 1, 2}: many tied quotients
        return ScalarField(g, rng.integers(0, 3, size=(g.n_levels,) + g.shape).astype(float))
    if kind == "constant":
        return ScalarField.constant(g, float(rng.normal()))
    if kind == "affine":  # with alpha = 1 every same-level pair ties at |slope|
        slope = float(rng.choice([-1.5, 0.5, 2.0]))
        return ScalarField.from_function(g, lambda x, t: slope * x[..., 0] + 0.25)
    # "rim": nonzero only on the last level's boundary, where the weight is 0
    vals = np.zeros((g.n_levels,) + g.shape)
    vals[-1][g.boundary] = rng.normal(size=int(g.boundary.sum()))
    return ScalarField(g, vals)


# (dx, dt) of the 1D grids: up to 33 positions or 33 levels, so both restricted
# hierarchies go deeper than a leaf, but never both, so the all-pairs oracle stays small
_STEPS_1D = [(1 / 16, 0.5), (0.125, 0.25), (0.25, 0.5), (0.5, 1 / 32)]


@st.composite
def fields_on_subcylinders(draw):
    """Random 1D/2D field (box or ball) with a random sub-cylinder, small enough for the oracle."""
    dim = draw(st.sampled_from([1, 2]))
    dx, dt = draw(st.sampled_from(_STEPS_1D if dim == 1 else [(0.5, 0.25), (0.5, 0.5)]))
    g = make_grid(GridSpec(dim, 1.0, dx, 1.0, dt, ball_mask=draw(st.booleans())))
    kind = draw(st.sampled_from(["normal", "quantized", "constant", "affine", "rim"]))
    u = _field_of_kind(g, kind, draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "rim" and draw(st.booleans()):
        return u, None  # the whole cylinder, whose rim at t = T has weight 0

    def span(coords, step):
        # all nodes, or a random range of them; the ends widened by up to a quarter step
        i, j = 0, len(coords) - 1
        if draw(st.booleans()):
            i, j = sorted(draw(st.tuples(st.integers(i, j), st.integers(i, j))))
        return coords[i] - draw(st.floats(0.0, 0.25)) * step, coords[j] + draw(st.floats(0.0, 0.25)) * step

    box = [span(ax, dx) for ax in g.axes]
    t0, t1 = span(g.ts, dt)
    Q = Cylinder(
        xmin=tuple(lo for lo, _ in box),
        xmax=tuple(hi for _, hi in box),
        t0=t0,
        t1=t1,
        radius=draw(st.one_of(st.none(), st.floats(0.3, 1.5))),
    )
    return u, Q


@settings(max_examples=60, deadline=None)
@given(
    case=fields_on_subcylinders(),
    alpha=st.one_of(st.just(1.0), st.floats(0.05, 0.95)),
    gamma=st.floats(2.1, 4.0),
    c=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_every_member_matches_its_oracle_bitwise(case, alpha, gamma, c):
    # unweighted quotients tie across pairs on quantized and affine fields, so the
    # pairs test each family's tie rule, position-major for the same-position family
    u, Q = case
    for name, member in MEMBERS.items():
        if alpha == 1.0 and member.weight == "dist_alpha":  # d_alpha wants alpha < 1
            for scan in (member_scan, oracle):
                with pytest.raises(ValueError, match=r"\(0, 1\)"):
                    scan(name, u, alpha, gamma, c, Q)
            continue
        fast, slow = member_scan(name, u, alpha, gamma, c, Q), oracle(name, u, alpha, gamma, c, Q)
        assert (fast.value, fast.pair, fast.degenerate) == (slow.value, slow.pair, slow.degenerate)
    # a weight to the power 0 is 1: weighted at c = 0 is classical, value and pair
    classical, weighted = (member_scan(name, u, alpha, c=0.0, Q=Q) for name in ("classical", "weighted"))
    assert (weighted.value, weighted.pair) == (classical.value, classical.pair)
