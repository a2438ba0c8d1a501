import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjlab.grid import (
    Cylinder,
    GridSpec,
    ScalarField,
    centered_cylinder,
    godunov_magnitude_level,
    gradient_level,
    laplacian_level,
    lq_norm,
    make_grid,
    parabolic_distance,
    quadrature_weights,
    read_field_csv,
    sample_field,
    sample_points,
    spacetime_integral,
    write_field_csv,
)
from hjlab.seminorm import hessian_frobenius_level

from conftest import oracle_godunov, oracle_lattice, random_field


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMakeGrid:
    def test_box_counts(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.5))
        assert g.shape == (9,)
        assert g.n_levels == 3

    def test_ball_active_count(self):
        g = make_grid(GridSpec(2, 1.0, 0.5, 1.0, 0.5, ball_mask=True))
        assert int(g.active.sum()) == 9
        assert g.active.size == 25

    def test_dx_zero_rejected(self):
        with pytest.raises(ValueError, match="dx must be positive"):
            make_grid(GridSpec(1, 1.0, 0.0, 1.0, 0.5))

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError, match="half_width/dx"):
            make_grid(GridSpec(1, 1.0, 0.3, 1.0, 0.5))
        with pytest.raises(ValueError, match="horizon/dt"):
            make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.3))

    def test_interior_disjoint_from_boundary(self):
        for spec in (GridSpec(1, 1.0, 0.25, 1.0, 0.5), GridSpec(2, 1.0, 0.25, 1.0, 0.5, True)):
            g = make_grid(spec)
            assert not np.any(g.interior & g.boundary)
            assert np.all(g.active == (g.interior | g.boundary))


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    ball=st.booleans(),
    n=st.integers(2, 12),
    dx=st.one_of(st.sampled_from([0.25, 0.125, 0.1, 1 / 3]), st.floats(0.01, 2.0)),
)
def test_face_table_gives_the_per_node_lattice(dim, ball, n, dx):
    g = make_grid(GridSpec(dim, n * dx, dx, 2 * dx, dx, ball_mask=ball))
    ref = oracle_lattice(g)
    assert np.array_equal(g.interior, ref.interior)
    assert np.array_equal(g.boundary, ref.boundary)
    L, B, int_idx, bnd_idx = g.laplacian_ops()
    for got, want in ((L, ref.L), (B, ref.B)):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    assert np.array_equal(int_idx, ref.int_idx)
    assert np.array_equal(bnd_idx, ref.bnd_idx)
    assert np.array_equal(g.boundary_faces(), ref.faces)
    assert g.boundary_faces() == ref.faces


class TestCalculus:
    def test_gradient_affine_exact(self, grid_1d_fine):
        u = ScalarField.from_function(grid_1d_fine, lambda x, t: 3.0 * x[..., 0])
        grad = gradient_level(u.level(0), u.grid.dx)
        np.testing.assert_allclose(grad[:, 0], 3.0, rtol=1e-12)

    def test_gradient_constant_zero(self, grid_1d_fine):
        u = ScalarField.constant(grid_1d_fine, 4.0)
        assert np.all(gradient_level(u.level(1), u.grid.dx) == 0.0)

    def test_gradient_quadratic_interior(self):
        g = make_grid(GridSpec(1, 1.0, 0.1, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] ** 2)
        i = g.nearest_node([0.5])[0]
        assert abs(gradient_level(u.level(0), u.grid.dx)[i, 0] - 1.0) < 1e-12

    def test_polynomial_exactness_2d(self):
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] ** 2 + x[..., 1] ** 2)
        lap = laplacian_level(u.level(0), u.grid.dx)
        np.testing.assert_allclose(lap[1:-1, 1:-1], 4.0, rtol=1e-10)
        v = ScalarField.from_function(g, lambda x, t: 2.0 * x[..., 0] - x[..., 1])
        grad = gradient_level(v.level(0), v.grid.dx)
        np.testing.assert_allclose(grad[..., 0], 2.0, rtol=1e-12)
        np.testing.assert_allclose(grad[..., 1], -1.0, rtol=1e-12)

    def test_laplacian_quadratic_1d(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] ** 2)
        np.testing.assert_allclose(laplacian_level(u.level(0), u.grid.dx)[1:-1], 2.0, rtol=1e-10)

    def test_laplacian_affine_zero(self, grid_1d_fine):
        u = ScalarField.from_function(grid_1d_fine, lambda x, t: 1.0 - 2.0 * x[..., 0])
        np.testing.assert_allclose(laplacian_level(u.level(0), u.grid.dx)[1:-1], 0.0, atol=1e-11)


class TestGodunov:
    def test_valley_kink_selects_zero(self):
        # both selected branches clip to zero at the bottom kink of |x|
        g = make_grid(GridSpec(1, 1.0, 0.1, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: np.abs(x[..., 0]))
        assert godunov_magnitude_level(u.level(0), u.grid.dx)[g.nearest_node([0.0])[0]] == 0.0

    def test_peak_kink_selects_one(self):
        g = make_grid(GridSpec(1, 1.0, 0.1, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: -np.abs(x[..., 0]))
        assert abs(godunov_magnitude_level(u.level(0), u.grid.dx)[g.nearest_node([0.0])[0]] - 1.0) < 1e-12

    def test_constant_zero(self, grid_1d):
        u = ScalarField.constant(grid_1d, 2.5)
        assert np.all(godunov_magnitude_level(u.level(0), u.grid.dx) == 0.0)

    def test_smooth_monotone_matches_central(self):
        g = make_grid(GridSpec(1, 1.0, 0.05, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: 3.0 * x[..., 0])
        interior = slice(1, -1)
        assert np.allclose(godunov_magnitude_level(u.level(0), u.grid.dx)[interior], 3.0, rtol=1e-12)
        # C^2 monotone profile: agreement within 2*dx
        v = ScalarField.from_function(g, lambda x, t: np.sin(x[..., 0]))
        gm = godunov_magnitude_level(v.level(0), v.grid.dx)[interior]
        gc = np.abs(gradient_level(v.level(0), v.grid.dx)[interior, 0])
        assert np.max(np.abs(gm - gc)) <= 2 * g.dx

    def test_nonnegative_everywhere(self, grid_1d):
        u = random_field(grid_1d, seed=3)
        for k in range(grid_1d.n_levels):
            assert np.all(godunov_magnitude_level(u.level(k), u.grid.dx) >= 0.0)


class TestLqNorm:
    def test_constant_any_q(self):
        # volume 2R*T = 1
        g = make_grid(GridSpec(1, 0.5, 0.125, 1.0, 0.25))
        u = ScalarField.constant(g, 2.0)
        for q in (1.0, 2.0, 3.7):
            assert abs(lq_norm(u, q) - 2.0) < 1e-12

    def test_zero_field(self, grid_1d):
        assert lq_norm(ScalarField.constant(grid_1d, 0.0), 2.0) == 0.0

    def test_linear_profile_quadrature(self):
        # int_0^1 x^2 dx = 1/3 over a unit-time slab
        g = make_grid(GridSpec(1, 0.5, 0.01, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] + 0.5)
        assert abs(lq_norm(u, 2.0) - (1.0 / 3.0) ** 0.5) < 2e-4

    def test_q_below_one_rejected(self, grid_1d):
        with pytest.raises(ValueError, match="q must be"):
            lq_norm(ScalarField.constant(grid_1d, 1.0), 0.5)

    def test_monotone_in_domain(self, grid_1d_fine):
        u = random_field(grid_1d_fine, seed=11)
        small = Cylinder(xmin=(-0.5,), xmax=(0.25,), t0=0.25, t1=0.75)
        big = Cylinder(xmin=(-0.75,), xmax=(0.5,), t0=0.0, t1=1.0)
        for q in (1.0, 2.0, 4.0):
            assert lq_norm(u, q, small) <= lq_norm(u, q, big) + 1e-14


class TestParabolicDistance:
    def test_center_of_unit_cylinder(self):
        Q = centered_cylinder(1.0, 1.0, dim=1, ball=True)
        assert parabolic_distance(([0.0], 0.0), Q, "d") == 2.0

    def test_backward_boundary_zero(self):
        Q = centered_cylinder(1.0, 1.0, dim=1)
        assert parabolic_distance(([1.0], 1.0), Q, "d") == 0.0
        assert parabolic_distance(([1.0], 1.0), Q, "d_alpha", alpha=0.5, gamma=3.0) == 0.0

    def test_d_alpha_formula(self):
        Q = centered_cylinder(5.0, 9.0, dim=1)
        val = parabolic_distance(([1.0], 1.0), Q, "d_alpha", alpha=0.5, gamma=3.0)
        assert abs(val - (2.0 + 8.0 ** (1.0 / 6.0))) < 1e-12

    def test_outside_rejected(self):
        Q = centered_cylinder(1.0, 1.0, dim=1)
        with pytest.raises(ValueError, match="outside"):
            parabolic_distance(([2.0], 0.5), Q, "d")


class TestSamplingAndIO:
    def test_sample_exact_at_nodes(self, grid_1d):
        u = random_field(grid_1d, seed=5)
        for idx in ((0,), (4,), (8,)):
            for k in (0, 2, 4):
                x = grid_1d.coords[idx]
                t = grid_1d.ts[k]
                assert sample_field(u, x, float(t)) == u.values[k][idx]

    def test_sample_linear_between_nodes(self, grid_1d):
        u = ScalarField.from_function(grid_1d, lambda x, t: 2.0 * x[..., 0] + t)
        assert abs(sample_field(u, [0.1], 0.3) - (0.2 + 0.3)) < 1e-12

    def test_csv_round_trip(self, grid_1d):
        u = random_field(grid_1d, seed=13)
        buf = io.StringIO()
        write_field_csv(u, buf)
        buf.seek(0)
        back = read_field_csv(buf)
        assert back.grid.spec == u.grid.spec
        np.testing.assert_allclose(back.values, u.values, rtol=0, atol=0)

    def test_csv_header(self, grid_1d):
        buf = io.StringIO()
        write_field_csv(ScalarField.constant(grid_1d, 1.0), buf)
        first = buf.getvalue().splitlines()[0]
        assert first.startswith("# grid: 1,1,0.25,1,0.25,0")

    def test_csv_writer_matches_per_node_format(self):
        # reference: the row format applied node by node, levels outermost
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.5, ball_mask=True))
        u = random_field(g, seed=23, scale=1e-7)
        buf = io.StringIO()
        write_field_csv(u, buf)
        rows = [
            "%.17g,%.17g,%.17g,%.17g\n" % (t, *g.coords[tuple(idx)], u.values[k][tuple(idx)])
            for k, t in enumerate(g.ts)
            for idx in np.argwhere(g.active)
        ]
        assert buf.getvalue() == "# grid: 2,1,0.25,1,0.5,1\n" + "".join(rows)

    def test_csv_round_trip_2d_ball(self):
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.5, ball_mask=True))
        u = random_field(g, seed=19)
        buf = io.StringIO()
        write_field_csv(u, buf)
        buf.seek(0)
        back = read_field_csv(buf)
        assert back.grid.spec == u.grid.spec
        np.testing.assert_array_equal(back.values[:, g.active], u.values[:, g.active])


def _edit_row(text, row, edit):
    """CSV text with data row `row` (counted from 1) replaced by edit(columns)."""
    lines = text.splitlines(keepends=True)
    cols = lines[row].rstrip("\n").split(",")
    lines[row] = "".join(line + "\n" for line in edit(cols))
    return "".join(lines)


@pytest.mark.parametrize(
    "ball, edit, match",
    [
        (False, lambda c: [], r"no row for node t=0, x=\[-0.5\]"),
        (False, lambda c: [",".join([c[0], "-0.49", c[2]])], r"row 3 \(t=0, x=\[-0.49\]\): not a grid node"),
        (False, lambda c: [",".join(["0.1"] + c[1:])], r"row 3 \(t=0.1.*not a grid node"),
        (False, lambda c: [",".join(c[:2] + ["nan"])], r"row 3 .*non-finite"),
        (False, lambda c: [",".join(c), ",".join(c)], r"row 4 .*more than once"),
        (True, lambda c: [",".join(c), "0,-1,-1,0"], r"row 4 \(t=0, x=\[-1.0, -1.0\]\): inactive node"),
    ],
    ids=["missing", "off_node_x", "off_node_t", "non_finite", "duplicate", "inactive"],
)
def test_csv_reader_rejects_bad_rows(grid_1d, ball, edit, match):
    g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.5, ball_mask=True)) if ball else grid_1d
    buf = io.StringIO()
    write_field_csv(random_field(g, seed=3), buf)
    with pytest.raises(ValueError, match=match):
        read_field_csv(io.StringIO(_edit_row(buf.getvalue(), 3, edit)))

@pytest.mark.parametrize(
    "header, what",
    [
        ("# grid: 1,1,0.25,1", "4 fields, expected 6"),
        ("# grid: 1,1,0.25,1,0.25,0,7", "7 fields, expected 6"),
        ("# grid: 1,1,0.25,1,0.25,2", "mask '2' is neither 0 nor 1"),
        ("# grid: 1,1,0.25,1,0.25,x", "mask 'x' is neither 0 nor 1"),
        ("# grid: 3,1,0.25,1,0.25,0", "dim must be 1 or 2"),
    ],
    ids=["short", "seventh_field", "mask_2", "mask_x", "dim_3"],
)
def test_csv_reader_rejects_bad_header(grid_1d, header, what):
    buf = io.StringIO()
    write_field_csv(random_field(grid_1d, seed=3), buf)
    text = header + "\n" + buf.getvalue().split("\n", 1)[1]
    with pytest.raises(ValueError) as exc:
        read_field_csv(io.StringIO(text))
    assert str(exc.value) == f"bad header {header!r} (expected '# grid: N,R,dx,T,dt,mask'): {what}"


@pytest.mark.parametrize(
    "dim, pts, shape",
    [(1, [[0.25, 0.75]], (1, 2)), (1, [0.25, 0.75], (2,)), (2, [[0.25]], (1, 1)), (2, [[[0.0, 0.0, 0.0]]], (1, 1, 3))],
)
def test_sample_points_reject_points_of_another_dimension(dim, pts, shape):
    u = random_field(make_grid(GridSpec(dim, 1.0, 0.25, 1.0, 0.25)), seed=1)
    grid_shape = u.grid.shape
    with pytest.raises(ValueError, match=re.escape(f"points of shape {shape} do not fit the grid of shape {grid_shape}")):
        sample_points(u, pts, 0.5)
    if len(shape) == 2 and shape[0] == 1:
        with pytest.raises(ValueError, match=re.escape(f"points of shape {shape}")):
            sample_field(u, pts[0], 0.5)


@settings(max_examples=50, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2 ** 32 - 1),
    x=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    t=st.floats(0.0, 1.0),
)
def test_sample_field_is_a_one_point_sample(dim, seed, x, t):
    g = make_grid(GridSpec(dim, 1.0, 0.25, 1.0, 0.25))
    u = random_field(g, seed)
    x = list(x[:dim])
    assert sample_field(u, x, t) == sample_points(u, [x], t)[0]


class TestStackedOperators:
    @pytest.mark.parametrize("dim, ball", [(1, False), (2, False), (2, True)])
    def test_a_stack_of_levels_is_the_per_level_calls(self, dim, ball):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.25, ball_mask=ball))
        u = random_field(g, 11)
        for op in (gradient_level, laplacian_level, hessian_frobenius_level):
            per_level = np.stack([op(lev, g.dx) for lev in u.values])
            assert same_bits(op(u.values, g.dx, dim), per_level), op.__name__

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(1, 1.0, 1 / 64, 1.0, 1 / 16),
            GridSpec(2, 1.0, 1 / 64, 0.5, 1 / 8),  # 16641 nodes per level
            GridSpec(2, 1.0, 0.125, 1.0, 0.125, ball_mask=True),
        ],
    )
    def test_spacetime_integral_is_the_per_level_sum(self, spec):
        g = make_grid(spec)
        vals = random_field(g, 12, scale=1e3).values
        subs = [
            None,
            centered_cylinder(0.5, 0.3, g.dim),
            Cylinder(xmin=(-0.3,) * g.dim, xmax=(0.6,) * g.dim, t0=0.2, t1=0.45, radius=0.5),
            Cylinder(xmin=(-1.0,) * g.dim, xmax=(1.0,) * g.dim, t0=0.1, t1=0.1),
        ]
        for sub in subs:
            tw, sw = quadrature_weights(g, sub)
            acc = 0.0
            for k, w in enumerate(tw):
                if w == 0.0:
                    continue
                acc += w * float(np.sum(vals[k] * sw))
            assert spacetime_integral(g, vals, sub) == acc

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(5,), (33,), (5, 7), (17, 17)]),
        seed=st.integers(0, 2 ** 32 - 1),
        special=st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308]),
    )
    def test_godunov_matches_the_zero_padded_kernel(self, shape, seed, special):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        v[rng.random(shape) < 0.2] = special
        with np.errstate(invalid="ignore"):  # inf - inf
            assert same_bits(godunov_magnitude_level(v, 0.125), oracle_godunov(v, 0.125))


class TestSampleTimes:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_array_of_times_is_the_per_time_calls(self, dim):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.125, ball_mask=dim == 2))
        u = random_field(g, 13)
        rng = np.random.default_rng(14)
        pts = np.concatenate([rng.uniform(-1.0, 1.0, (30, dim)), g.coords.reshape(-1, dim)[:5]])
        times = np.concatenate([g.ts, rng.uniform(0.0, 1.0, 10), [1.0 + 1e-12]])
        rows = sample_points(u, pts, times)
        assert rows.shape == (len(times), len(pts))
        for t, row in zip(times, rows):
            assert same_bits(row, sample_points(u, pts, float(t)))

    def test_an_out_of_horizon_time_in_the_array_raises(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        u = random_field(g, 15)
        with pytest.raises(ValueError, match=r"^sample time t=1\.5 outside the grid horizon$"):
            sample_points(u, [[0.0]], 1.5)
        with pytest.raises(ValueError, match=r"^sample time t=1\.5 outside the grid horizon$"):
            sample_points(u, [[0.0]], np.array([0.0, 1.5, 0.5, -1.0]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_point_set_per_time_is_the_per_time_calls(self, dim):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.125, ball_mask=dim == 2))
        u = random_field(g, 16)
        rng = np.random.default_rng(17)
        times = np.concatenate([g.ts, rng.uniform(0.0, 1.0, 10)])
        pts = rng.uniform(-1.0, 1.0, (len(times), 12, dim))
        pts[:, :3] = g.coords.reshape(-1, dim)[rng.integers(0, g.coords.size // dim, 3)]
        rows = sample_points(u, pts, times)
        assert rows.shape == (len(times), 12)
        for t, p, row in zip(times, pts, rows):
            assert same_bits(row, sample_points(u, p, float(t)))

    def test_a_point_set_per_time_names_the_first_point_outside(self):
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.25))
        u = random_field(g, 18)
        pts = np.zeros((3, 2, 2))
        pts[2, 0] = (1.5, 0.0)  # the later time, first axis
        pts[1, 1] = (0.0, -1.5)  # the earlier time, second axis: reported first
        with pytest.raises(ValueError, match=r"^sample point x=\(np.float64\(0.0\), np.float64\(-1.5\)\) outside"):
            sample_points(u, pts, np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="do not match 2 times"):
            sample_points(u, pts, np.array([0.0, 0.5]))

