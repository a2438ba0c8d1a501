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
    godunov_magnitude_gather,
    gradient_level,
    lq_norm,
    make_grid,
    parabolic_distance,
    quadrature_levels,
    quadrature_weights,
    read_field_csv,
    sample_field,
    sample_points,
    spacetime_integral,
    write_field_csv,
)
from hjlab.seminorm import hessian_frobenius_level

from conftest import oracle_godunov, oracle_lattice, oracle_write_field_csv, random_field, stencil_csr


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_values(a, b):
    """Equal, NaN where NaN, and with the sign bits of every other value (zeros and infinities included)."""
    signed = ~np.isnan(b)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a[signed]), np.signbit(b[signed]))


def interior_laplacian(level, g):
    """L @ u_int + B @ u_bnd from the face table's Stencils, checked against the per-node assembly's CSR product.

    A level of g's shape comes back, the Laplacian at the interior nodes and NaN elsewhere.
    """
    L, B = g.laplacian_stencils()
    got = L @ level[g.interior] + B @ level[g.boundary]
    ref = oracle_lattice(g)
    assert same_bits(got, ref.L @ level[ref.interior] + ref.B @ level[ref.boundary])
    out = np.full(g.shape, np.nan)
    out[g.interior] = got
    return out


def interior_godunov(level, g):
    """The Godunov magnitude gathered at g's interior nodes, checked against the zero-padded level kernel.

    A level of g's shape comes back, the magnitude at the interior nodes and NaN elsewhere.
    """
    got = godunov_magnitude_gather(level[g.interior], level.ravel(), g.interior_neighbours(), g.dx)
    assert same_bits(got, oracle_godunov(level, g.dx)[g.interior])
    out = np.full(g.shape, np.nan)
    out[g.interior] = got
    return out


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

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_sizes_rejected(self, value):
        with pytest.raises(ValueError, match="half_width must be positive"):
            make_grid(GridSpec(1, value, 0.125, 1.0, 0.0625))
        with pytest.raises(ValueError, match="horizon must be positive"):
            make_grid(GridSpec(1, 1.0, 0.125, value, 0.0625))

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
    for got, want in zip(g.laplacian_stencils(), (ref.L, ref.B)):
        got = stencil_csr(got)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    inner, outer = g.boundary_face_nodes()
    flat = [tuple(int(np.ravel_multi_index(node, g.shape)) for node in face) for face in ref.faces]
    assert list(zip(inner.tolist(), outer.tolist())) == flat


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    ball=st.booleans(),
    n=st.integers(2, 12),
    dx=st.one_of(st.sampled_from([0.25, 0.1, 1 / 3]), st.floats(0.01, 2.0)),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2 ** 16),
    special=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), max_size=3),
)
def test_stencils_have_the_csr_products_bits(dim, ball, n, dx, rows, seed, special):
    """L @ x and B @ x on numpy alone: scipy's CSR product, for one vector and for several as columns.

    The reference is the per-node assembly's CSR matrices.  Some entries of
    x may be NaN, +-inf or -0.0, and propagate as the CSR product has them.
    """
    g = make_grid(GridSpec(dim, n * dx, dx, 2 * dx, dx, ball_mask=ball))
    rng = np.random.default_rng(seed)
    ref = oracle_lattice(g)
    for stencil, csr in zip(g.laplacian_stencils(), (ref.L, ref.B)):
        x = rng.normal(size=(csr.shape[1], rows)) * 10.0 ** rng.uniform(-8, 8, size=(csr.shape[1], rows))
        x.flat[rng.integers(0, x.size, size=len(special))] = special
        got, want = stencil @ x, csr @ x
        assert np.array_equal(stencil @ x[:, 0], csr @ x[:, 0], equal_nan=True)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got, np.stack([csr @ c for c in x.T], axis=1), equal_nan=True)
        signed = ~np.isnan(want)  # zeros and infinities keep their signs
        assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))
        assert np.array_equal(stencil.dense(), csr.toarray())


class TestCalculus:
    def test_gradient_affine_exact(self, grid_1d_fine):
        u = ScalarField.from_function(grid_1d_fine, lambda x, t: 3.0 * x[..., 0])
        grad = gradient_level(u.values[0], u.grid.dx)
        np.testing.assert_allclose(grad[:, 0], 3.0, rtol=1e-12)

    def test_gradient_constant_zero(self, grid_1d_fine):
        u = ScalarField.constant(grid_1d_fine, 4.0)
        assert np.all(gradient_level(u.values[1], u.grid.dx) == 0.0)

    def test_gradient_quadratic_interior(self):
        g = make_grid(GridSpec(1, 1.0, 0.1, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] ** 2)
        i = g.nearest_node([0.5])[0]
        assert abs(gradient_level(u.values[0], u.grid.dx)[i, 0] - 1.0) < 1e-12

    def test_polynomial_exactness_2d(self):
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] ** 2 + x[..., 1] ** 2)
        lap = interior_laplacian(u.values[0], g)
        np.testing.assert_allclose(lap[1:-1, 1:-1], 4.0, rtol=1e-10)
        v = ScalarField.from_function(g, lambda x, t: 2.0 * x[..., 0] - x[..., 1])
        grad = gradient_level(v.values[0], v.grid.dx)
        np.testing.assert_allclose(grad[..., 0], 2.0, rtol=1e-12)
        np.testing.assert_allclose(grad[..., 1], -1.0, rtol=1e-12)

    def test_laplacian_quadratic_1d(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: x[..., 0] ** 2)
        np.testing.assert_allclose(interior_laplacian(u.values[0], g)[1:-1], 2.0, rtol=1e-10)

    def test_laplacian_affine_zero(self, grid_1d_fine):
        u = ScalarField.from_function(grid_1d_fine, lambda x, t: 1.0 - 2.0 * x[..., 0])
        np.testing.assert_allclose(interior_laplacian(u.values[0], grid_1d_fine)[1:-1], 0.0, atol=1e-11)


class TestGodunov:
    def test_valley_kink_selects_zero(self):
        # both selected branches clip to zero at the bottom kink of |x|
        g = make_grid(GridSpec(1, 1.0, 0.1, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: np.abs(x[..., 0]))
        assert interior_godunov(u.values[0], g)[g.nearest_node([0.0])] == 0.0

    def test_peak_kink_selects_one(self):
        g = make_grid(GridSpec(1, 1.0, 0.1, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: -np.abs(x[..., 0]))
        assert abs(interior_godunov(u.values[0], g)[g.nearest_node([0.0])] - 1.0) < 1e-12

    def test_constant_zero(self, grid_1d):
        u = ScalarField.constant(grid_1d, 2.5)
        assert np.all(interior_godunov(u.values[0], grid_1d)[grid_1d.interior] == 0.0)

    def test_smooth_monotone_matches_central(self):
        g = make_grid(GridSpec(1, 1.0, 0.05, 1.0, 0.5))
        u = ScalarField.from_function(g, lambda x, t: 3.0 * x[..., 0])
        interior = slice(1, -1)
        assert np.allclose(interior_godunov(u.values[0], g)[interior], 3.0, rtol=1e-12)
        # C^2 monotone profile: agreement within 2*dx
        v = ScalarField.from_function(g, lambda x, t: np.sin(x[..., 0]))
        gm = interior_godunov(v.values[0], g)[interior]
        gc = np.abs(gradient_level(v.values[0], v.grid.dx)[interior, 0])
        assert np.max(np.abs(gm - gc)) <= 2 * g.dx

    def test_nonnegative_everywhere(self, grid_1d):
        u = random_field(grid_1d, seed=3)
        for k in range(grid_1d.n_levels):
            assert np.all(interior_godunov(u.values[k], grid_1d)[grid_1d.interior] >= 0.0)


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
        # the quadrature of a nonnegative integrand grows with the cylinder
        u = random_field(grid_1d_fine, seed=11)
        small = Cylinder(xmin=(-0.5,), xmax=(0.25,), t0=0.25, t1=0.75)
        big = Cylinder(xmin=(-0.75,), xmax=(0.5,), t0=0.0, t1=1.0)
        for q in (1.0, 2.0, 4.0):
            integrand = np.abs(u.values) ** q
            assert spacetime_integral(u.grid, integrand, small) <= spacetime_integral(u.grid, integrand, big) + 1e-14


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
        with pytest.raises(ValueError, match=r"^point \(2\.0,\), t=0\.5 lies outside the cylinder$"):
            parabolic_distance(([2.0], 0.5), Q, "d")
        with pytest.raises(ValueError, match=r"^point \(0\.0, -1\.5\), t=0\.5 lies outside the cylinder$"):
            parabolic_distance((np.array([0.0, -1.5]), 0.5), centered_cylinder(1.0, 1.0, dim=2), "d")


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

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.5, 0.25, 1 / 3]),
        dt=st.sampled_from([0.5, 0.1]),
        data=st.data(),
    )
    def test_csv_writer_matches_the_per_row_writer(self, dim, ball, dx, dt, data):
        g = make_grid(GridSpec(dim, 1.0, dx, 1.0, dt, ball_mask=ball))
        size = g.n_levels * int(np.prod(g.shape))
        special = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        vals = data.draw(st.lists(st.one_of(special, finite), min_size=size, max_size=size))
        u = ScalarField(g, np.array(vals).reshape((g.n_levels,) + g.shape))
        got, want = io.StringIO(), io.StringIO()
        write_field_csv(u, got)
        oracle_write_field_csv(u, want)
        assert got.getvalue() == want.getvalue()

    def test_csv_paths_round_trip(self, tmp_path):
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.5, ball_mask=True))
        u = random_field(g, seed=29)
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        buf = io.StringIO()
        write_field_csv(u, buf)
        assert path.read_text() == buf.getvalue()
        back = read_field_csv(path)
        assert back.grid.spec == g.spec
        assert same_bits(back.values, u.values)

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
        for op in (gradient_level, hessian_frobenius_level):
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
            # a stack of only the weighted levels, as w21q_norms forms it, integrates the same
            levels = quadrature_levels(g, sub)
            assert np.array_equal(np.flatnonzero(tw), np.arange(g.n_levels)[levels])
            assert spacetime_integral(g, vals[levels].copy(), sub) == acc
            if levels.stop - levels.start not in (0, g.n_levels - 1):
                with pytest.raises(ValueError, match="levels: want"):
                    spacetime_integral(g, vals[1:], sub)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.25, 0.125, 0.1]),
        dt=st.sampled_from([0.1, 0.125, 0.25]),
        q=st.floats(1.0, 6.0),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        window=st.sampled_from([None, (0.25, 0.75), (0.1, 0.1), (0.3, 0.42)]),
        seed=st.integers(0, 2 ** 16),
    )
    def test_a_time_constant_stack_integrates_as_its_copy(self, dim, ball, dx, dt, q, scale, window, seed):
        """One level broadcast over the levels (stride 0) gives the bits of the materialized stack."""
        g = make_grid(GridSpec(dim, 1.0, dx, 1.0, dt, ball_mask=ball))
        level = scale * np.random.default_rng(seed).normal(size=g.shape)
        level[~g.active] = 0.0
        stack = np.broadcast_to(level, (g.n_levels,) + g.shape)
        assert stack.strides[0] == 0
        copy = stack.copy()
        assert repr(lq_norm(ScalarField(g, stack), q)) == repr(lq_norm(ScalarField(g, copy), q))
        sub = None if window is None else Cylinder(xmin=(-0.5,) * dim, xmax=(0.6,) * dim, t0=window[0], t1=window[1])
        assert repr(spacetime_integral(g, stack, sub)) == repr(spacetime_integral(g, copy, sub))
        levels = quadrature_levels(g, sub)
        assert repr(spacetime_integral(g, stack[levels], sub)) == repr(spacetime_integral(g, copy[levels], sub))

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        n=st.sampled_from([2, 3, 8, 16]),
        seed=st.integers(0, 2 ** 32 - 1),
        scale=st.floats(-3.0, 300.0),
        flat=st.floats(0.0, 0.5),
        special=st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308]),
    )
    def test_godunov_matches_the_zero_padded_kernel(self, dim, ball, n, seed, scale, flat, special):
        """At the interior nodes the gather is the zero-padded level kernel, node for node.

        Steep values overflow the differences and their squares to inf, and
        special values propagate; a NaN may differ only in its sign bit.
        """
        g = make_grid(GridSpec(dim, 1.0, 1.0 / n, 1.0, 0.5, ball_mask=ball))
        rng = np.random.default_rng(seed)
        v = rng.normal(size=g.shape) * 10.0 ** scale
        v[rng.random(g.shape) < flat] = 1.0  # runs of zero differences
        v[rng.random(g.shape) < 0.2] = special
        v[~g.active] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
            got = godunov_magnitude_gather(v[g.interior], v.ravel(), g.interior_neighbours(), g.dx)
            assert same_values(got, oracle_godunov(v, g.dx)[g.interior])

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
        t=st.floats(0.0, 1.0),
    )
    def test_a_time_constant_stack_samples_as_its_level(self, dim, ball, seed, t):
        """A stack of stride 0 on its level axis is its level at every t, bit for bit: it is not blended with itself."""
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.1, ball_mask=ball))
        rng = np.random.default_rng(seed)
        level = rng.normal(size=g.shape) * 10.0 ** rng.uniform(-3, 3)
        stack = np.broadcast_to(level, (g.n_levels,) + g.shape)
        pts = rng.uniform(-1.0, 1.0, size=(7, dim))
        pts[0] = g.coords.reshape(-1, dim)[rng.integers(g.active.size)]  # a node
        want = sample_points(ScalarField(g, stack.copy()), pts, 0.0)  # on a level
        assert same_bits(sample_points(ScalarField(g, stack), pts, t), want)
        times = np.array([t, 0.05, 1.0, t])
        assert same_bits(sample_points(ScalarField(g, stack), pts, times), np.stack([want] * len(times)))

    @pytest.mark.parametrize("dim, ball", [(1, False), (2, False), (2, True)])
    def test_interior_neighbours_are_the_face_neighbours(self, dim, ball):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.5, ball_mask=ball))
        nb = g.interior_neighbours()
        assert nb.shape == (dim, 2, int(g.interior.sum()))
        for k, idx in enumerate(np.argwhere(g.interior)):
            for a in range(dim):
                for side, step in enumerate((-1, 1)):
                    near = idx.copy()
                    near[a] += step
                    assert nb[a, side, k] == np.ravel_multi_index(tuple(near), g.shape)


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
        with pytest.raises(ValueError, match=r"^sample point x=\(0\.0, -1\.5\) outside the grid box$"):
            sample_points(u, pts, np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="do not match 2 times"):
            sample_points(u, pts, np.array([0.0, 0.5]))

