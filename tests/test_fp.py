from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from hypothesis import assume, example, given, settings, strategies as st

from hjlab import fp
from hjlab.grid import GridSpec, NumericalFailure, ScalarField, VectorField, gradient_level, make_grid, space_integral
from hjlab.fp import (
    FPProblem,
    boundary_loss_check,
    drift_from_solution,
    interval_kernel,
    kinetic_energy,
    moment_alpha,
    solve_fp,
)

from conftest import counting_lu, oracle_lattice, random_field


def driftless(sigma, R, tau, dx, dt, dim=1, source=0.0, ball=False):
    grid = make_grid(GridSpec(dim, R, dx, tau, dt, ball_mask=ball))
    prob = FPProblem(sigma=sigma, R=R, tau=tau, drift=None, source=source)
    return solve_fp(prob, grid)


class TestValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
            solve_fp(FPProblem(sigma=0.0, R=1.0, tau=1.0), g)

    @pytest.mark.parametrize("field", ["sigma", "R", "tau"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_number_rejected_naming_it(self, field, bad):
        # a NaN sigma ended as a negative-density failure; a NaN R or tau passed every check and solved
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        prob = FPProblem(**{"sigma": 1.0, "R": 1.0, "tau": 1.0, field: bad})
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number, got {bad!r}$"):
            solve_fp(prob, g)

    def test_resolution_floor(self):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        with pytest.raises(ValueError, match="dx <= R/8"):
            solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0), g)

    def test_source_strictly_interior(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        with pytest.raises(ValueError, match="source"):
            solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, source=0.95), g)

    def test_source_has_one_coordinate_or_one_per_axis(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        with pytest.raises(ValueError, match="source has 2 coordinates on a 1D grid"):
            solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, source=(0.0, 0.0)), g)

    def test_drift_field_must_cover_the_fp_grid(self):
        small = make_grid(GridSpec(1, 0.5, 0.125, 1.0, 0.25))
        b = VectorField(small, np.zeros((small.n_levels,) + small.shape + (1,)))
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        with pytest.raises(ValueError, match="does not cover"):
            solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, drift=b), g)

    def test_drift_field_resampled_onto_the_fp_nodes(self):
        # a finer, wider dyadic grid: resampling picks the coinciding nodes exactly
        fine = make_grid(GridSpec(1, 2.0, 0.0625, 1.0, 0.125))
        rng = np.random.default_rng(0)
        b = VectorField(fine, rng.normal(size=(fine.n_levels,) + fine.shape + (1,)))
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=1.0, drift=b), g)
        assert np.array_equal(sol.b.values, b.values[::2, 16:49:2])


class TestNonFiniteDrift:
    """A NaN or inf drift fails at the boundary, naming the first bad node in
    level, then C order, whichever form the drift takes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("form", ["constant", "callable", "field", "resampled"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejected_naming_node_and_time(self, dim, form, bad):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.125))
        at = (2,) + (5,) * dim  # level 2 (t = 0.25), node x = (-0.375, ...)
        b_at = np.zeros(dim)
        b_at[-1] = bad
        if form == "constant":
            drift, at, b_at = (bad,) * dim, (0,) * (dim + 1), np.full(dim, bad)
        elif form == "callable":
            def drift(x, t):
                b = np.zeros(x.shape)
                b[at[1:]] = b_at if t == 0.25 else 0.0
                return b
        else:
            # the resampled field's node (2, 10, ...) is the FP node (2, 5, ...)
            cover = g if form == "field" else make_grid(GridSpec(dim, 1.0, 0.0625, 0.5, 0.125))
            vals = np.zeros((cover.n_levels,) + cover.shape + (dim,))
            vals[(2,) + (5 if form == "field" else 10,) * dim] = b_at
            drift = VectorField(cover, vals)
        x = tuple(g.coords[at[1:]].tolist())
        msg = f"drift is not finite: b = {tuple(b_at.tolist())} at x={x}, t={float(g.ts[at[0]])!r}"
        with pytest.raises(ValueError) as info:
            solve_fp(FPProblem(sigma=1.0, R=1.0, tau=0.5, drift=drift, source=(0.0,) * dim), g)
        assert str(info.value) == msg


class TestConservation:
    @pytest.mark.parametrize(
        "drift", [None, (0.5,), lambda x, t: np.stack([np.sin(np.pi * x[..., 0])], axis=-1)]
    )
    def test_mass_plus_outflux_is_one(self, drift):
        g = make_grid(GridSpec(1, 2.0, 0.125, 1.0, 0.0625))
        sol = solve_fp(FPProblem(sigma=0.5, R=2.0, tau=1.0, drift=drift, source=0.25), g)
        assert sol.conservation_defect <= 1e-8
        assert sol.min_density() >= 0.0

    def test_conservation_on_2d_ball(self):
        g = make_grid(GridSpec(2, 1.0, 0.125, 0.25, 0.03125, ball_mask=True))
        sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=0.25, drift=(0.3, -0.2), source=(0.0, 0.0)), g)
        assert sol.conservation_defect <= 1e-8
        assert sol.min_density() >= 0.0

    def test_outflux_nondecreasing_and_faces_nonnegative(self):
        sol = driftless(1.0, 2.0, 1.0, 0.125, 0.0625)
        assert np.all(np.diff(sol.outflux) >= 0.0)
        assert np.all(sol.boundary_flux >= 0.0)

    def test_initial_mass_is_one(self):
        sol = driftless(1.0, 2.0, 1.0, 0.125, 0.0625)
        assert abs(sol.mass[0] - 1.0) < 1e-14


class TestImplicitTransport:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        ball=st.booleans(),
        dx=st.sampled_from([0.125, 0.0625]),
        dt=st.sampled_from([1 / 256, 1 / 16, 0.25]),
        levels=st.integers(2, 4),
        kind=st.sampled_from(["zero", "uniform", "callable", "field"]),
        cfl=st.floats(0.0, 1000.0),
        sigma=st.floats(0.01, 2.0),
        seed=st.integers(0, 2 ** 16),
    )
    @example(dim=1, ball=False, dx=0.0625, dt=0.25, levels=4, kind="uniform", cfl=1000.0, sigma=0.01, seed=0)
    @example(dim=2, ball=True, dx=0.0625, dt=0.25, levels=3, kind="field", cfl=1000.0, sigma=0.01, seed=1)
    def test_mass_outflux_nonnegativity_and_one_lu_per_drift_level(
        self, dim, ball, dx, dt, levels, kind, cfl, sigma, seed
    ):
        # drift magnitude set by the transport CFL |b| dt / dx, up to 1e3
        rng = np.random.default_rng(seed)
        speed = cfl * dx / dt
        g = make_grid(GridSpec(dim, 1.0, dx, levels * dt, dt, ball_mask=ball))
        n = round(1.0 / dx)  # the source sits at least 2*dx inside the box
        x0 = rng.integers(2 - n, n - 1, size=dim) * dx
        assume(g.interior[g.nearest_node(x0)])
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        if kind == "zero":
            drift = None
        elif kind == "uniform":
            drift = tuple(speed * direction)
        elif kind == "callable":
            drift = lambda x, t: speed * np.sin(np.pi * x + 3.0 * t) * direction
        else:
            cover = make_grid(GridSpec(dim, 1.5, dx / 2, levels * dt, dt / 2))
            drift = VectorField(cover, speed * rng.normal(size=(cover.n_levels,) + cover.shape + (dim,)))
        sol, n_lu = counting_lu(
            solve_fp, FPProblem(sigma=sigma, R=1.0, tau=levels * dt, drift=drift, source=x0), g
        )

        assert sol.conservation_defect <= 1e-10
        assert sol.min_density() >= 0.0
        b_int = sol.b.values[:-1, g.interior]
        distinct = 1 + sum(not np.array_equal(b_int[k], b_int[k - 1]) for k in range(1, len(b_int)))
        if dim == 1:  # one tridiagonal solve per level
            assert n_lu == levels
        else:  # one banded LU per distinct drift level
            assert n_lu == distinct
            if kind in ("zero", "uniform"):
                assert n_lu == 1

    @pytest.mark.parametrize("dim,ball", [(1, False), (2, False), (2, True)])
    def test_each_level_solves_the_per_face_scheme(self, dim, ball):
        # m^{k+1} - m^k = dt*(sigma*Lap m^{k+1} - div F), F the upwind flux of m^{k+1}
        # with face velocity -(b_l + b_r)/2 and none across faces touching the boundary
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.25, ball_mask=ball))
        rng = np.random.default_rng(dim + 2 * ball)
        b = VectorField(g, 20.0 * rng.normal(size=(g.n_levels,) + g.shape + (dim,)))
        sol = solve_fp(FPProblem(sigma=0.3, R=1.0, tau=0.5, drift=b, source=(0.25,) * dim), g)
        dt, dx = g.dt, g.dx
        for k in range(g.spec.nt):
            m_old, m, bk = sol.m.values[k], sol.m.values[k + 1], b.values[k]
            for idx in map(tuple, np.argwhere(g.interior)):
                res = m[idx] - m_old[idx]
                for a in range(dim):
                    for step in (-1, 1):
                        nb = list(idx)
                        nb[a] += step
                        nb = tuple(nb)
                        res -= 0.3 * dt * (m[nb] - m[idx]) / dx ** 2
                        if g.interior[nb]:
                            lo, hi = (idx, nb) if step == 1 else (nb, idx)
                            v = -0.5 * (bk[lo][a] + bk[hi][a])
                            flux = max(v, 0.0) * m[lo] + min(v, 0.0) * m[hi]
                            res += step * dt * flux / dx
                assert abs(res) <= 1e-12 * np.max(m_old)

    @pytest.mark.parametrize("dim,ball", [(1, False), (2, False), (2, True)])
    def test_factored_entries_are_the_per_node_assembly(self, dim, ball):
        # every factored matrix, bit for bit: the diffusion matrix I - sigma*dt*L plus
        # dt*U(b_k), U's entries per face neighbour and its column sums added in row order
        g = make_grid(GridSpec(dim, 1.0, 0.1, 0.5, 0.1, ball_mask=ball))
        rng = np.random.default_rng(11 + dim + 2 * ball)
        b = VectorField(g, 3.0 * rng.normal(size=(g.n_levels,) + g.shape + (dim,)))
        factored = []

        def keep(real):
            def factor(*args):
                factored.append([np.copy(arg) for arg in args])  # the band array is refilled per level
                return real(*args)

            return factor

        with mock.patch.object(lapack, "dgbtrf", keep(lapack.dgbtrf)), mock.patch.object(lapack, "dgtsv", keep(lapack.dgtsv)):
            solve_fp(FPProblem(sigma=0.6, R=1.0, tau=0.5, drift=b, source=(0.0,) * dim), g)
        L = oracle_lattice(g).L
        diffusion = (sp.identity(L.shape[0], format="csc") - 0.6 * g.dt * L).toarray()
        number = {tuple(idx): n for n, idx in enumerate(np.argwhere(g.interior))}
        assert len(factored) == g.spec.nt  # every level's drift differs from the last
        for k, args in enumerate(factored):
            want = diffusion.copy()
            for idx, c in number.items():
                col = []
                for a in range(dim):
                    for step in (-1, 1):
                        nb = list(idx)
                        nb[a] += step
                        r = number.get(tuple(nb))
                        if r is not None:
                            v = -0.5 * (b.values[k][idx][a] + b.values[k][tuple(nb)][a])
                            col.append((r, min(v, 0.0) / g.dx if r < c else -max(v, 0.0) / g.dx))
                total = 0.0
                for r, u in sorted(col):
                    want[r, c] += g.dt * u
                    total += u
                want[c, c] -= g.dt * total
            if dim == 1:  # dgtsv(dl, d, du, b)
                assert all(np.array_equal(got, np.diag(want, d)) for got, d in zip(args[:3], (-1, 0, 1)))
            else:  # LAPACK's band storage: A[i, j] at ab[kl + ku + i - j, j], kl rows above left for the fill
                ab, kl, ku = args
                got = np.zeros_like(want)
                for i, j in np.ndindex(got.shape):
                    if -ku <= i - j <= kl:
                        got[i, j] = ab[kl + ku + i - j, j]
                assert np.array_equal(got, want)
                assert not ab[:kl].any()

    def test_zero_drift_is_the_diffusion_solve(self):
        # no drift: each level is exactly (I - sigma*dt*L)^{-1} applied to the last, by a banded LU
        # of the diffusion matrix read off its dense form
        g = make_grid(GridSpec(2, 1.0, 0.125, 0.25, 1 / 16, ball_mask=True))
        sol = solve_fp(FPProblem(sigma=0.7, R=1.0, tau=0.25, source=(0.25, 0.0)), g)
        L = oracle_lattice(g).L
        A = (sp.identity(L.shape[0], format="csc") - 0.7 * g.dt * L).toarray()
        kd = max(j - i for i, j in zip(*np.nonzero(A)))
        ab = np.zeros((3 * kd + 1, len(A)))
        for d in range(-kd, kd + 1):  # A[i, j] at ab[2 kd + i - j, j]
            ab[2 * kd - d, max(d, 0) : len(A) + min(d, 0)] = np.diagonal(A, d)
        lu, piv, info = lapack.dgbtrf(ab, kd, kd)
        assert info == 0
        for k in range(g.spec.nt):
            m = sol.m.values[k][g.interior]
            assert np.array_equal(np.maximum(lapack.dgbtrs(lu, kd, kd, m, piv)[0], 0.0), sol.m.values[k + 1][g.interior])

    @pytest.mark.parametrize("spec", [GridSpec(1, 1.0, 1 / 32, 0.25, 1 / 16), GridSpec(2, 1.0, 1 / 16, 0.25, 1 / 16)])
    def test_zero_drift_is_the_superlu_diffusion_solve(self, spec):
        # the tridiagonal and banded LAPACK paths solve the same matrix as SuperLU, to round-off
        import scipy.sparse.linalg as spla

        g = make_grid(spec)
        sol = solve_fp(FPProblem(sigma=0.7, R=1.0, tau=0.25, source=(0.25,) * g.dim), g)
        L = oracle_lattice(g).L
        lu = spla.splu((sp.identity(L.shape[0], format="csc") - 0.7 * g.dt * L).tocsc())
        for k in range(g.spec.nt):
            want = np.maximum(lu.solve(sol.m.values[k][g.interior]), 0.0)
            got = sol.m.values[k + 1][g.interior]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("dim,ball", [(1, False), (2, False), (2, True)])
    def test_tridiagonal_lapack_in_1d_banded_otherwise(self, dim, ball, block):
        # matrix entries formed a few levels at a time factor the same matrices
        g = make_grid(GridSpec(dim, 1.0, 0.125, 1.0, 0.125, ball_mask=ball))
        rng = np.random.default_rng(dim + 2 * ball)
        b = VectorField(g, rng.normal(size=(g.n_levels,) + g.shape + (dim,)))
        b.values[3] = b.values[2]  # step 3 reuses step 2's factorization: 7 of 8 distinct
        prob = FPProblem(sigma=0.5, R=1.0, tau=1.0, drift=b, source=(0.0,) * dim)
        ref = solve_fp(prob, g)
        with mock.patch.object(lapack, "dgbtrf", wraps=lapack.dgbtrf) as dgbtrf, mock.patch.object(
            lapack, "dgtsv", wraps=lapack.dgtsv
        ) as dgtsv, mock.patch.object(fp, "_BLOCK", block):
            sol = solve_fp(prob, g)
        # 1D: one tridiagonal solve per level; otherwise one banded LU per distinct drift level
        assert (dgtsv.call_count, dgbtrf.call_count) == ((8, 0) if dim == 1 else (0, 7))
        assert np.array_equal(sol.m.values, ref.m.values)

    @pytest.mark.parametrize("dim,ball", [(1, False), (2, False), (2, True)])
    def test_stacked_accounting_is_the_per_level_loop(self, dim, ball):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 1 / 16, ball_mask=ball))
        rng = np.random.default_rng(5 + dim + 2 * ball)
        b = VectorField(g, 4.0 * rng.normal(size=(g.n_levels,) + g.shape + (dim,)))
        sol = solve_fp(FPProblem(sigma=0.4, R=1.0, tau=0.5, drift=b, source=(0.25,) * dim), g)
        cell = g.dx ** dim
        factor = 0.4 * g.dt * g.dx ** (dim - 2)
        inner, _ = g.boundary_face_nodes()
        mass, outflux = [float(np.sum(sol.m.values[0])) * cell], [0.0]
        bflux = [np.zeros(len(inner))]
        for k in range(1, g.n_levels):
            m = sol.m.values[k]
            bflux.append(np.array([factor * m.flat[i] for i in inner]))
            outflux.append(outflux[-1] + float(np.sum(bflux[-1])))
            mass.append(float(np.sum(m)) * cell)
        assert np.array_equal(sol.boundary_flux, np.array(bflux))
        assert np.array_equal(sol.outflux, np.array(outflux))
        assert np.array_equal(sol.mass, np.array(mass))

    # dgtsv solves each level, dgbtrf factors each distinct drift level
    @pytest.mark.parametrize("dim, kernel, kind, failing", [(1, "dgtsv", "tridiagonal", 3), (2, "dgbtrf", "banded", 2)])
    def test_failed_factorization_names_the_step(self, dim, kernel, kind, failing):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.125))
        drift = lambda x, t: np.full(x.shape, 1.0 + (t >= 0.25))  # changes at step 2

        real, calls = getattr(lapack, kernel), []

        def factor(*args):  # the first factorization of step 2's matrix reports a zero pivot
            calls.append(None)
            *lu, _ = real(*args)
            return (*lu, 3 if len(calls) == failing else 0)

        with mock.patch.object(lapack, kernel, factor):
            with pytest.raises(NumericalFailure, match=rf"^{kind} LU failed \(info=3\) at FP step 2$"):
                solve_fp(FPProblem(sigma=1.0, R=1.0, tau=0.5, drift=drift, source=(0.0,) * dim), g)

    @pytest.mark.parametrize(
        "bad,match",
        [(np.nan, r"^negative density nan after FP step 0"), (np.inf, r"^mass accounting broke: .* = inf$")],
    )
    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_non_finite_density_raises(self, dim, bad, match):
        # NaN compares false both ways, so the checks are written to fail on it;
        # inf passes the relative negativity check and breaks the accounting
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.125))

        class BadLU:
            def solve(self, rhs):
                return np.full(len(rhs), bad)

        if dim == 1:  # dgtsv(dl, d, du, b) -> du2, d, du, x, info
            target = (lapack, "dgtsv", lambda *a: (*a[:3], BadLU().solve(a[3]), 0))
        else:  # dgbtrs(ab, kl, ku, b, ipiv)
            target = (lapack, "dgbtrs", lambda *a: (BadLU().solve(a[3]), 0))
        with mock.patch.object(*target):
            with pytest.raises(NumericalFailure, match=match):
                solve_fp(FPProblem(sigma=1.0, R=1.0, tau=0.5, source=(0.0,) * dim), g)

    def test_first_order_in_dt_at_high_transport_cfl(self):
        # backward Euler smears transport at CFL 512 (n = 8); the error halves with dt
        ks = []
        for n in (8, 16, 32, 64):
            g = make_grid(GridSpec(1, 1.0, 1 / 256, 8.0, 1 / n))
            sol = solve_fp(FPProblem(sigma=1.0, R=1.0, tau=8.0, drift=(16.0,)), g)
            ks.append(kinetic_energy(sol, 3.0))
        diffs = np.abs(np.diff(ks))
        ratios = diffs[1:] / diffs[:-1]
        assert np.all((0.4 <= ratios) & (ratios <= 0.6)), (ks, ratios)


class TestAgainstKernels:
    def test_interval_image_series(self):
        sol = driftless(1.0, 8.0, 1.0, 0.125, 1 / 256)
        g = sol.grid
        ker = interval_kernel(g.coords[..., 0], 0.0, 8.0, 1.0, 1.0)
        gap = np.sum(np.abs(sol.m.values[-1] - ker)) / np.sum(ker)
        assert gap <= 0.02

    def test_2d_box_kernel_product(self):
        # the absorbing kernel of the square is the product of two interval kernels
        R, tau = 2.0, 0.5
        sol = driftless(1.0, R, tau, 0.125, 1 / 256, dim=2)
        g = sol.grid
        ker = interval_kernel(g.coords[..., 0], 0.0, R, 1.0, tau) * interval_kernel(g.coords[..., 1], 0.0, R, 1.0, tau)
        gap = np.sum(np.abs(sol.m.values[-1] - ker)) / np.sum(ker)
        assert gap <= 0.02
        lost = 1.0 - np.sum(ker) * g.dx ** 2  # about 17% of the mass leaves by tau
        assert abs(sol.outflux[-1] - lost) <= 0.02 * lost

    def test_kernel_vanishes_on_wall(self):
        x = np.array([-8.0, 8.0])
        np.testing.assert_allclose(interval_kernel(x, 0.3, 8.0, 1.0, 1.0), 0.0, atol=1e-15)

    def test_uniform_drift_transport(self):
        # divergence-form sign: center of mass moves by -v*tau
        g = make_grid(GridSpec(1, 8.0, 0.125, 1.0, 1 / 64))
        sol = solve_fp(FPProblem(sigma=0.05, R=8.0, tau=1.0, drift=(2.0,), source=0.0), g)
        m = sol.m.values[-1]
        com = np.sum(g.coords[..., 0] * m) / np.sum(m)
        assert abs(com - (-2.0)) < 0.05


class TestDriftFromSolution:
    def test_constant_w_gives_zero(self):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        b = drift_from_solution(ScalarField.constant(g, 3.0), 1.0, 3.0)
        assert np.all(b.values == 0.0)

    def test_linear_w(self):
        # w = 3x, gamma = 3, h1 = 1: b = 1*3*|3|^1*3 = 27 along x
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        w = ScalarField.from_function(g, lambda x, t: 3.0 * x[..., 0])
        b = drift_from_solution(w, 1.0, 3.0)
        np.testing.assert_allclose(b.values[0, 1:-1, 0], 27.0, rtol=1e-12)

    def test_gamma4_vector_case(self):
        # |Dw| = 2 along (1,1)/sqrt(2), gamma=4, h1=0.5: |b| = 0.5*4*8 = 16
        g = make_grid(GridSpec(2, 1.0, 0.25, 1.0, 0.25))
        w = ScalarField.from_function(g, lambda x, t: np.sqrt(2.0) * (x[..., 0] + x[..., 1]))
        b = drift_from_solution(w, 0.5, 4.0)
        mags = np.sqrt(np.sum(b.values[0, 1:-1, 1:-1] ** 2, axis=-1))
        np.testing.assert_allclose(mags, 16.0, rtol=1e-12)
        direction = b.values[0, 2, 2] / mags[1, 1]
        np.testing.assert_allclose(direction, np.array([1.0, 1.0]) / np.sqrt(2), rtol=1e-12)

    @pytest.mark.parametrize("dim,ball", [(1, False), (2, False), (2, True)])
    def test_is_the_per_level_drift(self, dim, ball):
        g = make_grid(GridSpec(dim, 1.0, 0.125, 0.5, 0.125, ball_mask=ball))
        w = random_field(g, seed=dim + 2 * ball)
        ref = np.zeros((g.n_levels,) + g.shape + (g.dim,))
        for k in range(g.n_levels):
            grad = gradient_level(w.values[k], g.dx)
            fac = 0.75 * 2.5 * np.sqrt(np.sum(grad ** 2, axis=-1)) ** 0.5
            ref[k] = fac[..., None] * grad
        assert np.array_equal(drift_from_solution(w, 0.75, 2.5).values, ref)


class TestKineticEnergy:
    def test_zero_drift(self):
        sol = driftless(1.0, 2.0, 0.5, 0.125, 0.0625)
        assert kinetic_energy(sol, 3.0) == 0.0

    def test_unit_drift_equals_mass_integral(self):
        g = make_grid(GridSpec(1, 2.0, 0.125, 0.5, 0.0625))
        sol = solve_fp(FPProblem(sigma=1.0, R=2.0, tau=0.5, drift=(1.0,), source=0.0), g)
        from hjlab.grid import quadrature_weights

        tw, sw = quadrature_weights(g)
        total_mass = sum(w * float(np.sum(sol.m.values[k] * sw)) for k, w in enumerate(tw))
        assert abs(kinetic_energy(sol, 3.0) - total_mass) < 1e-12

    def test_homogeneity_exact_in_quadrature(self):
        g = make_grid(GridSpec(1, 2.0, 0.125, 0.5, 0.0625))
        sol = solve_fp(FPProblem(sigma=1.0, R=2.0, tau=0.5, drift=(0.7,), source=0.0), g)
        K1 = kinetic_energy(sol, 3.0)
        sol.b = VectorField(g, 2.0 * sol.b.values)
        K2 = kinetic_energy(sol, 3.0)
        assert abs(K2 / K1 - 2.0 ** 1.5) < 1e-12

    def test_refinement_cross_check(self):
        # K from drift-driven run stable under refinement within 2%
        Ks = []
        for dx, dt in ((0.0625, 1 / 128), (0.03125, 1 / 256)):
            g = make_grid(GridSpec(1, 2.0, dx, 0.5, dt))
            w = ScalarField.from_function(g, lambda x, t: 0.5 * np.cos(0.5 * np.pi * x[..., 0]) * (1 - t))
            b = drift_from_solution(w, 1.0, 3.0)
            sol = solve_fp(FPProblem(sigma=1.0, R=2.0, tau=0.5, drift=b, source=0.0), g)
            Ks.append(kinetic_energy(sol, 3.0))
        assert abs(Ks[1] - Ks[0]) / Ks[1] <= 0.02


class TestMomentAlpha:
    def test_reads_the_density_at_tau(self):
        sol = driftless(1.0, 2.0, 0.5, 0.125, 0.0625)
        g = sol.grid
        r = np.sqrt(np.sum((g.coords - sol.source) ** 2, axis=-1))
        rep = moment_alpha(sol, 0.5)
        assert rep.moment == space_integral(g, r ** 0.5 * sol.m.values[-1]) > 0.0
        # no drift: the budget is the diffusion term (sigma*tau)^(alpha/2) alone
        assert rep.fitted_c == rep.moment / (sol.sigma * 0.5) ** 0.25

    def test_gaussian_constant_stable_in_tau(self):
        cs = []
        for tau in (0.25, 0.5, 1.0):
            sol = driftless(1.0, 8.0, tau, 0.125, tau / 128)
            rep = moment_alpha(sol, 0.5)
            cs.append(rep.fitted_c)
        assert max(cs) / min(cs) < 1.25

    def test_pure_transport_moment(self):
        # drift carries the mass distance ~1 by tau: moment ~ 1^(1/2) * mass
        g = make_grid(GridSpec(1, 8.0, 0.125, 1.0, 1 / 64))
        sol = solve_fp(FPProblem(sigma=0.05, R=8.0, tau=1.0, drift=(-1.0,), source=0.0), g)
        rep = moment_alpha(sol, 0.5)
        assert abs(rep.moment - 1.0 * sol.mass[-1]) < 0.1


class TestBoundaryLoss:
    def test_outflux_decreases_in_R(self):
        outs = []
        cs = []
        for R in (4.0, 6.0, 8.0):
            sol = driftless(1.0, R, 1.0, 0.125, 1 / 64)
            rep = boundary_loss_check(sol, 3.0)
            outs.append(rep.outflux)
            cs.append(rep.fitted_c)
        assert outs[0] > outs[1] > outs[2]
        assert all(np.isfinite(c) and c <= 1.0 for c in cs)

    def test_outflux_vanishes_at_small_tau(self):
        sol = driftless(1.0, 4.0, 0.125, 0.125, 0.125 / 16)
        assert sol.outflux[-1] < 1e-8


class TestDriftlessExit:
    """The driftless density at s = tau: its moment about the source and the mass it lost."""

    def test_small_tau_dirac_limits(self):
        # moment ~ (sigma*tau)^(alpha/2) and outflux both head to the Dirac limit 0
        sols = [driftless(1.0, 4.0, tau, 0.0625, tau / 8) for tau in (0.5, 0.125, 0.03125)]
        moments = [moment_alpha(sol, 0.5).moment for sol in sols]
        assert moments[0] > moments[1] > moments[2]
        assert moments[2] < 0.45
        assert sols[2].outflux[-1] < 1e-8

    def test_gaussian_moment_constant(self):
        # sigma=1, R=8, tau=1, alpha=1/2: moment within 20% of the Gaussian value
        sol = driftless(1.0, 8.0, 1.0, 0.125, 1 / 64)
        from math import gamma as g_fn, pi, sqrt

        gauss = (4.0) ** 0.25 * g_fn(0.75) / sqrt(pi)  # E|X|^1/2, X ~ N(0, 2)
        assert abs(moment_alpha(sol, 0.5).moment - gauss) / gauss < 0.20

    def test_moment_stable_under_refinement(self):
        # halving dx and dt moves the alpha = 1/2 moment at s = tau by under 1%
        a, b = (moment_alpha(driftless(1.0, 8.0, 1.0, dx, dx / 16), 0.5).moment for dx in (0.125, 0.0625))
        assert abs(a - b) <= 0.01 * b

    def test_outflux_monotone_in_R_and_tau(self):
        out_R = [driftless(1.0, R, 2.0, 0.25, 1 / 16).outflux[-1] for R in (4.0, 6.0, 8.0)]
        assert out_R[0] > out_R[1] > out_R[2]
        out_tau = [driftless(1.0, 4.0, tau, 0.25, 1 / 16).outflux[-1] for tau in (1.0, 2.0, 4.0)]
        assert out_tau[0] < out_tau[1] < out_tau[2]
