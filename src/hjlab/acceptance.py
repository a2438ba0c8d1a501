"""The acceptance gate: the 11 criteria behind the lab's claims, in one registry.

CRITERIA is an ordered list of (number, name, check).  Each check runs at
the stated tolerances with fixed seeds, raises on failure and returns a
detail string.  tests/test_acceptance.py runs them under pytest and
`hjlab selftest` runs them from the command line.  The checks raise through
check(), not assert, so that `python -O` cannot strip them.
"""

import time

import numpy as np

from .grid import Grid, GridSpec, ScalarField, make_grid
from .hj import (
    HJProblem,
    alpha_zero,
    critical_q0,
    gamma_conjugate,
    legendre_gap,
    linf_error,
    ms_sine,
    solve_hj,
    solve_manufactured,
    time_pair_exponent,
)
from .fp import FPProblem, interval_kernel, solve_fp
from .dual import bent_duality, duality_identity, ell_constant, ldiff_cap, ldiff_constant, manufactured_pair
from .scalelab import (
    BlowupParams,
    blowup_transform,
    closed_form_decay_budget,
    inverse_blowup_transform,
    liouville_probe,
    maxreg_sweep,
    normalization_check,
    worst_pair_selection,
)
from .seminorm import MEMBERS, member_scan, oracle


def check(cond, msg: str) -> None:
    """Raise AssertionError(msg) unless cond holds; unlike assert, kept under -O."""
    if not cond:
        raise AssertionError(msg)


def random_field(grid: Grid, seed: int, scale: float = 1.0) -> ScalarField:
    """Seeded standard-normal values (times scale) at active nodes, 0 elsewhere."""
    rng = np.random.default_rng(seed)
    vals = scale * rng.normal(size=(grid.n_levels,) + grid.shape)
    vals[:, ~grid.active] = 0.0
    return ScalarField(grid, vals)


def manufactured_hj_convergence():
    t0 = time.time()
    ms = ms_sine(1.0)
    dxs = [1 / 32, 1 / 64, 1 / 128]
    errs = []
    for dx in dxs:
        grid = make_grid(GridSpec(1, 1.0, dx, 1.0, dx / 4))
        sol = solve_manufactured(ms, 3.0, 1.0, grid, gradient_bound=np.pi)
        errs.append(linf_error(sol.u, ms.u))
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    elapsed = time.time() - t0
    check(slope >= 0.9, f"fitted order {slope} < 0.9 (errors {errs})")
    check(elapsed < 120.0, f"runtime {elapsed}s exceeds 2 minutes")
    # zeroth order: constants are exact fixed points of the scheme
    grid = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
    prob = HJProblem(gamma=3, sigma=1.0, h0=1.0, h1=1.0, f=0.0, terminal=5.0, lateral=5.0)
    const_err = float(np.max(np.abs(solve_hj(prob, grid).u.values - 5.0)))
    check(const_err < 1e-12, f"constant 5 moved by {const_err}")
    return f"order {slope:.3f}, {elapsed:.1f}s; constant error {const_err:.1e}"


def fp_conservation_battery():
    runs = [
        (GridSpec(1, 2.0, 0.125, 1.0, 0.0625), dict(sigma=1.0, R=2.0, tau=1.0, drift=None, source=0.0)),
        (GridSpec(1, 2.0, 0.125, 1.0, 0.0625), dict(sigma=0.3, R=2.0, tau=1.0, drift=(1.5,), source=0.25)),
        (
            GridSpec(1, 4.0, 0.25, 2.0, 0.125),
            dict(sigma=1.0, R=4.0, tau=2.0, drift=lambda x, t: np.stack([np.sin(x[..., 0])], axis=-1), source=-0.5),
        ),
        (GridSpec(2, 1.0, 0.125, 0.25, 0.03125), dict(sigma=1.0, R=1.0, tau=0.25, drift=(0.4, -0.3), source=(0.0, 0.0))),
        (GridSpec(2, 1.0, 0.125, 0.25, 0.03125, ball_mask=True), dict(sigma=1.0, R=1.0, tau=0.25, drift=None, source=(0.0, 0.0))),
        # strong drift: transport CFL |b| dt / dx = 512
        (GridSpec(1, 1.0, 1 / 64, 1.0, 0.5), dict(sigma=1.0, R=1.0, tau=1.0, drift=(16.0,), source=0.0)),
    ]
    worst_defect = 0.0
    for spec, kw in runs:
        sol = solve_fp(FPProblem(**kw), make_grid(spec))
        defect = sol.conservation_defect
        worst_defect = max(worst_defect, defect)
        check(defect <= 1e-8, f"mass accounting defect {defect} in {kw}")
        check(sol.min_density() >= 0.0, f"negative density {sol.min_density()} in {kw}")
    return f"worst defect {worst_defect:.2e}"


def heat_kernel_regression():
    grid = make_grid(GridSpec(1, 8.0, 1 / 8, 1.0, 1 / 256))
    sol = solve_fp(FPProblem(sigma=1.0, R=8.0, tau=1.0, drift=None, source=0.0), grid)
    ker = interval_kernel(grid.coords[..., 0], 0.0, 8.0, 1.0, 1.0)
    gap = float(np.sum(np.abs(sol.m.values[-1] - ker)) / np.sum(ker))
    check(gap <= 0.02, f"relative L1 gap {gap} > 2%")
    return f"gap {gap:.4f}"


def duality_identity_and_bent_slack():
    dxs = [1 / 16, 1 / 32, 1 / 64]
    resids, slack_c = [], []
    ell0 = ell_constant(1.0, 3.0)
    for dx in dxs:
        w, f, sol = manufactured_pair(0.5, dx)
        rep = duality_identity(w, f, sol, 1.0, 3.0)
        resids.append(abs(rep.residual))
        brep = bent_duality(w, f, sol, [1.0], 3.0, ell0)
        slack_c.append(max(0.0, -brep.slack) / (dx + dx / 4))
    slope = np.polyfit(np.log(dxs), np.log(resids), 1)[0]
    check(slope >= 0.9, f"duality residual slope {slope} < 0.9 (residuals {resids})")
    # bent slack >= -C(dx + dt) with refinement-stable C
    cap = max(slack_c[0], 1e-6)
    check(all(c <= 2.0 * cap for c in slack_c), f"bent slack constants unstable: {slack_c}")
    return f"residual slope {slope:.3f}; bent slack constants {slack_c}"


def seminorm_oracle_equivalence():
    specs = [
        GridSpec(1, 1.0, 0.25, 1.0, 0.25),
        GridSpec(1, 1.0, 0.125, 1.0, 0.5),
        GridSpec(1, 0.5, 0.125, 1.0, 0.25),
        GridSpec(2, 1.0, 0.5, 1.0, 0.25),
        GridSpec(2, 1.0, 0.5, 1.0, 0.5, ball_mask=True),
    ]
    checked = 0
    for i in range(20):
        g = make_grid(specs[i % len(specs)])
        n_nodes = int(g.active.sum()) * g.n_levels
        check(n_nodes <= 10 ** 4, f"{n_nodes} space-time nodes exceed the oracle budget of 1e4")
        u = random_field(g, seed=500 + i)
        alpha = (0.3, 0.5, 0.7)[i % 3]
        gamma = (2.5, 3.0, 4.0)[i % 3]
        c = (0.0, 1.0, 2.0)[i % 3]
        for name in MEMBERS:
            fast = member_scan(name, u, alpha, gamma, c)
            slow = oracle(name, u, alpha, gamma, c)
            check(
                (fast.value, fast.pair, fast.degenerate) == (slow.value, slow.pair, slow.degenerate),
                f"field {i}, {name}: fast {fast.value} at {fast.pair} != oracle {slow.value} at {slow.pair}",
            )
        checked += 1
    check(checked >= 20, f"only {checked} random fields checked")
    return f"{checked} random fields"


def ldiff_cap_check():
    t0 = time.time()
    for gc in (1.1, 1.3, 1.5, 1.7, 1.9):
        fitted = ldiff_constant(gc, 100000, seed=0)
        cap = ldiff_cap(gc)
        check(fitted <= cap, f"gamma'={gc}: fitted {fitted} > cap {cap}")
    elapsed = time.time() - t0
    check(elapsed < 10.0, f"ldiff runtime {elapsed}s >= 10s")
    return f"{elapsed:.2f}s"


def legendre_gap_check():
    rng = np.random.default_rng(2024)
    ps = rng.normal(scale=1.5, size=(100, 1))
    for h, g in ((1.0, 3.0), (1.0, 4.0), (2.0, 3.0)):
        gap = legendre_gap(h, g, ps)
        check(gap <= 1e-12 * h * float(np.max(np.abs(ps))) ** g, f"(h={h}, gamma={g}): gap {gap}")
    return "gap <= 1e-12 * max h|p|^gamma"


def liouville_decay():
    # closed form on a 5x5 (alpha, gamma) grid
    for a in np.linspace(0.1, 0.9, 5):
        for g in np.linspace(2.2, 6.0, 5):
            vals = [closed_form_decay_budget(t, a, g) for t in (4.0, 16.0, 64.0)]
            check(vals[0] > vals[1] > vals[2], f"budget not decreasing at alpha={a}, gamma={g}")
    # measured oscillation of the homogeneous solve at R = 8
    rows = liouville_probe(1.0, 3.0, 0.5, [8.0], [4.0, 16.0, 64.0], dx=1 / 8, dt=1 / 16, amplitude=1.0)
    osc = [r["measured_osc"] for r in rows]
    check(osc[1] <= 1.05 * osc[0] and osc[2] <= 1.05 * osc[1], f"oscillation ladder {osc}")
    return f"measured oscillation {['%.2e' % o for o in osc]}"


def exponent_identities():
    rng = np.random.default_rng(99)
    for _ in range(50):
        g = 2.0 + 1e-9 + 8.0 * rng.random()
        N = int(rng.integers(1, 3))
        gc = gamma_conjugate(g)
        q0 = critical_q0(g, N)
        check(abs(q0 * gc - (N + 2)) <= 1e-12 * (N + 2), f"q0 * gamma' = {q0 * gc} at gamma={g}, N={N}")
        check(abs(alpha_zero(g) - (2.0 - gc)) <= 1e-12, f"alpha0 = {alpha_zero(g)} at gamma={g}")
    for _ in range(20):
        M = 10.0 ** rng.uniform(-6, 6)
        g = 2.0 + 1e-9 + 8.0 * rng.random()
        check(abs(time_pair_exponent(M, g) - M) <= 1e-12 * M, f"time-pair exponent at M={M}, gamma={g}")
    return "at 1e-12 relative"


def maxreg_sweep_smoke():
    t0 = time.time()
    check(critical_q0(3.0, 1) == 2.0, f"critical_q0(3, 1) = {critical_q0(3.0, 1)}, want 2")
    rows = maxreg_sweep([1.6, 2.4], [1 / 4, 1 / 8, 1 / 16], 3.0, [1 / 64, 1 / 128])
    elapsed = time.time() - t0
    check(elapsed < 600.0, f"sweep runtime {elapsed}s exceeds 10 minutes")
    check(len(rows) == 12, f"{len(rows)} sweep rows, want 12")
    check(all(r["status"] == "ok" for r in rows), f"statuses {[r['status'] for r in rows]}")
    above = [r["ratio"] for r in rows if r["q"] == 2.4]
    check(max(above) / min(above) <= 2.0, f"q=2.4 ratio spread {max(above)/min(above)}")
    below = [(r["epsilon"], r["dx"], r["ratio"]) for r in rows if r["q"] == 1.6]
    # sub-q0 column: emitted and its growth trend flagged, not asserted
    by_dx = {}
    for eps, dx, ratio in below:
        by_dx.setdefault(dx, []).append((eps, ratio))
    growth_flags = []
    for dx, pairs in by_dx.items():
        pairs.sort(reverse=True)  # sharpening epsilon
        ratios = [r for _, r in pairs]
        growth_flags.append(ratios[-1] > ratios[0])
    return f"{elapsed:.1f}s; q=2.4 spread {max(above)/min(above):.3f}; q=1.6 growth flagged: {growth_flags}"


def blowup_roundtrip_and_normalization():
    # inverse-transform reproduction on grid-aligned parameters
    g = make_grid(GridSpec(1, 2.0, 0.125, 2.0, 0.125))
    u = random_field(g, seed=77)
    p = BlowupParams(basepoint_x=[0.0], basepoint_t=0.0, M=0.5, r=0.5, variant="alpha0", gamma=3.0)
    res = blowup_transform(u, p, GridSpec(1, 2.0, 0.25, 2.0, 0.25))
    back_grid = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.125))
    back = inverse_blowup_transform(res.w, p, back_grid)
    sl = g.subgrid_slices(1.0)
    ref = u.values[(slice(0, back_grid.n_levels),) + sl]
    rt_err = float(np.max(np.abs(back.values - ref)))
    check(rt_err <= 1e-10, f"round-trip error {rt_err}")

    # selection sandwich and driven normalization
    gb = make_grid(GridSpec(1, 2.0, 0.125, 4.0, 0.125))
    ub = ScalarField.from_function(gb, lambda x, t: np.exp(-2.0 * x[..., 0] ** 2) * (1.0 + 0.3 * t))
    a0 = alpha_zero(3.0)
    z = 2.0
    norms = {}
    for kind, target in (("space", 1.0), ("time", z)):
        bp = worst_pair_selection(ub, kind, a0, z, 3.0)
        L, quot, twoL = bp.sandwich
        check(L <= quot <= twoL and quot == twoL, "sandwich not exact")
        n = max(2, int(round(1.0 / (0.125 / bp.r))))
        smax = 1.0 if kind == "time" else min(1.0, (gb.spec.horizon - bp.basepoint_t) / bp.time_scale)
        tspec = GridSpec(1, 1.0, 1.0 / n, smax, smax / 2)
        w = blowup_transform(ub, bp, tspec).w
        val = normalization_check(w, bp)
        check(abs(val - target) <= 1e-12 * max(1.0, target), f"{kind}: {val} != {target}")
        norms[kind] = val
    return f"round trip {rt_err:.1e}; normalization {norms}"


CRITERIA = [
    (1, "manufactured_hj_convergence", manufactured_hj_convergence),
    (2, "fp_conservation_battery", fp_conservation_battery),
    (3, "heat_kernel_regression", heat_kernel_regression),
    (4, "duality_identity_and_bent_slack", duality_identity_and_bent_slack),
    (5, "seminorm_oracle_equivalence", seminorm_oracle_equivalence),
    (6, "ldiff_cap", ldiff_cap_check),
    (7, "legendre_gap", legendre_gap_check),
    (8, "liouville_decay", liouville_decay),
    (9, "exponent_identities", exponent_identities),
    (10, "maxreg_sweep_smoke", maxreg_sweep_smoke),
    (11, "blowup_roundtrip_and_normalization", blowup_roundtrip_and_normalization),
]
