"""The benchmark's workloads: input generation, command lists and output checks.

Each workload is a fixed list of documented `hjlab` commands run in order in a
work directory.  Every command has a check that reads its outputs and compares
them with a reference the repository already has.  A check returns a list of
(name, ratio) pairs, where ratio = deviation / tolerance, so a ratio <= 1
passes; a failed structural condition is reported as an infinite ratio.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from hjlab.cli import main as hjlab_main
from hjlab.fp import interval_kernel
from hjlab.grid import GridSpec, ScalarField, make_grid, write_field_csv

FIELD = "field_solution.csv"  # seminorm_scan input, made at set-up
RUN_SOLUTION = "run_solution.csv"  # dual_budget input of the from-solution drift


# -- output readers -------------------------------------------------------------


def read_rows(path):
    """Rows of a `write_rows` CSV (comment lines, header, data) as dicts."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_field(path):
    """Field CSV as an array of rows (t, x1[, x2], value)."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def fails(name):
    return [(name, math.inf)]


def ratio(name, deviation, tolerance):
    return [(name, float(deviation) / tolerance)]


# -- checks ---------------------------------------------------------------------


def check_manufactured_sine(out):
    """Max error against u = sin(pi x1)(T - t), T = 1, within 8 dx.

    The scheme is first order; 8 dx leaves room over the largest constant seen
    at these grids (error / dx = 5.5 for the 1D README solve).  Each logged
    substep's linear residual must stay within the documented 1e-12.
    """
    rows = read_field(f"{out}_solution.csv")
    t, x1, u = rows[:, 0], rows[:, 1], rows[:, -1]
    dx = float(np.min(np.diff(np.unique(x1))))
    err = np.max(np.abs(u - np.sin(np.pi * x1) * (1.0 - t)))
    log = read_rows(f"{out}_iterations.csv")
    res = max(float(r["linear_residual"]) for r in log)
    return ratio(f"{out}.ms_sine_error", err, 8.0 * dx) + ratio(f"{out}.linear_residual", res, 1e-12)


def check_sweep(out):
    rows = read_rows(f"{out}_sweep.csv")
    ok = len(rows) == 12 and all(
        r["status"] == "ok" and math.isfinite(float(r["ratio"])) for r in rows
    )
    return [] if ok else fails(f"{out}.status")


def _field_lookup(field_rows):
    return {(r[0], r[1]): r[-1] for r in field_rows}


def check_seminorm(out, field_rows, alpha=0.5, gamma=3.0, z=1.0, c=1.0):
    """Each reported seminorm recomputed from the field at its argmax pair.

    The pair quotients are formed here from the input CSV (cylinder = whole
    grid, T = 1, box [-1, 1]); relative tolerance 1e-12.  All four members
    must be exact (every pair scanned) and non-degenerate.
    """
    val = _field_lookup(field_rows)
    res = {r["seminorm"]: r for r in read_rows(f"{out}_seminorms.csv")}
    checks = []

    def dist(x, t):  # kind-d distance to the backward boundary
        return (1.0 - abs(x)) + math.sqrt(1.0 - t)

    def dist_alpha(x, t):
        return (1.0 - abs(x)) ** alpha + (1.0 - t) ** (alpha / gamma)

    for name in ("classical", "weighted", "nl_space", "nl_time"):
        r = res[name]
        if r["exact"] != "1" or r["degenerate"] != "0":
            checks += fails(f"{out}.{name}.exact")
            continue
        x, t, xb, tb = float(r["x"]), float(r["t"]), float(r["x_bar"]), float(r["t_bar"])
        du = abs(val[(t, x)] - val[(tb, xb)])
        if name == "classical":
            ref = du / (abs(x - xb) + math.sqrt(abs(t - tb))) ** alpha
        elif name == "weighted":
            q = du / (abs(x - xb) + math.sqrt(abs(t - tb))) ** alpha
            ref = min(dist(x, t), dist(xb, tb)) ** c * q
        elif name == "nl_space":
            ref = min(dist_alpha(x, t), dist_alpha(xb, tb)) * du / abs(x - xb) ** alpha
        else:
            w = min(dist_alpha(x, t), dist_alpha(xb, tb)) ** (gamma / 2)
            ref = w * du / abs(t - tb) ** (alpha / 2)
        checks += ratio(f"{out}.{name}", abs(float(r["value"]) - ref), 1e-12 * abs(ref))
    comb = max(float(res["nl_space"]["value"]), (float(res["nl_time"]["value"]) / z) ** (2 / gamma))
    checks += ratio(
        f"{out}.nl_combined", abs(float(res["nl_combined"]["value"]) - comb), 1e-12 * comb
    )
    return checks


def check_blowup(out, field_rows, kind):
    """Rescaled field and selection data of one blow-up.

    M * w(0, 0) must reproduce u at the basepoint (the rescaling is
    w(y, s) = u(xbar + r y, tbar + lambda s) / M), the sandwich
    L <= quotient <= 2L must hold, and for the space kind the selected pair
    must be normalized to quotient 1.
    """
    val = _field_lookup(field_rows)
    p = read_rows(f"{out}_blowup.csv")[0]
    w = read_field(f"{out}_rescaled.csv")
    if not np.all(np.isfinite(w[:, -1])):
        return fails(f"{out}.rescaled_finite")
    at_origin = (w[:, 0] == 0.0) & (w[:, 1] == 0.0)
    u_base = val[(float(p["t_bar"]), float(p["x_bar"]))]
    dev = abs(float(p["M"]) * float(w[at_origin, -1][0]) - u_base)
    checks = ratio(f"{out}.basepoint", dev, 1e-12 * max(1.0, abs(u_base)))
    L, q = float(p["sandwich_L"]), float(p["sandwich_quotient"])
    if not (0 < L <= q <= 2 * L):
        checks += fails(f"{out}.sandwich")
    if kind == "space":
        checks += ratio(f"{out}.normalization", abs(float(p["normalization"]) - 1.0), 1e-9)
    return checks


def check_duality(out):
    """The duality residual shrinks with every refinement."""
    res = [abs(float(r["residual"])) for r in read_rows(f"{out}_duality.csv")]
    if len(res) != 4:
        return fails(f"{out}.levels")
    return ratio(f"{out}.residual_decay", max(b / a for a, b in zip(res, res[1:])), 1.0)


def check_oscillation(out):
    row = read_rows(f"{out}_oscillation.csv")[0]
    ok = row["r2_ok"] == "1" and all(
        math.isfinite(float(v)) for k, v in row.items() if k != "config"
    )
    return [] if ok else fails(f"{out}.finite")


def check_liouville(out):
    """Measured oscillation does not grow along tau = 4, 16, 64 (5% slack)."""
    osc = [float(r["measured_osc"]) for r in read_rows(f"{out}_liouville.csv")]
    return ratio(f"{out}.decay", max(b / (1.05 * a) for a, b in zip(osc, osc[1:])), 1.0)


def check_fp(out):
    """mass + outflux = 1 to 1e-8 at every level, and a nonnegative density."""
    series = read_rows(f"{out}_mass.csv")
    defect = max(abs(float(r["mass"]) + float(r["outflux"]) - 1.0) for r in series)
    func = read_rows(f"{out}_functionals.csv")[0]
    checks = ratio(f"{out}.mass_outflux", defect, 1e-8)
    if not float(func["min_density"]) >= 0.0:
        checks += fails(f"{out}.min_density")
    return checks


def check_heat_kernel(out):
    """Driftless density at s = 1 against the absorbing interval kernel (2% L1)."""
    rows = read_field(f"{out}_density.csv")
    last = rows[rows[:, 0] == 1.0]
    ker = interval_kernel(last[:, 1], 0.0, 8.0, 1.0, 1.0)
    gap = np.sum(np.abs(last[:, -1] - ker)) / np.sum(ker)
    return check_fp(out) + ratio(f"{out}.heat_kernel_gap", gap, 0.02)


def check_ldiff(out):
    rows = read_rows(f"{out}_ldiff.csv")
    checks = ratio(
        f"{out}.fitted_over_cap", max(float(r["fitted_c"]) / float(r["cap"]) for r in rows), 1.0
    )
    if not all(r["within_cap"] == "1" for r in rows):
        checks += fails(f"{out}.within_cap")
    return checks


# -- set-up -----------------------------------------------------------------------


def seeded_forcing(seed):
    """A smooth forcing bump with seeded centre, width, timing and height.

    The bump stays near the middle of [-1, 1] and away from t = 1, so the
    worst pairs of the blow-up selections, and their rescaled boxes, stay
    inside the grid for every seed.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.1, 0.1)
    width = rng.uniform(0.1, 0.2)
    t0 = rng.uniform(0.3, 0.5)
    span = rng.uniform(0.08, 0.15)
    height = rng.uniform(2.0, 4.0)
    grid = make_grid(GridSpec(1, 1.0, 1 / 32, 1.0, 1 / 128))
    return ScalarField.from_function(
        grid,
        lambda x, t: height
        * np.exp(-0.5 * ((x[..., 0] - x0) / width) ** 2)
        * np.exp(-0.5 * ((t - t0) / span) ** 2),
    )


def _run(argv):
    rc = hjlab_main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit {rc}: hjlab {' '.join(argv)}")


def setup_hj_march(seed):
    """No input files; the commands have no random input."""


def setup_seminorm_scan(seed):
    """8385-node field: the HJ solution for a seeded forcing on the same grid."""
    write_field_csv(seeded_forcing(seed), "forcing.csv")
    _run(["solve-hj", "--grid", "1,1,1/32,1,1/128", "--f-file", "forcing.csv", "--out", "field"])


def setup_dual_budget(seed):
    """The README solve-hj output that the README from-solution drift reads."""
    _run(["solve-hj", "--grid", "1,1,1/64,1,1/256", "--manufactured", "sine", "--out", "run"])


# -- workloads ----------------------------------------------------------------------


def hj_march(seed):
    return [
        (["solve-hj", "--grid", "2,1,1/16,1,1/32", "--manufactured", "sine", "--out", "hj2"],
         lambda: check_manufactured_sine("hj2")),
        (["solve-hj", "--grid", "1,1,1/64,1,1/256", "--manufactured", "sine", "--out", "run"],
         lambda: check_manufactured_sine("run")),
        (["sweep-maxreg", "--q-list", "1.6,2.4", "--eps-list", "1/4,1/8,1/16",
          "--dx-list", "1/64,1/128", "--out", "sw"],
         lambda: check_sweep("sw")),
    ]


def seminorm_scan(seed):
    field = read_field(FIELD)
    return [
        (["seminorm", "--field", FIELD, "--alpha", "0.5", "--gamma", "3", "--z", "1", "--c", "1",
          "--out", "sn"],
         lambda: check_seminorm("sn", field)),
        (["blowup", "--field", FIELD, "--kind", "weighted", "--alpha", "0.75",
          "--target", "1,1,0.125,1,0.5", "--out", "blw"],
         lambda: check_blowup("blw", field, "weighted")),
        (["blowup", "--field", FIELD, "--kind", "space", "--alpha", "0.75",
          "--target", "1,1,0.125,1/32,1/64", "--out", "bls"],
         lambda: check_blowup("bls", field, "space")),
    ]


def dual_budget(seed):
    return [
        (["verify-duality", "--refinements", "3", "--out", "dual"],
         lambda: check_duality("dual")),
        (["verify-oscillation", "--R", "8", "--tau", "4", "--dx", "0.125", "--dt", "0.0625",
          "--out", "osc"],
         lambda: check_oscillation("osc")),
        (["liouville-probe", "--R-list", "8", "--tau-list", "4,16,64", "--dx", "1/8",
          "--dt", "1/16", "--out", "lp"],
         lambda: check_liouville("lp")),
        (["solve-fp", "--grid", "1,1/8,1/256", "--R", "8", "--tau", "1", "--drift", "zero",
          "--source", "0", "--out", "fp"],
         lambda: check_heat_kernel("fp")),
        (["ldiff", "--gamma-conj", "1.1,1.3,1.5,1.7,1.9", "--samples", "100000",
          "--seed", str(seed), "--out", "ld"],
         lambda: check_ldiff("ld")),
        (["solve-fp", "--grid", "1,1/256,1/8", "--R", "1", "--tau", "8", "--drift", "uniform:16",
          "--out", "fps"],
         lambda: check_fp("fps")),
        # README example; exits 2 today (drift lives on the HJ grid, not the FP grid)
        # and is counted as a failed operation.
        (["solve-fp", "--grid", "1,1/16,1/64", "--R", "1", "--tau", "1",
          "--drift", f"from-solution:{RUN_SOLUTION},3,1", "--source", "0", "--out", "fpw"],
         lambda: check_fp("fpw")),
    ]


# name -> (set-up, command list with checks, what the seed sets)
WORKLOADS = {
    "hj_march": (setup_hj_march, hj_march, "nothing: hj_march has no random input"),
    "seminorm_scan": (setup_seminorm_scan, seminorm_scan, "the forcing behind the scanned field"),
    "dual_budget": (setup_dual_budget, dual_budget, "ldiff --seed"),
}
