"""Batch CLI: subcommand dispatch, key=value configs, manifests, CSV emission.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.  Identical config + seed reproduce byte-identical CSVs; every data
row carries the config hash.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

import numpy as np

from . import __version__
from .grid import (
    Cylinder,
    GridSpec,
    NumericalFailure,
    make_grid,
    read_field_csv,
    write_field_csv,
)
from .hj import (
    MANUFACTURED,
    HJProblem,
    alpha_zero,
    critical_q0,
    gamma_conjugate,
    manufactured_rhs,
    solve_hj,
)
from .fp import (
    FPProblem,
    boundary_loss_check,
    drift_from_solution,
    kinetic_energy,
    moment_alpha,
    solve_fp,
)
from .dual import (
    bent_duality,
    duality_identity,
    ell_constant,
    ldiff_cap,
    ldiff_constant,
    manufactured_pair,
    oscillation_report,
)
from .scalelab import liouville_probe, maxreg_sweep, normalization_check, worst_pair_selection
from .seminorm import (
    SeminormSet,
    combine_nonlinear,
    oracle_classical,
    oracle_nl_space,
    oracle_nl_time,
    oracle_weighted,
    seminorm_set,
)

_DEFAULTS = {
    "gamma": 3.0,
    "sigma": 1.0,
    "h0": 1.0,
    "h1": 1.0,
    "alpha": 0.5,
    "z": 1.0,
    "c": 0.0,
    "dim": 1,
    "R": 1.0,
    "tau": 1.0,
    "dx": 0.125,
    "dt": 0.03125,
    "seed": 0,
    "q": 2.0,
}

_INT_KEYS = {"dim", "seed"}


def parse_config(text: str) -> dict:
    """key=value lines -> fully resolved parameter set with derived exponents."""
    params = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ValueError(f"unknown key {key!r}")
        params[key] = int(val) if key in _INT_KEYS else parse_number(val)
    validate_params(params)
    params["gamma_conj"] = gamma_conjugate(params["gamma"])
    params["q0"] = critical_q0(params["gamma"], params["dim"])
    params["alpha0"] = alpha_zero(params["gamma"])
    return params


def validate_params(p: dict):
    if p["gamma"] <= 2:
        raise ValueError("gamma must exceed 2")
    if p["h0"] <= 0:
        raise ValueError("h0 must be positive")
    if p["h1"] < p["h0"]:
        raise ValueError("h1 must be >= h0")
    if not (0 < p["sigma"] <= 1):
        raise ValueError("sigma must lie in (0, 1]")
    if not (0 < p["alpha"] <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if p["z"] <= 0:
        raise ValueError("z must be positive")
    if p["dx"] <= 0:
        raise ValueError("dx must be positive")
    if p["dt"] <= 0:
        raise ValueError("dt must be positive")


def parse_number(s: str) -> float:
    """Decimal or a/b fraction."""
    s = s.strip()
    if "/" in s:
        a, b = s.split("/", 1)
        return float(a) / float(b)
    return float(s)


def parse_list(s: str) -> list[float]:
    return [parse_number(tok) for tok in s.split(",") if tok.strip()]


def config_hash(params: dict) -> str:
    canon = "\n".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    return str(v)


def write_rows(path, colnames, rows, chash, comments=()):
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"# config: {chash}\n")
        fh.write(",".join(list(colnames) + ["config"]) + "\n")
        for row in rows:
            vals = [fmt(row[c]) for c in colnames]
            fh.write(",".join(vals + [chash]) + "\n")


def write_manifest(path, sub, params, chash, seed, outputs, elapsed):
    with open(path, "w") as fh:
        fh.write(f"subcommand={sub}\n")
        fh.write(f"config_hash={chash}\n")
        fh.write(f"seed={seed}\n")
        fh.write(f"version={__version__}\n")
        fh.write(f"numpy={np.__version__}\n")
        for k in sorted(params):
            fh.write(f"{k}={fmt(params[k])}\n")
        fh.write(f"elapsed_s={elapsed:.3f}\n")
        for out in outputs:
            fh.write(f"output={out}\n")


def _grid_from_arg(spec: str) -> GridSpec:
    vals = spec.split(",")
    if len(vals) != 5:
        raise ValueError("--grid wants 'N,R,dx,T,dt'")
    return GridSpec(
        dim=int(vals[0]),
        half_width=parse_number(vals[1]),
        dx=parse_number(vals[2]),
        horizon=parse_number(vals[3]),
        dt=parse_number(vals[4]),
    )


# -- subcommands -------------------------------------------------------------------


def cmd_solve_hj(args, params, chash):
    spec = _grid_from_arg(args.grid)
    grid = make_grid(spec)
    g, s = params["gamma"], params["sigma"]
    h0, h1 = params["h0"], params["h1"]
    R = spec.half_width
    if args.h_profile == "cosine":
        h = lambda x, t: h0 + (h1 - h0) * 0.5 * (1 + np.cos(np.pi * x[..., 0] / R))
    else:
        h = h0
    if args.manufactured:
        ms = MANUFACTURED[args.manufactured](spec.horizon)
        prob = HJProblem(
            gamma=g, sigma=s, h0=h0, h1=h1, h=h,
            f=manufactured_rhs(ms, g, s, h),
            terminal=ms.terminal(spec.horizon), lateral=ms.lateral(),
        )
    elif args.f_file:
        prob = HJProblem(gamma=g, sigma=s, h0=h0, h1=h1, h=h, f=read_field_csv(args.f_file))
    else:
        prob = HJProblem(gamma=g, sigma=s, h0=h0, h1=h1, h=h, f=0.0)
    sol = solve_hj(prob, grid)
    out_field = f"{args.out}_solution.csv"
    with open(out_field, "w") as fh:
        fh.write(f"# config: {chash}\n")
        write_field_csv(sol.u, fh)
    out_log = f"{args.out}_iterations.csv"
    cols = ["t_from", "t_to", "dt", "halvings", "linear_residual", "godunov_max"]
    write_rows(out_log, cols, sol.log, chash)
    return [out_field, out_log]


def _parse_drift(spec: str):
    if spec == "zero":
        return None
    if spec.startswith("uniform:"):
        return tuple(parse_list(spec.split(":", 1)[1]))
    if spec.startswith("from-solution:"):
        fname, g, h1 = spec.split(":", 1)[1].split(",")
        return drift_from_solution(read_field_csv(fname), parse_number(h1), parse_number(g))
    raise ValueError(f"unknown drift spec {spec!r}")


def cmd_solve_fp(args, params, chash):
    vals = args.grid.split(",")
    if len(vals) != 3:
        raise ValueError("--grid wants 'N,dx,dt' (R, tau from their own flags)")
    spec = GridSpec(
        dim=int(vals[0]),
        half_width=params["R"],
        dx=parse_number(vals[1]),
        horizon=params["tau"],
        dt=parse_number(vals[2]),
    )
    grid = make_grid(spec)
    drift = _parse_drift(args.drift)
    source = parse_list(args.source)
    prob = FPProblem(sigma=params["sigma"], R=params["R"], tau=params["tau"], drift=drift, source=source)
    sol = solve_fp(prob, grid)
    outputs = []
    out_density = f"{args.out}_density.csv"
    with open(out_density, "w") as fh:
        fh.write(f"# config: {chash}\n")
        write_field_csv(sol.m, fh)
    outputs.append(out_density)
    series = [
        {"s": float(t), "mass": float(sol.mass[k]), "outflux": float(sol.outflux[k])}
        for k, t in enumerate(grid.ts)
    ]
    out_series = f"{args.out}_mass.csv"
    write_rows(out_series, ["s", "mass", "outflux"], series, chash)
    outputs.append(out_series)
    g = params["gamma"]
    K = kinetic_energy(sol, g)
    mom = moment_alpha(sol, params["alpha"])
    bl = boundary_loss_check(sol, g)
    func_rows = [
        {
            "kinetic": K,
            "moment": mom.moment,
            "moment_fitted_c": mom.fitted_c,
            "outflux": bl.outflux,
            "boundary_fitted_c": bl.fitted_c,
            "conservation_defect": sol.conservation_defect,
            "min_density": sol.min_density(),
        }
    ]
    out_func = f"{args.out}_functionals.csv"
    write_rows(out_func, list(func_rows[0].keys()), func_rows, chash)
    outputs.append(out_func)
    return outputs


def _sub_cyl(arg: str, dim: int) -> Cylinder | None:
    if not arg:
        return None
    v = parse_list(arg)
    if dim == 1 and len(v) == 4:
        return Cylinder(xmin=(v[0],), xmax=(v[1],), t0=v[2], t1=v[3])
    if dim == 2 and len(v) == 6:
        return Cylinder(xmin=(v[0], v[2]), xmax=(v[1], v[3]), t0=v[4], t1=v[5])
    raise ValueError("--sub-cylinder wants xlo,xhi[,ylo,yhi],t0,t1")


def cmd_seminorm(args, params, chash):
    u = read_field_csv(args.field)
    Q = _sub_cyl(args.sub_cylinder, u.grid.dim)
    a, z, g, c = params["alpha"], params["z"], params["gamma"], params["c"]
    if args.oracle:
        nl_s = oracle_nl_space(u, a, g, Q)
        nl_t = oracle_nl_time(u, a, g, Q)
        members = SeminormSet(
            classical=oracle_classical(u, a, Q),
            weighted=oracle_weighted(u, a, c, Q),
            nl_space=nl_s,
            nl_time=nl_t,
            nl_combined=combine_nonlinear(nl_s.value, nl_t.value, z, g),
        )
    else:
        members = seminorm_set(u, a, g, z, c, Q)

    def coord(xs):
        return ";".join("%.17g" % v for v in xs)

    rows = []
    for name in ("classical", "weighted", "nl_space", "nl_time"):
        res = getattr(members, name)
        pair = res.pair or (((np.nan,) * u.grid.dim, np.nan), ((np.nan,) * u.grid.dim, np.nan))
        rows.append(
            {
                "seminorm": name,
                "value": res.value,
                "exact": int(res.exact),
                "degenerate": int(res.degenerate),
                "x": coord(pair[0][0]),
                "t": pair[0][1],
                "x_bar": coord(pair[1][0]),
                "t_bar": pair[1][1],
                "pairs_evaluated": res.pairs_evaluated,
            }
        )
    rows.append(
        {
            "seminorm": "nl_combined",
            "value": members.nl_combined,
            "exact": 1,
            "degenerate": 0,
            "x": "",
            "t": np.nan,
            "x_bar": "",
            "t_bar": np.nan,
            "pairs_evaluated": 0,  # formed from the two nonlinear members
        }
    )
    out = f"{args.out}_seminorms.csv"
    cols = ["seminorm", "value", "exact", "degenerate", "x", "t", "x_bar", "t_bar", "pairs_evaluated"]
    write_rows(out, cols, rows, chash)
    return [out]


def cmd_verify_duality(args, params, chash):
    g, s, h = params["gamma"], params["sigma"], params["h0"]
    rows = []
    dx = params["dx"]
    for level in range(args.refinements + 1):
        w, f, mm = manufactured_pair(args.amplitude, dx, g, s, h, params["tau"])
        rep = duality_identity(w, f, mm, h, g)
        brep = bent_duality(w, f, mm, np.array([1.0]), g, ell_constant(h, g))
        rows.append(
            {
                "level": level,
                "dx": dx,
                "lhs": rep.lhs,
                "lagrangian": rep.lagrangian,
                "running_cost": rep.running_cost,
                "terminal": rep.terminal,
                "boundary": rep.boundary,
                "residual": rep.residual,
                "bent_slack": brep.slack,
            }
        )
        dx /= 2
    out = f"{args.out}_duality.csv"
    write_rows(
        out,
        ["level", "dx", "lhs", "lagrangian", "running_cost", "terminal", "boundary", "residual", "bent_slack"],
        rows,
        chash,
    )
    return [out]


def cmd_verify_oscillation(args, params, chash):
    g = params["gamma"]
    Rp = params["R"] + 1.0
    spec = GridSpec(1, Rp, params["dx"], params["tau"], params["dt"])
    grid = make_grid(spec)
    prob = HJProblem(
        gamma=g, sigma=params["sigma"], h0=params["h0"], h1=params["h1"],
        h=params["h0"], f=0.0,
        terminal=lambda x: args.amplitude * np.sin(np.pi * x[..., 0] / Rp),
        lateral=0.0,
    )
    sol = solve_hj(prob, grid)
    rep = oscillation_report(
        sol.u, None, params["sigma"], params["h0"], params["h1"], g,
        params["alpha"], params["z"], params["R"], params["tau"], np.array([1.0]),
    )
    cols = [
        "fnorm_value", "shape_value", "r2_ok", "space_quotient", "time_quotient",
        "test0_lhs", "test0_rhs", "xest0_lhs", "xest0_rhs", "kinetic",
        "fitted_c2", "fitted_c3", "ell0", "ell1", "ell_gap",
    ]
    row = {c: getattr(rep, c) for c in cols}
    row["r2_ok"] = int(row["r2_ok"])
    out = f"{args.out}_oscillation.csv"
    write_rows(out, cols, [row], chash)
    return [out]


def cmd_ldiff(args, params, chash):
    rows = []
    for gc in parse_list(args.gamma_conj):
        c = ldiff_constant(gc, args.samples, params["seed"])
        cap = ldiff_cap(gc)
        rows.append({"gamma_conj": gc, "fitted_c": c, "cap": cap, "within_cap": int(c <= cap)})
    out = f"{args.out}_ldiff.csv"
    write_rows(out, ["gamma_conj", "fitted_c", "cap", "within_cap"], rows, chash)
    if any(r["within_cap"] == 0 for r in rows):
        raise VerificationFailure("ldiff fitted constant exceeded the analytic cap")
    return [out]


def cmd_blowup(args, params, chash):
    from .scalelab import blowup_transform

    u = read_field_csv(args.field)
    bp = worst_pair_selection(u, args.kind, params["alpha"], params["z"], params["gamma"])
    tg = _grid_from_arg(args.target)
    res = blowup_transform(u, bp, tg)
    norm = normalization_check(res.w, bp)
    outputs = []
    out_field = f"{args.out}_rescaled.csv"
    with open(out_field, "w") as fh:
        fh.write(f"# config: {chash}\n")
        write_field_csv(res.w, fh)
    outputs.append(out_field)
    row = {
        "kind": args.kind,
        "x_bar": bp.basepoint_x[0],
        "t_bar": bp.basepoint_t,
        "M": bp.M,
        "r": bp.r,
        "variant": bp.variant,
        "scale_factor": bp.scale_factor,
        "time_scale": bp.time_scale,
        "d": bp.d,
        "sandwich_L": bp.sandwich[0],
        "sandwich_quotient": bp.sandwich[1],
        "normalization": norm,
    }
    out_params = f"{args.out}_blowup.csv"
    write_rows(out_params, list(row.keys()), [row], chash)
    outputs.append(out_params)
    return outputs


def cmd_liouville(args, params, chash):
    rows = liouville_probe(
        params["h0"], params["gamma"], params["alpha"],
        parse_list(args.R_list), parse_list(args.tau_list),
        params["dx"], params["dt"], amplitude=args.amplitude, z=params["z"],
    )
    cols = [
        "R", "tau", "kinetic", "test0_lhs", "test0_rhs", "xest0_lhs", "xest0_rhs",
        "fitted_c2", "fitted_c3", "measured_osc", "closed_budget",
        "space_quotient", "time_quotient",
    ]
    out = f"{args.out}_liouville.csv"
    write_rows(out, cols, rows, chash)
    return [out]


def cmd_sweep(args, params, chash):
    rows = maxreg_sweep(
        parse_list(args.q_list), parse_list(args.eps_list), params["gamma"], parse_list(args.dx_list)
    )
    cols = ["q", "epsilon", "dx", "f_norm", "dt_norm", "hessian_norm", "grad_gamma_norm", "ratio", "status"]
    out = f"{args.out}_sweep.csv"
    write_rows(out, cols, rows, chash)
    return [out]


class VerificationFailure(Exception):
    pass


def cmd_selftest(args, params, chash):
    """Run the acceptance gate; every criterion runs, and any failure exits 1."""
    from .acceptance import CRITERIA  # here, so importing the CLI does not load the criteria

    failed = 0
    for _, name, check in CRITERIA:
        try:
            check()
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report it and run the remaining criteria
            failed += 1
            print(f"FAIL {name}: {exc}")
    if failed:
        raise VerificationFailure(f"{failed} of {len(CRITERIA)} acceptance criteria failed")
    return []


# -- entry point ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hjlab", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="hjlab_run")
        for key in ("gamma", "sigma", "h0", "h1", "alpha", "z", "c", "R", "tau", "dx", "dt", "q"):
            p.add_argument(f"--{key}", type=parse_number, default=None)
        return p

    p = common(sub.add_parser("solve-hj", help="solve the backward HJ equation"))
    p.add_argument("--grid", required=True, help="N,R,dx,T,dt")
    p.add_argument("--h-profile", choices=["const", "cosine"], default="const")
    p.add_argument("--f-file")
    p.add_argument("--manufactured", choices=sorted(MANUFACTURED))
    p.set_defaults(fn=cmd_solve_hj)

    p = common(sub.add_parser("solve-fp", help="solve the dual Fokker-Planck problem"))
    p.add_argument("--grid", required=True, help="N,dx,dt")
    p.add_argument("--drift", default="zero", help="zero | uniform:vx[,vy] | from-solution:file,gamma,h1")
    p.add_argument("--source", default="0")
    p.set_defaults(fn=cmd_solve_fp)

    p = common(sub.add_parser("seminorm", help="evaluate the seminorm family on a field"))
    p.add_argument("--field", required=True)
    p.add_argument("--sub-cylinder", default="")
    p.add_argument("--oracle", action="store_true", help="force the double-loop oracle")
    p.set_defaults(fn=cmd_seminorm)

    p = common(sub.add_parser("verify-duality", help="duality residual refinement study"))
    p.add_argument("--refinements", type=int, default=2)
    p.add_argument("--amplitude", type=parse_number, default=0.5)
    p.set_defaults(fn=cmd_verify_duality)

    p = common(sub.add_parser("verify-oscillation", help="oscillation budgets on a homogeneous solve"))
    p.add_argument("--amplitude", type=parse_number, default=1.0)
    p.set_defaults(fn=cmd_verify_oscillation)

    p = common(sub.add_parser("ldiff", help="power-inequality fitted constant"))
    p.add_argument("--gamma-conj", default="1.1,1.3,1.5,1.7,1.9")
    p.add_argument("--samples", type=int, default=100000)
    p.set_defaults(fn=cmd_ldiff)

    p = common(sub.add_parser("blowup", help="worst-pair selection and rescaling"))
    p.add_argument("--field", required=True)
    p.add_argument("--kind", choices=["space", "time", "weighted"], required=True)
    p.add_argument("--target", required=True, help="N,R,dy,S,ds target grid")
    p.set_defaults(fn=cmd_blowup)

    p = common(sub.add_parser("liouville-probe", help="decay of the oscillation budget"))
    p.add_argument("--R-list", default="8")
    p.add_argument("--tau-list", default="4,16,64")
    p.add_argument("--amplitude", type=parse_number, default=1.0)
    p.set_defaults(fn=cmd_liouville)

    p = common(sub.add_parser("sweep-maxreg", help="maximal-regularity ratio table"))
    p.add_argument("--q-list", default="1.6,2.4")
    p.add_argument("--eps-list", default="1/4,1/8,1/16")
    p.add_argument("--dx-list", default="1/64,1/128")
    p.set_defaults(fn=cmd_sweep)

    p = common(sub.add_parser("selftest", help="run the acceptance gate (11 criteria)"))
    p.set_defaults(fn=cmd_selftest)
    return ap


def resolve_params(args) -> dict:
    text = ""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            text = fh.read()
    params = parse_config(text)
    for key in ("gamma", "sigma", "h0", "h1", "alpha", "z", "c", "R", "tau", "dx", "dt", "q"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "seed", None) is not None:
        params["seed"] = args.seed
    validate_params(params)
    return params


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        params = resolve_params(args)
        chash = config_hash(params)
        t0 = time.perf_counter()
        outputs = args.fn(args, params, chash)
        elapsed = time.perf_counter() - t0
        write_manifest(
            f"{args.out}_manifest.txt", args.subcommand, params, chash, params["seed"], outputs, elapsed
        )
        return 0
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
