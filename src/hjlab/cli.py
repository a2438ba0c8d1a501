"""Batch CLI: subcommand dispatch, key=value configs, manifests, CSV emission.

`COMMANDS` declares, for each subcommand, the run parameters (`PARAMS`) it
reads: they alone are its flags, its config keys and its manifest lines.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.  Identical config + seed reproduce byte-identical CSVs; every data
row carries the config hash.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
from dataclasses import asdict
from typing import Callable, NamedTuple

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
    gamma_conjugate,
    manufactured_problem,
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
from .scalelab import SweepEntryError, liouville_probe, maxreg_sweep, normalization_check, worst_pair_selection
from .seminorm import combine_nonlinear, node_count, oracle, seminorm_set


def parse_number(s: str) -> float:
    """Decimal or a/b fraction; ValueError naming the token otherwise, b = 0 included."""
    s = s.strip()
    if "/" in s:
        a, b = s.split("/", 1)
        if float(b) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return float(a) / float(b)
    return float(s)


def parse_list(s: str) -> list[float]:
    """Comma-separated parse_number tokens; ValueError for an empty list or entry (a doubled, leading or trailing comma)."""
    toks = s.split(",")
    if not all(tok.strip() for tok in toks):
        raise ValueError(f"empty entry in the list {s!r}" if s.strip() else "expected a comma-separated list of numbers")
    return [parse_number(tok) for tok in toks]


def number_list(s: str) -> list[float]:
    """argparse type of the list options: a bad, empty or non-finite list exits 2 naming the flag."""
    try:
        vals = parse_list(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    for v in vals:
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError(f"entries must be finite numbers, got {v!r}")
    return vals


def positive_list(s: str) -> list[float]:
    """argparse type of a list of sizes: a number_list whose entries must be positive."""
    vals = number_list(s)
    for v in vals:
        if not v > 0:
            raise argparse.ArgumentTypeError(f"entries must be positive, got {v!r}")
    return vals


def positive_int(s: str) -> int:
    """argparse type of a count: an integer >= 1, or exit 2 naming the flag."""
    if not (s.strip().isdecimal() and int(s) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {s!r}")
    return int(s)


def finite_number(s: str) -> float:
    """argparse type of a one-number option: a bad or non-finite number exits 2 naming the flag."""
    try:
        v = parse_number(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {v!r}")
    return v


class Param(NamedTuple):
    """A run parameter: its default, its parser, and the check on the resolved values."""

    default: float | int
    parse: Callable[[str], float] = parse_number
    ok: Callable[[dict], bool] | None = None
    rule: str = ""


# Every run parameter a subcommand can read, as `--<name>` flag and `<name>=` config key.
PARAMS = {
    "gamma": Param(3.0, ok=lambda p: p["gamma"] > 2, rule="--gamma must exceed 2"),
    "sigma": Param(1.0, ok=lambda p: 0 < p["sigma"] <= 1, rule="--sigma must lie in (0, 1]"),
    "h0": Param(1.0, ok=lambda p: p["h0"] > 0, rule="--h0 must be positive"),
    # every subcommand that reads h1 reads h0 too
    "h1": Param(1.0, ok=lambda p: p["h1"] >= p["h0"], rule="--h1 must be >= h0"),
    "alpha": Param(0.5, ok=lambda p: 0 < p["alpha"] <= 1, rule="--alpha must lie in (0, 1]"),
    "z": Param(1.0, ok=lambda p: p["z"] > 0, rule="--z must be positive"),
    "c": Param(0.0, ok=lambda p: p["c"] >= 0, rule="--c must be >= 0"),
    "R": Param(1.0, ok=lambda p: p["R"] > 0, rule="--R must be positive"),
    "tau": Param(1.0, ok=lambda p: p["tau"] > 0, rule="--tau must be positive"),
    "dx": Param(0.125, ok=lambda p: p["dx"] > 0, rule="--dx must be positive"),
    "dt": Param(0.03125, ok=lambda p: p["dt"] > 0, rule="--dt must be positive"),
    "seed": Param(0, parse=int),
}


def resolve(sub: str, config: str = "", flags: dict | None = None) -> dict:
    """The parameters `sub` reads: defaults, then `config` lines, then `flags`.

    The values are checked once, after every override (a float must be
    finite, flag or config key alike), and `gamma_conj` and
    `alpha0` are derived wherever `gamma` is read.  A config key that `sub`
    does not read is an error naming the key and the subcommand.
    """
    names = COMMANDS[sub].params
    params = {k: PARAMS[k].default for k in names}
    for lineno, raw in enumerate(config.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in params:
            raise ValueError(f"unknown key {key!r}: {sub} reads {' '.join(names) or 'no parameters'}")
        params[key] = PARAMS[key].parse(val)
    params.update((k, flags[k]) for k in names if flags and flags.get(k) is not None)
    for k in names:
        if isinstance(params[k], float) and not math.isfinite(params[k]):
            raise ValueError(f"--{k} must be a finite number, got {params[k]!r}")
    for k in names:
        if PARAMS[k].ok is not None and not PARAMS[k].ok(params):
            raise ValueError(PARAMS[k].rule)
    if "gamma" in params:
        params["gamma_conj"] = gamma_conjugate(params["gamma"])
        params["alpha0"] = alpha_zero(params["gamma"])
    return params


def config_hash(params: dict) -> str:
    canon = "\n".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    return str(v)


def write_rows(path, rows, chash, columns=None):
    """A table CSV: `# config:`, the header (default: the first row's keys), one line a row."""
    columns = list(columns or rows[0])
    with open(path, "w") as fh:
        fh.write(f"# config: {chash}\n")
        fh.write(",".join(columns + ["config"]) + "\n")
        for row in rows:
            fh.write(",".join([fmt(row[c]) for c in columns] + [chash]) + "\n")
    return path


def write_field(path, u, chash):
    """A field CSV: `# config:`, then the `write_field_csv` format."""
    with open(path, "w") as fh:
        fh.write(f"# config: {chash}\n")
        write_field_csv(u, fh)
    return path


def write_manifest(path, sub, params, chash, outputs, elapsed):
    with open(path, "w") as fh:
        fh.write(f"subcommand={sub}\n")
        fh.write(f"config_hash={chash}\n")
        fh.write(f"version={__version__}\n")
        fh.write(f"numpy={np.__version__}\n")
        for k in sorted(params):
            fh.write(f"{k}={fmt(params[k])}\n")
        fh.write(f"elapsed_s={elapsed:.3f}\n")
        for out in outputs:
            fh.write(f"output={out}\n")


def _spec_numbers(flag: str, spec: str, form: str) -> list[float]:
    """The numbers of a flag's comma-separated spec, one per name in form, the first an integer N.

    A bad list, a wrong count or a non-integer N is a ValueError naming the flag.
    """
    try:
        vals = parse_list(spec)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    if len(vals) != len(form.split(",")):
        raise ValueError(f"{flag} wants {form!r}, got {spec!r}")
    if not (math.isfinite(vals[0]) and vals[0] == int(vals[0])):
        raise ValueError(f"{flag}: the dimension N must be an integer, got {vals[0]!r}")
    return vals


def _grid_from_arg(flag: str, spec: str, form: str = "N,R,dx,T,dt") -> GridSpec:
    n, *rest = _spec_numbers(flag, spec, form)
    return GridSpec(int(n), *rest)


# -- subcommands -------------------------------------------------------------------


def cmd_solve_hj(args, params, chash):
    spec = _grid_from_arg("--grid", args.grid)
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
        prob = manufactured_problem(ms, g, s, h0, h1, h)
        prob.terminal = ms.terminal(spec.horizon)
    elif args.f_file:
        prob = HJProblem(gamma=g, sigma=s, h0=h0, h1=h1, h=h, f=read_field_csv(args.f_file))
    else:
        prob = HJProblem(gamma=g, sigma=s, h0=h0, h1=h1, h=h, f=0.0)
    sol = solve_hj(prob, grid)
    return [
        write_field(f"{args.out}_solution.csv", sol.u, chash),
        write_rows(f"{args.out}_iterations.csv", sol.log, chash),
    ]


def _parse_drift(spec: str, dim: int):
    """The --drift spec on a grid of dimension dim; a bad spec is a ValueError naming --drift and its form."""
    if spec == "zero":
        return None
    kind, _, rest = spec.partition(":")
    if kind == "uniform":
        try:
            v = parse_list(rest)
        except ValueError as exc:
            raise ValueError(f"--drift: {exc}") from None
        if len(v) != dim:
            raise ValueError(f"--drift uniform: wants {dim} component(s) on a {dim}D grid, got {spec!r}")
        return tuple(v)
    if kind == "from-solution":
        fname, *numbers = rest.split(",")
        form = f"--drift wants 'from-solution:file,gamma,h1', got {spec!r}"
        if len(numbers) != 2:
            raise ValueError(form)
        try:
            g, h1 = parse_list(",".join(numbers))
        except ValueError as exc:
            raise ValueError(f"{form}: {exc}") from None
        # the rules of --gamma and --h1
        if not (math.isfinite(g) and g > 2):
            raise ValueError(f"--drift from-solution: gamma must be finite and exceed 2, got {g!r}")
        if not (math.isfinite(h1) and h1 > 0):
            raise ValueError(f"--drift from-solution: h1 must be finite and positive, got {h1!r}")
        return drift_from_solution(read_field_csv(fname), h1, g)
    raise ValueError(f"--drift wants zero, uniform:vx[,vy] or from-solution:file,gamma,h1, got {spec!r}")


def cmd_solve_fp(args, params, chash):
    n, dx, dt = _spec_numbers("--grid", args.grid, "N,dx,dt")
    grid = make_grid(GridSpec(int(n), params["R"], dx, params["tau"], dt))
    if len(args.source) not in (1, grid.dim):
        raise ValueError(f"--source wants 1{'' if grid.dim == 1 else f' or {grid.dim}'} coordinate(s) on a {grid.dim}D grid, got {len(args.source)}")
    drift = _parse_drift(args.drift, grid.dim)
    prob = FPProblem(sigma=params["sigma"], R=params["R"], tau=params["tau"], drift=drift, source=args.source)
    sol = solve_fp(prob, grid)
    series = [
        {"s": float(t), "mass": float(sol.mass[k]), "outflux": float(sol.outflux[k])}
        for k, t in enumerate(grid.ts)
    ]
    g = params["gamma"]
    mom = moment_alpha(sol, params["alpha"])
    bl = boundary_loss_check(sol, g)
    functionals = {
        "kinetic": kinetic_energy(sol, g),
        "moment": mom.moment,
        "moment_fitted_c": mom.fitted_c,
        "outflux": bl.outflux,
        "boundary_fitted_c": bl.fitted_c,
        "conservation_defect": sol.conservation_defect,
        "min_density": sol.min_density(),
    }
    return [
        write_field(f"{args.out}_density.csv", sol.m, chash),
        write_rows(f"{args.out}_mass.csv", series, chash),
        write_rows(f"{args.out}_functionals.csv", [functionals], chash),
    ]


def _sub_cyl(arg: str, u) -> Cylinder | None:
    """The --sub-cylinder of the field u: finite entries, ranges low to high, and an active node of u inside."""
    if not arg:
        return None
    try:
        v = parse_list(arg)
    except ValueError as exc:
        raise ValueError(f"--sub-cylinder: {exc}") from None
    if len(v) != 2 * u.grid.dim + 2:
        raise ValueError("--sub-cylinder wants xlo,xhi[,ylo,yhi],t0,t1")
    if not all(map(math.isfinite, v)):
        raise ValueError(f"--sub-cylinder entries must be finite numbers, got {arg!r}")
    if any(lo > hi for lo, hi in zip(v[::2], v[1::2])):
        raise ValueError(f"--sub-cylinder ranges must run low to high, got {arg!r}")
    Q = Cylinder(xmin=tuple(v[:-2:2]), xmax=tuple(v[1:-2:2]), t0=v[-2], t1=v[-1])
    if not node_count(u, Q):
        raise ValueError(f"--sub-cylinder {arg!r} holds no active node of the field")
    return Q


def _coord(xs) -> str:
    """A point's coordinates as one CSV cell, ;-joined."""
    return ";".join("%.17g" % v for v in xs)


def cmd_seminorm(args, params, chash):
    u = read_field_csv(args.field)
    Q = _sub_cyl(args.sub_cylinder, u)
    a, z, g, c = params["alpha"], params["z"], params["gamma"], params["c"]
    fast = None if args.oracle else seminorm_set(u, a, g, c, Q)

    rows, members = [], {}
    for name in ("classical", "weighted", "nl_space", "nl_time"):
        res = members[name] = oracle(name, u, a, g, c, Q) if args.oracle else getattr(fast, name)
        pair = res.pair or (((np.nan,) * u.grid.dim, np.nan), ((np.nan,) * u.grid.dim, np.nan))
        rows.append(
            {
                "seminorm": name,
                "value": res.value,
                "exact": int(res.exact),
                "degenerate": int(res.degenerate),
                "x": _coord(pair[0][0]),
                "t": pair[0][1],
                "x_bar": _coord(pair[1][0]),
                "t_bar": pair[1][1],
                "pairs_evaluated": res.pairs_evaluated,
            }
        )
    rows.append(
        {
            "seminorm": "nl_combined",
            "value": combine_nonlinear(members["nl_space"].value, members["nl_time"].value, z, g),
            "exact": 1,
            "degenerate": int(members["nl_space"].degenerate and members["nl_time"].degenerate),
            "x": "",
            "t": np.nan,
            "x_bar": "",
            "t_bar": np.nan,
            "pairs_evaluated": 0,  # formed from the two nonlinear members
        }
    )
    return [write_rows(f"{args.out}_seminorms.csv", rows, chash)]


def cmd_verify_duality(args, params, chash):
    if args.refinements < 0:
        raise ValueError("--refinements must be >= 0")
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
    return [write_rows(f"{args.out}_duality.csv", rows, chash)]


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
        sol.u, params["sigma"], params["h0"], params["h1"], g,
        params["alpha"], params["z"], params["R"], params["tau"],
    )
    row = asdict(rep)
    row["r2_ok"] = int(rep.r2_ok)
    return [write_rows(f"{args.out}_oscillation.csv", [row], chash)]


def cmd_ldiff(args, params, chash):
    for gc in args.gamma_conj:  # every entry, before the first is sampled
        if not 1 < gc < 2:
            raise ValueError(f"--gamma-conj: entries must lie in (1, 2), got {gc!r}")
    rows = []
    for gc in args.gamma_conj:
        c = ldiff_constant(gc, args.samples, params["seed"])
        cap = ldiff_cap(gc)
        rows.append({"gamma_conj": gc, "fitted_c": c, "cap": cap, "within_cap": int(c <= cap)})
    out = write_rows(f"{args.out}_ldiff.csv", rows, chash)
    if any(r["within_cap"] == 0 for r in rows):
        raise VerificationFailure("ldiff fitted constant exceeded the analytic cap")
    return [out]


def cmd_blowup(args, params, chash):
    from .scalelab import blowup_transform

    tg = _grid_from_arg("--target", args.target, "N,R,dy,S,ds")
    u = read_field_csv(args.field)
    if tg.dim != u.grid.dim:
        raise ValueError(f"--target: a {tg.dim}D target grid for a {u.grid.dim}D field")
    bp = worst_pair_selection(u, args.kind, params["alpha"], params["z"], params["gamma"])
    res = blowup_transform(u, bp, tg)
    row = {
        "kind": args.kind,
        "x_bar": _coord(bp.basepoint_x),
        "t_bar": bp.basepoint_t,
        "M": bp.M,
        "r": bp.r,
        "variant": bp.variant,
        "scale_factor": bp.scale_factor,
        "time_scale": bp.time_scale,
        "d": bp.d,
        "sandwich_L": bp.sandwich[0],
        "sandwich_quotient": bp.sandwich[1],
        "normalization": normalization_check(res.w, bp),
    }
    return [
        write_field(f"{args.out}_rescaled.csv", res.w, chash),
        write_rows(f"{args.out}_blowup.csv", [row], chash),
    ]


def cmd_liouville(args, params, chash):
    rows = liouville_probe(
        params["h0"], params["gamma"], params["alpha"], args.R_list, args.tau_list,
        params["dx"], params["dt"], amplitude=args.amplitude, z=params["z"],
    )
    return [write_rows(f"{args.out}_liouville.csv", rows, chash)]


def cmd_sweep(args, params, chash):
    try:
        rows = maxreg_sweep(args.q_list, args.eps_list, params["gamma"], args.dx_list)
    except SweepEntryError as exc:  # checked before any row marches
        raise ValueError(f"--{exc.arg.replace('_', '-')}: {exc}") from None
    # the rows also carry beta and c_eps
    cols = ["q", "epsilon", "dx", "f_norm", "dt_norm", "hessian_norm", "grad_gamma_norm", "ratio", "status"]
    return [write_rows(f"{args.out}_sweep.csv", rows, chash, cols)]


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


# -- the declaration table -----------------------------------------------------------


class Command(NamedTuple):
    fn: Callable
    help: str
    params: tuple[str, ...]  # the PARAMS it reads: its flags, config keys and manifest lines
    options: tuple = ()  # its own (flag, argparse keywords): not config keys, not in the manifest


COMMANDS = {
    "solve-hj": Command(
        cmd_solve_hj, "solve the backward HJ equation", ("gamma", "sigma", "h0", "h1"), (
            ("--grid", {"required": True, "help": "N,R,dx,T,dt"}),
            ("--h-profile", {"choices": ["const", "cosine"], "default": "const"}),
            ("--f-file", {}),
            ("--manufactured", {"choices": sorted(MANUFACTURED)}),
        ),
    ),
    "solve-fp": Command(
        cmd_solve_fp, "solve the dual Fokker-Planck problem", ("sigma", "R", "tau", "gamma", "alpha"), (
            ("--grid", {"required": True, "help": "N,dx,dt"}),
            ("--drift", {"default": "zero", "help": "zero | uniform:vx[,vy] | from-solution:file,gamma,h1"}),
            ("--source", {"type": number_list, "default": "0"}),
        ),
    ),
    "seminorm": Command(
        cmd_seminorm, "evaluate the seminorm family on a field", ("alpha", "z", "gamma", "c"), (
            ("--field", {"required": True}),
            ("--sub-cylinder", {"default": ""}),
            ("--oracle", {"action": "store_true", "help": "force the double-loop oracle"}),
        ),
    ),
    "verify-duality": Command(
        cmd_verify_duality, "duality residual refinement study", ("gamma", "sigma", "h0", "dx", "tau"), (
            ("--refinements", {"type": int, "default": 2}),
            ("--amplitude", {"type": finite_number, "default": 0.5}),
        ),
    ),
    "verify-oscillation": Command(
        cmd_verify_oscillation, "oscillation budgets on a homogeneous solve",
        ("gamma", "R", "dx", "tau", "dt", "sigma", "h0", "h1", "alpha", "z"), (
            ("--amplitude", {"type": finite_number, "default": 1.0}),
        ),
    ),
    "ldiff": Command(
        cmd_ldiff, "power-inequality fitted constant", ("seed",), (
            ("--gamma-conj", {"type": number_list, "default": "1.1,1.3,1.5,1.7,1.9"}),
            ("--samples", {"type": positive_int, "default": 100000}),
        ),
    ),
    "blowup": Command(
        cmd_blowup, "worst-pair selection and rescaling", ("alpha", "z", "gamma"), (
            ("--field", {"required": True}),
            ("--kind", {"choices": ["space", "time", "weighted"], "required": True}),
            ("--target", {"required": True, "help": "N,R,dy,S,ds target grid"}),
        ),
    ),
    "liouville-probe": Command(
        cmd_liouville, "decay of the oscillation budget", ("h0", "gamma", "alpha", "dx", "dt", "z"), (
            ("--R-list", {"type": positive_list, "default": "8"}),
            ("--tau-list", {"type": positive_list, "default": "4,16,64"}),
            ("--amplitude", {"type": finite_number, "default": 1.0}),
        ),
    ),
    "sweep-maxreg": Command(
        cmd_sweep, "maximal-regularity ratio table", ("gamma",), (
            ("--q-list", {"type": number_list, "default": "1.6,2.4"}),
            ("--eps-list", {"type": number_list, "default": "1/4,1/8,1/16"}),
            ("--dx-list", {"type": number_list, "default": "1/64,1/128"}),
        ),
    ),
    "selftest": Command(cmd_selftest, "run the acceptance gate (11 criteria)", ()),
}


# -- entry point ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry: --config, --out, its parameters' flags, its options.

    Built once per process: parse_args leaves the parser as it found it.
    """
    ap = argparse.ArgumentParser(prog="hjlab", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", default="hjlab_run")
        for key in cmd.params:
            p.add_argument(f"--{key}", type=PARAMS[key].parse, help=f"default {fmt(PARAMS[key].default)}")
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = ""
        if args.config:
            with open(args.config) as fh:
                config = fh.read()
        params = resolve(args.subcommand, config, vars(args))
        chash = config_hash(params)
        t0 = time.perf_counter()
        outputs = COMMANDS[args.subcommand].fn(args, params, chash)
        elapsed = time.perf_counter() - t0
        write_manifest(f"{args.out}_manifest.txt", args.subcommand, params, chash, outputs, elapsed)
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
