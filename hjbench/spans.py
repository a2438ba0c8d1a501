"""Per-layer tracing of hjlab from outside the package.

`Tracer.install()` replaces the public functions listed in `LAYERS` (and
`scipy.sparse.linalg.splu`) in every hjlab module namespace that binds them
with timing wrappers, and `uninstall()` puts the originals back, so untraced
passes run the unmodified code.  Spans stay in memory as
(name, start, end, parent, counters) and are written out by `dump()`.

Counters come from arguments and return values only (solution logs, node
counts of the scanned cylinder, field sizes), never from timings, so two
traced passes of the same inputs give identical counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import scipy.sparse.linalg as spla

import hjlab
from hjlab import cli, dual, fp, grid, hj, scalelab, seminorm

MODULES = (hjlab, grid, seminorm, hj, fp, dual, scalelab, cli)


def _field_rows(u) -> int:
    return int(u.grid.active.sum()) * u.grid.n_levels


def _nodes(call):
    """(nodes, space nodes, levels) of the cylinder a seminorm call scans."""
    nd = seminorm._Nodes(call.arguments["u"], call.arguments.get("Q"))
    return nd.n, nd.m_space, nd.n_levels


def _count_read(call, res):
    return {"rows": _field_rows(res)}


def _count_write(call, res):
    return {"rows": _field_rows(call.arguments["u"])}


def _count_hj(call, res):
    dts = [row["dt"] for row in res.log]
    return {
        "substeps": len(dts),
        "halvings": sum(row["halvings"] for row in res.log),
        "distinct_dt": len(set(dts)),
    }


def _count_fp(call, res):
    return {"subcycles": int(sum(res.subcycles))}


def _count_allpairs(call, res):
    if not res.exact:
        return {"sampled": 1}
    n, _, _ = _nodes(call)
    return {"pairs": n * (n - 1) // 2}


def _count_same_level(call, res):
    _, m, levels = _nodes(call)
    return {"pairs": levels * m * (m - 1) // 2}


def _count_same_space(call, res):
    _, m, levels = _nodes(call)
    return {"pairs": m * levels * (levels - 1) // 2}


# (defining module, function, span name, counter) -- the span name is the layer
# metric prefix; several functions may share one span name.
LAYERS = [
    (grid, "write_field_csv", "grid.write_field_csv", _count_write),
    (grid, "read_field_csv", "grid.read_field_csv", _count_read),
    (grid, "sample_field", "grid.sample", None),
    (grid, "sample_points", "grid.sample", None),
    (hj, "solve_hj", "hj.solve_hj", _count_hj),
    (hj, "discrete_residual", "hj.discrete_residual", None),
    (fp, "solve_fp", "fp.solve_fp", _count_fp),
    (fp, "drift_from_solution", "fp.drift_from_solution", None),
    (fp, "kinetic_energy", "fp.functionals", None),
    (fp, "moment_alpha", "fp.functionals", None),
    (fp, "boundary_loss_check", "fp.functionals", None),
    (seminorm, "holder_seminorm", "seminorm.allpairs", _count_allpairs),
    (seminorm, "weighted_holder", "seminorm.allpairs", _count_allpairs),
    (seminorm, "nonlinear_space", "seminorm.nonlinear", _count_same_level),
    (seminorm, "nonlinear_time", "seminorm.nonlinear", _count_same_space),
    (seminorm, "space_quotient", "seminorm.quotients", _count_same_level),
    (seminorm, "time_quotient", "seminorm.quotients", _count_same_space),
    (seminorm, "w21q_norms", "seminorm.w21q_norms", None),
    (dual, "duality_identity", "dual.duality", None),
    (dual, "bent_duality", "dual.duality", None),
    (dual, "oscillation_report", "dual.oscillation_report", None),
    (dual, "ldiff_constant", "dual.ldiff_constant", None),
    (scalelab, "worst_pair_selection", "scalelab.worst_pair_selection", None),
    (scalelab, "blowup_transform", "scalelab.blowup_transform", None),
    (scalelab, "liouville_probe", "scalelab.studies", None),
    (scalelab, "maxreg_sweep", "scalelab.studies", None),
]

_SOLVERS = {"hj.solve_hj": "hj.splu", "fp.solve_fp": "fp.splu"}

# (metric, unit, better) reported per pass; see metrics() for how each is formed.
PER_LAYER = [
    ("grid.write_field_csv.s", "s", "lower"),
    ("grid.write_field_csv.rows", "count", "lower"),
    ("grid.write_field_csv.rows_per_s", "1/s", "higher"),
    ("grid.read_field_csv.s", "s", "lower"),
    ("grid.read_field_csv.rows", "count", "lower"),
    ("grid.read_field_csv.rows_per_s", "1/s", "higher"),
    ("grid.sample.calls", "count", "lower"),
    ("grid.sample.s", "s", "lower"),
    ("hj.splu.calls", "count", "lower"),
    ("hj.splu.s", "s", "lower"),
    ("hj.distinct_dt", "count", "lower"),
    ("hj.solve_hj.calls", "count", "lower"),
    ("hj.solve_hj.self_s", "s", "lower"),
    ("hj.substeps", "count", "lower"),
    ("hj.halvings", "count", "lower"),
    ("hj.substeps_per_s", "1/s", "higher"),
    ("hj.discrete_residual.s", "s", "lower"),
    ("fp.solve_fp.calls", "count", "lower"),
    ("fp.solve_fp.self_s", "s", "lower"),
    ("fp.subcycles", "count", "lower"),
    ("fp.splu.calls", "count", "lower"),
    ("fp.splu.s", "s", "lower"),
    ("fp.drift_from_solution.s", "s", "lower"),
    ("fp.functionals.s", "s", "lower"),
    ("seminorm.allpairs.s", "s", "lower"),
    ("seminorm.allpairs.pairs", "count", "lower"),
    ("seminorm.allpairs.pairs_per_s", "1/s", "higher"),
    ("seminorm.sampled_results", "count", "lower"),
    ("seminorm.nonlinear.s", "s", "lower"),
    ("seminorm.nonlinear.pairs", "count", "lower"),
    ("seminorm.quotients.s", "s", "lower"),
    ("seminorm.quotients.pairs", "count", "lower"),
    ("seminorm.w21q_norms.s", "s", "lower"),
    ("dual.duality.s", "s", "lower"),
    ("dual.oscillation_report.self_s", "s", "lower"),
    ("dual.ldiff_constant.s", "s", "lower"),
    ("scalelab.worst_pair_selection.self_s", "s", "lower"),
    ("scalelab.blowup_transform.s", "s", "lower"),
    ("scalelab.studies.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# Counters that must repeat exactly across traced passes of the same inputs.
COUNTERS = [name for name, unit, _ in PER_LAYER if unit == "count"]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, counters]
        self._stack = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _enclosing_solver(self):
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name in _SOLVERS:
                return _SOLVERS[name]
        return "other.splu"

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if name else self._enclosing_solver())
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][4] = counter(sig.bind(*args, **kwargs), res)
            return res

        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every bind site of the LAYERS functions, and scipy's splu."""
        self._saved = [(spla, "splu", spla.splu)]
        spla.splu = self._wrap(spla.splu, None, None)
        for home, fname, span, counter in LAYERS:
            orig = getattr(home, fname)
            wrapped = self._wrap(orig, span, counter)
            for mod in MODULES:
                if getattr(mod, fname, None) is orig:
                    self._saved.append((mod, fname, orig))
                    setattr(mod, fname, wrapped)

    def uninstall(self):
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved = []

    def begin_pass(self):
        return self._open("pass")

    def end_pass(self, idx):
        self._close(idx)

    # -- metrics -------------------------------------------------------------------

    def pass_tree(self, root):
        """Spans of one pass as (index, span, depth), children after parents."""
        out = [(root, self.spans[root], 0)]
        depth = {root: 0}
        for i in range(root + 1, len(self.spans)):
            parent = self.spans[i][3]
            if parent in depth:
                depth[i] = depth[parent] + 1
                out.append((i, self.spans[i], depth[i]))
        return out

    def metrics(self, root):
        """Per-layer metrics of one traced pass.

        `.s` is the inclusive time of the outermost spans of that name, `.self_s`
        the time not covered by child spans, `cli.self_s` the pass time not
        covered by any layer span.  Self times of all spans plus `cli.self_s`
        add up to `trace.pass_s` by construction; `self_time_sum` lets callers
        check that.
        """
        tree = self.pass_tree(root)
        child_time = {}
        for _, (_, t0, t1, parent, _), _ in tree[1:]:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        incl, self_t, calls, counts = {}, {}, {}, {}
        for i, (name, t0, t1, parent, ctr), _ in tree[1:]:
            dur = t1 - t0
            self_t[name] = self_t.get(name, 0.0) + dur - child_time.get(i, 0.0)
            calls[name] = calls.get(name, 0) + 1
            if not self._has_ancestor_named(i, name, root):
                incl[name] = incl.get(name, 0.0) + dur
            for k, v in ctr.items():
                counts[(name, k)] = counts.get((name, k), 0) + v
        pass_s = tree[0][1][2] - tree[0][1][1]
        cli_self = pass_s - child_time.get(root, 0.0)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        m = {}
        for span in ("grid.write_field_csv", "grid.read_field_csv"):
            m[f"{span}.s"] = incl.get(span, 0.0)
            m[f"{span}.rows"] = counts.get((span, "rows"), 0)
            m[f"{span}.rows_per_s"] = rate(m[f"{span}.rows"], m[f"{span}.s"])
        m["grid.sample.calls"] = calls.get("grid.sample", 0)
        m["grid.sample.s"] = incl.get("grid.sample", 0.0)
        for solver in ("hj", "fp"):
            m[f"{solver}.splu.calls"] = calls.get(f"{solver}.splu", 0)
            m[f"{solver}.splu.s"] = incl.get(f"{solver}.splu", 0.0)
        m["hj.distinct_dt"] = counts.get(("hj.solve_hj", "distinct_dt"), 0)
        m["hj.solve_hj.calls"] = calls.get("hj.solve_hj", 0)
        m["hj.solve_hj.self_s"] = self_t.get("hj.solve_hj", 0.0)
        m["hj.substeps"] = counts.get(("hj.solve_hj", "substeps"), 0)
        m["hj.halvings"] = counts.get(("hj.solve_hj", "halvings"), 0)
        m["hj.substeps_per_s"] = rate(m["hj.substeps"], incl.get("hj.solve_hj", 0.0))
        m["hj.discrete_residual.s"] = incl.get("hj.discrete_residual", 0.0)
        m["fp.solve_fp.calls"] = calls.get("fp.solve_fp", 0)
        m["fp.solve_fp.self_s"] = self_t.get("fp.solve_fp", 0.0)
        m["fp.subcycles"] = counts.get(("fp.solve_fp", "subcycles"), 0)
        m["fp.drift_from_solution.s"] = incl.get("fp.drift_from_solution", 0.0)
        m["fp.functionals.s"] = incl.get("fp.functionals", 0.0)
        m["seminorm.allpairs.s"] = incl.get("seminorm.allpairs", 0.0)
        m["seminorm.allpairs.pairs"] = counts.get(("seminorm.allpairs", "pairs"), 0)
        m["seminorm.allpairs.pairs_per_s"] = rate(
            m["seminorm.allpairs.pairs"], m["seminorm.allpairs.s"]
        )
        m["seminorm.sampled_results"] = counts.get(("seminorm.allpairs", "sampled"), 0)
        for span in ("seminorm.nonlinear", "seminorm.quotients"):
            m[f"{span}.s"] = incl.get(span, 0.0)
            m[f"{span}.pairs"] = counts.get((span, "pairs"), 0)
        m["seminorm.w21q_norms.s"] = incl.get("seminorm.w21q_norms", 0.0)
        m["dual.duality.s"] = incl.get("dual.duality", 0.0)
        m["dual.oscillation_report.self_s"] = self_t.get("dual.oscillation_report", 0.0)
        m["dual.ldiff_constant.s"] = incl.get("dual.ldiff_constant", 0.0)
        m["scalelab.worst_pair_selection.self_s"] = self_t.get("scalelab.worst_pair_selection", 0.0)
        m["scalelab.blowup_transform.s"] = incl.get("scalelab.blowup_transform", 0.0)
        m["scalelab.studies.self_s"] = self_t.get("scalelab.studies", 0.0)
        m["cli.self_s"] = cli_self
        m["trace.pass_s"] = pass_s
        m["self_time_sum"] = sum(self_t.values()) + cli_self
        return m

    def _has_ancestor_named(self, i, name, root):
        parent = self.spans[i][3]
        while parent is not None and parent != root:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "counters": c}
                        for n, s, e, p, c in self.spans
                    ],
                },
                fh,
            )
