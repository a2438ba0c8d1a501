"""Module boundaries of hjlab, checked on the source, and what a fresh process loads."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import hjlab

BENCH = pathlib.Path(__file__).resolve().parents[1] / "hjbench"

# Public names that only tests call: the references the tests compare solvers and rescalings against.
TEST_REFERENCES = ["hj.ms_constant", "hj.ms_linear_time", "scalelab.rescaled_residual"]


def parsed(directory):
    """{module name: parsed source} of the .py files in directory; hjlab's package module is __init__."""
    return {p.stem: ast.parse(p.read_text()) for p in sorted(pathlib.Path(directory).glob("*.py"))}


def names_in(node):
    """Every name node mentions: identifiers, attributes, imported names and strings (hjbench names functions by string)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def defined_in(tree):
    """The names a module binds at top level by def, class or assignment (not by import)."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module; importing it elsewhere makes a second owner
    found = []
    for name, tree in parsed(pathlib.Path(hjlab.__file__).parent).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "hjlab"):
                private = [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
                found += [f"{name}:{node.lineno} imports {a}" for a in private]
    assert found == []


def test_each_relative_import_names_what_its_module_defines():
    # a name taken from a module that only imports it hides its owner
    trees = parsed(pathlib.Path(hjlab.__file__).parent)
    defined = {name: defined_in(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or "__init__"
                found += [
                    f"{name}:{node.lineno} imports {a.name} from {source}, which does not define it"
                    for a in node.names
                    if a.name not in defined[source]
                ]
    assert found == []


def test_only_grid_reads_a_cylinders_box_or_radius():
    # grid.Cylinder decides which nodes a cylinder holds and how far they are from its backward
    # boundary; another module builds one by keyword and asks it
    modules = {f"hjlab.{n}": t for n, t in parsed(pathlib.Path(hjlab.__file__).parent).items() if n != "grid"}
    modules.update((f"hjbench.{n}", t) for n, t in parsed(BENCH).items())
    found = [
        f"{name}:{n.lineno} reads .{n.attr}"
        for name, tree in modules.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("xmin", "xmax", "radius")
    ]
    assert found == []


def test_every_public_function_and_class_is_named_outside_its_definition():
    # code that no module, export or benchmark names is reached only from tests
    trees = parsed(pathlib.Path(hjlab.__file__).parent)
    everywhere = sum((names_in(t) for t in [*trees.values(), *parsed(BENCH).values()]), Counter())
    unnamed = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == names_in(node)[node.name]
    ]
    assert sorted(unnamed) == TEST_REFERENCES


# Defaulted parameters that no call in src/hjlab or hjbench passes, each with the reason it stays an option.
UNPASSED_DEFAULTS = {
    "acceptance.random_field(scale)": "a helper that tests seed",
    "scalelab.blowup_transform(f)": "it feeds the test reference rescaled_residual",
    "scalelab.maxreg_sweep(dim)": "ROADMAP item 1 runs the sweep at N = 2",
    "scalelab.maxreg_sweep(norm_target)": "ROADMAP item 1 runs the sweep at larger ||f||_q",
}


def defaulted_parameters(tree):
    """(qualified name, name, parameter, position in a call or None) of each defaulted parameter of the
    public functions and of the public methods of public classes; a method's position skips self."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node, node.name, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions = [
                (m, f"{node.name}.{m.name}", 0 if any(getattr(d, "id", "") == "staticmethod" for d in m.decorator_list) else 1)
                for m in node.body
                if isinstance(m, ast.FunctionDef)
            ]
        else:
            continue
        for fn, qualified, skip in functions:
            if fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield qualified, fn.name, arg.arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield qualified, fn.name, arg.arg, None


def passes(call, param, position):
    """Whether call sets param: by keyword, by position, or through *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, param) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant spelled as an option
    trees = parsed(pathlib.Path(hjlab.__file__).parent)
    calls = {}
    for tree in [*trees.values(), *parsed(BENCH).values()]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls.setdefault(n.func.id if isinstance(n.func, ast.Name) else n.func.attr, []).append(n)
    unpassed = [
        f"{module}.{qualified}({param})"
        for module, tree in trees.items()
        for qualified, name, param, position in defaulted_parameters(tree)
        if not any(passes(call, param, position) for call in calls.get(name, []))
    ]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


# Loaded in a fresh interpreter, stage by stage: the scipy modules in sys.modules after
# importing hjlab and after each command of a stage list (argv[1], JSON {stage: argv}).
FRESH = """
import json, sys
import numpy as np
import hjlab
from hjlab.cli import main
from hjlab.grid import GridSpec, ScalarField, make_grid, write_field_csv

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {"import": (0, scipy_modules())}
g = make_grid(GridSpec(1, 1.0, 1 / 16, 1.0, 1 / 16))
write_field_csv(ScalarField.from_function(g, lambda x, t: np.sin(3 * x[..., 0]) * (1 + t)), "u.csv")
g = make_grid(GridSpec(1, 1.0, 1 / 32, 1.0, 1 / 128))
write_field_csv(ScalarField.from_function(g, lambda x, t: 3 * np.exp(-4 * x[..., 0] ** 2) * t), "f.csv")

def ball_solve():
    # the CLI's grids are boxes; a ball's interior of 705 nodes goes to the banded Cholesky
    from hjlab.hj import HJProblem, solve_hj
    g = make_grid(GridSpec(2, 1.0, 1 / 16, 1 / 8, 1 / 32, ball_mask=True))
    solve_hj(HJProblem(gamma=3.0, sigma=1.0, h0=1.0, h1=1.0, terminal=lambda x: np.cos(x[..., 0]), lateral=0.5), g)
    return 0

for stage, argv in json.loads(sys.argv[1]).items():
    stages[stage] = (main(argv) if argv else ball_solve(), scipy_modules())
print(json.dumps(stages))
"""
FIELD = ["--field", "u.csv", "--alpha", "0.5", "--gamma", "3"]
# Each list runs in its own interpreter, so a stage sees only what the stages before it in its list loaded.
STAGE_LISTS = [
    {
        "ldiff": ["ldiff", "--gamma-conj", "1.5", "--samples", "1000", "--out", "ld"],
        "seminorm": ["seminorm", *FIELD, "--z", "1", "--c", "1", "--out", "sn"],
        "blowup": ["blowup", *FIELD, "--kind", "space", "--target", "1,1,0.125,1,0.5", "--out", "bl"],
        # 127 and 63 interior nodes: dense inverses
        "solve-hj-1d": ["solve-hj", "--grid", "1,1,1/64,1,1/256", "--manufactured", "sine", "--out", "hj"],
        "solve-hj-f-file": ["solve-hj", "--grid", "1,1,1/32,1,1/128", "--f-file", "f.csv", "--out", "hjf"],
        # 255, 961 and 705 interior nodes: banded Cholesky
        "solve-hj-1d-large": ["solve-hj", "--grid", "1,1,1/128,1/4,1/512", "--manufactured", "sine", "--out", "hjl"],
        "solve-hj-2d": ["solve-hj", "--grid", "2,1,1/16,1,1/32", "--out", "hj2"],
        "solve-hj-2d-ball": None,  # ball_solve
    },
    {"solve-fp": ["solve-fp", "--grid", "1,1/8,1/64", "--source", "0", "--out", "fp"]},
]


@pytest.fixture(scope="module")
def fresh_stages(tmp_path_factory):
    """{stage: (exit code, scipy modules loaded after it)} of FRESH, run in a new interpreter for each of STAGE_LISTS."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(hjlab.__file__).resolve().parents[1])}
    stages = {}
    for stage_list in STAGE_LISTS:
        proc = subprocess.run(
            [sys.executable, "-c", FRESH, json.dumps(stage_list)],
            cwd=tmp_path_factory.mktemp("fresh"), env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        stages.update(json.loads(proc.stdout))
    return stages


@pytest.mark.parametrize("stage", ["import", "ldiff", "seminorm", "blowup"])
def test_importing_and_scanning_load_no_scipy(fresh_stages, stage):
    # scipy is loaded at the first LAPACK factorization, and these stages factor nothing
    assert fresh_stages[stage] == [0, []]


@pytest.mark.parametrize("stage", ["solve-hj-1d", "solve-hj-f-file"])
def test_a_small_hj_solve_loads_no_scipy(fresh_stages, stage):
    # an interior of at most hj.DENSE_MAX nodes: the march inverts its matrices with numpy
    assert fresh_stages[stage] == [0, []]


def test_no_solve_loads_scipy_sparse(fresh_stages):
    # the face table's Stencils form every lateral term and residual; scipy.linalg's LAPACK factors the large rungs
    for stage in ["solve-hj-1d", "solve-hj-1d-large", "solve-hj-2d", "solve-hj-2d-ball", "solve-fp"]:
        code, loaded = fresh_stages[stage]
        assert code == 0, stage
        assert not any(m.startswith("scipy.sparse") for m in loaded), stage
    assert "scipy.linalg" in fresh_stages["solve-hj-1d-large"][1]


def test_an_fp_solve_loads_no_scipy_sparse_linalg(fresh_stages):
    # LAPACK's tridiagonal LU, on matrix entries formed in numpy
    code, loaded = fresh_stages["solve-fp"]
    assert code == 0
    assert "scipy.linalg" in loaded and not any(m.startswith("scipy.sparse") for m in loaded)
