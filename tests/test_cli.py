import argparse
import csv
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hjlab.cli import PARAMS, build_parser, config_hash, main, parse_number, resolve
from hjlab.grid import GridSpec, ScalarField, make_grid, write_field_csv

from conftest import counting_lu, random_field

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """argv of every `hjlab ...` line in the README's sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["hjlab"]:
                commands.append(argv[1:])
    return commands


def readme_parameters():
    """{subcommand: {parameter: default}} from the README's table of run parameters."""
    table = {}
    for sub, cell in re.findall(r"^\| `([a-z-]+)` \| (.*?) \|$", README.read_text(), re.M):
        table[sub] = dict(tok.split("=") for tok in re.findall(r"`(\w+=[^`]+)`", cell))
    return table


def manifest(path):
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


class TestParseConfig:
    def test_minimal_resolves_derived_exponents(self):
        p = resolve("solve-hj", "gamma=3\nsigma=1")
        assert p["gamma_conj"] == 1.5
        assert p["alpha0"] == 0.5

    def test_gamma_two_rejected(self):
        with pytest.raises(ValueError, match="gamma must exceed 2"):
            resolve("solve-hj", "gamma=2")

    def test_empty_gives_defaults(self):
        p = resolve("solve-hj")
        assert p["gamma"] == 3.0 and p["sigma"] == 1.0
        assert resolve("ldiff") == {"seed": 0}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            resolve("solve-hj", "nonsense=1")

    def test_invalid_value_names_invariant(self):
        with pytest.raises(ValueError, match="h0 must be positive"):
            resolve("solve-hj", "h0=0")

    def test_fractions(self):
        assert parse_number("1/64") == 1 / 64

    def test_hash_stable(self):
        a = resolve("solve-hj", "gamma=3")
        b = resolve("solve-hj", "gamma=3")
        assert config_hash(a) == config_hash(b)

    def test_readme_parameter_table_matches_the_parser(self):
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        declared = {
            name: {a.dest: a.help.removeprefix("default ") for a in p._actions if a.dest in PARAMS}
            for name, p in subparsers.items()
        }
        assert readme_parameters() == declared


class TestDeclaredParameters:
    """Each subcommand reads, checks and records only the parameters it declares."""

    def test_flag_gamma_derives_the_exponents(self, tmp_path):
        out = str(tmp_path / "hj")
        assert main(["solve-hj", "--gamma", "4", "--grid", "1,1,1/8,1,1/32", "--out", out]) == 0
        m = manifest(f"{out}_manifest.txt")
        assert float(m["gamma_conj"]) == 4 / 3 and float(m["alpha0"]) == 2 / 3
        read = {"gamma", "sigma", "h0", "h1", "gamma_conj", "alpha0"}
        assert {k for k in m if k not in ("subcommand", "config_hash", "version", "numpy",
                                          "elapsed_s", "output")} == read

    def test_flag_overrides_config_before_the_check(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("gamma=1\n")
        out = str(tmp_path / "hj")
        argv = ["solve-hj", "--config", str(cfg), "--gamma", "3", "--grid", "1,1,1/8,1,1/32"]
        assert main(argv + ["--out", out]) == 0
        assert manifest(f"{out}_manifest.txt")["gamma"] == "3"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["solve-hj", "--grid", "1,1,1/8,1,1/32", "--dx", "1/8"], "--dx"),
            (["verify-duality", "--dt", "1/8"], "--dt"),
            (["solve-fp", "--grid", "1,1/4,1/4", "--seed", "7"], "--seed"),
            (["ldiff", "--gamma-conj", ""], "--gamma-conj"),
            (["liouville-probe", "--R-list", ""], "--R-list"),
            (["verify-duality", "--refinements", "-1"], "--refinements"),
            (["sweep-maxreg", "--q-list", "1.6,,2.4"], "--q-list: empty entry in the list '1.6,,2.4'"),
            (["sweep-maxreg", "--q-list", "1.6,2.4,"], "--q-list: empty entry"),
            (["sweep-maxreg", "--eps-list", ",1/4"], "--eps-list: empty entry"),
            (["liouville-probe", "--tau-list", "4, ,16"], "--tau-list: empty entry"),
            (["solve-fp", "--grid", "1,1/4,1/4", "--drift", "uniform:1,"], "--drift: empty entry"),
            (["solve-fp", "--grid", "1,1/4,1/4", "--drift", "uniform:"], "--drift: expected a comma-separated list"),
        ],
        ids=["solve-hj-dx", "verify-duality-dt", "solve-fp-seed", "empty-gamma-conj", "empty-R-list",
             "no-levels", "doubled-comma", "trailing-comma", "leading-comma", "blank-entry", "drift-trailing-comma",
             "empty-drift"],
    )
    def test_unread_flag_or_empty_list_exits_2(self, argv, named, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--h1", "inf"), ("--gamma", "inf"), ("--gamma", "nan"), ("--sigma", "-inf")])
    def test_non_finite_flag_exits_2_naming_it(self, flag, value, tmp_path, capsys):
        argv = ["solve-hj", "--grid", "1,1,1/8,1,1/32", f"{flag}={value}", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert f"{flag} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve-hj", "--grid", "1,inf,1/8,1,1/16"], "half_width must be positive"),
            (["solve-hj", "--grid", "1,nan,1/8,1,1/16"], "half_width must be positive"),
            (["solve-hj", "--grid", "1,1,1/8,inf,1/16"], "horizon must be positive"),
            (["solve-hj", "--grid", "1,1,1/8,nan,1/16"], "horizon must be positive"),
            (["liouville-probe", "--R-list", "inf"], "--R-list: entries must be finite numbers, got inf"),
            (["sweep-maxreg", "--eps-list", "1/4,inf"], "--eps-list: entries must be finite numbers, got inf"),
            (["sweep-maxreg", "--q-list", "nan"], "--q-list: entries must be finite numbers, got nan"),
            (["sweep-maxreg", "--q-list", "0"], "q must be >= 1, got 0.0"),
            (["sweep-maxreg", "--eps-list", "0"], "eps must be positive, got 0.0"),
        ],
        ids=["grid-R-inf", "grid-R-nan", "grid-T-inf", "grid-T-nan", "R-list-inf", "eps-list-inf", "q-list-nan",
             "q-zero", "eps-zero"],
    )
    def test_non_finite_size_or_list_entry_exits_2(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--eps-list", "1/4,1e-200"], "--eps-list: eps = 1e-200 gives the q = 1.6 family no finite positive scale"),
            (["--eps-list", "1/4,1e300"], "--eps-list: eps = 1e+300 gives the q = 1.6 family no finite positive scale"),
            (["--dx-list", "1/16,1/2"], "--dx-list: dx = 0.5: Qp must keep a 2-node spatial margin from the boundary"),
        ],
        ids=["eps-overflows", "eps-vanishes", "dx-leaves-no-margin"],
    )
    def test_sweep_rejects_a_bad_entry_before_any_row_marches(self, argv, message, tmp_path, capsys):
        rc, n_lu = counting_lu(main, ["sweep-maxreg", *argv, "--out", str(tmp_path / "x")])
        assert (rc, n_lu) == (2, 0)
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x_sweep.csv").exists()

    FP = ["solve-fp", "--grid", "1,1/8,1/64", "--R", "1", "--tau", "1/4"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([*FP, "--drift", "from-solution:x.csv"], "--drift wants 'from-solution:file,gamma,h1'"),
            ([*FP, "--drift", "from-solution:run_solution.csv,3"], "--drift wants 'from-solution:file,gamma,h1'"),
            ([*FP, "--drift", "from-solution:x.csv,,1"], "--drift wants 'from-solution:file,gamma,h1', got "
                                                         "'from-solution:x.csv,,1': empty entry"),
            ([*FP, "--drift", "uniform:1,2"], "--drift uniform: wants 1 component(s) on a 1D grid"),
            ([*FP, "--drift", "sideways"], "--drift wants zero, uniform:vx[,vy] or from-solution:file,gamma,h1"),
            ([*FP, "--drift", "from-solution:{u},3,-1"], "--drift from-solution: h1 must be finite and positive, got -1.0"),
            ([*FP, "--drift", "from-solution:{u},1,1"], "--drift from-solution: gamma must be finite and exceed 2, got 1.0"),
            ([*FP, "--drift", "from-solution:{u},inf,1"], "--drift from-solution: gamma must be finite and exceed 2, got inf"),
            ([*FP, "--source", "0,0"], "--source wants 1 coordinate(s) on a 1D grid, got 2"),
            (["blowup", "--target", "2,1,0.125,1,0.5"], "--target: a 2D target grid for a 1D field"),
            (["blowup", "--target", "1,1,0.125,1"], "--target wants 'N,R,dy,S,ds', got '1,1,0.125,1'"),
            (["blowup", "--target", "1,1,,1,0.5"], "--target: empty entry in the list '1,1,,1,0.5'"),
            (["blowup", "--target", "1,1,0.125,one,0.5"], "--target: could not convert string to float: 'one'"),
            (["blowup", "--target", "1.5,1,0.125,1,0.5"], "--target: the dimension N must be an integer, got 1.5"),
            (["solve-hj", "--grid", "1,1,1/8,1"], "--grid wants 'N,R,dx,T,dt', got '1,1,1/8,1'"),
            (["solve-hj", "--grid", "1,1,1/8,,1/8"], "--grid: empty entry in the list '1,1,1/8,,1/8'"),
            (["solve-hj", "--grid", "1,x,1/8,1,1/8"], "--grid: could not convert string to float: 'x'"),
            (["solve-hj", "--grid", "1.5,1,1/8,1,1/8"], "--grid: the dimension N must be an integer, got 1.5"),
            (["solve-fp", "--grid", "1,1/8"], "--grid wants 'N,dx,dt', got '1,1/8'"),
            (["solve-fp", "--grid", "1,,1/64"], "--grid: empty entry in the list '1,,1/64'"),
            (["solve-fp", "--grid", "1,a,1/64"], "--grid: could not convert string to float: 'a'"),
            (["solve-fp", "--grid", "inf,1/8,1/64"], "--grid: the dimension N must be an integer, got inf"),
            (["verify-duality", "--amplitude", "nan"], "argument --amplitude: must be a finite number, got nan"),
            (["verify-duality", "--amplitude", "1/0"], "argument --amplitude: zero denominator in '1/0'"),
            (["verify-oscillation", "--amplitude", "inf"], "argument --amplitude: must be a finite number, got inf"),
            (["liouville-probe", "--amplitude=-inf"], "argument --amplitude: must be a finite number, got -inf"),
            (["seminorm", "--field", "{u}", "--c", "-1"], "--c must be >= 0"),
            (["verify-oscillation", "--R", "-1"], "--R must be positive"),
            (["verify-duality", "--tau", "0"], "--tau must be positive"),
            (["ldiff", "--samples", "0"], "argument --samples: must be an integer >= 1, got '0'"),
            (["liouville-probe", "--R-list", "-0.5"], "argument --R-list: entries must be positive, got -0.5"),
            (["liouville-probe", "--tau-list", "0"], "argument --tau-list: entries must be positive, got 0.0"),
        ],
        ids=["from-solution-file-only", "from-solution-one-number", "from-solution-empty-number", "uniform-too-long",
             "unknown-drift", "from-solution-negative-h1", "from-solution-gamma-1", "from-solution-infinite-gamma",
             "fp-source-too-long", "target-dimension", "target-four-entries", "target-empty", "target-word", "target-fractional-N",
             "grid-four-entries", "grid-empty", "grid-word", "grid-fractional-N", "fp-grid-two-entries",
             "fp-grid-empty", "fp-grid-word", "fp-grid-infinite-N", "duality-amplitude-nan", "duality-amplitude-zero-denominator",
             "oscillation-amplitude-inf", "liouville-amplitude-minus-inf", "seminorm-c-negative", "oscillation-R-negative",
             "duality-tau-zero", "ldiff-samples-zero", "liouville-R-list-negative", "liouville-tau-list-zero"],
    )
    def test_bad_spec_exits_2_naming_the_flag(self, argv, message, tmp_path, capsys):
        g = make_grid(GridSpec(1, 1.0, 0.125, 1.0, 0.25))
        write_field_csv(ScalarField.from_function(g, lambda x, t: np.sin(3 * x[..., 0]) * (1 + t)), tmp_path / "u.csv")
        argv = [a.replace("{u}", str(tmp_path / "u.csv")) for a in argv]
        if argv[0] == "blowup":
            argv = [*argv, "--field", str(tmp_path / "u.csv"), "--kind", "space", "--alpha", "0.5"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_config_value_exits_2_naming_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("h1=inf\n")
        assert main(["solve-hj", "--config", str(cfg), "--grid", "1,1,1/8,1,1/32", "--out", str(tmp_path / "x")]) == 2
        assert "--h1 must be a finite number, got inf" in capsys.readouterr().err

    def test_unread_config_key_exits_2_naming_key_and_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("dx=1/8\n")
        argv = ["solve-hj", "--config", str(cfg), "--grid", "1,1,1/8,1,1/32"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "'dx'" in err and "solve-hj" in err


class TestCliRuns:
    def run(self, argv):
        return main(argv)

    def test_selftest_runs_every_criterion_and_exits_1_on_failure(self, tmp_path, monkeypatch, capsys):
        import hjlab.acceptance

        def fails():
            raise AssertionError("broken on purpose")

        registry = [(1, "passes", lambda: "ok"), (2, "fails", fails), (3, "after", lambda: "ok")]
        monkeypatch.setattr(hjlab.acceptance, "CRITERIA", registry)
        assert self.run(["selftest", "--out", str(tmp_path / "st")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["PASS passes", "FAIL fails: broken on purpose", "PASS after"]

    def test_selftest_under_python_O_still_fails(self, tmp_path):
        # a real criterion fed a failing gap; an assert-based check would vanish under -O
        import hjlab

        script = (
            "import sys\n"
            "import hjlab.acceptance as acc\n"
            "from hjlab.cli import main\n"
            "print('debug', __debug__)\n"
            "acc.legendre_gap = lambda h, gamma, ps: 1.0\n"
            "acc.CRITERIA[:] = [(7, 'legendre_gap', acc.legendre_gap_check)]\n"
            "sys.exit(main(['selftest', '--out', sys.argv[1]]))\n"
        )
        env = {"PYTHONPATH": str(Path(hjlab.__file__).resolve().parents[1]), "PATH": ""}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(tmp_path / "st")],
            capture_output=True, text=True, env=env,
        )
        assert proc.stdout.splitlines() == [
            "debug False", "FAIL legendre_gap: (h=1.0, gamma=3.0): gap 1.0"
        ], proc.stderr
        assert proc.returncode == 1

    def test_determinism_byte_identical(self, tmp_path):
        for tag in ("a", "b"):
            code = self.run(
                [
                    "solve-fp", "--grid", "1,0.125,0.0625", "--R", "2", "--tau", "0.5",
                    "--drift", "uniform:0.5", "--source", "0",
                    "--out", str(tmp_path / tag),
                ]
            )
            assert code == 0
        for suffix in ("_density.csv", "_mass.csv", "_functionals.csv"):
            a = (tmp_path / ("a" + suffix)).read_bytes()
            b = (tmp_path / ("b" + suffix)).read_bytes()
            assert a == b

    def test_rows_carry_config_hash(self, tmp_path):
        self.run(
            ["solve-fp", "--grid", "1,0.125,0.0625", "--R", "2", "--tau", "0.5",
             "--out", str(tmp_path / "r")]
        )
        lines = (tmp_path / "r_mass.csv").read_text().splitlines()
        chash = lines[0].split(":")[1].strip()
        for row in lines[2:]:
            assert row.endswith(chash)

    def test_manifest_written(self, tmp_path):
        self.run(["ldiff", "--gamma-conj", "1.5", "--samples", "1000", "--out", str(tmp_path / "m")])
        text = (tmp_path / "m_manifest.txt").read_text()
        assert "config_hash=" in text and "seed=" in text and "output=" in text

    def test_one_parser_serves_every_run_of_a_process(self, tmp_path, monkeypatch):
        # build_parser is built once per process; a run that exits 2 between two runs with other
        # flags leaves both manifests as fresh processes write them (elapsed time aside)
        import hjlab

        runs = {
            "a": ["solve-hj", "--gamma", "4", "--grid", "1,1,1/8,1,1/32", "--out", "a"],
            "b": ["solve-hj", "--sigma", "1/2", "--grid", "1,1,1/8,1,1/16", "--out", "b"],
        }
        (tmp_path / "one").mkdir()
        (tmp_path / "fresh").mkdir()
        monkeypatch.chdir(tmp_path / "one")
        assert build_parser() is build_parser()
        assert main(runs["a"]) == 0
        assert main(["solve-hj", "--gamma", "x", "--h1", "2", "--out", "bad"]) == 2
        assert main(runs["b"]) == 0
        env = {"PYTHONPATH": str(Path(hjlab.__file__).resolve().parents[1]), "PATH": ""}
        script = "import sys\nfrom hjlab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        for tag, argv in runs.items():
            proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path / "fresh", capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            one, fresh = (manifest(tmp_path / d / f"{tag}_manifest.txt") for d in ("one", "fresh"))
            assert one.pop("elapsed_s") and fresh.pop("elapsed_s")
            assert one == fresh

    def test_unknown_subcommand_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hjlab.cli", "definitely-not-a-command"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma=2\n")
        assert self.run(["verify-oscillation", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "gamma must exceed 2" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch):
        import hjlab.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "solve_hj", lambda *a, **k: (_ for _ in ()).throw(
                cli_mod.NumericalFailure("blow-up detected at (x=(0,), t=0)")
            )
        )
        code = self.run(
            ["solve-hj", "--grid", "1,1,1/8,1,1/32", "--manufactured", "sine",
             "--out", str(tmp_path / "nf")]
        )
        assert code == 3

    def test_sweep_row_count(self, tmp_path):
        code = self.run(
            ["sweep-maxreg", "--q-list", "1.6,2.0,2.4", "--eps-list", "0.5,0.25,0.125",
             "--dx-list", "1/16", "--out", str(tmp_path / "sw")]
        )
        assert code == 0
        lines = [
            l for l in (tmp_path / "sw_sweep.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(lines) - 1 == 9  # header + 3 q * 3 eps rows

    def test_seminorm_subcommand(self, tmp_path):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        u = random_field(g, seed=3)
        field_file = tmp_path / "u.csv"
        write_field_csv(u, str(field_file))
        code = self.run(
            ["seminorm", "--field", str(field_file), "--alpha", "0.5", "--gamma", "3",
             "--z", "1", "--c", "1", "--out", str(tmp_path / "sn")]
        )
        assert code == 0
        text = (tmp_path / "sn_seminorms.csv").read_text()
        assert "classical" in text and "nl_combined" in text
        # oracle flag reproduces the same values
        code = self.run(
            ["seminorm", "--field", str(field_file), "--alpha", "0.5", "--gamma", "3",
             "--z", "1", "--c", "1", "--oracle", "--out", str(tmp_path / "sn_o")]
        )
        assert code == 0
        strip = lambda p: [
            l.split(",")[:2] for l in p.read_text().splitlines() if not l.startswith("#")
        ]
        assert strip(tmp_path / "sn_seminorms.csv") == strip(tmp_path / "sn_o_seminorms.csv")

    def test_readme_seminorm_examples(self, tmp_path):
        # the README solve-hj, its seminorm example, and the fast and --oracle
        # runs on the README sub-cylinder
        def rows(tag):
            lines = (tmp_path / f"{tag}_seminorms.csv").read_text().splitlines()
            return list(csv.DictReader(l for l in lines if not l.startswith("#")))

        out = str(tmp_path / "run")
        assert self.run(["solve-hj", "--grid", "1,1,1/64,1,1/256", "--manufactured", "sine",
                         "--out", out]) == 0
        field = f"{out}_solution.csv"
        flags = ["--field", field, "--alpha", "0.5", "--gamma", "3", "--z", "1", "--c", "1"]
        assert self.run(["seminorm", *flags, "--out", str(tmp_path / "sn")]) == 0
        assert all(r["exact"] == "1" for r in rows("sn"))
        sub = ["--sub-cylinder", "0.25,0.5,0.25,0.3125"]
        assert self.run(["seminorm", *flags, *sub, "--out", str(tmp_path / "sn_sub")]) == 0
        assert self.run(
            ["seminorm", *flags, *sub, "--oracle", "--out", str(tmp_path / "sn_oracle")]
        ) == 0
        cols = ("seminorm", "value", "x", "t", "x_bar", "t_bar")
        fast = [[r[c] for c in cols] for r in rows("sn_sub")]
        assert fast == [[r[c] for c in cols] for r in rows("sn_oracle")]
        assert all(r["degenerate"] == "0" for r in rows("sn_sub"))

    @pytest.mark.parametrize(
        "sub, message",
        [
            ("0.5,-0.5,0,1", "ranges must run low to high"),
            ("0,0.5,0.75,0.25", "ranges must run low to high"),
            ("nan,1,0,1", "entries must be finite numbers"),
            ("5,6,0,1", "holds no active node of the field"),
            ("0,1/0,0,1", "zero denominator in '1/0'"),
            ("0,,0.5,0,1", "empty entry in the list '0,,0.5,0,1'"),
        ],
        ids=["xlo-above-xhi", "t0-above-t1", "nan", "no-node", "zero-denominator", "doubled-comma"],
    )
    def test_bad_sub_cylinder_exits_2_naming_it(self, sub, message, tmp_path, capsys):
        out = str(tmp_path / "hj")
        assert self.run(["solve-hj", "--grid", "1,1,1/4,1,1/4", "--out", out]) == 0
        argv = ["seminorm", "--field", f"{out}_solution.csv", "--sub-cylinder", sub, "--out", str(tmp_path / "sn")]
        assert self.run(argv) == 2
        err = capsys.readouterr().err
        assert "--sub-cylinder" in err and message in err

    def test_one_node_sub_cylinder_is_degenerate(self, tmp_path):
        out = str(tmp_path / "hj")
        assert self.run(["solve-hj", "--grid", "1,1,1/4,1,1/4", "--out", out]) == 0
        argv = ["seminorm", "--field", f"{out}_solution.csv", "--sub-cylinder", "0,0,0,0", "--out", str(tmp_path / "sn")]
        assert self.run(argv) == 0
        lines = (tmp_path / "sn_seminorms.csv").read_text().splitlines()
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        assert [r["seminorm"] for r in rows] == ["classical", "weighted", "nl_space", "nl_time", "nl_combined"]
        assert all(r["degenerate"] == "1" for r in rows)  # nl_combined too: both its parts are
        argv[argv.index("0,0,0,0")] = "0,1,0,0"  # one level: nl_time alone is degenerate
        assert self.run(argv) == 0
        lines = (tmp_path / "sn_seminorms.csv").read_text().splitlines()
        degenerate = {r["seminorm"]: r["degenerate"] for r in csv.DictReader(l for l in lines if not l.startswith("#"))}
        assert (degenerate["nl_space"], degenerate["nl_time"], degenerate["nl_combined"]) == ("0", "1", "0")

    def test_readme_cli_examples_exit_0(self, tmp_path, monkeypatch):
        # in README order, in one directory: later examples read earlier outputs
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) >= 13
        for argv in commands:
            assert self.run(argv) == 0, f"hjlab {shlex.join(argv)}"

    def test_solve_hj_outputs(self, tmp_path):
        code = self.run(
            ["solve-hj", "--grid", "1,1,1/16,1,1/64", "--manufactured", "sine",
             "--out", str(tmp_path / "hj")]
        )
        assert code == 0
        assert (tmp_path / "hj_solution.csv").exists()
        assert (tmp_path / "hj_iterations.csv").exists()

    def test_solve_hj_cosine_h_profile(self, tmp_path):
        code = self.run(
            ["solve-hj", "--grid", "1,1,1/8,1,1/32", "--manufactured", "sine",
             "--h0", "1.0", "--h1", "2.0", "--h-profile", "cosine",
             "--out", str(tmp_path / "hjc")]
        )
        assert code == 0

    def test_blowup_subcommand(self, tmp_path):
        g = make_grid(GridSpec(1, 2.0, 0.125, 4.0, 0.125))
        u = ScalarField.from_function(g, lambda x, t: np.exp(-2 * x[..., 0] ** 2) * (1 + 0.3 * t))
        field_file = tmp_path / "u.csv"
        write_field_csv(u, str(field_file))
        code = self.run(
            ["blowup", "--field", str(field_file), "--kind", "time", "--alpha", "0.5",
             "--gamma", "3", "--z", "2", "--target", "1,1,0.125,1,0.5",
             "--out", str(tmp_path / "bl")]
        )
        assert code == 0
        text = (tmp_path / "bl_blowup.csv").read_text()
        assert "normalization" in text

    def test_blowup_writes_every_coordinate_of_a_2d_basepoint(self, tmp_path):
        assert self.run(["solve-hj", "--grid", "2,1,1/8,1,1/16", "--manufactured", "sine", "--out", str(tmp_path / "s2")]) == 0
        code = self.run(
            ["blowup", "--field", str(tmp_path / "s2_solution.csv"), "--kind", "weighted", "--alpha", "0.75",
             "--target", "2,1,0.25,1,0.5", "--out", str(tmp_path / "bl")]
        )
        assert code == 0
        lines = (tmp_path / "bl_blowup.csv").read_text().splitlines()
        (row,) = csv.DictReader(l for l in lines if not l.startswith("#"))
        assert row["x_bar"] == "-0.25;0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-duality", "--refinements", "0"],
            ["verify-oscillation", "--R", "4", "--tau", "2", "--dx", "0.25", "--dt", "0.125"],
            ["liouville-probe", "--R-list", "2", "--tau-list", "1", "--dx", "1/4", "--dt", "1/8"],
        ],
        ids=["verify-duality", "verify-oscillation", "liouville-probe"],
    )
    def test_negative_amplitude_runs(self, argv, tmp_path):
        assert self.run([*argv, "--amplitude=-0.5", "--out", str(tmp_path / "neg")]) == 0

    def test_verify_oscillation_subcommand(self, tmp_path):
        code = self.run(
            ["verify-oscillation", "--R", "4", "--tau", "2", "--dx", "0.25", "--dt", "0.125",
             "--amplitude", "1.0", "--out", str(tmp_path / "vo")]
        )
        assert code == 0
        assert (tmp_path / "vo_oscillation.csv").exists()

    def test_pipeline_hj_to_fp_from_solution(self, tmp_path):
        # solve-hj output feeds solve-fp's from-solution drift through files;
        # the second input is the README pair, whose HJ grid is finer than the FP grid
        for tag, hj_grid, ms in (
            ("a", "1,1,1/16,1,1/64", "cosine"),
            ("readme", "1,1,1/64,1,1/256", "sine"),
        ):
            code = self.run(
                ["solve-hj", "--grid", hj_grid, "--manufactured", ms,
                 "--out", str(tmp_path / f"w{tag}")]
            )
            assert code == 0
            sol_file = tmp_path / f"w{tag}_solution.csv"
            code = self.run(
                ["solve-fp", "--grid", "1,1/16,1/64", "--R", "1", "--tau", "1",
                 "--drift", f"from-solution:{sol_file},3,1", "--source", "0",
                 "--out", str(tmp_path / f"m{tag}")]
            )
            assert code == 0
            series = [
                l.split(",") for l in (tmp_path / f"m{tag}_mass.csv").read_text().splitlines()
                if l and not l.startswith("#")
            ][1:]
            for row in series:
                assert abs(float(row[1]) + float(row[2]) - 1.0) <= 1e-8
            func = (tmp_path / f"m{tag}_functionals.csv").read_text().splitlines()
            header, values = func[-2].split(","), func[-1].split(",")
            assert float(values[header.index("min_density")]) >= 0.0

    def test_f_file_on_other_grid_exits_2(self, tmp_path):
        g = make_grid(GridSpec(1, 2.0, 0.5, 1.0, 0.25))
        write_field_csv(ScalarField.constant(g, 1.0), str(tmp_path / "f.csv"))
        code = self.run(
            ["solve-hj", "--grid", "1,1,1/4,1,1/4", "--f-file", str(tmp_path / "f.csv"),
             "--out", str(tmp_path / "w")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-hj", "--grid", "1,1,1/0,1,1/4"],
            ["verify-oscillation", "--dx", "1/0"],
            ["verify-oscillation", "--config", "{cfg}"],
            ["ldiff", "--gamma-conj", "1.1,1/0"],
        ],
        ids=["grid", "flag", "config", "list"],
    )
    def test_zero_denominator_exits_2_naming_the_token(self, argv, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("dx=1/0\n")
        argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / "z")]
        assert self.run(argv) == 2
        assert "'1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_ldiff_without_samples_exits_2_naming_samples(self, samples, tmp_path, capsys):
        # numpy's errors on an empty or negative sample count named neither the flag nor the rule
        argv = ["ldiff", "--gamma-conj", "1.5", "--samples", samples, "--out", str(tmp_path / "ld")]
        assert self.run(argv) == 2
        assert f"argument --samples: must be an integer >= 1, got '{samples}'" in capsys.readouterr().err

    def test_f_file_with_nonfinite_row_exits_2(self, tmp_path):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        path = tmp_path / "f.csv"
        write_field_csv(ScalarField.constant(g, 1.0), str(path))
        path.write_text(path.read_text().replace("0,0,1\n", "0,0,nan\n"))
        code = self.run(
            ["solve-hj", "--grid", "1,1,1/4,1,1/4", "--f-file", str(path),
             "--out", str(tmp_path / "w")]
        )
        assert code == 2

    @pytest.mark.parametrize("header", ["# grid: 1,1,0.25,1", "# grid: 1,1,0.25,1,0.25,2", "# grid: 1,1,0.25,1,0.25,0,7"])
    def test_f_file_with_bad_header_exits_2(self, tmp_path, capsys, header):
        g = make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))
        path = tmp_path / "f.csv"
        write_field_csv(ScalarField.constant(g, 1.0), str(path))
        path.write_text(header + "\n" + path.read_text().split("\n", 1)[1])
        code = self.run(
            ["solve-hj", "--grid", "1,1,1/4,1,1/4", "--f-file", str(path),
             "--out", str(tmp_path / "w")]
        )
        assert code == 2
        assert f"bad header {header!r}" in capsys.readouterr().err

    def test_liouville_probe_subcommand(self, tmp_path):
        code = self.run(
            ["liouville-probe", "--R-list", "4", "--tau-list", "2,8", "--dx", "0.25",
             "--dt", "0.125", "--out", str(tmp_path / "lp")]
        )
        assert code == 0
        rows = [
            l for l in (tmp_path / "lp_liouville.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(rows) - 1 == 2

    def test_verify_duality_subcommand(self, tmp_path):
        code = self.run(
            ["verify-duality", "--refinements", "1", "--dx", "1/16", "--amplitude", "0.5",
             "--out", str(tmp_path / "vd")]
        )
        assert code == 0
        rows = [
            l for l in (tmp_path / "vd_duality.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(rows) - 1 == 2  # base level + one refinement
