import csv
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hjlab.cli import config_hash, main, parse_config, parse_number
from hjlab.grid import GridSpec, ScalarField, make_grid, write_field_csv

from conftest import random_field

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


class TestParseConfig:
    def test_minimal_resolves_derived_exponents(self):
        p = parse_config("gamma=3\nsigma=1")
        assert p["gamma_conj"] == 1.5
        assert p["q0"] == (p["dim"] + 2) / 1.5
        assert p["alpha0"] == 0.5

    def test_gamma_two_rejected(self):
        with pytest.raises(ValueError, match="gamma must exceed 2"):
            parse_config("gamma=2")

    def test_empty_gives_defaults(self):
        p = parse_config("")
        assert p["gamma"] == 3.0 and p["sigma"] == 1.0 and p["seed"] == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("nonsense=1")

    def test_invalid_value_names_invariant(self):
        with pytest.raises(ValueError, match="h0 must be positive"):
            parse_config("h0=0")

    def test_fractions(self):
        assert parse_number("1/64") == 1 / 64

    def test_hash_stable(self):
        a = parse_config("gamma=3")
        b = parse_config("gamma=3")
        assert config_hash(a) == config_hash(b)


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
                    "--drift", "uniform:0.5", "--source", "0", "--seed", "7",
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

    def test_unknown_subcommand_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hjlab.cli", "definitely-not-a-command"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma=2\n")
        assert self.run(["selftest", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

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
