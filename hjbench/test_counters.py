"""Benchmark-local tests: deterministic counters and span bookkeeping.

    python3 -m pytest hjbench/test_counters.py -q
"""

import pytest

import run

workloads = run.import_lab()

import hjlab  # noqa: E402
from hjlab import cli, hj  # noqa: E402
from spans import COUNTERS, Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_passes_give_identical_counters(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    setup, commands, _ = workloads.WORKLOADS[name]
    setup(0)
    ops = commands(0)
    tracer = Tracer()
    per_pass = []
    for _ in range(2):
        root, _, _ = run.traced_pass(tracer, ops)
        m = tracer.metrics(root)
        assert m["self_time_sum"] == pytest.approx(m["trace.pass_s"], rel=1e-9)
        per_pass.append({c: m[c] for c in COUNTERS})
    assert per_pass[0] == per_pass[1]
    assert any(per_pass[0].values())


def test_uninstall_restores_every_bind_site():
    originals = (hjlab.solve_hj, cli.solve_hj, hj.solve_hj, cli.read_field_csv)
    tracer = Tracer()
    tracer.install()
    assert cli.solve_hj is hj.solve_hj is not originals[2]
    tracer.uninstall()
    assert (hjlab.solve_hj, cli.solve_hj, hj.solve_hj, cli.read_field_csv) == originals
