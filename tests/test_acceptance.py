"""Acceptance gate: test_criterion_<nn>_<name> per entry of hjlab.acceptance.CRITERIA.

Each prints `ACCEPTANCE nn <name>: PASS <detail>` on success (visible with -s).
"""

from hjlab.acceptance import CRITERIA


def _criterion_test(n, name, check):
    def test():
        print(f"\nACCEPTANCE {n:2d} {name}: PASS {check()}")

    return test


for _n, _name, _check in CRITERIA:
    globals()[f"test_criterion_{_n:02d}_{_name}"] = _criterion_test(_n, _name, _check)


def test_criteria_use_no_assert_statement():
    # python -O strips assert statements; the criteria must raise through check()
    import ast
    import inspect

    import hjlab.acceptance

    tree = ast.parse(inspect.getsource(hjlab.acceptance))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
