"""Fault injection: a perturbed table makes the check that guards it fail.
Verification reports the failure as FAIL records, and the command exits 1
with a one-line message and no traceback, also under ``python -O`` (the
package has no asserts)."""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gggr.green as green
import gggr.grouporders as grouporders
import gggr.kawanaka as kawanaka
import gggr.oracle as oracle
import gggr.symfunc as symfunc
from gggr.cli import main
from gggr.errors import ContractError, NonExactDivisionError
from gggr.kawanaka import gggr_value, verify_theorem
from gggr.partitions import Partition

P = Partition
SRC = Path(__file__).resolve().parents[1] / "src"

CACHES = (
    green.green_matrix,
    green._green,
    green.green_table,
    grouporders._centralizer,
    grouporders.class_size_coeffs,
    kawanaka._gamma_matrix,
    kawanaka._gamma_row,
    kawanaka._gggr_value,
    kawanaka._endo_dim,
)


GREEN_MATRIX = green.green_matrix


def perturbed_green(n):
    """The Green table with 1 added to the constant term of Q_(n)^(n)."""
    table = [list(row) for row in GREEN_MATRIX(n)]
    entry = table[0][0]
    table[0][0] = (entry[0] + 1,) + entry[1:]
    return tuple(map(tuple, table))


@pytest.fixture
def inject(monkeypatch):
    """Patch a table in place; every cache that could hold a value computed
    from it is cleared before and after the test."""
    for cache in CACHES:
        cache.cache_clear()
    yield monkeypatch.setattr
    for cache in CACHES:
        cache.cache_clear()


def all_fail(report):
    return not report.passed and all(
        not r.passed and r.poly is None for r in report.results
    )


def test_green_coefficient_fails_gamma_integrality(inject):
    inject(kawanaka, "green_matrix", perturbed_green)
    with pytest.raises(ContractError, match=r"gamma_\(3,\)\(\(3,\)\) is not integral at q = 2"):
        gggr_value(P((3,)), P((3,)), 1)
    assert all_fail(verify_theorem(3, 1))
    assert all_fail(verify_theorem(3, -1))


def test_green_coefficient_fails_verify_command(inject, capsys):
    inject(kawanaka, "green_matrix", perturbed_green)
    assert main(["verify", "--n", "3", "--format", "pretty"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL mu=(3):" in out and out.endswith("RESULT: FAIL\n")
    assert err == ""
    assert main(["gggr", "--mu", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "check failed" in err and "not integral" in err


def test_green_coefficient_fails_orthogonality(inject):
    inject(green, "green_matrix", perturbed_green)
    result = green.verify_orthogonality(3, -1)
    assert not result.ok
    rho, pi, lhs, rhs = result.witness
    assert (rho, pi) == (P((3,)), P((3,))) and lhs != rhs


def test_class_size_fails_exact_division(inject):
    def perturbed_sizes(la, eps):
        size = grouporders.class_size_coeffs(la, eps)
        return (size[0] + 1,) + size[1:] if la == (3,) else size

    inject(kawanaka, "class_size_coeffs", perturbed_sizes)
    with pytest.raises(NonExactDivisionError, match="not divisible by |G|"):
        kawanaka.endo_dim(P((3,)), 1)
    report = verify_theorem(3, 1)
    assert not report.passed
    assert report.results[0].poly is None and not report.results[0].passed


def test_green_negative_power_is_typed(inject):
    # X_rho^la of degree above n(la) would give Q_rho^la a negative power
    def x_too_long(n):
        return tuple(tuple(x + (1,) for x in row) for row in symfunc.x_matrix(n))

    inject(green, "x_matrix", x_too_long)
    with pytest.raises(ContractError, match="negative powers"):
        green.green_matrix(3)
    assert all_fail(verify_theorem(3, 1))


def test_centralizer_negative_power_is_typed(inject):
    # the transpose taken as the identity undercounts sum (la'_j)^2
    inject(grouporders, "conjugate", lambda la: la)
    with pytest.raises(ContractError, match="negative power"):
        grouporders.unipotent_centralizer_order(P((1, 1, 1)), 1)
    report = verify_theorem(3, 1)
    assert not report.passed
    assert report.results[-1].poly is None


def corrupt_f4(field):
    """x + (x + 1) = x in place of 1 in the addition table of F_4 (elements
    0, 1, x, x + 1 encoded as 0..3), so the trace x + x^2 of x reads x."""
    field.add[2][3] = 2


@pytest.fixture
def field_f4():
    """The cached F_4, to be corrupted in place; the cache is cleared after."""
    oracle.finite_field.cache_clear()
    yield oracle.finite_field(4)
    oracle.finite_field.cache_clear()


#: What the corrupted F_4 of ``corrupt_f4`` trips first in GL2(4): the
#: enumeration is no longer a group, so the closure check of the generating set
#: fails before the trace is ever taken.
GL2_F4_OUTSIDE = "GL2(F4): the product ((2, 2), (2, 2)) is not an enumerated element"


def test_field_entry_fails_oracle_trace(field_f4, capsys):
    corrupt_f4(field_f4)
    with pytest.raises(ContractError, match=re.escape(GL2_F4_OUTSIDE)):
        oracle.oracle_report(2, 1, 4)
    assert main(["oracle", "--n", "2", "--q", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"gggr: check failed: {GL2_F4_OUTSIDE}\n"


@pytest.mark.parametrize(
    "n, eps, q0, table, a, b, value, message",
    [
        (2, 1, 4, "add", 0, 0, 1, "GL2(F4): an enumerated element is singular"),
        (2, -1, 2, "add", 1, 1, 1, "an enumerated element is singular"),
        (2, -1, 2, "add", 0, 1, 2, "GU2(F2): the identity is not an enumerated element"),
        (2, -1, 2, "add", 2, 3, 0, "is not a hyperbolic basis"),
    ],
)
def test_field_entry_fails_oracle_construction(
    field_f4, capsys, n, eps, q0, table, a, b, value, message
):
    # each corruption breaks one step of the class split or of building the
    # Whittaker data, which must fail as a check, not as some other exception
    getattr(field_f4, table)[a][b] = value
    assert main(["oracle", "--n", str(n), "--q", str(q0), "--eps", f"{eps:+d}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gggr: check failed: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "n, eps, q0, table, a, b, value, message",
    [
        (2, 1, 4, "add", 2, 3, 2, "^trace of 2 in F_4 left the prime field: 2$"),
        (2, -1, 2, "add", 0, 1, 2, "no hyperbolic pair or trace-zero element in F_4"),
    ],
)
def test_field_entry_fails_whittaker_construction(
    field_f4, n, eps, q0, table, a, b, value, message
):
    # the group is enumerated and split before the field is corrupted, so the
    # corruption reaches the Whittaker data, which must fail as a check
    G = oracle.enumerate_group(n, eps, q0)
    G.classes()
    getattr(field_f4, table)[a][b] = value
    with pytest.raises(ContractError, match=message):
        oracle.gelfand_graev_inner(G)


def test_whittaker_element_outside_the_split_fails():
    G = oracle.enumerate_group(2, 1, 4)
    del G.class_index()[oracle.mat_identity(2)]
    with pytest.raises(
        ContractError, match=re.escape("Whittaker element ((1, 0), (0, 1)) is not in the group")
    ):
        oracle.gelfand_graev_inner(G)


def drop_element(enumerate_group, which):
    """``enumerate_group`` with one element left out of every group: the
    identity, or else the last element."""

    def enumerate_without(n, eps, q0):
        G = enumerate_group(n, eps, q0)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        del G.elements[G.elements.index(identity) if which == "identity" else -1]
        return G

    return enumerate_without


def dropped_message(which):
    if which == "identity":
        return "gggr: check failed: GL2(F3): the identity is not an enumerated element\n"
    last = oracle.enumerate_group(2, 1, 3).elements[-1]
    return f"gggr: check failed: GL2(F3): the product {last} is not an enumerated element\n"


@pytest.mark.parametrize("which", ["identity", "last"])
def test_missing_element_fails_oracle_closure(monkeypatch, capsys, which):
    # the generating set is checked by closure: every product of generators
    # must be enumerated, starting from the identity
    message = dropped_message(which)
    monkeypatch.setattr(oracle, "enumerate_group", drop_element(oracle.enumerate_group, which))
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message


def test_conjugate_outside_the_group_fails(monkeypatch):
    # conjugating by a matrix that is not unitary leaves GU2(3)
    monkeypatch.setattr(oracle, "mat_inv", lambda F, A: ((1, 1), (0, 1)))
    G = oracle.enumerate_group(2, -1, 3)
    with pytest.raises(ContractError, match="is not an enumerated element"):
        G.classes()


def test_identity_class_of_size_two_fails_regular_rep_inner():
    G = oracle.enumerate_group(2, 1, 3)
    classes = G.classes()
    idx = G.class_index()[oracle.mat_identity(2)]
    classes[idx] = dataclasses.replace(classes[idx], size=2)
    # oracle_report compares it with endo_dim((1, 1)) at q0 = 3, which is |G|
    assert kawanaka.endo_dim(P((1, 1)), 1)(3) == G.order == 48
    assert oracle.regular_rep_inner(G) == 96


def run_optimized(script):
    """Run a script under ``python -O`` on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-O", "-c", "import sys\n"
         "if sys.flags.optimize != 1: sys.exit(5)\n" + script],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_checks_survive_python_O():
    script = (
        "import gggr.green, gggr.kawanaka\n"
        "from gggr.cli import main\n"
        "def bad(n):\n"
        "    t = [list(r) for r in gggr.green.green_matrix(n)]\n"
        "    t[0][0] = (t[0][0][0] + 1,) + t[0][0][1:]\n"
        "    return tuple(map(tuple, t))\n"
        "gggr.kawanaka.green_matrix = bad\n"
        "sys.exit(main(['verify', '--n', '4', '--eps', '-1', '--format', 'csv']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    rows = done.stdout.splitlines()
    assert rows[0] == "mu,degree,monic,pass"
    assert len(rows) == 6 and all(row.endswith(",False") for row in rows[1:])


def test_oracle_checks_survive_python_O():
    script = inspect.getsource(corrupt_f4) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "corrupt_f4(gggr.oracle.finite_field(4))\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '4']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F4_OUTSIDE}\n"


@pytest.mark.parametrize("which", ["identity", "last"])
def test_oracle_closure_survives_python_O(which):
    script = inspect.getsource(drop_element) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        f"gggr.oracle.enumerate_group = drop_element(gggr.oracle.enumerate_group, {which!r})\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == dropped_message(which)


def test_package_has_no_assert_statements():
    # an assert vanishes under python -O; checks raise typed errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "gggr").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
