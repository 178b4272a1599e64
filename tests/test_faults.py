"""Fault injection: a perturbed table makes the check that guards it fail.
Verification reports the failure as FAIL records, and the command exits 1
with a one-line message and no traceback, also under ``python -O`` (the
package has no asserts)."""

import ast
import dataclasses
import inspect
import math
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
GL2_F4_OUTSIDE = "GL2(F4): the product ((2, 1), (3, 2)) is not an enumerated element"


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
        (2, -1, 2, "add", 2, 3, 0,
         "GU2(F2): no column 1 of a basis for the form ((0, 1), (1, 0)) in F_4"),
    ],
)
def test_field_entry_fails_oracle_construction(
    field_f4, capsys, n, eps, q0, table, a, b, value, message
):
    # each corruption breaks one step of the class split or of building
    # Kawanaka's datum, which must fail as a check, not as some other exception
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
        *(
            # matched literally, with the id that the message itself gives
            pytest.param(2, -1, 2, "add", a, b, value, re.escape(message),
                         id=f"2--1-2-add-{a}-{b}-{value}-{message}")
            for a, b, value, message in [
                (0, 1, 2, "GU2(F2): no column 0 of a basis for the form ((0, 1), (1, 0)) in F_4"),
                (1, 1, 1, "GU2(F2): no trace-zero element in F_4"),
            ]
        ),
    ],
)
def test_field_entry_fails_whittaker_construction(
    field_f4, n, eps, q0, table, a, b, value, message
):
    # the group is enumerated and split before the field is corrupted, so the
    # corruption reaches Kawanaka's datum, whose searches must fail as checks
    G = oracle.enumerate_group(n, eps, q0)
    G.classes()
    getattr(field_f4, table)[a][b] = value
    with pytest.raises(ContractError, match=message):
        oracle.gelfand_graev_inner(G)


def test_whittaker_element_outside_the_split_fails():
    # elements are looked up by code in the index that the class split builds
    G = oracle.enumerate_group(2, 1, 4)
    G.classes()
    del G._index[G.encode(oracle.mat_identity(2))]
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
        del G.codes[G.codes.index(G.encode(identity)) if which == "identity" else -1]
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


def identity_inverse(F, A):
    """A ``mat_inv`` that returns the identity: an enumerated element, but
    the inverse of no generator."""
    return tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))


GL2_F3_WRONG_INVERSE = "GL2(F3): ((1, 0), (0, 1)) is not the inverse of ((0, 1), (1, 0))"


def test_wrong_inverse_fails(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "mat_inv", identity_inverse)
    G = oracle.enumerate_group(2, 1, 3)
    with pytest.raises(ContractError, match=re.escape(GL2_F3_WRONG_INVERSE)):
        G.classes()
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {GL2_F3_WRONG_INVERSE}\n")


def test_identity_class_of_size_two_fails_regular_rep_inner():
    G = oracle.enumerate_group(2, 1, 3)
    classes = G.classes()
    idx = G.class_index()[oracle.mat_identity(2)]
    classes[idx] = dataclasses.replace(classes[idx], size=2)
    # oracle_report compares it with endo_dim((1, 1)) at q0 = 3, which is |G|
    assert kawanaka.endo_dim(P((1, 1)), 1)(3) == G.order == 48
    assert oracle.regular_rep_inner(G) == 24


def merge_exponents(kawanaka_datum):
    """``kawanaka_datum`` with exponent 2 read as 1, so psi is no longer a
    character: on GL2(3) the regular unipotent class gets the exponent counts
    [0, 2, 0] for mu = (2), and the sum of psi over it is 2*zeta_3, not
    rational."""

    def merged(G, mu):
        H, dim_g1 = kawanaka_datum(G, mu)
        return {u: 1 if k == 2 else k for u, k in H.items()}, dim_g1

    return merged


GL2_F3_IRRATIONAL = (
    "GL2(F3): the sum of psi over the class of ((0, 1), (2, 2)) is not rational: "
    "exponent counts [0, 2, 0]"
)


def test_irrational_class_sum_fails(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "kawanaka_datum", merge_exponents(oracle.kawanaka_datum))
    G = oracle.enumerate_group(2, 1, 3)
    with pytest.raises(ContractError, match=re.escape(GL2_F3_IRRATIONAL)):
        oracle.gelfand_graev_inner(G)
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {GL2_F3_IRRATIONAL}\n")


def drop_dim_g1(kawanaka_datum):
    """``kawanaka_datum`` with dim g_1 read as 0, so the factor q0^(dim g_1)
    is dropped: on GL3(2), where dim g_1 = 2 for mu = (2, 1), the check
    expects endo_dim((2, 1))(2) = 11 against the inner product 44."""

    def dropped(G, mu):
        return kawanaka_datum(G, mu)[0], 0

    return dropped


def shift_last_exponent(kawanaka_datum):
    """``kawanaka_datum`` with the exponent of its last element raised by 1:
    on GL3(2) psi is then no character of U for mu = (3), and the class sums
    give 240 over |U|^2 = 64."""

    def shifted(G, mu):
        H, dim_g1 = kawanaka_datum(G, mu)
        *_, last = H
        return {**H, last: (H[last] + 1) % G.field.p}, dim_g1

    return shifted


GL3_F2_DATUM_FAULTS = {
    "drop_dim_g1": (
        "gggr_inner_2_1,11,44,False\n",
        "",
    ),
    "shift_last_exponent": (
        "",
        "gggr: check failed: GL3(F2): induced inner product not integral: 240 / 64\n",
    ),
}


@pytest.mark.parametrize("fault", [drop_dim_g1, shift_last_exponent])
def test_datum_fault_fails_gggr_inner_check(monkeypatch, capsys, fault):
    # a fault in Kawanaka's datum makes the per-mu check fail, as a mismatch
    # or as a failed check of the class sum, and the command exits 1
    monkeypatch.setattr(oracle, "kawanaka_datum", fault(oracle.kawanaka_datum))
    assert main(["oracle", "--n", "3", "--q", "2", "--format", "csv"]) == 1
    out, err = capsys.readouterr()
    mismatch, message = GL3_F2_DATUM_FAULTS[fault.__name__]
    assert [row for row in out.splitlines(True) if row.endswith(",False\n")] == (
        [mismatch] if mismatch else []
    )
    assert err == message


@pytest.mark.parametrize(
    "size, inner, message",
    [
        (5, "regular_rep_inner", "the class of ((1, 0), (0, 1)) has 5 elements, "
         "which does not divide |G| = 48"),
        (2, "gelfand_graev_inner", "induced inner product not integral: 30 / 9"),
    ],
)
def test_identity_class_size_fails_exact_division(size, inner, message):
    # GL2(3): 48/5 leaves a remainder; with size 2 the Gelfand-Graev sum is
    # 24*1^2 + 6*(-1)^2 = 30 over |U|^2 = 9
    G = oracle.enumerate_group(2, 1, 3)
    classes = G.classes()
    idx = G.class_index()[oracle.mat_identity(2)]
    classes[idx] = dataclasses.replace(classes[idx], size=size)
    with pytest.raises(ContractError, match=re.escape(f"GL2(F3): {message}")):
        getattr(oracle, inner)(G)


# -- the Hall-Littlewood factorisation ----------------------------------------


HL_CACHES = (symfunc._hl_factor, symfunc._monomial_count)


@pytest.fixture
def hl_inject(monkeypatch):
    """Like ``inject``, for the caches of the Hall-Littlewood route."""
    for cache in HL_CACHES:
        cache.cache_clear()
    yield monkeypatch.setattr
    for cache in HL_CACHES:
        cache.cache_clear()


def hl_fails(n, message):
    """Every p_rho with rho |- n fails with a ContractError carrying message;
    a ZeroDivisionError or a bare ArithmeticError is not a ContractError."""
    for rho in symfunc.partitions_of(n):
        with pytest.raises(ContractError) as info:
            symfunc.hall_littlewood_expand(rho)
        assert str(info.value) == message


def test_monomial_count_off_by_one_fails_gram_divisibility(hl_inject):
    count = symfunc._monomial_count
    hl_inject(
        symfunc,
        "_monomial_count",
        lambda rho, mu: count(rho, mu) + (tuple(rho) == tuple(mu) == (3, 1)),
    )
    hl_fails(4, "n! * G is not divisible by 4! = 24")


@pytest.mark.parametrize(
    "z, message",
    [(4, "n! * G is not divisible by 4! = 24"), (16, "z_rho of (2, 2) does not divide 4!")],
)
def test_changed_z_rho_fails(hl_inject, z, message):
    z_rho = symfunc.weyl_centralizer_order
    assert z_rho(P((2, 2))) == 8
    hl_inject(symfunc, "weyl_centralizer_order", lambda rho: z if rho == (2, 2) else z_rho(rho))
    hl_fails(4, message)


def test_perturbed_b_fails_pivot_check(hl_inject):
    b = symfunc._b
    hl_inject(symfunc, "_b", lambda la: (b(la)[0] + 1,) + b(la)[1:] if la == (2, 1, 1) else b(la))
    hl_fails(4, "the pivot of (2, 1, 1) is not b_la(t)")


BILINEAR = symfunc.bilinear


def perturbed_gram(mu, la, delta):
    """``bilinear`` with delta added, times n!, to G[mu][la] and G[la][mu]."""

    def bilinear(a, w, b):
        out = BILINEAR(a, w, b)
        parts = symfunc.partitions_of(sum(mu))
        fact = math.factorial(sum(mu))
        for i, j in ((parts.index(mu), parts.index(la)), (parts.index(la), parts.index(mu))):
            out[i][j] = symfunc._sub_products(out[i][j], [((-fact,), delta)])
        return out

    return bilinear


def test_gram_entry_fails_exact_division(hl_inject):
    # b_(2,2)(t) = (1 - t)(1 - t^2) does not divide the entry plus 1
    hl_inject(symfunc, "bilinear", perturbed_gram(P((2, 1, 1)), P((2, 2)), (1,)))
    hl_fails(4, "G[(2, 1, 1)][(2, 2)] less the known terms is not divisible by b_la(t)")


def test_gram_entry_fails_dominance(hl_inject):
    # (3, 3) and (4, 1, 1) are incomparable; adding b_(4,1,1)(t) to their
    # entry makes W[(4, 1, 1)][(3, 3)] = 1 with every division exact
    la = P((4, 1, 1))
    hl_inject(symfunc, "bilinear", perturbed_gram(P((3, 3)), la, symfunc._b(la)))
    hl_fails(6, "P_(4, 1, 1) has a monomial (3, 3) it does not dominate")


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


def test_inverse_check_survives_python_O():
    script = inspect.getsource(identity_inverse) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "gggr.oracle.mat_inv = identity_inverse\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F3_WRONG_INVERSE}\n"


def test_rationality_check_survives_python_O():
    script = inspect.getsource(merge_exponents) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "gggr.oracle.kawanaka_datum = merge_exponents(gggr.oracle.kawanaka_datum)\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F3_IRRATIONAL}\n"


@pytest.mark.parametrize("fault", [drop_dim_g1, shift_last_exponent])
def test_datum_fault_survives_python_O(fault):
    script = inspect.getsource(fault) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        f"gggr.oracle.kawanaka_datum = {fault.__name__}(gggr.oracle.kawanaka_datum)\n"
        "sys.exit(main(['oracle', '--n', '3', '--q', '2', '--format', 'csv']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    mismatch, message = GL3_F2_DATUM_FAULTS[fault.__name__]
    assert [row for row in done.stdout.splitlines(True) if row.endswith(",False\n")] == (
        [mismatch] if mismatch else []
    )
    assert done.stderr == message


def test_hall_littlewood_checks_survive_python_O():
    script = (
        "import gggr.symfunc as s\n"
        "from gggr.errors import ContractError\n"
        "b = s._b\n"
        "s._b = lambda la: (b(la)[0] + 1,) + b(la)[1:] if la == (2, 1, 1) else b(la)\n"
        "try:\n"
        "    s.hall_littlewood_expand(s.Partition((4,)))\n"
        "except ContractError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(1)\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    assert done.stdout == "the pivot of (2, 1, 1) is not b_la(t)\n"


def untyped_checks(tree):
    """(line, kind) of each assert, which vanishes under python -O, and of
    each raised bare ArithmeticError or AssertionError, which verification
    cannot tell from a failed check; checks raise ContractError instead."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ArithmeticError", "AssertionError"):
                yield node.lineno, "raise"


def package_checks(kind):
    return [
        f"{path.name}:{line}"
        for path in sorted((SRC / "gggr").glob("*.py"))
        for line, found in untyped_checks(ast.parse(path.read_text(encoding="utf-8")))
        if found == kind
    ]


def test_package_has_no_assert_statements():
    assert package_checks("assert") == []


def test_package_raises_no_bare_arithmetic_or_assertion_error():
    assert package_checks("raise") == []


def test_untyped_check_guard_can_fail():
    source = (
        "assert x\n"
        "raise ArithmeticError('inexact')\n"
        "raise AssertionError\n"
        "raise ContractError('typed')\n"
        "raise ValueError('usage')\n"
    )
    assert list(untyped_checks(ast.parse(source))) == [(1, "assert"), (2, "raise"), (3, "raise")]
