"""Fault injection: a perturbed table makes the check that guards it fail.
Verification reports the failure as FAIL records, and the command exits 1
with a one-line message and no traceback, also under ``python -O`` (the
package has no asserts).

A fault that also runs under ``python -O`` is written once, as a ``Fault``:
``check`` injects it and runs its call in process, and its ``-O`` test runs
a ``python -O`` script built from the same definition; both runs must give
the fault's exit code, stdout and stderr."""

import ast
import importlib
import inspect
import itertools
import math
import os
import pkgutil
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

import gggr
import gggr.fields as fields
import gggr.green as green
import gggr.grouporders as grouporders
import gggr.intpoly as intpoly
import gggr.kawanaka as kawanaka
import gggr.oracle as oracle
import gggr.partitions as partitions
import gggr.symfunc as symfunc
from gggr.cli import main
from gggr.errors import ContractError, NonExactDivisionError
from gggr.intpoly import scale
from gggr.kawanaka import gggr_value, verify_theorem
from gggr.partitions import Partition
from gggr.polyring import RationalPoly
from test_intpoly import add, schoolbook

P = Partition
SRC = Path(__file__).resolve().parents[1] / "src"

#: Every lru_cache of the package, found by walking its modules.
PACKAGE_CACHES = {
    value
    for module in pkgutil.iter_modules(gggr.__path__)
    for value in vars(importlib.import_module(f"gggr.{module.name}")).values()
    if hasattr(value, "cache_clear")
}


def clear_caches():
    for cache in PACKAGE_CACHES:
        cache.cache_clear()


@pytest.fixture
def inject(monkeypatch):
    """``monkeypatch.setattr`` that first clears every cache of the package,
    so that no value computed before the fault hides it.  The caches are
    also cleared before and after the test, which drops a cached object that
    the test corrupts."""

    def setattr(owner, name, value):
        clear_caches()
        monkeypatch.setattr(owner, name, value)

    clear_caches()
    yield setattr
    clear_caches()


class Fault(NamedTuple):
    """One fault and what it must give.  ``patch`` injects it: a line
    ``target = value`` that replaces an attribute, or a statement that
    corrupts a cached object.  ``helpers`` are the functions of this module
    that ``patch`` and ``call`` use; anything else they use comes from
    ``PRELUDE``.  ``call`` is an expression, run as ``run`` runs it, which
    must give the exit code ``code``, the stdout ``out`` (as a list, the
    rows of a csv report that fail) and the stderr ``err``."""

    patch: str
    helpers: tuple
    call: str
    code: int = 1
    out: str | list | None = ""
    err: str = ""


#: The head of a fault's ``python -O`` script: the names that this module
#: gives a fault in process.
PRELUDE = """\
import itertools, resource, sys, time
if sys.flags.optimize != 1:
    sys.exit(5)
import gggr.fields as fields, gggr.green as green, gggr.grouporders as grouporders
import gggr.intpoly as intpoly, gggr.kawanaka as kawanaka, gggr.oracle as oracle
import gggr.partitions as partitions, gggr.symfunc as symfunc
from gggr.cli import main
from gggr.errors import ContractError
from gggr.intpoly import scale
from gggr.partitions import Partition as P
"""


def run(call, namespace):
    """Evaluate a fault's call in namespace and return the exit code: an int
    result is the code, as main's is; any other result is rows to print,
    with code 0; a failed check prints its message, with code 1."""
    try:
        result = eval(call, namespace)
    except ContractError as exc:
        print(exc)
        return 1
    if isinstance(result, int):
        return result
    for row in result or ():
        print(*row)
    return 0


def run_optimized(fault):
    """Exit code, stdout and stderr of a fault's script, run under ``python
    -O`` on this checkout's package: PRELUDE, the source of ``run`` and of
    the fault's helpers, its patch line and its call."""
    helpers = "".join(inspect.getsource(f) for f in (run, *fault.helpers))
    script = f"{PRELUDE}{helpers}{fault.patch}\nsys.exit(run({fault.call!r}, globals()))\n"
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def outcome(fault, code, out, err):
    """A run's exit code, stdout and stderr, as the fault states them."""
    if isinstance(fault.out, list):
        out = [row for row in out.splitlines(True) if row.endswith(",False\n")]
    return code, out, err


def optimized_test(faults):
    """A test that runs a fault, or each fault of a dict by its id, under
    ``python -O``: each run must give the fault's outcome."""

    def test(fault):
        assert outcome(fault, *run_optimized(fault)) == (fault.code, fault.out, fault.err)

    if isinstance(faults, Fault):
        return lambda: test(faults)
    return pytest.mark.parametrize("fault", faults.values(), ids=list(faults))(test)


def failed(message):
    """The stderr of a command whose check failed with message."""
    return f"gggr: check failed: {message}\n"


@pytest.fixture
def check(inject, capsys):
    """Inject a fault in process and run its call, which must give the
    fault's outcome.  The fault stays injected for the rest of the test."""

    def check(fault):
        namespace = dict(globals())
        target, assign, value = fault.patch.partition(" = ")
        if assign:
            owner, name = target.rsplit(".", 1)
            inject(eval(owner, namespace), name, eval(value, namespace))
        else:
            clear_caches()
            exec(fault.patch, namespace)
        capsys.readouterr()
        code = run(fault.call, namespace)
        assert outcome(fault, code, *capsys.readouterr()) == (fault.code, fault.out, fault.err)

    return check


def test_fault_in_symfunc_fails_under_the_cache_fixture(inject):
    # the caches hold the verified theorem at n = 3, X among them; the
    # fixture clears them all, so a changed character of S_3 reaches it
    assert verify_theorem(3, 1).passed
    mn = symfunc.mn_character
    inject(symfunc, "mn_character", lambda mu, rho: mn(mu, rho) + (mu == rho == (3,)))
    assert not verify_theorem(3, 1).passed


def perturbed_green(green_matrix, delta=(1,), at=0):
    """``green_matrix`` with ``delta`` added to Q_rho^rho for the rho at index
    ``at``: by default 1 added to the constant term of Q_(n)^(n)."""

    def perturbed(n):
        table = [list(row) for row in green_matrix(n)]
        pairs = itertools.zip_longest(table[at][at], delta, fillvalue=0)
        table[at][at] = tuple(a + b for a, b in pairs)
        return tuple(map(tuple, table))

    return perturbed


def all_fail(report, condition, error):
    """Every record fails because endo_dim is not a polynomial, with a witness
    that names ``condition`` and an error message that matches ``error``."""
    return not report.passed and all(
        not r.passed
        and r.poly is None
        and (witness := r.to_json()["witness"]).keys() == {"condition", "error"}
        and witness["condition"] == condition
        and re.fullmatch(error, witness["error"])
        for r in report.results
    )


#: The changed Q_(3)^(3) leaves gamma_(3)((3)) out of Z[q], which fails the
#: whole gamma product of n = 3: the unitary rows are read off the split one.
NOT_INTEGRAL = "n! * gamma_(3,)((3,)) of GL_3 / 3! left remainder 4"


def test_green_coefficient_fails_gamma_integrality(inject):
    inject(kawanaka, "green_matrix", perturbed_green(green.green_matrix))
    with pytest.raises(NonExactDivisionError, match=f"^{re.escape(NOT_INTEGRAL)}$"):
        gggr_value(P((3,)), P((3,)), 1)
    assert all_fail(verify_theorem(3, 1), "division", re.escape(NOT_INTEGRAL))
    assert all_fail(verify_theorem(3, -1), "division", re.escape(NOT_INTEGRAL))


#: The changed Q_(n)^(n) fails every mu of GU_4 in the verify command.
GREEN_COEFFICIENT = Fault(
    "kawanaka.green_matrix = perturbed_green(green.green_matrix)", (perturbed_green,),
    "main(['verify', '--n', '4', '--eps', '-1', '--format', 'csv'])",
    out='mu,degree,monic,pass\n(4),,False,False\n"(3,1)",,False,False\n"(2,2)",,False,False\n'
        '"(2,1,1)",,False,False\n"(1,1,1,1)",,False,False\n',
)


def test_green_coefficient_fails_verify_command(check, capsys):
    check(GREEN_COEFFICIENT)
    assert main(["verify", "--n", "3", "--format", "pretty"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL mu=(3):" in out and out.endswith("RESULT: FAIL\n")
    assert err == ""
    assert main(["gggr", "--mu", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == failed(NOT_INTEGRAL)


#: (q - 2)(q - 3)(q - 4)(q - 5) added to Q_(1^n)^(1^n): it vanishes at every
#: default sample, so only gamma's coefficients, not its values there, can
#: show that n! * gamma_mu((1^n)) is no longer divisible by n!.
SAMPLE_BLIND = "n! * gamma_(3,)((1, 1, 1)) of GL_3 / 3! left remainder 4"
SAMPLE_BLIND_GREEN = Fault(
    "kawanaka.green_matrix = perturbed_green(green.green_matrix, (120, -154, 71, -14, 1), -1)",
    (perturbed_green,),
    "[(r.failure, r.error) for r in kawanaka.verify_theorem(3, -1).results]",
    code=0, out=f"division {SAMPLE_BLIND}\n" * 3,
)


def test_green_change_that_vanishes_at_the_samples_fails(check):
    check(SAMPLE_BLIND_GREEN)
    for eps in (1, -1):
        assert all_fail(verify_theorem(3, eps), "division", re.escape(SAMPLE_BLIND))


#: 1 added to Q_(1^7)^(1^7): the gamma product of n = 7 fails for every mu.
EVERY_MU = "n! * gamma_(7,)((1, 1, 1, 1, 1, 1, 1)) of GL_7 / 7! left remainder 5039"


def test_failing_gamma_product_is_built_once_per_verify(inject):
    # a failure is not cached, so each mu that asked for the product would
    # build it again, to the same witness: 15 products per call at n = 7
    inject(kawanaka, "green_matrix", perturbed_green(green.green_matrix, (1,), -1))
    calls = []
    bilinear = kawanaka.bilinear
    inject(kawanaka, "bilinear", lambda *args: calls.append(args) or bilinear(*args))
    for eps in (1, -1):
        calls.clear()
        report = verify_theorem(7, eps)
        assert len(calls) == 1
        assert len(report.results) == 15
        assert all_fail(report, "division", re.escape(EVERY_MU))


def test_green_coefficient_fails_orthogonality(inject):
    inject(green, "green_matrix", perturbed_green(green.green_matrix))
    result = green.verify_orthogonality(3, -1)
    assert not result.ok
    rho, pi, lhs, rhs = result.witness
    assert (rho, pi) == (P((3,)), P((3,))) and lhs != rhs
    # |W_(3)| * |GU_3| / |T_(3)| = 3 * q^3 (q + 1)(q^2 - 1), as |T_(3)| = q^3 + 1
    expected = schoolbook((0, 0, 0, 3), schoolbook((1, 1), (-1, 0, 1)))
    assert schoolbook(expected, (1, 0, 0, 1)) == scale(grouporders.group_order_coeffs(3, -1), 3)
    assert rhs == RationalPoly(expected, "q")


def test_green_sign_fails_orthogonality_off_the_diagonal(inject):
    """Q_(3)^(2,1) negated: every diagonal sum keeps its squares, so the first
    pair to fail is ((3), (2,1)), whose sum must vanish."""
    green_matrix = green.green_matrix

    def perturbed(n):
        table = [list(row) for row in green_matrix(n)]
        table[0][1] = scale(table[0][1], -1)
        return tuple(map(tuple, table))

    inject(green, "green_matrix", perturbed)
    for eps in (1, -1):
        result = green.verify_orthogonality(3, eps)
        assert not result.ok
        rho, pi, lhs, rhs = result.witness
        assert (rho, pi) == (P((3,)), P((2, 1))) and lhs != rhs
        assert rhs.coeffs == ()


def flipped_torus(rho, eps):
    """|T_(2,1)| negated, so one weight of the gamma product has the wrong
    sign."""
    t = grouporders.torus_order_coeffs(rho, eps)
    return scale(t, -1) if rho == (2, 1) else t


#: The support failure under ``flipped_torus``: the first off-support entry
#: of the GL_3 product, which every mu of n = 3 fails with, for both eps.
OFF_SUPPORT = (
    "gamma_(2, 1)((3,)) of GL_3 = q^4 - q^3 - q^2 + q is not zero, "
    "but (3,) is not dominated by (2, 1)"
)

GAMMA_SUPPORT = Fault(
    "kawanaka.torus_order_coeffs = flipped_torus", (flipped_torus,),
    "[(r.failure, r.error) for r in kawanaka.verify_theorem(3, 1).results]",
    code=0,
    out=f"contract {OFF_SUPPORT}\n" * 3,
)


def test_flipped_torus_weight_fails_the_gamma_support(check, inject):
    # with one torus weight negated, gamma_(2,1) and gamma_(1,1,1) take
    # values on (3), outside the closure of their classes.  endo_dim is
    # unmoved at n = 3, so monic, degree, division and samples all pass:
    # the support check alone fails it, once on the GL_3 product, so every
    # mu of n = 3 fails alike (test_golden and
    # test_batched_gamma_matches_per_rho_sum also see the changed gamma)
    check(GAMMA_SUPPORT)
    for eps in (1, -1):
        report = verify_theorem(3, eps)
        assert [r.failure for r in report.results] == ["contract"] * 3
        assert [str(r.error) for r in report.results] == [OFF_SUPPORT] * 3
        with pytest.raises(ContractError, match=f"^{re.escape(OFF_SUPPORT)}$"):
            gggr_value((2, 1), (3,), eps)
    inject(kawanaka, "dominated", lambda la, mu: True)
    assert verify_theorem(3, 1).passed and verify_theorem(3, -1).passed
    # the support test reads the same values, with a dominance order of its own
    from test_kawanaka import test_gamma_is_supported_on_the_dominated_classes as supported

    for eps in (1, -1):
        with pytest.raises(AssertionError):
            supported(eps)


def torus_off_by_one(rho, eps):
    """|T_(2,1)| with 1 added to its constant term; still monic."""
    t = grouporders.torus_order_coeffs(rho, eps)
    return (t[0] + 1,) + t[1:] if rho == (2, 1) else t


TORUS_DIVISION = Fault(
    "green.torus_order_coeffs = torus_off_by_one", (torus_off_by_one,),
    "green.verify_orthogonality(3, 1)", out="|G| / |T_rho| for (2, 1) left remainder (0, 4)\n",
)


def test_torus_order_fails_exact_division(check):
    check(TORUS_DIVISION)
    for eps in (1, -1):
        with pytest.raises(NonExactDivisionError, match=r"\|T_rho\| for \(2, 1\) left remainder"):
            green.verify_orthogonality(3, eps)


def test_class_size_fails_exact_division(inject):
    def perturbed_sizes(la, eps):
        size = grouporders.class_size_coeffs(la, eps)
        return (size[0] + 1,) + size[1:] if la == (3,) else size

    inject(kawanaka, "class_size_coeffs", perturbed_sizes)
    message = "sum_la |class la| gamma_(3,)(la)^2 / |G| left remainder (1, -2, 1)"
    with pytest.raises(NonExactDivisionError, match=f"^{re.escape(message)}$"):
        kawanaka.endo_dim(P((3,)), 1)
    report = verify_theorem(3, 1)
    assert not report.passed
    assert report.results[0].poly is None and not report.results[0].passed
    witness = report.results[0].to_json()["witness"]
    assert witness["condition"] == "division"
    assert witness["error"] == message


def doubled_w_22(rho):
    """|W_rho| with |W_(2,2)| = 8 doubled to 16, which does not divide 4!."""
    return 16 if rho == (2, 2) else partitions.weyl_centralizer_order(rho)


W_RHO = "4! / |W_rho| of (2, 2) left remainder 8"
W_RHO_DIVISION = Fault(
    "kawanaka.weyl_centralizer_order = doubled_w_22", (doubled_w_22,),
    "[(r.failure, r.error) for r in kawanaka.verify_theorem(4, 1).results]",
    code=0, out=f"division {W_RHO}\n" * 5,
)


def test_w_rho_fails_exact_division(check, capsys):
    # n! / |W_rho| weights every rho of the gamma product, so all of n = 4 fails
    check(W_RHO_DIVISION)
    assert all_fail(verify_theorem(4, -1), "division", re.escape(W_RHO))
    assert main(["verify", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert out.count(f'"error": "{W_RHO}"') == 5 and out.endswith('"pass": false\n}\n')
    assert err == ""


def test_green_negative_power_is_typed(inject):
    # X_rho^la of degree above n(la) would give Q_rho^la a negative power
    def x_too_long(n):
        return tuple(tuple(x + (1,) for x in row) for row in symfunc.x_matrix(n))

    inject(green, "x_matrix", x_too_long)
    with pytest.raises(ContractError, match="negative powers"):
        green.green_matrix(3)
    negative = re.escape("Green polynomial Q_(3,)^(3,) has negative powers: deg X = 1 > n(la) = 0")
    assert all_fail(verify_theorem(3, 1), "contract", negative)


def test_centralizer_negative_power_is_typed(inject):
    # the transpose taken as the identity undercounts sum (la'_j)^2
    inject(grouporders, "conjugate", lambda la: la)
    with pytest.raises(ContractError, match="negative power"):
        grouporders.unipotent_centralizer_order(P((1, 1, 1)), 1)
    # verify meets the class size of (3), which the same fault makes inexact,
    # before the centralizer of (1, 1, 1)
    report = verify_theorem(3, 1)
    remainder = re.escape("class size for (3,) left remainder (0, 0, 0, -1, 1, 1, 0, -1)")
    assert all_fail(report, "division", remainder)


def test_non_monic_centralizer_fails_verify_command(inject, capsys):
    # a doubled centralizer order of (2, 1) is no longer monic, so its class
    # size cannot be divided out: a failed check, never a usage error
    centralizer = grouporders._centralizer

    def doubled(la, eps):
        return scale(centralizer(la, eps), 2 if la == (2, 1) else 1)

    inject(grouporders, "_centralizer", doubled)
    with pytest.raises(ContractError, match="^divisor must be monic$"):
        grouporders.class_size(P((2, 1)), 1)
    assert all_fail(verify_theorem(3, 1), "contract", "divisor must be monic")
    assert main(["verify", "--n", "3", "--format", "pretty"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:] == [
        f"FAIL mu={mu}: degree None (target {target}), monic=False: <not a polynomial>"
        for mu, target in (("(3)", 3), ("(2,1)", 5), ("(1,1,1)", 9))
    ] + ["RESULT: FAIL"]


def perturbed_numerators(endo_numerators, change):
    """``endo_numerators`` with ``change`` applied to the numerator of every
    mu, given it and |G|."""

    def numerators(n, eps):
        order = grouporders.group_order_coeffs(n, eps)
        return tuple(change(f, order) for f in endo_numerators(n, eps))

    return numerators


def negative_at_5_only(f, order):
    """f less |G| c (q-2)(q-3)(q-4) where endo_dim = f / |G| has degree above
    3, c the least that makes endo_dim negative at q = 5: it keeps its
    leading term and its values at q = 2, 3, 4, and reads endo_dim(5) % 6 - 6
    at q = 5."""
    if len(f) - len(order) <= 3:
        return f
    c = intpoly.evaluate(f, 5) // intpoly.evaluate(order, 5) // 6 + 1
    return add(f, scale(schoolbook(order, (-24, 26, -9, 1)), -c))


@pytest.mark.parametrize(
    "condition, change",
    [
        # twice the numerator: endo_dim doubles, so it leads with 2
        ("monic", lambda f, order: scale(f, 2)),
        # q times the numerator: endo_dim is monic of one degree more
        ("degree", lambda f, order: (0,) + f),
        # less 1000 |G|: endo_dim less 1000, negative at q = 2 for every mu |- 3
        ("sample", lambda f, order: add(f, scale(order, -1000))),
        # negative at the last sample only, for mu = (2,1) and (1,1,1)
        pytest.param("sample", negative_at_5_only, id="sample-q5"),
    ],
)
def test_endo_numerator_fault_names_its_condition(inject, condition, change):
    expected = {mu: kawanaka.endo_dim(mu, 1) for mu in symfunc.partitions_of(3)}
    inject(kawanaka, "_endo_numerators", perturbed_numerators(kawanaka._endo_numerators, change))
    report = verify_theorem(3, 1)
    assert not report.passed
    for r in report.results:
        if change is negative_at_5_only and r.mu == (3,):
            assert r.passed  # endo_dim of degree 3 is left as it was
            continue
        witness = r.to_json()["witness"]
        assert r.polynomial and r.failure == witness["condition"] == condition
        if change is negative_at_5_only:
            value = expected[r.mu](5) % 6 - 6
            assert witness == {"condition": "sample", "q": 5, "value": [value, 1]}
        elif condition == "sample":
            value = expected[r.mu](2) - 1000
            assert witness == {"condition": "sample", "q": 2, "value": [value, 1]}


def loose_bound(young_bound, kernel=None):
    """``young_bound`` shifted down 32 bits where ``kernel`` (by default any
    caller) asks for it: every operand still fits the digits it sets, but the
    products outgrow them.  (Widths are whole machine words, often set by the
    operands; 16 bits below the bound still picks the same words for every
    product at n = 6.)"""

    def bound(terms):
        loose = kernel in (None, sys._getframe(1).f_code.co_name)
        return young_bound(terms) >> 32 if loose else young_bound(terms)

    return bound


@pytest.mark.parametrize("kernel, n", [("bilinear", 7), ("weighted_squares", 10)])
def test_kronecker_bound_carries_weight_in_each_kernel(inject, kernel, n):
    # each kernel must take its width from the bound: loosened in one alone,
    # the verification fails at an n where that width is the bound's and not
    # the operands'.  The gamma product fails every mu of its n; the endo
    # numerators, of squares of values in Z[q], first outgrow their digits
    # at n = 10, for two mu
    inject(intpoly, "young_bound", loose_bound(intpoly.young_bound, kernel))
    parts = partitions.partitions_of(n)
    failing = parts if kernel == "bilinear" else [P((4, 3, 1, 1, 1)), P((4, 2, 2, 1, 1))]
    for eps in (1, -1):
        report = verify_theorem(n, eps, cap=n)
        assert [r.mu for r in report.results] == parts
        assert {r.mu: r.failure for r in report.results if not r.passed} == dict.fromkeys(
            failing, "division"
        )


KRONECKER_BOUND = Fault(
    "intpoly.young_bound = loose_bound(intpoly.young_bound)", (loose_bound,),
    "main(['verify', '--n', '7', '--big', '--format', 'csv'])",
    out="mu,degree,monic,pass\n(7),,False,False\n"
        + "".join(f'"{mu}",,False,False\n' for mu in [
            "(6,1)", "(5,2)", "(5,1,1)", "(4,3)", "(4,2,1)", "(4,1,1,1)", "(3,3,1)", "(3,2,2)",
            "(3,2,1,1)", "(3,1,1,1,1)", "(2,2,2,1)", "(2,2,1,1,1)", "(2,1,1,1,1,1)",
            "(1,1,1,1,1,1,1)",
        ]),
)


def test_kronecker_bound_carries_weight(check, capsys):
    check(KRONECKER_BOUND)
    for eps in (1, -1):
        report = verify_theorem(7, eps)
        assert report.results and not any(r.passed for r in report.results)
        assert all(r.to_json()["witness"]["condition"] for r in report.results)
    assert main(["verify", "--n", "7", "--big"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith('  "pass": false\n}\n')


def corrupt_entry(field, table, entry, value):
    """``field`` with one entry of a table set: entry is (a,) or (a, b)."""
    *row, last = entry
    target = getattr(field, table)
    for i in row:
        target = target[i]
    target[last] = value
    return field


#: What the GL2(4) report trips when x + (x + 1) = x in the addition table of
#: its F_4 (elements 0, 1, x, x + 1 encoded as 0..3), so that the trace
#: x + x^2 of x reads x: the trace in psi of Kawanaka's datum.  The
#: enumeration is no longer a group, which only the closure of classes()
#: sees.
GL2_F4_TRACE = "trace of 2 in F_4 left the prime field: 2"
CORRUPT_F4 = Fault(
    "corrupt_entry(oracle.finite_field(4), 'add', (2, 3), 2)", (corrupt_entry,),
    "main(['oracle', '--n', '2', '--q', '4'])", err=failed(GL2_F4_TRACE),
)


def test_field_entry_fails_oracle_trace(check):
    check(CORRUPT_F4)
    with pytest.raises(ContractError, match=f"^{re.escape(GL2_F4_TRACE)}$"):
        oracle.oracle_report(2, 1, 4)
    outside = ("GL2(F4): the product ((2, 1), (3, 2)) of ((0, 3), (3, 2)) is not an "
               "enumerated element")
    with pytest.raises(ContractError, match=re.escape(outside)):
        oracle.enumerate_group(2, 1, 4).classes()


@pytest.mark.parametrize(
    "n, eps, q0, table, a, b, value, message",
    [
        pytest.param(2, 1, 4, "add", 2, 3, 0, "GL2(F4): an enumerated element is singular",
                     id="GL2F4-singular"),
        pytest.param(2, -1, 2, "add", 1, 1, 1, "GU2(F2): no trace-zero element in F_4",
                     id="GU2F2-trace-zero"),
        *(
            pytest.param(2, -1, 2, "add", a, b, value,
                         f"GU2(F2): no column {column} of a basis for the form ((0, 1), (1, 0)) "
                         "in F_4", id=f"GU2F2-column-{column}")
            for column, a, b, value in [(0, 0, 1, 2), (1, 2, 3, 0)]
        ),
    ],
)
def test_field_entry_fails_oracle_construction(check, n, eps, q0, table, a, b, value, message):
    # each corruption breaks one step of the class split or of building
    # Kawanaka's datum, which must fail as a check, not as some other exception
    check(Fault(
        f"corrupt_entry(oracle.finite_field(4), {table!r}, ({a}, {b}), {value})", (corrupt_entry,),
        f"main(['oracle', '--n', '{n}', '--q', '{q0}', '--eps', '{eps:+d}'])",
        err=failed(message),
    ))


@pytest.mark.usefixtures("inject")
@pytest.mark.parametrize(
    "n, eps, q0, table, a, b, value, message",
    [
        pytest.param(2, 1, 4, "add", 2, 3, 2, "^trace of 2 in F_4 left the prime field: 2$",
                     id="GL2F4-trace"),
        *(
            pytest.param(2, -1, 2, "add", a, b, value, re.escape(message), id=name)
            for name, a, b, value, message in [
                ("GU2F2-column-0", 0, 1, 2,
                 "GU2(F2): no column 0 of a basis for the form ((0, 1), (1, 0)) in F_4"),
                ("GU2F2-trace-zero", 1, 1, 1, "GU2(F2): no trace-zero element in F_4"),
            ]
        ),
    ],
)
def test_field_entry_fails_whittaker_construction(n, eps, q0, table, a, b, value, message):
    # the group is enumerated and split before the field is corrupted, so the
    # corruption reaches Kawanaka's datum, whose searches must fail as checks
    G = oracle.enumerate_group(n, eps, q0)
    G.classes()
    corrupt_entry(oracle.finite_field(4), table, (a, b), value)
    with pytest.raises(ContractError, match=message):
        oracle.gelfand_graev_inner(G)


#: One corrupted entry of a private field per axiom, as (q, table, entry,
#: value, axiom).  The checks run in this order, so each entry keeps every
#: axiom before its own; distributivity precedes associativity for each a.
DISTRIBUTIVITY = (4, "mul", (2, 2), 1, "distributivity")
AXIOM_FAULTS = [
    pytest.param(4, "add", (0, 0), 1, "identity axiom", id="identity"),
    pytest.param(9, "neg", (1,), 1, "negation axiom", id="negation"),
    pytest.param(4, "inv", (2,), 2, "inverse axiom", id="inverse"),
    pytest.param(4, "add", (1, 2), 2, "commutativity", id="commutativity"),
    pytest.param(*DISTRIBUTIVITY, id="distributivity"),
    pytest.param(9, "add", (1, 1), 0, "additive associativity", id="additive-associativity"),
    pytest.param(9, "mul", (3, 3), 0, "multiplicative associativity",
                 id="multiplicative-associativity"),
]


def axiom_fault(q, table, entry, value, axiom):
    """A private F_q with one entry of a table set fails the check of axiom."""
    return Fault(
        "", (corrupt_entry,),
        f"corrupt_entry(fields.FiniteField({q}), {table!r}, {entry}, {value})._verify_axioms()",
        out=f"F_{q}: {axiom} failed\n",
    )


@pytest.mark.parametrize("q, table, entry, value, axiom", AXIOM_FAULTS)
def test_field_entry_fails_its_axiom(check, q, table, entry, value, axiom):
    fields.FiniteField(q)._verify_axioms()  # private: the cached field stays intact
    check(axiom_fault(q, table, entry, value, axiom))


def test_field_without_a_primitive_modulus_fails(check):
    # Z/4 passed off as a prime field: no residue of Z/4 has three distinct
    # nonzero powers, so the search for a modulus fails as a check
    message = "no primitive polynomial of degree 1 over F_4"
    check(Fault("fields.is_prime_power = lambda q: (4, 1)", (),
                "main(['oracle', '--n', '2', '--q', '4'])", err=failed(message)))
    with pytest.raises(ContractError, match=f"^{message}$"):
        oracle.FiniteField(4)


def test_whittaker_element_outside_the_split_fails():
    # elements are looked up by code among the enumerated codes: without the
    # identity the datum is one element short, and a datum built before holds
    # an element that the certified split refuses
    G = oracle.enumerate_group(2, 1, 4)
    G.unipotent_classes()
    H, _ = oracle.kawanaka_datum(G, P((2,)))
    member, identity = G._member, G.encode(oracle.mat_identity(2))
    G._member = lambda code: code != identity and member(code)
    message = "GL2(F4): U_(>=2) for mu = (2,) has 3 elements, not 4^1 = 4"
    with pytest.raises(ContractError, match=re.escape(message)):
        oracle.gelfand_graev_inner(G)
    with pytest.raises(
        ContractError, match=re.escape("Whittaker element ((1, 0), (0, 1)) is not in the group")
    ):
        oracle._induced_inner(G, H)


def drop_element(enumerate_group, which):
    """``enumerate_group`` with one element left out of every group: the
    identity, or else the last element."""

    def enumerate_without(n, eps, q0):
        G = enumerate_group(n, eps, q0)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        del G.codes[G.codes.index(G.encode(identity)) if which == "identity" else -1]
        return G

    return enumerate_without


#: What GL2(3) without the identity or its last element fails: its report,
#: and the closure of classes().
GL2_F3_DROPPED = {
    "identity": ("GL2(F3): U_(>=2) for mu = (2,) has 2 elements, not 3^1 = 3",
                 "GL2(F3): the identity is not an enumerated element"),
    "last": ("GL2(F3): the class of ((0, 1), (2, 2)): |G| / |class| = 47 / 8 left remainder 7",
             "GL2(F3): the product ((2, 2), (2, 1)) of ((1, 0), (2, 2)) is not an enumerated "
             "element"),
}
DROP_ELEMENT = {
    which: Fault(f"oracle.enumerate_group = drop_element(oracle.enumerate_group, {which!r})",
                 (drop_element,), "main(['oracle', '--n', '2', '--q', '3'])", err=failed(report))
    for which, (report, _) in GL2_F3_DROPPED.items()
}


@pytest.mark.parametrize("which", list(GL2_F3_DROPPED))
def test_missing_element_fails_oracle_closure(check, which):
    # GL2(3) without the identity or its last element fails in the report,
    # which does not run the closure, and in the closure of classes(), where
    # every product of generators must be enumerated, from the identity on
    check(DROP_ELEMENT[which])
    closure = GL2_F3_DROPPED[which][1]
    with pytest.raises(ContractError, match=f"^{re.escape(closure)}$"):
        oracle.enumerate_group(2, 1, 3).classes()


def test_conjugate_outside_the_group_fails(inject):
    # conjugating by a matrix that is not unitary leaves GU2(3)
    inject(oracle, "mat_inv", lambda F, A: ((1, 1), (0, 1)))
    G = oracle.enumerate_group(2, -1, 3)
    with pytest.raises(ContractError, match="is not an enumerated element"):
        G.classes()


def drop_seed_class(certify, parts):
    """``OracleGroup._certify`` with the seeds of Jordan type ``parts`` left
    out, so the split never meets their class."""

    def dropped(G, seeds):
        return certify(G, [h for h in seeds if G.jordan_type(G.decode(h)) != parts])

    return dropped


#: The GL3(2) report's seeds miss the class of type (2, 1), 21 elements: the
#: orbits hold 43 of the 64 unipotent elements, so the scan ends, once its
#: conjugations have mapped |G| codes, without a certificate.
GL3_F2_DROPPED_SEEDS = Fault(
    "oracle.OracleGroup._certify = drop_seed_class(oracle.OracleGroup._certify, (2, 1))",
    (drop_seed_class,), "main(['oracle', '--n', '3', '--q', '2', '--format', 'csv'])",
    err=failed("GL3(F2): split not certified: conjugators 2, elements 43 of 64, orbits 2, "
               "Jordan types 2"),
)


def test_dropped_seed_class_fails_the_class_counts(check):
    check(GL3_F2_DROPPED_SEEDS)


def measured(argv):
    """``main(argv)``, followed on stdout by its wall time in seconds and the
    peak RSS of the process in KiB."""
    start = time.perf_counter()
    code = main(argv)
    print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return code


#: GL3(4) without the seeds of type (3): its 181 440 elements bound how many
#: codes the certificate's conjugators may map before the scan fails.
GL3_F4_DROPPED_SEEDS = Fault(
    "oracle.OracleGroup._certify = drop_seed_class(oracle.OracleGroup._certify, (3,))",
    (drop_seed_class, measured), "measured(['oracle', '--n', '3', '--q', '4'])", out=None,
    err=failed("GL3(F4): split not certified: conjugators 2, elements 316 of 4096, orbits 2, "
               "Jordan types 2"),
)


def test_dropped_seed_class_fails_within_bounds():
    # the report fails in ~0.3 s at ~31 MiB peak, not after trying every
    # element
    code, out, err = run_optimized(GL3_F4_DROPPED_SEEDS)
    assert (code, err) == (GL3_F4_DROPPED_SEEDS.code, GL3_F4_DROPPED_SEEDS.err)
    seconds, peak_kib = map(float, out.split())
    assert seconds < 10
    assert peak_kib < 100 * 1024


def lose_class(unipotent_classes, parts):
    """``OracleGroup.unipotent_classes`` that loses the class of Jordan type
    ``parts`` from the certified split it returns."""

    def lost(G):
        return {la: cls for la, cls in unipotent_classes(G).items() if la != parts}

    return lost


def test_lost_class_fails_the_class_checks(check):
    # the GL3(2) report loses the class of type (2, 1), 21 elements: both
    # counts over the classes see it gone
    check(Fault(
        "oracle.OracleGroup.unipotent_classes = "
        "lose_class(oracle.OracleGroup.unipotent_classes, (2, 1))", (lose_class,),
        "main(['oracle', '--n', '3', '--q', '2', '--format', 'csv'])",
        out=["unipotent_class_count,3,2,False\n", "class_size_2_1,21,0,False\n",
             "unipotent_count,64,43,False\n"],
    ))


def forget_member(member):
    """``OracleGroup._member`` that forgets ((1, 1), (0, 1)), an element of U
    in every GL2: the datum for mu = (2) is one element short."""

    def forgetting(G, code):
        return code != G.encode(((1, 1), (0, 1))) and member(G, code)

    return forgetting


GL2_F3_SHORT_DATUM = "GL2(F3): U_(>=2) for mu = (2,) has 2 elements, not 3^1 = 3"
FORGET_MEMBER = Fault(
    "oracle.OracleGroup._member = forget_member(oracle.OracleGroup._member)", (forget_member,),
    "main(['oracle', '--n', '2', '--q', '3'])", err=failed(GL2_F3_SHORT_DATUM),
)


def test_datum_short_of_an_element_fails_the_size_check(check):
    # |U_(>=2)^F| = q0^#positions, checked as a count of the kept candidates
    check(FORGET_MEMBER)
    with pytest.raises(ContractError, match=re.escape(GL2_F3_SHORT_DATUM)):
        oracle.oracle_report(2, 1, 3)


def leave_the_group(conjugation):
    """``OracleGroup._conjugation`` with x = ((1, 1), (0, 1)) in place of the
    conjugator s on the right, once s is checked: the map then sends h to
    s^-1*h*x, which for h in GU2(3) is not unitary."""

    def leaving(G, s, reads):
        from gggr.fields import mat_inv, mat_mul

        conjugation(G, s, reads)
        F, x = G.field, ((1, 1), (0, 1))
        s_inv = mat_inv(F, s)
        return lambda codes: [G.encode(mat_mul(F, mat_mul(F, s_inv, G.decode(c)), x))
                              for c in codes]

    return leaving


def leaving_message():
    """The first seed of the GU2(3) report is the identity, and the first
    conjugator s is the first element, so the first conjugate is s^-1*x."""
    G = oracle.enumerate_group(2, -1, 3)
    s = G.elements[0]
    c = oracle.mat_mul(G.field, oracle.mat_inv(G.field, s), ((1, 1), (0, 1)))
    assert c not in set(G.elements)
    return f"GU2(F3): the conjugate {c} of ((1, 0), (0, 1)) is not an enumerated element"


GU2_F3_LEAVING = Fault(
    "oracle.OracleGroup._conjugation = leave_the_group(oracle.OracleGroup._conjugation)",
    (leave_the_group,), "main(['oracle', '--n', '2', '--q', '3', '--eps', '-1'])",
    err=failed("GU2(F3): the conjugate ((0, 1), (1, 1)) of ((1, 0), (0, 1)) is not an "
               "enumerated element"),
)


def test_conjugation_leaving_the_group_fails(check):
    message = leaving_message()
    assert GU2_F3_LEAVING.err == failed(message)
    check(GU2_F3_LEAVING)
    with pytest.raises(ContractError, match=re.escape(message)):
        oracle.oracle_report(2, -1, 3)


def hold_conjugators(candidates, k):
    """``OracleGroup._candidates`` held at its first k candidates."""

    def held(G):
        return itertools.islice(candidates(G), k)

    return held


#: What the report of GL_n(q0) fails when the candidates hold only k
#: conjugators, one fewer than the certificate needs: GL2(3)'s first splits
#: 5 of its 9 unipotent elements, and GL2(4)'s first two split all 16, but
#: into 4 orbits of 2 Jordan types.
HELD_CONJUGATORS = {
    (2, 3, 1): "GL2(F3): split not certified: conjugators 1, elements 5 of 9, orbits 3, "
               "Jordan types 2",
    (2, 4, 2): "GL2(F4): split not certified: conjugators 2, elements 16 of 16, orbits 4, "
               "Jordan types 2",
}


def held_conjugators(n, q0, k):
    """The fault that holds the candidates of GL_n(q0)'s report at k."""
    return Fault(
        f"oracle.OracleGroup._candidates = hold_conjugators(oracle.OracleGroup._candidates, {k})",
        (hold_conjugators,), f"main(['oracle', '--n', '{n}', '--q', '{q0}'])",
        err=failed(HELD_CONJUGATORS[n, q0, k]),
    )


@pytest.mark.parametrize("n, q0, k", list(HELD_CONJUGATORS))
def test_held_conjugators_fail_the_certificate(check, inject, n, q0, k):
    message, candidates = HELD_CONJUGATORS[n, q0, k], oracle.OracleGroup._candidates
    check(held_conjugators(n, q0, k))
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        oracle.oracle_report(n, 1, q0)
    inject(oracle.OracleGroup, "_candidates", hold_conjugators(candidates, k + 1))
    assert oracle.oracle_report(n, 1, q0)["pass"]


def test_generators_short_of_the_group_fail_the_closure(inject):
    # held at its first 2 candidates, the closure of classes() reaches a
    # third of GL2(3) from the identity
    inject(oracle.OracleGroup, "_candidates", hold_conjugators(oracle.OracleGroup._candidates, 2))
    message = "GL2(F3): the generators reach 16 of 48 elements"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        oracle.enumerate_group(2, 1, 3).classes()


def add_involution(kawanaka_datum):
    """``kawanaka_datum`` with ((0, 1), (1, 0)) added to H for every mu but
    (n): an element of order 2, in no unipotent class of GL2(3)."""

    def added(G, mu):
        H, dim_g1 = kawanaka_datum(G, mu)
        return ({**H, G.encode(((0, 1), (1, 0))): 0} if len(mu) > 1 else H), dim_g1

    return added


GL2_F3_NEW_CLASS = (
    "GL2(F3): Whittaker element ((0, 1), (1, 0)) starts a class outside the certified split"
)


def test_later_seed_outside_the_certified_split_fails(check):
    # the certificate is seeded with mu = (n) alone; the data of the other mu
    # may not start a class after it
    check(Fault(
        "oracle.kawanaka_datum = add_involution(oracle.kawanaka_datum)", (add_involution,),
        "main(['oracle', '--n', '2', '--q', '3'])", err=failed(GL2_F3_NEW_CLASS),
    ))
    with pytest.raises(ContractError, match=f"^{re.escape(GL2_F3_NEW_CLASS)}$"):
        oracle.oracle_report(2, 1, 3)


def test_classes_of_one_jordan_type_fail(inject):
    # with every Jordan type read as (1, 1) no scan certifies GL2(3): its two
    # conjugators split all 9 unipotent elements, into 2 orbits of that type
    inject(oracle.OracleGroup, "jordan_type", lambda G, g: Partition((1, 1)))
    G = oracle.enumerate_group(2, 1, 3)
    message = ("GL2(F3): split not certified: conjugators 2, elements 9 of 9, orbits 2, "
               "Jordan types 1")
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        G.unipotent_classes()


def identity_inverse(F, A):
    """A ``mat_inv`` that returns the identity: an enumerated element, but
    the inverse of no conjugator."""
    return tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))


GL2_F3_WRONG_INVERSE = "GL2(F3): ((1, 0), (0, 1)) is not the inverse of ((0, 1), (1, 0))"
IDENTITY_INVERSE = Fault(
    "oracle.mat_inv = identity_inverse", (identity_inverse,),
    "main(['oracle', '--n', '2', '--q', '3'])", err=failed(GL2_F3_WRONG_INVERSE),
)


def test_wrong_inverse_fails(check):
    check(IDENTITY_INVERSE)
    with pytest.raises(ContractError, match=re.escape(GL2_F3_WRONG_INVERSE)):
        oracle.enumerate_group(2, 1, 3).classes()


def identity_class(G):
    """The index of the identity's class in the certified split of G."""
    G.unipotent_classes()
    return G._class_of[G.encode(oracle.mat_identity(G.n))]


def test_identity_class_of_size_two_fails_regular_rep_inner():
    G = oracle.enumerate_group(2, 1, 3)
    idx = identity_class(G)
    G._classes[idx] = G._classes[idx]._replace(size=2)
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
MERGE_EXPONENTS = Fault(
    "oracle.kawanaka_datum = merge_exponents(oracle.kawanaka_datum)", (merge_exponents,),
    "main(['oracle', '--n', '2', '--q', '3'])", err=failed(GL2_F3_IRRATIONAL),
)


def test_irrational_class_sum_fails(check):
    check(MERGE_EXPONENTS)
    with pytest.raises(ContractError, match=re.escape(GL2_F3_IRRATIONAL)):
        oracle.gelfand_graev_inner(oracle.enumerate_group(2, 1, 3))


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


#: A fault in Kawanaka's datum makes the per-mu check of the GL3(2) report
#: fail, as a mismatch or as a failed check of the class sum.
DATUM_FAULTS = {
    fault.__name__: Fault(
        f"oracle.kawanaka_datum = {fault.__name__}(oracle.kawanaka_datum)", (fault,),
        "main(['oracle', '--n', '3', '--q', '2', '--format', 'csv'])", out=rows, err=err,
    )
    for fault, rows, err in [
        (drop_dim_g1, ["gggr_inner_2_1,11,44,False\n"], ""),
        (shift_last_exponent, [],
         failed("GL3(F2): induced inner product 240 / 64 left remainder 48")),
    ]
}


@pytest.mark.parametrize("fault", DATUM_FAULTS.values(), ids=list(DATUM_FAULTS))
def test_datum_fault_fails_gggr_inner_check(check, fault):
    check(fault)


@pytest.mark.parametrize(
    "size, inner, message",
    [
        (5, "regular_rep_inner", "the class of ((1, 0), (0, 1)): |G| / |class| = 48 / 5 "
         "left remainder 3"),
        (2, "gelfand_graev_inner", "induced inner product 30 / 9 left remainder 3"),
    ],
    ids=["regular_rep_inner", "gelfand_graev_inner"],
)
def test_identity_class_size_fails_exact_division(size, inner, message):
    # GL2(3): 48/5 leaves a remainder; with size 2 the Gelfand-Graev sum is
    # 24*1^2 + 6*(-1)^2 = 30 over |U|^2 = 9
    G = oracle.enumerate_group(2, 1, 3)
    idx = identity_class(G)
    G._classes[idx] = G._classes[idx]._replace(size=size)
    with pytest.raises(NonExactDivisionError, match=f"^{re.escape(f'GL2(F3): {message}')}$"):
        getattr(oracle, inner)(G)


def test_singular_form_basis_fails_the_datum(inject):
    # once GU2(2) is split, a mat_inv that finds no inverse leaves the basis
    # that carries the group's hermitian form to Kawanaka's without one
    G = oracle.enumerate_group(2, -1, 2)
    G.unipotent_classes()
    inject(oracle, "mat_inv", lambda F, A: None)
    message = "GU2(F2): the basis ((0, 1), (1, 0)) for the form ((1, 0), (0, 1)) is singular"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        oracle.gggr_inner(G, P((1, 1)))


def test_empty_datum_fails_as_a_check(inject, capsys):
    # an empty H for mu = (1, 1), past the certificate that mu = (2) seeds,
    # leaves the induced inner product 0 / |H|^2 = 0 / 0: a failed check,
    # not a ZeroDivisionError
    datum = oracle.kawanaka_datum
    inject(oracle, "kawanaka_datum", lambda G, mu: datum(G, mu) if len(mu) == 1 else ({}, 0))
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    message = "GL2(F3): induced inner product 0 / 0 divides by zero"
    assert capsys.readouterr() == ("", failed(message))


# -- the Hall-Littlewood factorisation ----------------------------------------


def hl_fails(n, message):
    """Every p_rho with rho |- n fails with a ContractError carrying message;
    a ZeroDivisionError or a bare ArithmeticError is not a ContractError."""
    for rho in symfunc.partitions_of(n):
        with pytest.raises(ContractError) as info:
            symfunc.hall_littlewood_expand(rho)
        assert str(info.value) == message


def test_monomial_count_off_by_one_fails_gram_divisibility(inject):
    count = symfunc._monomial_count
    inject(
        symfunc,
        "_monomial_count",
        lambda rho, mu: count(rho, mu) + (tuple(rho) == tuple(mu) == (3, 1)),
    )
    hl_fails(4, "n! * G / 4! left remainder 8")


@pytest.mark.parametrize(
    "z, message",
    [(4, "n! * G / 4! left remainder 3"), (16, "4! / z_rho of (2, 2) left remainder 8")],
    ids=["4", "16"],
)
def test_changed_z_rho_fails(inject, z, message):
    z_rho = symfunc.weyl_centralizer_order
    assert z_rho(P((2, 2))) == 8
    inject(symfunc, "weyl_centralizer_order", lambda rho: z if rho == (2, 2) else z_rho(rho))
    hl_fails(4, message)


def perturbed_b(b):
    """``_b`` with 1 added to the constant term of b_(2,1,1)(t)."""

    def perturbed(la):
        return (b(la)[0] + 1,) + b(la)[1:] if la == (2, 1, 1) else b(la)

    return perturbed


PIVOT = "the pivot of (2, 1, 1) is not b_la(t)"
PERTURBED_PIVOT = Fault(
    "symfunc._b = perturbed_b(symfunc._b)", (perturbed_b,),
    "symfunc.hall_littlewood_expand(P((4,)))", out=f"{PIVOT}\n",
)


def test_perturbed_b_fails_pivot_check(check):
    check(PERTURBED_PIVOT)
    hl_fails(4, PIVOT)


#: The faults that also run under ``python -O``, each by the name of its test.
globals().update({name: optimized_test(faults) for name, faults in {
    "test_checks_survive_python_O": GREEN_COEFFICIENT,
    "test_sample_blind_gamma_check_survives_python_O": SAMPLE_BLIND_GREEN,
    "test_gamma_support_check_survives_python_O": GAMMA_SUPPORT,
    "test_torus_division_survives_python_O": TORUS_DIVISION,
    "test_w_rho_division_survives_python_O": W_RHO_DIVISION,
    "test_kronecker_bound_survives_python_O": KRONECKER_BOUND,
    "test_oracle_checks_survive_python_O": CORRUPT_F4,
    "test_axiom_check_survives_python_O": axiom_fault(*DISTRIBUTIVITY),
    "test_oracle_closure_survives_python_O": DROP_ELEMENT,
    "test_dropped_seed_class_survives_python_O": GL3_F2_DROPPED_SEEDS,
    "test_datum_size_check_survives_python_O": FORGET_MEMBER,
    "test_conjugation_check_survives_python_O": GU2_F3_LEAVING,
    "test_certificate_survives_python_O": held_conjugators(2, 3, 1),
    "test_inverse_check_survives_python_O": IDENTITY_INVERSE,
    "test_rationality_check_survives_python_O": MERGE_EXPONENTS,
    "test_datum_fault_survives_python_O": DATUM_FAULTS,
    "test_hall_littlewood_checks_survive_python_O": PERTURBED_PIVOT,
}.items()})


def perturbed_gram(bilinear, mu, la, delta):
    """``bilinear`` with delta added, times n!, to G[mu][la] and G[la][mu] of
    the Gram product R^T diag(n!/z_rho(t)) R, the one call whose two factors
    are the same matrix; the column solves are left alone."""

    def perturbed(a, w, b):
        out = bilinear(a, w, b)
        if a is not b:
            return out
        parts = symfunc.partitions_of(sum(mu))
        fact = math.factorial(sum(mu))
        for i, j in ((parts.index(mu), parts.index(la)), (parts.index(la), parts.index(mu))):
            out[i][j] = add(out[i][j], scale(delta, fact))
        return out

    return perturbed


def test_gram_entry_fails_exact_division(inject):
    # b_(2,2)(t) = (1 - t)(1 - t^2) does not divide the entry plus 1
    inject(symfunc, "bilinear", perturbed_gram(symfunc.bilinear, P((2, 1, 1)), P((2, 2)), (1,)))
    hl_fails(4, "G[(2, 1, 1)][(2, 2)] less the known terms / b_la(t) left remainder (1,)")


def test_gram_entry_fails_dominance(inject):
    # (3, 3) and (4, 1, 1) are incomparable; adding b_(4,1,1)(t) to their
    # entry makes W[(4, 1, 1)][(3, 3)] = 1 with every division exact
    la = P((4, 1, 1))
    inject(symfunc, "bilinear", perturbed_gram(symfunc.bilinear, P((3, 3)), la, symfunc._b(la)))
    hl_fails(6, "P_(4, 1, 1) has a monomial (3, 3) it does not dominate")


def untyped_checks(tree):
    """(line, kind) of each assert and each read of __debug__, which python
    -O strips or turns false, of each read of sys.flags, by which code could
    tell that -O is on, and of each raised bare ArithmeticError or
    AssertionError, which verification cannot tell from a failed check;
    checks raise ContractError instead."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif "__debug__" in (getattr(node, "id", None), getattr(node, "attr", None)):
            yield node.lineno, "__debug__"
        elif isinstance(node, ast.Attribute) and (getattr(node.value, "id", None), node.attr) == (
            "sys", "flags"
        ) or isinstance(node, ast.ImportFrom) and node.module == "sys" and "flags" in {
            alias.name for alias in node.names
        }:
            yield node.lineno, "sys.flags"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ArithmeticError", "AssertionError"):
                yield node.lineno, "raise"


def package_checks(kind):
    return [
        f"{path.name}:{line}"
        for path in sorted((SRC / "gggr").rglob("*.py"))
        for line, found in untyped_checks(ast.parse(path.read_text(encoding="utf-8")))
        if found == kind
    ]


def test_package_has_no_assert_statements():
    assert package_checks("assert") == []


def test_package_runs_the_same_under_python_O():
    # no check of the package can vanish under -O: it has no assert and
    # reads neither __debug__ nor sys.flags, so every check stays, not only
    # the faults above that run under -O
    assert package_checks("assert") == package_checks("__debug__") == []
    assert package_checks("sys.flags") == []


def test_python_O_guard_can_fail():
    source = (
        "assert x\n"
        "if __debug__:\n"
        "    check()\n"
        "flag = sys.__debug__\n"
        "raise ContractError('typed')\n"
        "level = sys.flags.optimize\n"
        "from sys import flags, byteorder\n"
        "order = sys.byteorder\n"
    )
    assert sorted(untyped_checks(ast.parse(source))) == [
        (1, "assert"), (2, "__debug__"), (4, "__debug__"), (6, "sys.flags"), (7, "sys.flags")
    ]


def exact_divisions(tree):
    """(line, name) of each call of divmod, each NonExactDivisionError built
    or raised, and each mention of divmod_monic, sorted: a division that
    must be exact goes through intpoly's exact_quotient or exact_div, which
    own the remainder test and its message."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Call, ast.Raise)):
            target = node.func if isinstance(node, ast.Call) else node.exc
            called = getattr(target, "id", None) or getattr(target, "attr", None)
            if called in ("divmod", "NonExactDivisionError"):
                found.append((node.lineno, called))
        names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if "divmod_monic" in names:
            found.append((node.lineno, "divmod_monic"))
    return sorted(found)


def test_only_intpoly_divides_exactly():
    # every quotient that must be exact, and its error, comes from intpoly
    modules = {
        path.name: exact_divisions(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((SRC / "gggr").rglob("*.py"))
    }
    assert {name for _, name in modules.pop("intpoly.py")} == {"divmod", "NonExactDivisionError"}
    assert {module: found for module, found in modules.items() if found} == {}


def test_exact_division_guard_can_fail():
    source = (
        "from .intpoly import divmod_monic\n"
        "quot, rem = divmod(a, b)\n"
        "raise NonExactDivisionError('inexact')\n"
        "raise errors.NonExactDivisionError\n"
        "quot, rem = intpoly.divmod_monic(f, g)\n"
        "def divmod_monic(f, g): pass\n"
        "isinstance(exc, NonExactDivisionError)\n"
        "quot = exact_quotient(f, g, 'f / g')\n"
        "raise ContractError('typed')\n"
    )
    assert exact_divisions(ast.parse(source)) == [
        (1, "divmod_monic"),
        (2, "divmod"),
        (3, "NonExactDivisionError"),
        (4, "NonExactDivisionError"),
        (5, "divmod_monic"),
        (6, "divmod_monic"),
    ]


def rebound_names(tree):
    """(line, name) of each top-level binding of a name that the module has
    bound before, by def, class, assignment or import: the later one
    silently replaces the earlier."""
    seen, found = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [x.id for t in targets for x in ast.walk(t) if isinstance(x, ast.Name)]
        else:
            names = []
        for name in names:
            if name in seen:
                found.append((node.lineno, name))
            seen.add(name)
    return found


def test_package_binds_each_top_level_name_once():
    assert {
        path.name: found
        for path in sorted((SRC / "gggr").rglob("*.py"))
        for found in [rebound_names(ast.parse(path.read_text(encoding="utf-8")))]
        if found
    } == {}


def test_rebound_name_guard_can_fail():
    source = (
        "import os.path\n"
        "from .fields import FiniteField as F\n"
        "CAP = 1\n"
        "def f(): pass\n"
        "class F: pass\n"
        "CAP: int = 2\n"
        "async def f(): pass\n"
        "os, rest = 1, 2\n"
        "if x:\n"
        "    CAP = 3\n"
        "def g(CAP): pass\n"
    )
    assert rebound_names(ast.parse(source)) == [(5, "F"), (6, "CAP"), (7, "f"), (8, "os")]


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
