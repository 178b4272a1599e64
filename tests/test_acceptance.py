"""Acceptance suite.

One test function per acceptance criterion, so a verbose pytest run prints
exactly one pass/fail line for each; every check is exact (integer, Fraction,
or polynomial equality), no tolerances anywhere.  Criterion 5 runs to n = 8;
its n = 9, 10 legs take ~3 s more and are opt-in: set GGGR_BIG=1 to include
them.  The same switch adds GL3(4) to criterion 7 (~0.7 s more).
"""

import json
import os
import time
from fractions import Fraction

from gggr.cli import main
from gggr.green import verify_orthogonality
from gggr.grouporders import group_order
from gggr.kawanaka import endo_dim, gggr_value
from gggr.oracle import oracle_report
from gggr.partitions import (
    Partition,
    n_stat,
    partitions_of,
    weyl_centralizer_order,
)
from gggr.polyring import RationalPoly
from gggr.symfunc import hall_littlewood_expand, x_poly

P = Partition


def run_cli_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_1_main_theorem_verification(tmp_path):
    """verify passes for n = 1..5 at eps = +1 and n = 1..4 at eps = -1,
    each mu exactly monic of degree n + 2 n(mu), in under 60 seconds."""
    started = time.time()
    sweeps = [(n, "+1") for n in range(1, 6)] + [(n, "-1") for n in range(1, 5)]
    for n, eps in sweeps:
        code, doc = run_cli_json(tmp_path, "verify", "--n", str(n), "--eps", eps)
        assert code == 0, (n, eps)
        assert doc["pass"] is True
        assert len(doc["results"]) == len(partitions_of(n))
        for rec in doc["results"]:
            mu = P(tuple(rec["mu"]))
            assert rec["polynomial"] and rec["monic"]
            assert rec["degree"] == rec["target_degree"] == n + 2 * n_stat(mu)
    elapsed = time.time() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"criterion 1: PASS (main theorem, 9 sweeps, {elapsed:.2f}s)")


def test_criterion_2_regular_class_steinberg_count():
    # (q - 1) q^(n - 1) and (q + 1) q^(n - 1)
    for n in range(1, 6):
        assert endo_dim(P((n,)), 1) == RationalPoly((0,) * (n - 1) + (-1, 1), "q"), n
    for n in range(1, 5):
        assert endo_dim(P((n,)), -1) == RationalPoly((0,) * (n - 1) + (1, 1), "q"), n
    print("criterion 2: PASS (endo_dim at the regular class, both twists)")


def test_criterion_3_trivial_class_regular_representation():
    for n in range(1, 5):
        for eps in (1, -1):
            assert endo_dim(P((1,) * n), eps) == group_order(n, eps), (n, eps)
    print("criterion 3: PASS (endo_dim at the trivial class = |G|)")


def test_criterion_4_green_orthogonality():
    for n in range(1, 6):
        for eps in (1, -1):
            result = verify_orthogonality(n, eps)
            assert result.ok, (n, eps, result.witness)
    print("criterion 4: PASS (Green orthogonality, n <= 5, both twists)")


def test_criterion_5_dual_symmetric_function_routes():
    top = 10 if os.environ.get("GGGR_BIG") == "1" else 8
    for n in range(1, top + 1):
        for rho in partitions_of(n):
            coords = hall_littlewood_expand(rho, cap=top)
            assert set(coords) == set(partitions_of(n))
            for la, coeff in coords.items():
                assert coeff == x_poly(rho, la), (rho, la)
    print(f"criterion 5: PASS (character route == Gram factorisation route, n <= {top})")


def test_criterion_6_x_degree_law():
    for n in range(1, 7):
        for rho in partitions_of(n):
            for la in partitions_of(n):
                f = x_poly(rho, la)
                assert f.degree == n_stat(la), (rho, la)
                assert f.is_monic(), (rho, la)
    print("criterion 6: PASS (deg X = n(lambda), monic, n <= 6)")


def test_criterion_7_brute_force_oracle_equivalence():
    started = time.time()
    groups = [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, -1), (3, 3, 1), (4, 2, 1), (2, 5, -1)]
    if os.environ.get("GGGR_BIG") == "1":
        groups.append((3, 4, 1))  # GL3(4), the largest group the enumeration cap admits
    for (n, q0, eps) in groups:
        report = oracle_report(n, eps, q0)
        assert report["pass"], report
        failing = [c for c in report["checks"] if not c["ok"]]
        assert not failing
    elapsed = time.time() - started
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(f"criterion 7: PASS ({len(groups)} enumerated groups, {elapsed:.2f}s)")


def test_criterion_8_class_size_sum():
    for n in range(1, 31):
        total = sum(
            Fraction(1, weyl_centralizer_order(rho)) for rho in partitions_of(n)
        )
        assert total == 1, n
    print("criterion 8: PASS (sum of 1/|W_rho| = 1, n <= 30)")


def test_criterion_9_integrality_spot_checks():
    samples = (2, 3, 4, 5, 7, 8, 9)
    for n in range(1, 6):
        for eps in (1, -1):
            for mu in partitions_of(n):
                f = endo_dim(mu, eps)
                for q0 in samples:
                    v = f(q0)
                    assert v.denominator == 1 and v > 0, (mu, eps, q0)
                for la in partitions_of(n):
                    g = gggr_value(mu, la, eps)
                    for q0 in samples:
                        w = g(q0)
                        assert w.denominator == 1, (mu, la, eps, q0)
    print("criterion 9: PASS (integer values at 7 prime powers, n <= 5)")
