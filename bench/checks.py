"""Correctness checks that share no code with the package under test.

Each check takes plain data (partitions as tuples, polynomials as sparse
``{exponent: coefficient}`` dicts) and returns a list of error strings, empty
when the output is correct.  Expected values are rebuilt here from the
definitions or from properties the method must have, never from a stored
copy of the program's output.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from functools import lru_cache

from grids import flag

Poly = dict  # {exponent: nonzero Fraction}


# -- integer and partition primitives -----------------------------------------


def partitions(n: int, largest: int | None = None):
    """Partitions of n as tuples, in descending lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def n_stat(la) -> int:
    """n(la) = sum_i (i - 1) * la_i."""
    return sum(i * part for i, part in enumerate(la))


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def dense(coeffs) -> Poly:
    """A lowest-degree-first coefficient sequence as a sparse dict."""
    return {k: Fraction(c) for k, c in enumerate(coeffs) if c}


def group_order_poly(n: int, eps: int) -> Poly:
    """|GL_n(q)| (eps = 1) or |GU_n(q)| (eps = -1): q^{n(n-1)/2} prod_i (q^i - eps^i)."""
    out: Poly = {n * (n - 1) // 2: 1}
    for i in range(1, n + 1):
        out = poly_mul(out, {i: 1, 0: -(eps**i)})
    return out


def group_order_at(n: int, eps: int, q0: int) -> int:
    out = q0 ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q0**i - eps**i
    return out


def gelfand_graev_dim(n: int, eps: int) -> Poly:
    """dim End of the Gelfand-Graev representation: (q - eps) q^{n-1}."""
    return {n: 1, n - 1: -eps}


def monomial_coefficient(rho, la) -> int:
    """Coefficient of m_la in the power sum p_rho: the number of ways to send
    each part of rho to a row so that the row sums are la."""

    @lru_cache(maxsize=None)
    def count(i: int, room: tuple) -> int:
        if i == len(rho):
            return int(not any(room))
        return sum(
            count(i + 1, room[:j] + (r - rho[i],) + room[j + 1 :])
            for j, r in enumerate(room)
            if r >= rho[i]
        )

    return count(0, tuple(la))


def _poly_name(p: Poly) -> str:
    return " + ".join(f"{c}*x^{k}" for k, c in sorted(p.items(), reverse=True)) or "0"


def _monic_of_degree(p: Poly, degree: int) -> bool:
    return bool(p) and max(p) == degree and p[degree] == 1


# -- workload checks ----------------------------------------------------------


def check_verify(n: int, eps: int, passed: bool, records) -> list[str]:
    """A main-theorem report: every mu of n present and passing, its
    polynomial monic of degree n + 2 n(mu); the (n) and (1^n) entries equal
    the Gelfand-Graev dimension and the group order."""
    where = f"verify n={n} eps={eps:+d}"
    errors = [] if passed else [f"{where}: report does not pass"]
    mus = [mu for mu, _, _ in records]
    if mus != list(partitions(n)):
        errors.append(f"{where}: reported mu {mus}, expected every partition of {n}")
    expected = {(n,): gelfand_graev_dim(n, eps), (1,) * n: group_order_poly(n, eps)}
    for mu, ok, poly in records:
        target = n + 2 * n_stat(mu)
        if not ok:
            errors.append(f"{where}: mu={mu} does not pass")
        if poly is None or not _monic_of_degree(poly, target):
            errors.append(f"{where}: mu={mu} is not monic of degree {target}")
        elif mu in expected and poly != expected[mu]:
            errors.append(
                f"{where}: mu={mu} gives {_poly_name(poly)},"
                f" expected {_poly_name(expected[mu])}"
            )
    return errors


def check_expansion(rho, expansion: dict, xs: dict) -> list[str]:
    """p_rho in the Hall-Littlewood basis against X_rho^la: equal coefficient
    by coefficient, each X_rho^la monic of degree n(la), and X_rho^la(1)
    equal to the coefficient of m_la in p_rho."""
    n = sum(rho)
    where = f"crosscheck rho={rho}"
    errors = []
    stray = set(expansion) - set(partitions(n))
    if stray:
        errors.append(f"{where}: expansion has non-partitions {sorted(stray)}")
    for la in partitions(n):
        x = xs.get(la, {})
        if expansion.get(la, {}) != x:
            errors.append(f"{where}: la={la} routes disagree")
        if not _monic_of_degree(x, n_stat(la)):
            errors.append(f"{where}: X^{la} is not monic of degree {n_stat(la)}")
        if sum(x.values()) != monomial_coefficient(rho, la):
            errors.append(
                f"{where}: X^{la}(1) = {sum(x.values())},"
                f" expected {monomial_coefficient(rho, la)}"
            )
    return errors


def check_oracle(n: int, eps: int, q0: int, report: dict) -> list[str]:
    """An oracle report passes and its order is |G| at q0."""
    where = f"oracle n={n} eps={eps:+d} q0={q0}"
    errors = []
    if not report.get("pass") or not all(c["ok"] for c in report["checks"]):
        errors.append(f"{where}: report does not pass")
    if report.get("order") != group_order_at(n, eps, q0):
        errors.append(
            f"{where}: order {report.get('order')},"
            f" expected {group_order_at(n, eps, q0)}"
        )
    return errors


# -- CLI output parsing --------------------------------------------------------

_TERM = re.compile(r"^(\d+(?:/\d+)?)?([a-z])?(?:\^(-?\d+))?$")


def parse_pretty(text: str) -> Poly:
    """Invert the CLI's pretty rendering, e.g. 'q^5 - q^4 + 2q^2 - 1'."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    signs = ["-" if tokens[0].startswith("-") else "+"] + tokens[1::2]
    bodies = [tokens[0].lstrip("-")] + tokens[2::2]
    out: Poly = {}
    for sign, body in zip(signs, bodies):
        m = _TERM.match(body)
        if sign not in "+-" or not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"cannot parse term {body!r} in {text!r}")
        mag = Fraction(m.group(1) or 1)
        k = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        out[k] = out.get(k, 0) + (mag if sign == "+" else -mag)
    return {k: c for k, c in out.items() if c}


def json_poly(data) -> Poly | None:
    """The CLI's wire format {"var", "val", "coeffs": [[num, den], ...]}."""
    if data is None:
        return None
    return {
        data["val"] + i: Fraction(int(num), int(den))
        for i, (num, den) in enumerate(data["coeffs"])
        if int(num)
    }


def _part(text: str) -> tuple:
    return tuple(int(p) for p in text.strip("()").split(",") if p)


def green_from_json(doc: dict) -> dict:
    return {
        (tuple(row["rho"]), tuple(col["lambda"])): json_poly(col["poly"])
        for row in doc["rows"]
        for col in row["cols"]
    }


def green_from_text(text: str, fmt: str) -> dict:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return {(_part(r), _part(la)): parse_pretty(p) for r, la, p in rows}
    out = {}
    for line in text.splitlines()[1:]:
        m = re.match(r"^Q\[rho=(\([\d,]*\)), lambda=(\([\d,]*\))\] = (.*)$", line)
        if not m:
            raise ValueError(f"cannot parse Green line {line!r}")
        out[(_part(m.group(1)), _part(m.group(2)))] = parse_pretty(m.group(3))
    return out


def endo_from_json(doc: dict) -> dict:
    return {tuple(r["mu"]): json_poly(r["poly"]) for r in doc["results"]}


def endo_from_text(text: str, fmt: str) -> dict:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return {_part(mu): parse_pretty(p) for mu, _, _, p in rows}
    out = {}
    for line in text.splitlines()[1:]:
        m = re.match(r"^mu=(\([\d,]*\)): degree -?\d+, monic=\w+: (.*)$", line)
        if not m:
            raise ValueError(f"cannot parse endo line {line!r}")
        out[_part(m.group(1))] = parse_pretty(m.group(2))
    return out


def check_green(n: int, rendered: dict, reference: dict) -> list[str]:
    """A Green table: every (rho, la) present, constant term 1, and equal to
    the JSON rendering."""
    errors = []
    pairs = [(r, la) for r in partitions(n) for la in partitions(n)]
    if sorted(rendered) != sorted(pairs):
        errors.append(f"green n={n}: table does not cover every (rho, lambda)")
    for key, poly in rendered.items():
        if poly.get(0) != 1:
            errors.append(f"green n={n}: Q{key} has constant term {poly.get(0, 0)}")
        if reference.get(key) != poly:
            errors.append(f"green n={n}: Q{key} differs from the JSON rendering")
    return errors


def check_endo(n: int, rendered: dict, reference: dict) -> list[str]:
    """Endomorphism dimensions: every mu, monic of degree n + 2 n(mu), and
    equal to the JSON rendering."""
    errors = []
    if list(rendered) != list(partitions(n)):
        errors.append(f"endo n={n}: rendering does not list every mu")
    for mu, poly in rendered.items():
        if not _monic_of_degree(poly, n + 2 * n_stat(mu)):
            errors.append(f"endo n={n}: mu={mu} is not monic of degree {n + 2 * n_stat(mu)}")
        if reference.get(mu) != poly:
            errors.append(f"endo n={n}: mu={mu} differs from the JSON rendering")
    return errors


def check_gggr(mu: tuple, doc: dict) -> list[str]:
    """One character's unipotent values: one polynomial per la of |mu|."""
    n = sum(mu)
    las = [tuple(v["lambda"]) for v in doc["values"]]
    errors = []
    if tuple(doc["mu"]) != mu or las != list(partitions(n)):
        errors.append(f"gggr mu={mu}: values do not cover every lambda of {n}")
    for v in doc["values"]:
        poly = json_poly(v["poly"])
        if poly and min(poly) < 0:
            errors.append(f"gggr mu={mu}: value at {tuple(v['lambda'])} is not a polynomial")
    return errors


def check_cli(args, text: str, reference: str | None) -> list[str]:
    """The output of one `gggr` command, given its arguments (without
    --output) and, for a csv or pretty rendering, the JSON rendering."""
    command, fmt = args[0], flag(args, "--format", "json")
    n = int(flag(args, "--n", 0))
    eps = int(flag(args, "--eps", 1))
    try:
        if command in ("green", "endo"):
            from_json, from_text, check = {
                "green": (green_from_json, green_from_text, check_green),
                "endo": (endo_from_json, endo_from_text, check_endo),
            }[command]
            got = from_json(json.loads(text)) if fmt == "json" else from_text(text, fmt)
            ref = got if reference is None else from_json(json.loads(reference))
            return check(n, got, ref)
        doc = json.loads(text)
        if command == "gggr":
            return check_gggr(tuple(int(p) for p in flag(args, "--mu").split(",")), doc)
        if command == "verify":
            records = [(tuple(r["mu"]), r["pass"], json_poly(r["poly"])) for r in doc["results"]]
            return check_verify(n, eps, doc["pass"], records)
        if command == "oracle":
            return check_oracle(n, eps, int(flag(args, "--q")), doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"gggr {' '.join(args)}: output does not parse: {exc!r}"]
    return [f"gggr {' '.join(args)}: no check for this command"]
