"""Batch command-line front end.

Five subcommands cover the pipeline end to end:

    gggr green  --n 3 --eps +1        Green polynomial table
    gggr gggr   --mu 2,1 --eps +1     one character's unipotent values (n = |mu|)
    gggr endo   --n 4 --eps -1        all endomorphism-dimension polynomials
    gggr verify --n 5 --eps +1        the main-theorem verification (exit 0/1)
    gggr oracle --n 2 --q 3 --eps +1  brute-force cross-check (exit 0/1)

Exit codes: 0 pass, 1 verification/oracle failure, 2 usage error (also an
unwritable --output), 3 size cap exceeded.  Output is byte-deterministic for
fixed flags; stdout carries data and stderr diagnostics.

Each command turns its JSON document into rows: a pretty title, a csv
header, and per item its csv cells and its pretty line.  One renderer writes
either form, and ends a pretty document that has a "pass" key with RESULT.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from .errors import CapExceededError, ContractError
from .green import green_table
from .kawanaka import VERIFY_CAP, VERIFY_CAP_BIG, endo_dim, gggr_character, verify_theorem
from .partitions import Partition, partitions_of
from .polyring import poly_from_json, poly_to_json, pretty


# -- flag parsing -----------------------------------------------------------


def _arg_n(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"n must be >= 1, got {n}")
    return n


def _arg_mu(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(","))
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gggr",
        description="Exact symbolic computations with generalised "
        "Gelfand-Graev characters of GL_n(q) and GU_n(q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {
        name: sub.add_parser(name, help=text)
        for name, text in (
            ("green", "dump the Green polynomial table"),
            ("gggr", "dump one character's unipotent values"),
            ("endo", "dump all endomorphism-dimension polynomials"),
            ("verify", "run the main-theorem verification"),
            ("oracle", "brute-force group cross-check"),
        )
    }
    cmd["gggr"].add_argument("--mu", type=_arg_mu, required=True, metavar="PARTS")
    for name in ("green", "endo", "verify", "oracle"):
        cmd[name].add_argument("--n", type=_arg_n, required=True)
    cmd["oracle"].add_argument("--q", type=int, required=True, help="defining field size")
    for name, p in cmd.items():
        green = name == "green"
        p.add_argument(
            "--eps",
            type=int,
            choices=(1, -1),
            metavar="EPS",
            default=None if green else 1,
            help="specialize t -> eps*q; omit for the generic table in t" if green else None,
        )
    for name in ("gggr", "endo", "verify"):
        cmd[name].add_argument(
            "--big", action="store_true", help=f"raise the size cap to {VERIFY_CAP_BIG}"
        )
    for p in cmd.values():
        p.add_argument(
            "--format", choices=("json", "csv", "pretty"), default="json",
            help="output format (default json)",
        )
        p.add_argument(
            "--output", default="-", metavar="PATH", help="write to PATH instead of stdout"
        )
    return parser


# -- rendering ---------------------------------------------------------------


def _fmt_part(parts: list[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def _fmt_poly(data: Optional[dict]) -> str:
    return "<not a polynomial>" if data is None else pretty(poly_from_json(data))


def _green_rows(doc: dict):
    title = f"Green polynomials, n={doc['n']}"
    if "eps" in doc:
        title += f", eps={doc['eps']:+d}"
    items = []
    for row in doc["rows"]:
        rho = _fmt_part(row["rho"])
        for col in row["cols"]:
            la, poly = _fmt_part(col["lambda"]), _fmt_poly(col["poly"])
            items.append(([rho, la, poly], f"Q[rho={rho}, lambda={la}] = {poly}"))
    return title, ["rho", "lambda", "poly"], items


def _gggr_rows(doc: dict):
    items = []
    for v in doc["values"]:
        la, poly = _fmt_part(v["lambda"]), _fmt_poly(v["poly"])
        items.append(([la, poly], f"lambda={la}: {poly}"))
    title = f"gamma_mu values, mu={_fmt_part(doc['mu'])}, eps={doc['eps']:+d}"
    return title, ["lambda", "poly"], items


def _endo_rows(doc: dict):
    items = []
    for r in doc["results"]:
        mu, poly = _fmt_part(r["mu"]), _fmt_poly(r["poly"])
        line = f"mu={mu}: degree {r['degree']}, monic={r['monic']}: {poly}"
        items.append(([mu, r["degree"], r["monic"], poly], line))
    title = f"Endomorphism dimensions, n={doc['n']}, eps={doc['eps']:+d}"
    return title, ["mu", "degree", "monic", "poly"], items


def _verify_rows(doc: dict):
    items = []
    for r in doc["results"]:
        mu = _fmt_part(r["mu"])
        line = (
            f"{'PASS' if r['pass'] else 'FAIL'} mu={mu}: degree {r['degree']}"
            f" (target {r['target_degree']}), monic={r['monic']}: {_fmt_poly(r['poly'])}"
        )
        items.append(([mu, r["degree"], r["monic"], r["pass"]], line))
    title = f"Main theorem verification, n={doc['n']}, eps={doc['eps']:+d}"
    return title, ["mu", "degree", "monic", "pass"], items


def _oracle_rows(doc: dict):
    items = [
        (
            [c["check"], c["expected"], c["actual"], c["ok"]],
            f"{'ok' if c['ok'] else 'MISMATCH'} {c['check']}:"
            f" expected {c['expected']}, got {c['actual']}",
        )
        for c in doc["checks"]
    ]
    title = f"Brute-force cross-check, {doc['group']}, |G|={doc['order']}"
    return title, ["check", "expected", "actual", "ok"], items


def _render(doc: dict, fmt: str, rows) -> str:
    title, header, items = rows(doc)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells for cells, _ in items)
        return buf.getvalue()
    lines = [title, *(line for _, line in items)]
    if "pass" in doc:
        lines.append("RESULT: " + ("PASS" if doc["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


# -- command execution -------------------------------------------------------


def _execute(args: argparse.Namespace):
    """The command's JSON document and its rows function."""
    if args.command == "green":
        if args.n > VERIFY_CAP:
            raise CapExceededError(f"green table capped at n = {VERIFY_CAP}")
        return green_table(args.n).to_json(args.eps), _green_rows
    if args.command == "oracle":
        from .oracle import oracle_report
        return oracle_report(args.n, args.eps, args.q), _oracle_rows

    n = args.mu.n if args.command == "gggr" else args.n
    cap = VERIFY_CAP_BIG if args.big else VERIFY_CAP
    if n > cap:
        raise CapExceededError(
            f"{args.command} capped at n = {cap}"
            + ("" if args.big else f" (pass --big for n <= {VERIFY_CAP_BIG})")
        )
    if args.command == "gggr":
        return gggr_character(args.mu, args.eps).to_json(), _gggr_rows
    if args.command == "verify":
        report = verify_theorem(n, args.eps, cap=cap)
        return report.to_json(), _verify_rows
    polys = {mu: endo_dim(mu, args.eps) for mu in partitions_of(n)}
    results = [
        {"mu": mu.to_json(), "poly": poly_to_json(p), "degree": p.degree, "monic": p.is_monic()}
        for mu, p in polys.items()
    ]
    return {"n": n, "eps": args.eps, "results": results}, _endo_rows


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        doc, rows = _execute(args)
    except CapExceededError as exc:
        print(f"gggr: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"gggr: check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"gggr: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _render(doc, args.format, rows)

    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"gggr: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if doc.get("pass", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
