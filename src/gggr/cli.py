"""Batch command-line front end.

Five subcommands cover the pipeline end to end:

    gggr green  --n 3 --eps +1        Green polynomial table
    gggr gggr   --mu 2,1 --eps +1     one character's unipotent values
    gggr endo   --n 4 --eps -1        all endomorphism-dimension polynomials
    gggr verify --n 5 --eps +1        the main-theorem verification (exit 0/1)
    gggr oracle --n 2 --q 3 --eps +1  brute-force cross-check (exit 0/1)

Exit codes: 0 pass, 1 verification/oracle failure, 2 usage error, 3 size cap
exceeded.  Output is byte-deterministic for fixed flags; stdout carries data
and stderr diagnostics.
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
from .grouporders import check_eps
from .kawanaka import (
    DEFAULT_SAMPLES,
    VERIFY_CAP,
    VERIFY_CAP_BIG,
    endo_dim,
    gggr_character,
    verify_theorem,
)
from .oracle import is_prime_power, oracle_report
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


def _arg_eps(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"eps must be +1 or -1, got {text!r}")


def _arg_mu(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(","))
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _arg_samples(text: str) -> tuple[int, ...]:
    try:
        qs = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sample list {text!r}")
    for q in qs:
        if is_prime_power(q) is None:
            raise argparse.ArgumentTypeError(f"{q} is not a prime power")
    if not qs:
        raise argparse.ArgumentTypeError("sample list is empty")
    return qs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gggr",
        description="Exact symbolic computations with generalised "
        "Gelfand-Graev characters of GL_n(q) and GU_n(q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "csv", "pretty"),
            default="json",
            help="output format (default json)",
        )
        p.add_argument(
            "--output",
            default="-",
            metavar="PATH",
            help="write to PATH instead of stdout",
        )

    p = sub.add_parser("green", help="dump the Green polynomial table")
    p.add_argument("--n", type=_arg_n, required=True)
    p.add_argument(
        "--eps",
        type=_arg_eps,
        default=None,
        help="specialize t -> eps*q; omit for the generic table in t",
    )
    common(p)

    p = sub.add_parser("gggr", help="dump one character's unipotent values")
    p.add_argument("--mu", type=_arg_mu, required=True, metavar="PARTS")
    p.add_argument(
        "--n", type=_arg_n, default=None, help="group rank (default: |mu|)"
    )
    p.add_argument("--eps", type=_arg_eps, default=1)
    p.add_argument("--big", action="store_true", help=f"raise the size cap to {VERIFY_CAP_BIG}")
    common(p)

    p = sub.add_parser("endo", help="dump all endomorphism-dimension polynomials")
    p.add_argument("--n", type=_arg_n, required=True)
    p.add_argument("--eps", type=_arg_eps, default=1)
    p.add_argument("--big", action="store_true", help=f"raise the size cap to {VERIFY_CAP_BIG}")
    common(p)

    p = sub.add_parser("verify", help="run the main-theorem verification")
    p.add_argument("--n", type=_arg_n, required=True)
    p.add_argument("--eps", type=_arg_eps, default=1)
    p.add_argument(
        "--q-samples",
        type=_arg_samples,
        default=DEFAULT_SAMPLES,
        metavar="Q,Q,...",
        help="prime powers for integrality spot checks (default 2,3,4,5)",
    )
    p.add_argument("--big", action="store_true", help=f"raise the size cap to {VERIFY_CAP_BIG}")
    common(p)

    p = sub.add_parser("oracle", help="brute-force group cross-check")
    p.add_argument("--n", type=_arg_n, required=True)
    p.add_argument("--q", type=int, required=True, help="defining field size")
    p.add_argument("--eps", type=_arg_eps, default=1)
    common(p)

    return parser


# -- rendering ---------------------------------------------------------------


def _fmt_part(parts: list[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def _fmt_poly(data: Optional[dict]) -> str:
    if data is None:
        return "<not a polynomial>"
    return pretty(poly_from_json(data))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_green(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [
            [_fmt_part(row["rho"]), _fmt_part(col["lambda"]), _fmt_poly(col["poly"])]
            for row in doc["rows"]
            for col in row["cols"]
        ]
        return _csv_text(["rho", "lambda", "poly"], rows)
    lines = [f"Green polynomials, n={doc['n']}"]
    if "eps" in doc:
        lines[0] += f", eps={doc['eps']:+d}"
    for row in doc["rows"]:
        for col in row["cols"]:
            lines.append(
                f"Q[rho={_fmt_part(row['rho'])}, lambda={_fmt_part(col['lambda'])}]"
                f" = {_fmt_poly(col['poly'])}"
            )
    return "\n".join(lines) + "\n"


def _render_gggr(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [
            [_fmt_part(v["lambda"]), _fmt_poly(v["poly"])] for v in doc["values"]
        ]
        return _csv_text(["lambda", "poly"], rows)
    lines = [f"gamma_mu values, mu={_fmt_part(doc['mu'])}, eps={doc['eps']:+d}"]
    for v in doc["values"]:
        lines.append(f"lambda={_fmt_part(v['lambda'])}: {_fmt_poly(v['poly'])}")
    return "\n".join(lines) + "\n"


def _render_endo(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [
            [_fmt_part(r["mu"]), r["degree"], r["monic"], _fmt_poly(r["poly"])]
            for r in doc["results"]
        ]
        return _csv_text(["mu", "degree", "monic", "poly"], rows)
    lines = [f"Endomorphism dimensions, n={doc['n']}, eps={doc['eps']:+d}"]
    for r in doc["results"]:
        lines.append(
            f"mu={_fmt_part(r['mu'])}: degree {r['degree']},"
            f" monic={r['monic']}: {_fmt_poly(r['poly'])}"
        )
    return "\n".join(lines) + "\n"


def _render_verify(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [
            [_fmt_part(r["mu"]), r["degree"], r["monic"], r["pass"]]
            for r in doc["results"]
        ]
        return _csv_text(["mu", "degree", "monic", "pass"], rows)
    lines = [f"Main theorem verification, n={doc['n']}, eps={doc['eps']:+d}"]
    for r in doc["results"]:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(
            f"{status} mu={_fmt_part(r['mu'])}: degree {r['degree']}"
            f" (target {r['target_degree']}), monic={r['monic']}:"
            f" {_fmt_poly(r['poly'])}"
        )
    lines.append("RESULT: " + ("PASS" if doc["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _render_oracle(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [
            [c["check"], c["expected"], c["actual"], c["ok"]] for c in doc["checks"]
        ]
        return _csv_text(["check", "expected", "actual", "ok"], rows)
    lines = [f"Brute-force cross-check, {doc['group']}, |G|={doc['order']}"]
    for c in doc["checks"]:
        status = "ok" if c["ok"] else "MISMATCH"
        lines.append(
            f"{status} {c['check']}: expected {c['expected']}, got {c['actual']}"
        )
    lines.append("RESULT: " + ("PASS" if doc["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


_RENDER = {
    "green": _render_green,
    "gggr": _render_gggr,
    "endo": _render_endo,
    "verify": _render_verify,
    "oracle": _render_oracle,
}


# -- command execution -------------------------------------------------------


def _symbolic_cap(n: int, eps: int, big: bool, what: str) -> None:
    cap = VERIFY_CAP_BIG if big else VERIFY_CAP
    if n > cap:
        raise CapExceededError(
            f"{what} capped at n = {cap}"
            + ("" if big else f" (pass --big for n <= {VERIFY_CAP_BIG})")
        )


def _execute(args: argparse.Namespace) -> tuple[dict, bool]:
    """Produce the JSON document and the overall pass flag."""
    if args.command == "green":
        if args.n > VERIFY_CAP:
            raise CapExceededError(f"green table capped at n = {VERIFY_CAP}")
        return green_table(args.n).to_json(args.eps), True

    if args.command == "gggr":
        mu = args.mu
        if args.n is not None and args.n != mu.n:
            raise ValueError(f"--n {args.n} does not match |mu| = {mu.n}")
        _symbolic_cap(mu.n, args.eps, args.big, "gggr")
        return gggr_character(mu, args.eps).to_json(), True

    if args.command == "endo":
        _symbolic_cap(args.n, args.eps, args.big, "endo")
        results = []
        for mu in partitions_of(args.n):
            poly = endo_dim(mu, args.eps)
            results.append(
                {
                    "mu": mu.to_json(),
                    "poly": poly_to_json(poly),
                    "degree": poly.degree,
                    "monic": poly.is_monic(),
                }
            )
        return {"n": args.n, "eps": args.eps, "results": results}, True

    if args.command == "verify":
        cap = VERIFY_CAP_BIG if args.big else None
        report = verify_theorem(args.n, args.eps, q_samples=args.q_samples, cap=cap)
        return report.to_json(), report.passed

    # "oracle": the subparsers admit no other command
    doc = oracle_report(args.n, args.eps, args.q)
    return doc, doc["pass"]


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        doc, passed = _execute(args)
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
        text = _RENDER[args.command](doc, args.format)

    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
