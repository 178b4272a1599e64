"""One library part of a pass, run in a fresh interpreter so that every
``lru_cache`` of the package starts cold.

    python bench/child.py pass PART GRID TRACE   # theorem, crosscheck or oracle
    python bench/child.py cli ARG...             # one traced `gggr` command

The parent (run.py) puts the working tree's ``src`` on PYTHONPATH.  The
child prints one JSON object on stdout: run time, peak memory, operations
attempted, failures (type and message), correctness errors and, when traced,
the spans.  An exception in one operation is recorded as its failure and the
part goes on.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import checks
import grids
from spans import Tracer, instrument

import gggr


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def theorem_ops(grid: str):
    pairs = grids.THEOREM[grid]
    cap = max(n for n, _ in pairs)
    for n, eps in pairs:
        yield (
            f"verify n={n} eps={eps:+d}",
            lambda n=n, eps=eps: gggr.verify_theorem(n, eps, cap=cap),
            lambda r, n=n, eps=eps: checks.check_verify(
                n,
                eps,
                r.passed,
                [
                    (tuple(x.mu), x.passed, None if x.poly is None else checks.dense(x.poly.coeffs))
                    for x in r.results
                ],
            ),
        )
        yield (
            f"orthogonality n={n} eps={eps:+d}",
            lambda n=n, eps=eps: gggr.verify_orthogonality(n, eps),
            lambda r, n=n, eps=eps: []
            if r.ok
            else [f"orthogonality n={n} eps={eps:+d} fails at {r.witness[:2]}"],
        )


def crosscheck_ops(grid: str):
    P = gggr.Partition
    for n in grids.CROSSCHECK[grid]:
        for rho in checks.partitions(n):
            yield (
                f"crosscheck rho={rho}",
                lambda rho=rho, n=n: (
                    gggr.hall_littlewood_expand(P(rho)),
                    {la: gggr.x_poly(P(rho), P(la)) for la in checks.partitions(n)},
                ),
                lambda r, rho=rho: checks.check_expansion(
                    rho,
                    {tuple(la): checks.dense(c.coeffs) for la, c in r[0].items()},
                    {la: checks.dense(x.coeffs) for la, x in r[1].items()},
                ),
            )


def oracle_ops(grid: str):
    for n, eps, q0 in grids.ORACLE[grid]:
        yield (
            f"oracle {grids.group_name(n, eps, q0)}",
            lambda n=n, eps=eps, q0=q0: gggr.oracle_report(n, eps, q0),
            lambda r, n=n, eps=eps, q0=q0: checks.check_oracle(n, eps, q0, r),
        )


OPS = {"theorem": theorem_ops, "crosscheck": crosscheck_ops, "oracle": oracle_ops}


def counts(part: str, grid: str, done: list) -> dict:
    """Work counts of a traced part."""
    if part == "theorem":
        sizes = sorted({n for n, _ in grids.THEOREM[grid]})
        tableaux = sum(
            sum(gggr.kostka_foulkes(gggr.Partition(mu), gggr.Partition(la)).coeffs)
            for n in sizes
            for mu in checks.partitions(n)
            for la in checks.partitions(n)
        )
        return {"symfunc.tableaux": int(tableaux)}
    if part == "crosscheck":
        return {"symfunc.hl_coeffs": sum(len(result[1]) for result, _ in done)}
    return {}


def run_part(part: str, grid: str, trace: bool) -> dict:
    tracer = Tracer()
    if trace:
        instrument(tracer)
    ops = list(OPS[part](grid))
    done, failures = [], []
    start = time.perf_counter()
    for name, run, check in ops:
        try:
            done.append((run(), check))
        except Exception as exc:  # one failing operation must not end the part
            failures.append({"op": name, "type": type(exc).__name__, "message": str(exc)})
    run_s = time.perf_counter() - start
    out = {
        "run_s": run_s,
        "peak_rss_mib": peak_rss_mib(),
        "attempted": len(ops),
        "failures": failures,
        "spans": list(tracer.spans),
        "groups": tracer.groups,
    }
    out["errors"] = [e for result, check in done for e in check(result)]
    if trace:
        out["counts"] = counts(part, grid, done)
    return out


def run_command(args: list[str]) -> dict:
    """One `gggr` command, traced, then again with warm caches to time what
    is left of it: parsing, rendering and writing."""
    import gggr.cli

    tracer = Tracer()
    instrument(tracer)
    start = time.perf_counter()
    code = gggr.cli.main(args)
    run_s = time.perf_counter() - start
    out = {
        "code": code,
        "run_s": run_s,
        "peak_rss_mib": peak_rss_mib(),
        "spans": list(tracer.spans),
        "groups": tracer.groups,
        "render_s": 0.0,
    }
    if code == 0 and args[0] != "oracle":
        start = time.perf_counter()
        gggr.cli.main(args)
        out["render_s"] = time.perf_counter() - start
    return out


def main(argv: list[str]) -> int:
    if argv[0] == "pass":
        part, grid, trace = argv[1], argv[2], argv[3] == "1"
        out = run_part(part, grid, trace)
    elif argv[0] == "cli":
        out = run_command(argv[1:])
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
