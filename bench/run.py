"""Benchmark of the gggr package, end to end and layer by layer.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each part of a pass of a workload
(grids.WORKLOADS) runs in a fresh interpreter that imports the working
tree's ``src`` (GGGR_JOBS removed from its environment, its hash seed set
from ``--seed``); whole passes repeat until ``--seconds`` have passed, so a
run measures at least that long.  Set-up time is sampled from separate fresh
interpreters before and after the passes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (median over passes); with ``--trace 1`` each round is an
untraced pass followed by a traced one, and the object holds the per-layer
metrics and the tracing overhead.  The lines before it name every metric with
its unit and every failed operation with its exception.  The spans of a
traced run are written to ``bench/out/trace-<workload>.jsonl``, and
``--json PATH`` adds the figures, stamped with core count, Python version and
commit, to a trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import grids
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = str(BENCH / "child.py")

#: Fresh interpreters timed for set-up: half before the passes, half after.
SETUP_SAMPLES = 10
#: What the installed `gggr` console script runs.
CONSOLE = "import sys; from gggr.cli import main; sys.exit(main())"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}

#: Per-layer time metrics -> the span key whose self time they sum.
LAYER_TIMES = {
    "symfunc.mn_s": "symfunc.mn",
    "symfunc.kostka_s": "symfunc.kostka",
    "symfunc.x_s": "symfunc.x",
    "symfunc.hl_expand_s": "symfunc.hl_expand",
    "symfunc.hl_expand_s.n5": "symfunc.hl_expand.n5",
    "green.table_s": "green.table",
    "green.orthogonality_s": "green.orthogonality",
    "green.orthogonality_s.n7": "green.orthogonality.n7",
    "grouporders.orders_s": "grouporders.orders",
    "kawanaka.gamma_s": "kawanaka.gamma",
    "kawanaka.gamma_s.n6": "kawanaka.gamma.n6",
    "kawanaka.gamma_s.n7": "kawanaka.gamma.n7",
    "kawanaka.endo_s": "kawanaka.endo",
    "kawanaka.endo_s.n7": "kawanaka.endo.n7",
    "kawanaka.verify_s": "kawanaka.verify",
    "oracle.field_s": "oracle.field",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.enumerate_s.GU2_5": "oracle.enumerate.GU2_5",
    "oracle.enumerate_s.GU3_2": "oracle.enumerate.GU3_2",
    "oracle.classes_s": "oracle.classes",
    "oracle.classes_s.GL3_3": "oracle.classes.GL3_3",
    "oracle.classes_s.GL4_2": "oracle.classes.GL4_2",
    "oracle.gg_inner_s": "oracle.gg_inner",
    "oracle.symbolic_s": "oracle.symbolic",
}

PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "cli.render_s": "s",
    "cli.startup_s": "s",
    "kawanaka.gamma_values": "count",
    "kawanaka.gamma_terms": "count",
    "kawanaka.gamma_per_s": "1/s",
    "symfunc.tableaux": "count",
    "symfunc.hl_coeffs": "count",
    "oracle.ambient_scanned": "count",
    "oracle.elements": "count",
    "oracle.conjugations": "count",
    "oracle.enum_yield": "ratio",
    "cli.output_bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.pop("GGGR_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def time_setup(env: dict) -> float:
    """Seconds from launching an interpreter until `import gggr` returns."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import gggr, sys; sys.stdout.write('.')"],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    ready = proc.stdout.read(1)
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or ready != b".":
        raise BenchError("a fresh interpreter cannot import gggr from src/")
    return elapsed


def run_process(cmd: list[str], env: dict, workdir: Path) -> tuple[int, float, float, str, str]:
    """Exit code, wall seconds, peak RSS (MiB), stdout and stderr of one
    process.  stderr goes to a file so that a full pipe cannot stall it."""
    errpath = workdir / "stderr.txt"
    start = time.perf_counter()
    with open(errpath, "wb") as err:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            env=env, cwd=ROOT,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, elapsed, usage.ru_maxrss / 1024,
            out.decode(errors="replace"), errpath.read_text(errors="replace"))


def run_child(args: list[str], env: dict, workdir: Path) -> dict:
    code, _, _, out, err = run_process([sys.executable, CHILD, *args], env, workdir)
    if code != 0:
        raise BenchError(f"child {args} exited {code}: {err.strip()}")
    return json.loads(out)


# -- the cli workload: one fresh process per command ---------------------------


def cli_references(grid: str, env: dict, workdir: Path) -> dict:
    """The JSON rendering of each command that renders as csv or pretty."""
    refs = {}
    for i, args in enumerate(grids.CLI[grid]):
        if grids.flag(args, "--format", "json") == "json":
            continue
        at = args.index("--format") + 1
        json_args = (*args[:at], "json", *args[at + 1 :])
        path = workdir / f"reference-{i}.json"
        code, _, _, _, err = run_process(
            [sys.executable, "-c", CONSOLE, *json_args, "--output", str(path)], env, workdir
        )
        if code != 0:
            raise BenchError(f"reference rendering {json_args} exited {code}: {err.strip()}")
        refs[i] = path.read_text()
    return refs


def empty_pass() -> dict:
    return {"run_s": 0.0, "peak_rss_mib": 0.0, "attempted": 0, "failures": [], "errors": [],
            "spans": [], "groups": {}, "counts": {}, "render_s": 0.0}


def absorb(total: dict, part: dict) -> None:
    """Add the results of one process to those of its pass.  Span parents are
    renumbered so that they stay inside the process that recorded them."""
    offset = len(total["spans"])
    total["spans"] += [[p + offset if p >= 0 else p, *rest] for p, *rest in part.get("spans", [])]
    for key in ("run_s", "attempted", "render_s"):
        total[key] += part.get(key, 0)
    total["peak_rss_mib"] = max(total["peak_rss_mib"], part["peak_rss_mib"])
    total["failures"] += part.get("failures", [])
    total["errors"] += part.get("errors", [])
    total["groups"].update(part.get("groups", {}))
    for key, value in part.get("counts", {}).items():
        total["counts"][key] = total["counts"].get(key, 0) + value


def cli_pass(grid: str, env: dict, trace: bool, workdir: Path, refs: dict) -> dict:
    """Every command of the grid as its own process, writing to a file.  A
    traced command runs under child.py, which also re-runs it with warm caches."""
    out = empty_pass()
    for i, args in enumerate(grids.CLI[grid]):
        path = workdir / f"out-{i}.txt"
        path.unlink(missing_ok=True)
        argv = [*args, "--output", str(path)]
        head = [CHILD, "cli"] if trace else ["-c", CONSOLE]
        code, wall, rss, stdout, err = run_process([sys.executable, *head, *argv], env, workdir)
        part = {"run_s": wall, "peak_rss_mib": rss, "attempted": 1}
        if trace and stdout:
            part.update(json.loads(stdout))
            code, part["run_s"] = part["code"], wall - part["render_s"]
        if code != 0:
            last = (err.strip().splitlines() or [""])[-1]
            part["failures"] = [
                {"op": "gggr " + " ".join(args), "type": f"exit status {code}", "message": last}
            ]
        if path.exists():
            text = path.read_text()
            part["counts"] = {"cli.output_bytes": len(text.encode())}
            part["errors"] = checks.check_cli(args, text, refs.get(i))
        absorb(out, part)
    return out


# -- measurement ---------------------------------------------------------------


def run_rounds(workload: str, grid: str, seconds: float, trace: bool, env: dict,
               workdir: Path, refs: dict) -> tuple[list, list]:
    """Whole rounds (a pass, and with ``trace`` a traced pass after it) until
    ``seconds`` have passed, so a run measures at least that long."""

    def one(traced: bool) -> dict:
        total = empty_pass()
        for part in grids.WORKLOADS[workload]:
            if part == "cli":
                absorb(total, cli_pass(grid, env, traced, workdir, refs))
            else:
                flag = "1" if traced else "0"
                absorb(total, run_child(["pass", part, grid, flag], env, workdir))
        return total

    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(one(False))
        if trace:
            traced.append(one(True))
    return plain, traced


def partition_count(n: int) -> int:
    return sum(1 for _ in checks.partitions(n))


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    seconds = spans.layer_seconds(p["spans"])
    m = {name: seconds.get(key, 0.0) for name, key in LAYER_TIMES.items()}
    gamma = [int(label[1:]) for _, layer, label, _, _ in p["spans"] if layer == "kawanaka.gamma"]
    m["kawanaka.gamma_values"] = len(gamma)
    m["kawanaka.gamma_terms"] = sum(partition_count(n) for n in gamma)
    m["kawanaka.gamma_per_s"] = len(gamma) / m["kawanaka.gamma_s"] if gamma else 0.0
    counts = p["counts"]
    m["symfunc.tableaux"] = counts.get("symfunc.tableaux", 0)
    m["symfunc.hl_coeffs"] = counts.get("symfunc.hl_coeffs", 0)
    groups = spans.group_counts(p["groups"])
    m.update({f"oracle.{k}": v for k, v in groups.items()})
    m["oracle.enum_yield"] = (
        groups["elements"] / groups["ambient_scanned"] if groups["ambient_scanned"] else 0.0
    )
    m["cli.render_s"] = p["render_s"]
    m["cli.output_bytes"] = counts.get("cli.output_bytes", 0)
    return m


def measure(args, env: dict, workdir: Path) -> dict:
    time_setup(env)  # unmeasured: writes bytecode and warms the file cache
    setup = [time_setup(env) for _ in range(SETUP_SAMPLES // 2)]
    has_cli = "cli" in grids.WORKLOADS[args.workload]
    refs = cli_references(args.grid, env, workdir) if has_cli else {}
    plain, traced = run_rounds(
        args.workload, args.grid, args.seconds, bool(args.trace), env, workdir, refs
    )
    setup += [time_setup(env) for _ in range(SETUP_SAMPLES - len(setup))]
    setup_s = statistics.median(setup)
    passes = plain + traced
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "errors": [e for p in passes for e in p["errors"]],
        "passes": (len(plain), len(traced)),
        "setup_samples": len(setup),
    }
    run_s = statistics.median(p["run_s"] for p in plain)
    if not args.trace:
        result["metrics"] = {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }
        return result
    per_pass = [layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # every command of the cli workload pays the set-up once
    commands = len(grids.CLI[args.grid]) if has_cli else 0
    metrics["cli.startup_s"] = setup_s * commands
    metrics["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
    result["metrics"] = metrics
    write_spans(args, traced)
    return result


def write_spans(args, traced: list) -> None:
    """All spans of the traced passes, one JSON array per line."""
    path = OUT / f"trace-{args.workload}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        header = {"workload": args.workload, "seed": args.seed, "grid": args.grid,
                  "fields": ["pass", "id", "parent", "layer", "label", "start", "end"]}
        fh.write(json.dumps(header) + "\n")
        for k, p in enumerate(traced):
            for i, span in enumerate(p["spans"]):
                fh.write(json.dumps([k, i, *span]) + "\n")


# -- reporting -----------------------------------------------------------------


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def report(args, result: dict) -> dict:
    """Print every metric with its unit and every failure, then the JSON line."""
    units = PER_LAYER if args.trace else END_TO_END
    plain, traced = result["passes"]
    failed = len(result["failures"])
    print(f"workload {args.workload} (grid {args.grid}, seed {args.seed}):"
          f" {plain} pass(es), {traced} traced; {result['attempted']} operations"
          f" attempted, {failed} failed; set-up sampled {result['setup_samples']} times")
    for name, unit in units.items():
        print(f"  {name} = {result['metrics'][name]:.6g} {unit}")
    seen = {}
    for f in result["failures"]:
        key = (f["op"], f["type"], f["message"])
        seen[key] = seen.get(key, 0) + 1
    for (op, kind, message), times in seen.items():
        fault = grids.KNOWN_FAULTS.get(op)
        note = f" [known fault: {fault}]" if fault else " [unexpected]"
        print(f"  FAILED x{times} {op}: {kind}: {message}{note}")
    for error in result["errors"][:20]:
        print(f"  INCORRECT {error}")
    line = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(line))
    return line


def append_trajectory(path: Path, args, line: dict, result: dict) -> None:
    """Add this run's figures to the trajectory file at ``path``."""
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append({
        "workload": args.workload, "trace": args.trace, "grid": args.grid,
        "seed": args.seed, "seconds": args.seconds,
        "cores": os.cpu_count(), "python": platform.python_version(), "commit": commit(),
        "passes": list(result["passes"]),
        "failures": sorted({f"{f['op']}: {f['type']}: {f['message']}" for f in result["failures"]}),
        **line,
    })
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(grids.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="sets the children's PYTHONHASHSEED; the grids are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", choices=("full", "small"), default="full",
                        help="small: the reduced grid the benchmark's tests run")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also append the figures to this trajectory file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gggr" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'gggr'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args, child_env(args.seed), workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = report(args, result)
    if args.json:
        append_trajectory(args.json, args, line, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
