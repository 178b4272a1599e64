import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gggr.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--eps", "+1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["eps"] == 1 and doc["pass"] is True
    assert len(doc["results"]) == 3
    assert all(rec["pass"] for rec in doc["results"])


def test_verify_pretty(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--format", "pretty")
    assert code == 0
    assert out.splitlines()[-1] == "RESULT: PASS"
    assert "PASS mu=(2):" in out
    assert "PASS mu=(1,1):" in out


def test_verify_csv_columns(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--eps", "-1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["mu", "degree", "monic", "pass"]
    assert len(rows) == 4
    assert all(row[3] == "True" for row in rows[1:])


def test_endo_json(capsys):
    code, out, _ = run(capsys, "endo", "--n", "2", "--eps", "-1")
    assert code == 0
    doc = json.loads(out)
    polys = {tuple(r["mu"]): r for r in doc["results"]}
    assert polys[(2,)]["degree"] == 2
    assert polys[(1, 1)]["degree"] == 4
    assert all(r["monic"] for r in doc["results"])


def test_endo_pretty_polynomial_rendering(capsys):
    code, out, _ = run(capsys, "endo", "--n", "2", "--format", "pretty")
    assert code == 0
    assert "q^2 - q" in out
    assert "q^4 - q^3 - q^2 + q" in out


def test_green_generic_and_specialized(capsys):
    code, out, _ = run(capsys, "green", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert "eps" not in doc
    assert doc["rows"][0]["cols"][1]["poly"]["var"] == "t"

    code, out, _ = run(capsys, "green", "--n", "2", "--eps", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps"] == -1
    assert doc["rows"][0]["cols"][1]["poly"]["var"] == "q"


def test_gggr_defaults_n_from_mu(capsys):
    code, out, _ = run(capsys, "gggr", "--mu", "2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["mu"] == [2, 1]
    assert [tuple(v["lambda"]) for v in doc["values"]] == [(3,), (2, 1), (1, 1, 1)]


def test_oracle_matches_spec_example(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--q", "3", "--eps", "+1")
    assert code == 0
    doc = json.loads(out)
    by_name = {c["check"]: c for c in doc["checks"]}
    assert by_name["gelfand_graev_inner"]["actual"] == 6
    assert doc["pass"] is True


def test_oracle_csv(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--q", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "expected", "actual", "ok"]
    assert all(row[3] == "True" for row in rows[1:])


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "verify", "--n", "0")[0] == 2
    assert run(capsys, "verify", "--n", "3", "--eps", "2")[0] == 2
    assert run(capsys, "gggr", "--mu", "1,2")[0] == 2
    assert run(capsys, "gggr", "--mu", "2,1", "--n", "4")[0] == 2
    assert run(capsys, "verify", "--n", "3", "--format", "xml")[0] == 2
    assert run(capsys, "oracle", "--n", "2", "--q", "6")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, )[0] == 2


def test_verify_takes_no_sample_flag(capsys):
    # verify checks endo_dim > 0 at the fixed q0 = 2, 3, 4, 5 only
    code, out, err = run(capsys, "verify", "--n", "3", "--q-samples", "2,3")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "gggr: error: unrecognized arguments: --q-samples 2,3"


def test_n_that_is_no_integer_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--n", "x")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "gggr verify: error: argument --n: not an integer: 'x'"


@pytest.mark.parametrize("eps, value", [("+1", 1), ("1", 1), ("-1", -1)])
def test_eps_accepts_plus_and_minus_one(capsys, eps, value):
    code, out, _ = run(capsys, "endo", "--n", "1", "--eps", eps)
    assert code == 0 and json.loads(out)["eps"] == value


@pytest.mark.parametrize("eps", ["2", "+2", "x"])
def test_eps_rejects_everything_else(capsys, eps):
    code, out, err = run(capsys, "verify", "--n", "2", "--eps", eps)
    assert code == 2 and out == ""
    assert "argument --eps" in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("green", ["-h", "--n", "--eps", "--format", "--output"]),
        ("gggr", ["-h", "--mu", "--eps", "--big", "--format", "--output"]),
        ("endo", ["-h", "--n", "--eps", "--big", "--format", "--output"]),
        ("verify", ["-h", "--n", "--eps", "--big", "--format", "--output"]),
        ("oracle", ["-h", "--n", "--q", "--eps", "--format", "--output"]),
    ],
)
def test_subcommand_help_lists_its_flags(capsys, command, flags):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert re.findall(r"^  (-h|--[\w-]+)", out, re.M) == flags


@pytest.mark.parametrize("command", ["verify", "endo", "gggr"])
def test_symbolic_commands_share_one_cap(capsys, command):
    size = ["--mu", "9"] if command == "gggr" else ["--n", "9"]
    code, out, err = run(capsys, command, *size)
    assert (code, out) == (3, "")
    assert err == f"gggr: cap exceeded: {command} capped at n = 8 (pass --big for n <= 10)\n"
    size = ["--mu", "11"] if command == "gggr" else ["--n", "11"]
    code, out, err = run(capsys, command, *size, "--big")
    assert (code, out, err) == (3, "", f"gggr: cap exceeded: {command} capped at n = 10\n")


def test_cap_violations_exit_3(capsys):
    code, _, err = run(capsys, "verify", "--n", "9")
    assert code == 3 and "cap" in err
    assert run(capsys, "verify", "--n", "11", "--big")[0] == 3
    assert run(capsys, "verify", "--n", "9", "--eps", "-1")[0] == 3
    assert run(capsys, "green", "--n", "9")[0] == 3
    assert run(capsys, "oracle", "--n", "3", "--q", "9")[0] == 3


def test_green_runs_at_the_cap(capsys):
    code, out, _ = run(capsys, "green", "--n", "8", "--eps", "-1", "--format", "csv")
    assert code == 0 and out.count("\n") == 1 + 22 * 22  # p(8) = 22


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_deterministic_output(capsys):
    a = run(capsys, "endo", "--n", "3", "--eps", "-1", "--format", "csv")
    b = run(capsys, "endo", "--n", "3", "--eps", "-1", "--format", "csv")
    assert a == b


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--n", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pass"] is True


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "report.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "verify", "--n", "2", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"gggr: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "2000", "--q", "9"],
        ["--n", "300", "--q", "2"],
        ["--n", "300", "--q", "2", "--eps", "-1"],
    ],
)
def test_oversized_oracle_group_exits_3_at_once(argv):
    """|G| >= q0^(n(n-1)) refuses the group before |G| is multiplied out,
    and no number past the cap is formatted."""
    done = subprocess.run(
        [sys.executable, "-m", "gggr.cli", "oracle", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (done.returncode, done.stdout) == (3, "")
    n, q0 = int(argv[1]), argv[3]
    assert done.stderr.startswith(f"gggr: cap exceeded: enumerating at least {q0}^{n * (n - 1)} ")
    assert done.stderr.count("\n") == 1


def test_diagnostics_go_to_stderr(capsys):
    code, out, err = run(capsys, "verify", "--n", "9")
    assert out == ""
    assert "cap" in err


def test_startup_loads_no_dataclasses_or_inspect():
    """Every gggr command pays for its imports: the package's records are
    named tuples, so importing the command line loads neither dataclasses nor
    inspect (with site off, so nothing else loads them first)."""
    script = "import sys, gggr.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_symbolic_commands_leave_the_oracle_unloaded():
    """Only `oracle` loads the oracle module; the symbolic commands run
    without it."""
    script = (
        "import contextlib, io, sys\n"
        "from gggr.cli import main\n"
        "for argv in (['green', '--n', '3'], ['gggr', '--mu', '2,1'], ['endo', '--n', '3'],\n"
        "             ['verify', '--n', '3'],\n"
        "             ['oracle', '--n', '2', '--q', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, 'gggr.oracle' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "green 0 False", "gggr 0 False", "endo 0 False", "verify 0 False", "oracle 0 True",
    ]


def oracle_imports(tree, scope=None):
    """(enclosing function or None, line) of every import of gggr.oracle."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ImportFrom):
            module = "gggr" + (f".{node.module}" if node.module else "") if node.level else node.module
            targets = {module} | {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            targets = {alias.name for alias in node.names}
        else:
            targets = set()
        if "gggr.oracle" in targets:
            yield scope, node.lineno
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from oracle_imports(node, inner)


def test_only_the_oracle_command_imports_the_oracle():
    """No module imports the oracle at module level: the package reads it on
    first use of one of its names, and the command line in its oracle branch."""
    found = {
        path.name: [scope for scope, _ in oracle_imports(ast.parse(path.read_text()))]
        for path in sorted((SRC / "gggr").glob("*.py"))
    }
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "__init__.py": ["__getattr__"],
        "cli.py": ["_execute"],
    }


def test_package_imports_only_the_standard_library():
    """The package runs on the standard library alone: every absolute import
    names a standard module, and pyproject.toml declares no dependency."""
    for path in sorted((SRC / "gggr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=\s*(.*)$", project, re.M) == ["[]"]


def test_modules_parse_with_the_declared_python_floor():
    """Every module parses with the grammar of the oldest Python that
    pyproject.toml declares, which refuses newer syntax such as except*."""
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    version = tuple(map(int, floor.groups()))
    assert version == (3, 10)
    for path in sorted((SRC / "gggr").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=version)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=version)
