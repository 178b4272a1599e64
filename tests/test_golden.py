"""Golden corpus: the stdout of every `gggr` subcommand, byte for byte.

tests/golden.json holds the SHA-256 digest of each command's stdout (the
outputs themselves come to ~600 KB).  It pins the wire format and the
rendered output of the command across rewrites of the kernels behind it.
Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from gggr.cli import main
from gggr.partitions import partitions_of

GOLDEN = Path(__file__).resolve().parent / "golden.json"
FORMATS = ("json", "csv", "pretty")


def commands() -> list[tuple[str, ...]]:
    out = []
    for n in range(1, 7):
        for eps in ((), ("--eps", "+1"), ("--eps", "-1")):
            out.append(("green", "--n", str(n), *eps))
    for eps in ("+1", "-1"):
        for mu in partitions_of(5):
            out.append(("gggr", "--mu", ",".join(map(str, mu)), "--eps", eps, "--big"))
        out.append(("gggr", "--mu", "3,2,1", "--eps", eps, "--big"))
    for cmd in ("endo", "verify"):
        for eps, cap in (("+1", 5), ("-1", 4)):
            for n in range(1, cap + 1):
                out.append((cmd, "--n", str(n), "--eps", eps))
            out.append((cmd, "--n", "6", "--eps", eps, "--big"))
    for n, q in ((3, 2), (2, 3), (2, 4), (3, 3), (4, 2), (2, 8), (2, 9)):
        out.append(("oracle", "--n", str(n), "--q", str(q)))
    for q in (3, 5):
        out.append(("oracle", "--n", "2", "--q", str(q), "--eps", "-1"))
    return [(*args, "--format", fmt) for args in out for fmt in FORMATS]


def key(args: tuple[str, ...]) -> str:
    return " ".join(args)


def run(args: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("args", commands(), ids=key)
def test_golden_output(args, corpus):
    code, digest = run(args)
    assert code == 0
    assert digest == corpus[key(args)]


def test_corpus_covers_exactly_the_commands(corpus):
    assert set(corpus) == {key(a) for a in commands()}


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    digests = {}
    for args in commands():
        code, digests[key(args)] = run(args)
        assert code == 0, args
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
