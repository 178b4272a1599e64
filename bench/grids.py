"""The workloads and the fixed input grids of their parts.

Every input is a fixed grid, so a run's work does not depend on its seed
(the seed only sets the children's hash seed, see run.py).  ``full`` is what
the benchmark measures; ``small`` is a reduced grid with the same structure
that the benchmark's own tests run in seconds.
"""

#: Workload -> the parts one pass runs, in order.  Each library part runs in
#: its own fresh interpreter, each `gggr` command in its own process.
#: ``symbolic`` is the symbolic pipeline, through the library and through
#: the command; ``independent`` holds the two routes that share nothing with
#: it, the Hall-Littlewood symmetrization and brute-force enumeration.
WORKLOADS = {
    "symbolic": ("theorem", "cli"),
    "independent": ("crosscheck", "oracle"),
}

#: (n, eps) pairs for verify_theorem(n, eps, cap=7) and verify_orthogonality.
THEOREM = {
    "full": tuple((n, eps) for eps in (1, -1) for n in range(1, 8)),
    "small": tuple((n, eps) for eps in (1, -1) for n in range(1, 4)),
}

#: Sizes n whose every power sum p_rho is expanded in Hall-Littlewood P.
CROSSCHECK = {
    "full": tuple(range(1, 6)),
    "small": tuple(range(1, 4)),
}

#: (n, eps, q0) configurations for oracle_report.
ORACLE = {
    "full": (
        (2, 1, 3),
        (2, 1, 4),
        (3, 1, 2),
        (3, 1, 3),
        (4, 1, 2),
        (2, -1, 3),
        (2, -1, 5),
        (3, -1, 2),
    ),
    "small": ((2, 1, 3), (2, -1, 2), (2, -1, 4)),
}

#: Argument lists of the `gggr` command, one fresh process each.
CLI = {
    "full": (
        ("green", "--n", "6", "--format", "pretty"),
        ("green", "--n", "6", "--eps", "-1", "--format", "csv"),
        ("gggr", "--mu", "3,2,1", "--eps", "-1", "--big"),
        ("endo", "--n", "6", "--big", "--format", "pretty"),
        ("verify", "--n", "6", "--eps", "-1", "--big"),
        ("oracle", "--n", "3", "--q", "2"),
    ),
    "small": (
        ("green", "--n", "3", "--format", "pretty"),
        ("green", "--n", "3", "--eps", "-1", "--format", "csv"),
        ("gggr", "--mu", "2,1", "--eps", "-1"),
        ("endo", "--n", "3", "--format", "pretty"),
        ("verify", "--n", "3", "--eps", "-1"),
        ("oracle", "--n", "2", "--q", "3"),
    ),
}

#: Operations that fail on every pass because of a known fault in the
#: program, with the fault.  A failure not listed here is reported as
#: unexpected.
KNOWN_FAULTS = {
    "oracle GU3(2)": (
        "oracle_report(3, -1, 2) enumerates GU3(2), then "
        "_gu2_whittaker_subgroup raises CapExceededError because the unitary "
        "Gelfand-Graev oracle supports only n = 2; the checks already "
        "completed are discarded"
    ),
    "oracle GU2(4)": (
        "the unitary Gelfand-Graev oracle needs a prime defining field, so "
        "oracle_report(2, -1, 4) raises CapExceededError after enumerating"
    ),
}


def group_name(n: int, eps: int, q0: int) -> str:
    return f"{'GL' if eps == 1 else 'GU'}{n}({q0})"


def flag(args, name: str, default=None):
    """The value following ``name`` in a command's argument list."""
    return args[args.index(name) + 1] if name in args else default
