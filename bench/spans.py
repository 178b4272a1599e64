"""In-memory spans around calls into the package's modules.

``instrument`` replaces each public function listed in ``LAYERS`` with a
wrapper, in every ``gggr`` module that imported it, so the program runs
unchanged while each call records a span: parent span, layer, label, start
and end.  A call answered from an ``lru_cache`` did no work; it records no
span.  Each pass starts in a fresh
interpreter with cold caches, so every value is computed once, inside the
first span that asks for it, and the layers' self times (a span's duration
minus its children's) add up to the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _n_of(arg) -> int:
    return arg if isinstance(arg, int) else sum(arg)


def _by_n(args) -> str:
    return f"n{_n_of(args[0])}"


def _by_group(args) -> str:
    return f"{'GL' if args[1] == 1 else 'GU'}{args[0]}_{args[2]}"


def _by_self(args) -> str:
    g = args[0]
    return _by_group((g.n, g.eps, g.q0))


def _by_command(args) -> str:
    return args[0][0] if args and args[0] else "none"


#: (layer, module, function, its lru_cache or None, label of a call).
LAYERS = (
    ("symfunc.mn", "symfunc", "mn_character", "_mn", _by_n),
    ("symfunc.kostka", "symfunc", "kostka_foulkes", "_kostka_foulkes", _by_n),
    ("symfunc.x", "symfunc", "x_poly", None, _by_n),
    ("symfunc.hl_expand", "symfunc", "hall_littlewood_expand", None, _by_n),
    ("green.table", "green", "green_table", "green_table", _by_n),
    ("green.table", "green", "green_poly", "_green", _by_n),
    ("green.orthogonality", "green", "verify_orthogonality", None, _by_n),
    ("grouporders.orders", "grouporders", "group_order", None, _by_n),
    ("grouporders.orders", "grouporders", "torus_order", None, _by_n),
    ("grouporders.orders", "grouporders", "e_poly", None, _by_n),
    ("grouporders.orders", "grouporders", "class_size", None, _by_n),
    (
        "grouporders.orders",
        "grouporders",
        "unipotent_centralizer_order",
        "_centralizer",
        _by_n,
    ),
    ("kawanaka.gamma", "kawanaka", "gggr_value", "_gggr_value", _by_n),
    ("kawanaka.endo", "kawanaka", "endo_dim", "_endo_dim", _by_n),
    ("kawanaka.verify", "kawanaka", "verify_theorem", None, _by_n),
    ("oracle.field", "oracle", "finite_field", "finite_field", lambda a: f"F{a[0]}"),
    ("oracle.enumerate", "oracle", "enumerate_group", None, _by_group),
    ("oracle.classes", "oracle", "OracleGroup.classes", None, _by_self),
    ("oracle.classes", "oracle", "OracleGroup.class_index", None, _by_self),
    ("oracle.gg_inner", "oracle", "gelfand_graev_inner", None, _by_self),
    ("oracle.gg_inner", "oracle", "regular_rep_inner", None, _by_self),
    ("oracle.report", "oracle", "oracle_report", None, _by_group),
    ("cli.main", "cli", "main", None, _by_command),
)

SYMBOLIC = ("symfunc.", "green.", "grouporders.", "kawanaka.")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [parent index or -1, layer, label, start, end]
        #: Oracle groups seen: label -> (ambient matrices, elements, classes).
        self.groups: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, layer, fn, cache, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache.cache_info().misses if cache is not None else None
            record = [stack[-1] if stack else -1, layer, label(args), clock(), 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = clock()
                if misses is not None and cache.cache_info().misses == misses:
                    spans.pop()  # a hit runs no code, so this span is the last one
            self._observe(layer, record[2], args, result)
            return result

        return traced

    def _observe(self, layer, label, args, result) -> None:
        if layer == "oracle.enumerate":
            n, eps, q0 = args[0], args[1], args[2]
            ambient = (q0 if eps == 1 else q0 * q0) ** (n * n)
            self.groups[label] = [ambient, len(result.elements), 0]
        elif layer == "oracle.classes" and isinstance(result, list):
            self.groups.setdefault(label, [0, 0, 0])[2] = len(result)


def instrument(tracer: Tracer) -> None:
    """Route every call to a LAYERS function through ``tracer``."""
    modules = [importlib.import_module(f"gggr.{m}") for m in
               ("partitions", "polyring", "symfunc", "grouporders", "green",
                "kawanaka", "oracle", "cli")]
    modules.append(importlib.import_module("gggr"))
    for layer, module, name, cache_name, label in LAYERS:
        home = importlib.import_module(f"gggr.{module}")
        if "." in name:
            cls_name, method = name.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(layer, getattr(cls, method), None, label))
            continue
        original = getattr(home, name)
        cache = getattr(home, cache_name) if cache_name else None
        wrapped = tracer.wrap(layer, original, cache, label)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, _, start, end in spans]
    for parent, _, _, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_seconds(spans) -> dict[str, float]:
    """Self seconds per layer and per ``layer.label``, plus ``oracle.symbolic``:
    the whole time of symbolic calls made directly by oracle_report."""
    out: dict[str, float] = defaultdict(float)
    for (parent, layer, label, start, end), own in zip(spans, self_times(spans)):
        out[layer] += own
        out[f"{layer}.{label}"] += own
        if parent >= 0 and spans[parent][1] == "oracle.report" and layer.startswith(SYMBOLIC):
            out["oracle.symbolic"] += end - start
    return out


def group_counts(groups: dict) -> dict[str, int]:
    """Ambient matrices scanned, elements found and conjugations of the class
    split (|G| times the number of classes) over the oracle groups seen."""
    return {
        "ambient_scanned": sum(g[0] for g in groups.values()),
        "elements": sum(g[1] for g in groups.values()),
        "conjugations": sum(g[1] * g[2] for g in groups.values()),
    }
