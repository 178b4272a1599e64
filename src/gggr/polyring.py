"""Exact univariate polynomials: the package's one public polynomial type.

Everything the package returns (Green polynomials, character values, order
formulas, endomorphism dimensions) is a `RationalPoly` with integer
coefficients, no floats and no negative powers.  Its variable tags the wire
format and the printing: ``t`` for the Hall–Littlewood / Green variable,
``q`` for the field size.

A `RationalPoly` is a value with no arithmetic: the pipeline computes on
integer tuples in `intpoly` and wraps only its results.
"""

from __future__ import annotations

import re
from typing import Sequence

from .intpoly import IntPoly, evaluate, trim


class RationalPoly:
    """Integer coefficients: x^k has ``nums[k]``, with no trailing zeros, and
    zero is ``()``.  The name is the wire format's, of [num, den] pairs."""

    __slots__ = ("nums", "var")

    def __init__(self, nums: Sequence[int] = (), var: str = "t"):
        if not all(type(c) is int for c in nums):  # a bool would be written "True"
            raise TypeError(f"not integers: {nums!r}")
        self.nums: IntPoly = trim(nums)
        self.var = var

    @property
    def coeffs(self) -> IntPoly:
        """``nums``: the coefficients, lowest degree first."""
        return self.nums

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.nums) - 1

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == 1

    def coeff(self, k: int) -> int:
        return self.nums[k] if 0 <= k < len(self.nums) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and (self.var, self.nums) == (other.var, other.nums)

    def __hash__(self):
        return hash((self.var, self.nums))

    def __repr__(self) -> str:
        return f"RationalPoly({pretty(self)!r})"

    def __call__(self, x):
        """Exact evaluation by Horner: an int at an int, a Fraction at a Fraction."""
        return evaluate(self.nums, x)


def poly_to_json(f: RationalPoly) -> dict:
    """Wire format: {"var": ..., "val": v, "coeffs": [[num, "1"], ...]} where v
    is the lowest exponent with a nonzero coefficient (0 for the zero
    polynomial) and the coefficients run from x^v upwards as decimal strings,
    each over the denominator 1."""
    val = next((k for k, c in enumerate(f.nums) if c), 0)
    return {"var": f.var, "val": val, "coeffs": [[str(c), "1"] for c in f.nums[val:]]}


_WIRE_INTEGER = re.compile("0|-?[1-9][0-9]*")


def _integer(x) -> int:
    """A JSON integer, or a decimal string as ``poly_to_json`` writes it
    (ASCII digits, no leading zero, no sign but a leading minus); a float is
    refused, not truncated."""
    if type(x) is int or (type(x) is str and _WIRE_INTEGER.fullmatch(x)):
        return int(x)
    raise ValueError(f"not an integer: {x!r}")


def poly_from_json(data: dict) -> RationalPoly:
    """The inverse of ``poly_to_json``: a denominator other than 1 is refused."""
    if type(data) != dict:
        raise ValueError(f"not the wire format: {data!r}")
    missing = [key for key in ("var", "val", "coeffs") if key not in data]
    if missing:
        raise ValueError(f"no {', '.join(map(repr, missing))} in {data!r}")
    var, val, coeffs = data["var"], _integer(data["val"]), data["coeffs"]
    if type(var) != str or type(coeffs) != list or any(
        type(c) != list or len(c) != 2 for c in coeffs
    ):
        raise ValueError(f"not the wire format: {data!r}")
    if val < 0:
        raise ValueError(f"negative valuation {val}: not a polynomial")
    pairs = [(_integer(num), _integer(den)) for num, den in coeffs]
    for k, (num, den) in enumerate(pairs, val):
        if den != 1:
            raise ValueError(f"denominator {den} in {num}/{den} {var}^{k}: not an integer")
    return RationalPoly([0] * val + [num for num, _ in pairs], var)


def pretty(f: RationalPoly) -> str:
    """Render highest-degree first, e.g. 'q^5 - q^4 + 2q^2 - 1'."""
    if f.is_zero():
        return "0"
    out = ""
    for k, c in reversed(list(enumerate(f.nums))):
        if c:
            pw = "" if k == 0 else f.var if k == 1 else f"{f.var}^{k}"
            mag = "" if abs(c) == 1 and pw else str(abs(c))
            out += (" - " if c < 0 else " + ") + mag + pw
    return out[3:] if out[1] == "+" else "-" + out[3:]
