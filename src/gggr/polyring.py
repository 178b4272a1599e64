"""Exact univariate polynomials: the package's one public polynomial type.

Everything the package returns (Green polynomials, character values, order
formulas, endomorphism dimensions) is a `RationalPoly`, with no floats and
no negative powers.  Its variable tags the wire format and the printing:
``t`` for the Hall–Littlewood / Green variable, ``q`` for the field size.

A `RationalPoly` is a value with no arithmetic: the pipeline computes on
integer tuples in `intpoly` and wraps only its results.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .intpoly import IntPoly, evaluate, trim


class RationalPoly:
    """The coefficient of x^k is ``nums[k] / den``, with no trailing zeros,
    ``den`` > 0 and the pair reduced by its gcd; zero is ``()`` over 1."""

    __slots__ = ("nums", "den", "var")

    def __init__(self, nums: Sequence[int] = (), var: str = "t", den: int = 1):
        if not all(isinstance(c, int) for c in (den, *nums)):
            raise TypeError(f"not integers: {nums!r} / {den!r}")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        nums = trim(nums)
        g = gcd(den, *nums)
        self.nums: IntPoly = tuple(c // g for c in nums) if g > 1 else nums
        self.den = den // g
        self.var = var

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as fractions, lowest degree first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.nums) - 1

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k] if 0 <= k < len(self.nums) else 0, self.den)

    def __eq__(self, other) -> bool:
        key = (self.var, self.nums, self.den)
        return isinstance(other, RationalPoly) and key == (other.var, other.nums, other.den)

    def __hash__(self):
        return hash((self.var, self.nums, self.den))

    def __repr__(self) -> str:
        return f"RationalPoly({pretty(self)!r})"

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point."""
        return Fraction(evaluate(self.nums, x), self.den)


def poly_to_json(f: RationalPoly) -> dict:
    """Wire format: {"var": ..., "val": v, "coeffs": [[num, den], ...]} where v
    is the lowest exponent with a nonzero coefficient (0 for the zero
    polynomial) and the reduced coefficients run from x^v upwards as decimal
    strings."""
    val = next((k for k, c in enumerate(f.nums) if c), 0)
    pairs = ((c, gcd(c, f.den)) for c in f.nums[val:])
    return {"var": f.var, "val": val, "coeffs": [[str(c // g), str(f.den // g)] for c, g in pairs]}


_WIRE_INTEGER = re.compile("0|-?[1-9][0-9]*")


def _integer(x) -> int:
    """A JSON integer, or a decimal string as ``poly_to_json`` writes it
    (ASCII digits, no leading zero, no sign but a leading minus); a float is
    refused, not truncated."""
    if type(x) is int or (type(x) is str and _WIRE_INTEGER.fullmatch(x)):
        return int(x)
    raise ValueError(f"not an integer: {x!r}")


def poly_from_json(data: dict) -> RationalPoly:
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
        if not den:
            raise ValueError(f"zero denominator in {num}/0 {var}^{k}")
    common = lcm(*(den for _, den in pairs))
    nums = [0] * val + [num * (common // den) for num, den in pairs]
    return RationalPoly(nums, var, common)


def pretty(f: RationalPoly) -> str:
    """Render highest-degree first, e.g. 'q^5 - q^4 + 2q^2 - 1'."""
    if f.is_zero():
        return "0"
    out = ""
    for k, c in reversed(list(enumerate(f.coeffs))):
        if c:
            pw = "" if k == 0 else f.var if k == 1 else f"{f.var}^{k}"
            mag = "" if abs(c) == 1 and pw else str(abs(c))
            out += (" - " if c < 0 else " + ") + mag + pw
    return out[3:] if out[1] == "+" else "-" + out[3:]
