"""Exact univariate polynomials: the package's one public polynomial type.

Everything the package returns (Green polynomials, character values, order
formulas, endomorphism dimensions) is a `RationalPoly` with
`fractions.Fraction` coefficients — no floats anywhere, and no negative
powers: every such quantity is a genuine polynomial.  Its variable name is a
tag for the wire format and for printing; two appear in practice:

* ``t`` — the Hall–Littlewood / Green polynomial variable,
* ``q`` — the field-size variable of the finite groups of Lie type.

A `RationalPoly` is a value: it has no arithmetic.  The pipeline computes on
integer coefficient tuples in `intpoly` and wraps only its results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .intpoly import evaluate

Scalar = Union[int, Fraction]


class RationalPoly:
    """Dense polynomial over Q.  ``coeffs[k]`` is the coefficient of x^k;
    the zero polynomial has an empty coefficient tuple."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "t"):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.var = var

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self) -> str:
        return f"RationalPoly({pretty(self)!r})"

    def __call__(self, x: Scalar) -> Fraction:
        """Exact evaluation at a rational point."""
        return Fraction(evaluate(self.coeffs, x))


# -- serialization ----------------------------------------------------


def poly_to_json(f: RationalPoly) -> dict:
    """Wire format: {"var": ..., "val": v, "coeffs": [[num, den], ...]} where v
    is the lowest exponent with a nonzero coefficient (0 for the zero
    polynomial) and the coefficients run from x^v upwards as decimal strings."""
    val = next((k for k, c in enumerate(f.coeffs) if c), 0)
    return {
        "var": f.var,
        "val": val,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in f.coeffs[val:]],
    }


def poly_from_json(data: dict) -> RationalPoly:
    val = int(data["val"])
    if val < 0:
        raise ValueError(f"negative valuation {val}: not a polynomial")
    coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
    return RationalPoly([0] * val + coeffs, data["var"])


def pretty(f: RationalPoly, var: str | None = None) -> str:
    """Render highest-degree first, e.g. 'q^5 - q^4 + 2q^2 - 1'."""
    if f.is_zero():
        return "0"
    var = var or f.var
    pieces: list[tuple[str, str]] = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag}{pw}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
