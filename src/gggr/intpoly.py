"""Integer-coefficient polynomial kernels for the symbolic pipeline.

Every table of the pipeline (X, Green, torus, class-size and group orders,
the character values gamma) has integer coefficients once the 1/|W_rho|
weights are cleared by n!, so the pipeline computes on plain tuples of ints,
lowest degree first, with no trailing zeros (the zero polynomial is ``()``).

Products use Kronecker substitution: f is packed into the single integer
f(2^b), packed integers are multiplied, and the result is read back in base
2^b.  The read-back is exact when every coefficient c of the result has
|c| < 2^(b-1), so b is derived from a proven bound on the result's
coefficients (``product_bound``), never guessed.  b is a whole number of
bytes, rounded up to 8, 16, 32 or 64 bits while it fits in 64, so that on
little-endian hosts those digits are packed and read back as machine words
by ``array`` and ``memoryview`` in C rather than one by one.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import Sequence

from .errors import ContractError, NonExactDivisionError

IntPoly = tuple[int, ...]


def trim(coeffs: Sequence[int]) -> IntPoly:
    """The coefficients without trailing zeros."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def scale(f: IntPoly, c: int) -> IntPoly:
    return tuple(c * a for a in f) if c else ()


def signed(f: IntPoly, eps: int) -> IntPoly:
    """f(eps * q): the coefficient of q^k picks up eps^k."""
    return f if eps == 1 else tuple(a if k % 2 == 0 else -a for k, a in enumerate(f))


def evaluate(f: IntPoly, x: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def times_binomials(shift: int, exps, eps: int) -> IntPoly:
    """q^shift * prod_{k in exps} (q^k - eps^k)."""
    out = [0] * shift + [1]
    for k in exps:
        c = eps**k
        nxt = [0] * k + out
        for i, a in enumerate(out):
            nxt[i] -= c * a
        out = nxt
    return tuple(out)


def exact_quotient(f: IntPoly, g: IntPoly, what: str) -> IntPoly:
    """f / g for a monic g, a division that must be exact.  Every divisor of
    the pipeline is monic by construction (a group or centralizer order, a
    pivot scaled by its sign), so one that is not is a failed check; so is a
    remainder, which the error names after ``what``."""
    if not g or g[-1] != 1:
        raise ContractError("divisor must be monic")
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(rem) - dg, 0)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c:
            quot[k - dg] = c
            for j in range(dg):
                rem[k - dg + j] -= c * g[j]
    if any(rem[:dg]):
        raise NonExactDivisionError(f"{what} left remainder {trim(rem[:dg])}")
    return trim(quot)


def exact_div(a: int, b: int, what: str) -> int:
    """a / b for integers, a division that must be exact; a zero divisor or
    a remainder is a failed check, which the error names after ``what``."""
    if not b:
        raise ContractError(f"{what} divides by zero")
    quot, rem = divmod(a, b)
    if rem:
        raise NonExactDivisionError(f"{what} left remainder {rem}")
    return quot


# -- Kronecker substitution --------------------------------------------------


def product_bound(terms: int, len_a: int, max_a: int, len_b: int, max_b: int) -> int:
    """A bound on |c| for every coefficient c of a sum of ``terms`` products
    a*b with len(a) <= len_a, len(b) <= len_b and coefficients bounded by
    max_a and max_b: each coefficient of one product sums at most
    min(len_a, len_b) terms of size at most max_a*max_b."""
    return terms * min(len_a, len_b) * max_a * max_b


#: Signed array typecodes by item size, on little-endian hosts: digits of
#: 1, 2, 4 or 8 bytes are packed and read back in C.
_CODES = {array(code).itemsize: code for code in "bhiq"} if sys.byteorder == "little" else {}
_WORDS = sorted(_CODES)


def _width(bound: int) -> int:
    """Bytes per packed coefficient, so that |c| <= bound < 2^(8*width - 1):
    the smallest machine-word width that holds the digit, else the byte
    count."""
    width = (bound.bit_length() + 8) // 8
    return next((w for w in _WORDS if w >= width), width)


def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum_k coeffs[k] * 2^(8*width*k), for |coeffs[k]| < 2^(8*width - 1),
    which ``_width`` guarantees.  Machine words are written in two's
    complement, and XOR with the offset pattern (2^(8*width - 1) in every
    digit) turns each into the digit plus its offset; wider digits are
    offset one by one and joined as bytes.  The offsets are then subtracted
    together."""
    off = _offset(width, len(coeffs))
    code = _CODES.get(width)
    if code:
        return (int.from_bytes(array(code, coeffs).tobytes(), "little") ^ off) - off
    half = 1 << (8 * width - 1)
    digits = b"".join((a + half).to_bytes(width, "little") for a in coeffs)
    return int.from_bytes(digits, "little") - off


@lru_cache(maxsize=64)
def _offset(width: int, count: int) -> int:
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The ``count`` coefficients c_k of value = sum_k c_k * 2^(8*width*k),
    given |c_k| < 2^(8*width - 1): adding 2^(8*width - 1) to every digit makes
    them all non-negative, so they read off byte-aligned without carries, and
    XOR with the offsets turns machine words back into two's complement.  A
    value outside that range, from a bound that was not one, fails as a
    check."""
    off = _offset(width, count)
    code = _CODES.get(width)
    try:
        buf = ((value + off) ^ off if code else value + off).to_bytes(width * count, "little")
    except OverflowError:
        raise ContractError(
            f"a Kronecker product outgrew its {count} digits of {width} bytes"
        ) from None
    if code:
        return memoryview(buf).cast(code).tolist()
    half = 1 << (8 * width - 1)
    return [
        int.from_bytes(buf[i : i + width], "little") - half
        for i in range(0, width * count, width)
    ]


def _shape(polys) -> tuple[int, int]:
    """Longest length and largest absolute coefficient."""
    return max(map(len, polys), default=0), max((abs(a) for f in polys for a in f), default=0)


def bilinear(
    a: Sequence[Sequence[IntPoly]],
    w: Sequence[IntPoly],
    b: Sequence[Sequence[IntPoly]],
) -> list[list[IntPoly]]:
    """The matrix product aᵀ · diag(w) · b over Z[q]:

        out[m][l] = sum_k a[k][m] * w[k] * b[k][l]

    for a of shape K x M, w of length K and b of shape K x L.  Each row of b
    is packed into one integer with column l in a slot of ``slot``
    coefficients, wide enough for any product a[k][m] * w[k] * b[k][l], and
    multiplied by the packed w[k] once; one big-integer product per (k, m)
    then yields every column l at once."""
    terms = len(w)
    rows_out, cols = (len(a[0]), len(b[0])) if terms else (0, 0)
    len_a, max_a = _shape([f for row in a for f in row])
    len_w, max_w = _shape(w)
    len_b, max_b = _shape([f for row in b for f in row])
    if not (len_a and len_w and len_b):
        return [[() for _ in range(cols)] for _ in range(rows_out)]
    # a*w has at most len_a + len_w - 1 coefficients, each bounded by
    # min(len_a, len_w) * max_a * max_w; the sum over k is bounded in turn.
    len_aw = len_a + len_w - 1
    max_aw = product_bound(1, len_a, max_a, len_w, max_w)
    bound = product_bound(terms, len_aw, max_aw, len_b, max_b)
    width = _width(max(bound, max_a, max_w, max_b))
    slot = len_aw + len_b - 1
    rows = [
        _pack(f, width) * _pack([c for g in row for c in g + (0,) * (slot - len(g))], width)
        for f, row in zip(w, b)
    ]
    out = []
    for m in range(rows_out):
        acc = 0
        for k in range(terms):
            if a[k][m]:
                acc += _pack(a[k][m], width) * rows[k]
        coeffs = _unpack(acc, width, cols * slot)
        out.append([trim(coeffs[l * slot : (l + 1) * slot]) for l in range(cols)])
    return out


def weighted_squares(rows: Sequence[Sequence[IntPoly]], w: Sequence[IntPoly]) -> list[IntPoly]:
    """sum_k w[k] * rows[m][k]^2 over Z[q] for every row m: the diagonal of
    bilinear(rowsᵀ, w, rowsᵀ).  Every operand is packed once, at one width
    wide enough for any row's sum, so each w[k] serves every row."""
    terms = len(w)
    len_r, max_r = _shape([f for row in rows for f in row])
    len_w, max_w = _shape(w)
    if not (len_r and len_w):
        return [() for _ in rows]
    # a square has at most 2*len_r - 1 coefficients, each bounded by
    # len_r * max_r^2; the sum over k is bounded in turn.
    len_rr = 2 * len_r - 1
    max_rr = product_bound(1, len_r, max_r, len_r, max_r)
    bound = product_bound(terms, len_rr, max_rr, len_w, max_w)
    width = _width(max(bound, max_r, max_w))
    count = len_rr + len_w - 1
    ws = [_pack(f, width) for f in w]
    out = []
    for row in rows:
        acc = 0
        for f, packed_w in zip(row, ws):
            if f:
                g = _pack(f, width)
                acc += g * g * packed_w
        out.append(trim(_unpack(acc, width, count)))
    return out
