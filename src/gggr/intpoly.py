"""Integer-coefficient polynomial kernels for the symbolic pipeline.

Every table of the pipeline (X, Green, torus, class-size and group orders,
the character values gamma) has integer coefficients once the 1/|W_rho|
weights are cleared by n!, so the pipeline computes on plain tuples of ints,
lowest degree first, with no trailing zeros (the zero polynomial is ``()``).

Products use Kronecker substitution: f is packed into the single integer
f(2^b), packed integers are multiplied, and the result is read back in base
2^b.  The read-back is exact when every coefficient c of the result has
|c| < 2^(b-1), so b is derived from a proven bound on the result's
coefficients (``young_bound``), never guessed.  b is a whole number of
bytes, rounded up to 8, 16, 32 or 64 bits while it fits in 64, so that on
little-endian hosts those digits are packed and read back as machine words
by ``array`` and ``memoryview`` in C rather than one by one.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain, repeat
from math import prod
from typing import Iterator, Sequence

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


def young_bound(terms) -> int:
    """A bound on |c| for every coefficient c of a sum over k of products,
    given for each k the norms of its factors: the l1 norm (the sum of the
    absolute coefficients) of each factor but one, and the l_inf norm (the
    largest absolute coefficient) of that one.  By Young's inequality for
    sequences, |f*g|_inf <= |f|_1 * |g|_inf, so each product's coefficients
    are bounded by the product of those norms, and the sum by their sum."""
    return sum(map(prod, terms))


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


def _l1(polys) -> Iterator[int]:
    """The sum of the absolute coefficients (the l1 norm) of each of ``polys``."""
    return map(sum, map(map, repeat(abs), polys))


def _linf(polys) -> int:
    """The largest absolute coefficient (the l_inf norm) among all ``polys``."""
    return abs(max(chain.from_iterable(polys), key=abs, default=0))


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
    len_a, len_w, len_b = (max(map(len, chain.from_iterable(x)), default=0) for x in (a, [w], b))
    if not (len_a and len_w and len_b):
        return [[() for _ in range(cols)] for _ in range(rows_out)]
    # a coefficient of out[m][l] sums those of a[k][m] * w[k] * b[k][l], each
    # at most |a[k][m]|_1 * |w[k]|_1 * |b[k][l]|_inf; the digits must also
    # hold every coefficient of the operands, which the l1 norms bound
    a1 = [max(_l1(row)) for row in a]
    w1 = list(_l1(w))
    b_inf = list(map(_linf, b))
    width = _width(max(young_bound(zip(a1, w1, b_inf)), *a1, *w1, *b_inf))
    len_aw = len_a + len_w - 1
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
    len_r = max(map(len, chain.from_iterable(rows)), default=0)
    len_w = max(map(len, w), default=0)
    if not (len_r and len_w):
        return [() for _ in rows]
    # a coefficient of row m's sum sums those of rows[m][k]^2 * w[k], each at
    # most |rows[m][k]|_1 * |rows[m][k]|_inf * |w[k]|_1; the digits must also
    # hold every coefficient of the operands
    squares = [max([l1 * _linf([f]) for l1, f in zip(_l1(col), col)]) for col in zip(*rows)]
    w1 = list(_l1(w))
    top = max(_linf(chain.from_iterable(rows)), _linf(w))
    width = _width(max(young_bound(zip(squares, w1)), top))
    len_rr = 2 * len_r - 1
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
