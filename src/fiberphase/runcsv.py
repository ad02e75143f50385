"""The per-step run CSV, written by array expressions with the bytes of '%.17g'.

write_run_csv writes one row per step: t, lambda, gamma, phi_closed,
phi_total, phi_dyn, phi_geo, norm, each value the text '%.17g' % value
gives, from the eight arrays evaluate_scenario hands it.  format_block
turns a block of rows into those bytes with numpy array expressions and
no Python call per value:

* Digits.  For a finite nonzero v, X = floor(log10|v|) and
  |v| * 10**(16 - X) = p + t, where p = fl(|v| * hi) and t is Dekker's
  exact error of that product plus |v| * lo; (hi, lo) is 10**(16 - X) as
  a double-double.  t is good to about 1e-14, so D = p + rint(t) is the
  correctly rounded 17-digit significand whenever t is not within
  HALF_SLACK of a half-unit tie.
* Text.  The 17 digits become ASCII eight to a uint64 word by SWAR
  (SIMD within a register) arithmetic.  Each value is laid out in four
  words: sign, "0.000" lead and first digit; the other 16 digits with the
  dot at its byte, trailing zeros dropped; the exponent and the
  separator.  Every unused byte is 0, and one bytes.translate per block
  drops them.  A zero is the digit "0" with nothing after it.
* Proof or fallback.  A row holding a value the fast path cannot prove
  is formatted by '%' itself: non-finite values, |v| outside [1e-280,
  1e290), a t near a tie (which takes in exact ties such as
  100000000000000.125), a value that rounds up to the next decade and one
  whose X log10 may have misjudged.  So every byte is what '%' writes.

A block holds BLOCK_ROWS rows, so the writer's scratch memory does not
grow with the step count.  The table of powers of ten and word layouts
is built an exponent at a time, on the first block whose span needs it.
"""

from __future__ import annotations

import functools

import numpy as np

HEADER = b"t,lambda,gamma,phi_closed,phi_total,phi_dyn,phi_geo,norm\n"
# Rows per format_block call: about 220 KiB of scratch, whatever the step count.
BLOCK_ROWS = 256
# Distance from a half-unit tie under which the fast path does not trust rint(t).
HALF_SLACK = 1e-6
# Magnitudes of the fast path, and the decimal exponents X their log10 floors to
# (one below 1e-280's for a log10 that rounds down): |v| and 10**(16 - X) stay
# below 2**996, so Dekker's split cannot overflow and every partial product
# stays normal.
_LOWEST, _HIGHEST = 1e-280, 1e290
_X_MIN, _X_MAX = -281, 290

_SPLIT = 134217729.0  # 2**27 + 1
_ONES = 0xFFFFFFFFFFFFFFFF


@functools.cache
def _storage() -> tuple[np.ndarray, np.ndarray]:
    """The (13, exponents) uint64 table _tables fills, all 0 at first, and the mask of its built columns."""
    columns = _X_MAX - _X_MIN + 1
    return np.zeros((13, columns), dtype=np.uint64), np.zeros(columns, dtype=bool)


def _tables(low: int, high: int) -> tuple[np.ndarray, ...]:
    """Thirteen arrays, each one entry per decimal exponent X of the fast path, built from index low to high.

    An index is X - _X_MIN; an entry is built on the first call whose
    span holds it (a run spans a few dozen of the 572 exponents) and
    entries never asked for stay 0.  Five float64 arrays: hi = 10**(16 - X) rounded,
    its Dekker head and tail, lo = 10**(16 - X) - hi rounded, and the
    slack t's error stays under (0 where 10**(16 - X) is a double, so t
    is exact).  Eight uint64 words that lay out a value with that X:
    byte 0 for the sign, the "0.000" lead and a "0" at the first digit's
    byte; that byte's shift; the masks of the 16 other digits that stand
    after the dot, and the dot at its byte (two words each); byte 0 for a
    digit the dot pushes out, then the exponent text and ","; and the XOR
    that makes that "," a newline.
    """
    table, built = _storage()
    for j in (np.flatnonzero(~built[low : high + 1]) + low).tolist():
        x = j + _X_MIN
        q = 16 - x
        if q >= 0:
            n = 10**q
            hi = float(n)
            lo = float(n - int(hi))
        else:
            n = 10 ** (-q)
            hi = 1 / n
            num, den = hi.as_integer_ratio()
            lo = (den - num * n) / (den * n)
        c = hi * _SPLIT
        head = c - (c - hi)
        table[:5, j] = np.array([hi, head, hi - head, lo, 0.0 if lo == 0.0 else 1e-9]).view(np.uint64)
        fixed = -4 <= x < 17
        lead = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        k = x if fixed and x >= 0 else 0  # digits after the first that stand before the dot
        after = (1 << 128) - (1 << 8 * k)
        dot = 0 if fixed and (x < 0 or x == 16) else 0x2E << 8 * k
        tail = b"\0" + (b"" if fixed else b"e%+03d" % x)
        table[5:, j] = (
            int.from_bytes(b"\0" + lead + b"0", "little"),
            8 * (len(lead) + 1),
            after & _ONES,
            after >> 64,
            dot & _ONES,
            dot >> 64,
            int.from_bytes(tail + b",", "little"),
            (ord(",") ^ ord("\n")) << 8 * len(tail),
        )
    built[low : high + 1] = True
    return (*table[:5].view(np.float64), *table[5:])


def _significands(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(X - _X_MIN, D, proven) of each value of block, D its 17 significant digits (0 for a zero), and the
    _tables that cover those exponents."""
    a = np.abs(block)
    ok = a >= _LOWEST
    ok &= a < _HIGHEST
    np.copyto(a, 1.0, where=~ok)  # a zero takes the layout of X = 0
    x = np.log10(a)
    np.floor(x, out=x)
    i = x.astype(np.intp)
    i -= _X_MIN
    tables = _tables(int(i.min()), int(i.max()))
    hi, hi_head, hi_tail, lo, slack = tables[:5]

    # |v| * 10**(16 - X) = p + t: Dekker's two-product of a and hi, plus a * lo, term by term in place.
    p = hi.take(i)
    p *= a
    head = a * _SPLIT
    tail = head - a
    head -= tail
    np.subtract(a, head, out=tail)
    hh = hi_head.take(i)
    t = head * hh
    t -= p
    hi_tail.take(i, out=x)
    head *= x
    t += head
    hh *= tail
    t += hh
    tail *= x
    t += tail
    lo.take(i, out=x)
    x *= a
    t += x
    del a, head, tail, hh
    r = np.rint(t)
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    # X is right when p + t >= 10**16 by more than t's error; D when t is clear of a tie and D below 10**17.
    p -= 1e16
    p += t
    slack.take(i, out=x)
    ok &= p >= x
    t -= r
    np.abs(t, out=t)
    ok &= t < 0.5 - HALF_SLACK
    ok &= d < 10**17
    d *= ok
    ok |= block == 0
    return i, d.view(np.uint64), ok, tables


def _ascii8(x: np.ndarray) -> np.ndarray:
    """Overwrite uint64 values below 10**8 with their eight ASCII digits, most significant in byte 0; return
    the mask of the bytes up to the last nonzero digit."""
    u = np.uint64
    q = x * u(3518437209)
    q >>= u(45)  # x // 10000
    s = q * u(10000)
    x -= s
    x <<= u(32)
    x |= q
    for divisor, multiplier, shift, mask in ((100, 10486, 20, 0x0000007F0000007F), (10, 103, 10, 0x000F000F000F000F)):
        np.multiply(x, u(multiplier), out=q)  # each lane // divisor
        q >>= u(shift)
        q &= u(mask)
        np.multiply(q, u(divisor), out=s)
        x -= s
        x <<= u(shift // 10 * 8)
        x |= q
    np.add(x, u(0x7F7F7F7F7F7F7F7F), out=q)
    q &= u(0x8080808080808080)  # bit 7 of each nonzero digit
    for shift in (8, 16, 32):
        np.right_shift(q, u(shift), out=s)
        q |= s
    q >>= u(7)
    q *= u(0xFF)
    x += u(0x3030303030303030)
    return q


def _words(block: np.ndarray) -> tuple[bytearray, np.ndarray]:
    """(text, proven): four text words per value of block, as bytes, and whether each value is proven."""
    u = np.uint64
    i, d, ok, tables = _significands(block)
    lead, d0_shift, after_a, after_b, dot_a, dot_b, end, newline = tables[5:]
    d0, rest = np.divmod(d, u(10**16))
    del d
    text = bytearray(32 * block.size)
    w0, w1, w2, w3 = np.moveaxis(np.frombuffer(text, dtype=u).reshape(*block.shape, 4), -1, 0)
    d0 <<= d0_shift.take(i)
    d0 += lead.take(i)
    np.right_shift(block.view(u), u(63), out=w0)
    w0 *= u(ord("-"))
    w0 += d0
    del d0
    digits = np.empty((2, *rest.shape), dtype=u)
    np.divmod(rest, u(10**8), out=(digits[0], digits[1]))
    del rest
    keep = _ascii8(digits)
    da, db = digits
    ka, kb = keep
    ka |= (kb & u(1)) * u(_ONES)  # a nonzero digit in the second word keeps all of the first

    # Split each digit word at the dot: ka, kb keep the digits after it less trailing zeros, w1, w2 the
    # digits before it.  Then the dot takes its byte and the digits after it move up one byte.
    np.bitwise_and(da, after_a.take(i), out=w1)
    ka &= w1
    w1 ^= da
    np.bitwise_and(db, after_b.take(i), out=w2)
    kb &= w2
    w2 ^= db
    dot = ka | kb
    np.minimum(dot, u(1), out=dot)  # 1 where digits follow the dot
    w1 |= dot_a.take(i) * dot
    w1 |= ka << u(8)
    w2 |= dot_b.take(i) * dot
    w2 |= kb << u(8)
    w2 |= ka >> u(56)
    np.right_shift(kb, u(56), out=w3)
    w3 |= end.take(i)
    w3[:, -1] ^= newline.take(i[:, -1])
    return text, ok


def format_block(block: np.ndarray) -> bytes | bytearray:
    """The bytes of ','.join(['%.17g'] * cols) % row + '\\n', row after row, of a 2-D float64 block."""
    text, ok = _words(block)
    if ok.all():
        return text.translate(None, b"\0")
    slow = np.flatnonzero(~ok.all(axis=1))
    line = ",".join(["%.17g"] * block.shape[1]) + "\n"
    row_bytes = 32 * block.shape[1]
    pieces = []
    start = 0
    for row in slow:
        pieces.append(text[start * row_bytes : row * row_bytes].translate(None, b"\0"))
        pieces.append((line % tuple(block[row].tolist())).encode())
        start = row + 1
    pieces.append(text[start * row_bytes :].translate(None, b"\0"))
    return b"".join(pieces)


def write_run_csv(summary: dict, csv_path) -> None:
    """Write the per-step CSV of an evaluate_scenario summary: its eight columns, BLOCK_ROWS rows at a time."""
    columns = summary["_series"]
    rows = len(columns[0])
    block = np.empty((BLOCK_ROWS, len(columns)))
    with open(csv_path, "wb") as fh:
        fh.write(HEADER)
        for start in range(0, rows, BLOCK_ROWS):
            part = block[: min(BLOCK_ROWS, rows - start)]
            for j, column in enumerate(columns):
                part[:, j] = column[start : start + len(part)]
            fh.write(format_block(part))
