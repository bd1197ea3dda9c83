"""repr() of float64 and str() of int values, many at a time, in numpy.

number_text writes the text of every value of an array into one row each
of a byte array, exactly as repr() (or str(), for ints) would, so
io_csv.write_table can format whole chunks of a table without a Python
call per cell.

Digits. For a positive normal double a, with j = 16 - floor(log10(a)),
V = a * 10**j lies in [1e16, 1e17) and its integer digits are a's first
17 significant digits. V is computed as a double-double: Dekker's exact
product of a's 53-bit significand with a table entry of 10**j, which
makes V exact for 0 <= j <= 22 and within about 2**-104 relative
otherwise. The doubles that read back as a span [V - h_low, V + h]
after the same scaling: h is half the spacing of doubles at a, h_low is
h / 2 at a power of two, and the span is closed for an even significand
and open for an odd one (round-half-even reading). It holds fewer than
23 integers, so a multiple of 100 in it is unique and is the shortest
text (strip its zeros); else the multiple of 10 nearest V in it; else
the integer nearest V. A value whose decision is not certain in double
arithmetic (an end point, a tie or the decade bound within 1e-11 of its
decision point while V is inexact) goes to repr(), as do subnormals,
nan and inf. This is the exact-or-flag idea of Errol (Andrysco, Jhala
and Lerner, POPL 2016) with the interval of Ryu (Adams, PLDI 2018).

Layout. A value's text sits in its row at fixed columns: integer digits
right-aligned to end before column _POINT, the '.' at _POINT, fraction
digits from _POINT + 1 and then any exponent suffix. So every digit
comes from column-wide stores of 4-digit groups as uint32 words, and
only the sign and the exponent suffix are placed per value. Positional
text is used for 1e-4 <= |a| < 1e16, exponent text ("1e-05",
"1.5e+300") otherwise, as repr() does.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

import numpy as np

_POINT = 19               # column of the '.'
TEXT_END = 41             # every number's text ends at or before this column
PLAIN = 16                # column where a repr() or str() fallback starts
_MARGIN = 1e-11           # distance to a decision point that needs repr()
_J0, _J1 = -300, 330      # range of the decimal scale exponent j
_S0 = -16                 # lowest binary scale exponent in _tables().pow2
_MIN_NORMAL = 2.2250738585072014e-308


_Tables = namedtuple("_Tables", "four three hi hi_a hi_b lo exp2 pow2 pow10")


@cache
def _tables() -> _Tables:
    """Digit and power tables of number_text, built at its first call.

    four[i] is the text f"{i:04}" and three[i] the text f"{i:03}." as one
    native uint32. Entry j - _J0 of (hi, hi_a, hi_b, lo, exp2) holds
    10**j == (hi + lo) * 2**exp2 with hi in [1, 2) and lo the rounded
    rest; hi_a + hi_b == hi is its Veltkamp split. pow2[s - _S0] == 2**s;
    pow10[i] == 10**i.
    """
    n = np.arange(10000)
    four = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], 1)
    n = n[:1000]
    three = np.stack([n // 100, n // 10 % 10, n % 10, n * 0 - 2], 1)
    four, three = (np.ascontiguousarray(d + 48, np.uint8).view(np.uint32)
                   .ravel() for d in (four, three))
    hi, lo, exp2 = [], [], []
    for j in range(_J0, _J1 + 1):
        num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        e = num.bit_length() - den.bit_length()
        num, den = (num << -e, den) if e < 0 else (num, den << e)
        if num < den:                  # 10**j / 2**e in [1, 2)
            num, e = num * 2, e - 1
        h = num / den                  # int / int rounds correctly
        lo.append((num * 2 ** 52 - int(h * 2 ** 52) * den) / (den * 2 ** 52))
        hi.append(h)
        exp2.append(e)
    hi = np.array(hi)
    hi_a, hi_b = _split(hi)
    pow2 = np.ldexp(1.0, np.arange(_S0, -_S0))
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    tables = _Tables(four, three, hi, hi_a, hi_b, np.array(lo),
                     np.array(exp2), pow2, pow10)
    for table in tables:               # shared by every call: read-only
        table.flags.writeable = False
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a == high + low, each with at most 26 bits."""
    c = a * 134217729.0
    high = c - (c - a)
    return high, a - high


def _scaled(m, e2, j, t):
    """V = m * 2**e2 * 10**j as (integer part, fraction) and half a gap.

    m * hi is Dekker's exact two-term product; with m * lo added, V is
    exact for 0 <= j <= 22 (lo == 0) and within ~2**-104 relative else.
    The half gap is half the spacing of doubles at m * 2**e2, scaled.
    """
    i = j - _J0
    h, hi_a, hi_b = t.hi[i], t.hi_a[i], t.hi_b[i]
    mf = m.astype(np.float64)
    ma, mb = _split(mf)
    p = mf * h
    rest = (((ma * hi_a - p) + ma * hi_b + mb * hi_a) + mb * hi_b
            + mf * t.lo[i])
    scale = t.pow2[t.exp2[i] + e2 - _S0]
    rest *= scale
    whole = np.floor(rest)
    return ((p * scale).astype(np.int64) + whole.astype(np.int64),
            rest - whole, h * scale * 0.5)


def _near_int(v: np.ndarray) -> np.ndarray:
    return np.abs(v - np.rint(v)) < _MARGIN


def _shortest_digits(a: np.ndarray, t):
    """repr()'s digits of positive normal doubles `a`.

    Returns (d, e, zeros, sure): a prints as the digits of d (an integer in
    [1e16, 1e17), `zeros` of them trailing zeros) times 10**(e - 16).
    With j = 16 - floor(log10(a)), V = a * 10**j; the doubles' round-trip
    interval around `a`, scaled, is [V - h_low, V + h] (closed for an even
    significand, open for an odd one; h_low == h / 2 at a power of two).
    It holds fewer than 23 integers, so a multiple of 100 in it is unique
    and is the shortest text; else the multiple of 10 nearest V in it;
    else the integer nearest V. `sure` is False where V is outside
    [1e16, 1e17) even after the log10 fix, where V sits within _MARGIN of
    a rounding tie (a fraction of 0.5, or 5 in the units), or where an end
    point lies within _MARGIN of an integer while V is inexact; those go
    to repr().
    """
    pow10 = t.pow10
    bits = a.view(np.int64)
    biased = bits >> 52
    e2 = biased - 1075
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    j = 16 - np.floor(np.log10(a)).astype(np.int64)
    v, f, h = _scaled(m, e2, j, t)
    # log10 is off by one next to a power of ten
    off = (v < pow10[16]).astype(np.int64) - (v >= pow10[17])
    redo = np.flatnonzero(off)
    if len(redo):
        j[redo] += off[redo]
        v[redo], f[redo], h[redo] = _scaled(m[redo], e2[redo], j[redo], t)
    h_low = np.where((m == 1 << 52) & (biased > 1), h * 0.5, h)
    below, above = f - h_low, f + h
    floor_below, floor_above = np.floor(below), np.floor(above)
    low = v + (floor_below + 1).astype(np.int64)
    high = v + floor_above.astype(np.int64)
    # where V and h are integers an end point can be one: it is in the
    # interval for an even significand; elsewhere it is not sure
    exact = (j >= 0) & (j <= 22) & (e2 + j >= 1)
    if exact.any():
        closed = (m & 1) == 0
        low -= exact & closed & (floor_below == below)
        high -= exact & ~closed & (floor_above == above)
    units = v - v // 10 * 10        # % is slower than // in numpy
    tens = units + f                 # V mod 10
    sure = ((v >= pow10[16]) & (v < pow10[17])
            & (exact | ~(_near_int(below) | _near_int(above)))
            & (np.abs(f - 0.5) >= _MARGIN) & (np.abs(tens - 5) >= _MARGIN))
    hundred = (low + 99) // 100 * 100
    ten = np.clip(v - units + np.where(tens >= 5, 10, 0),
                  (low + 9) // 10 * 10, high // 10 * 10)
    d = np.where(hundred <= high, hundred,
                 np.where(ten >= low, ten, v + (f >= 0.5)))
    carry = d >= pow10[17]
    d = np.where(carry, d // 10, d)
    zeros = (d // 10 * 10 == d).astype(np.int64)
    many = np.flatnonzero(d // 100 * 100 == d)
    if len(many):
        rest = d[many] // 100
        count = np.full(len(many), 2)
        for step in (8, 4, 2, 1):
            cut = rest // pow10[step]
            hit = cut * pow10[step] == rest
            rest = np.where(hit, cut, rest)
            count += hit * step
        zeros[many] = count
    return d, 16 - j + carry, zeros, sure


def _quads(x: np.ndarray, count: int) -> list[np.ndarray]:
    """The `count` 4-digit groups of x, most significant first."""
    groups = []
    for _ in range(count - 1):
        rest = x // 10000
        groups.append(x - rest * 10000)
        x = rest
    return [x] + groups[::-1]


def text_table(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The texts as the rows of a NUL-padded uint8 table, and their lengths."""
    width = max(map(len, texts), default=0)
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                          np.uint8).reshape(len(texts), width)
    return table, np.array(list(map(len, texts)), np.int64)


def number_text(x: np.ndarray, out: np.ndarray):
    """Write str() of each int, or repr() of the float64 value of each
    float, x[i] into out[i].

    `out` is a C-contiguous uint8 array of shape (len(x), S), S >= 44 and
    a multiple of 4. Returns (start, end): the text of x[i] is
    out[i, start[i]:end[i]]. Integer-valued floats below 1e16 and ints
    take no digit search; subnormals, nan, inf, ints of 1e16 and more and
    values _shortest_digits is not sure of are formatted by repr() or
    str(), once per distinct value.
    """
    t = _tables()
    four, three, pow10 = t.four, t.three, t.pow10
    n = len(x)
    is_float = x.dtype.kind == "f"
    if is_float:
        x = x.astype(np.float64, copy=False)
        a = np.abs(x)
        neg = np.signbit(x)
        with np.errstate(invalid="ignore"):     # signalling nan
            whole = (a < 1e16) & (a == np.floor(a))
        digits = ~whole & (a >= _MIN_NORMAL) & np.isfinite(a)
        ip = np.where(whole, a, 0.0).astype(np.int64)
    else:
        neg = x < 0
        whole = (x > -10 ** 16) & (x < 10 ** 16)
        digits = np.zeros(n, bool)
        ip = np.abs(np.where(whole, x, 0).astype(np.int64))
    other = ~(whole | digits)
    n_int = np.ones(n, np.int64)
    if whole.any():
        n_int = np.searchsorted(pow10[1:17], ip, side="right") + 1
    n_frac = np.full(n, int(is_float))
    # fraction digits left-aligned in 20 places: digits 1-12 and 13-20
    frac_a = np.zeros(n, np.int64)
    frac_b = np.zeros(n, np.int64)
    sci = np.zeros(0, np.intp)
    if digits.any():
        sel = slice(None) if digits.all() else np.flatnonzero(digits)
        d, e, zeros, sure = _shortest_digits(a[sel], t)
        exp_form = (e < -4) | (e >= 16)
        width = np.where(exp_form, 16, 16 - e)    # digits after the '.'
        split = pow10[np.minimum(width, 17)]
        int_part = d // split
        frac = d - int_part * split
        short = width <= 12
        scale = pow10[np.abs(width - 12)]
        top = frac // scale
        frac_a[sel] = np.where(short, frac * scale, top)
        frac_b[sel] = (frac - top * scale) * np.where(
            short, 0, pow10[np.minimum(20 - width, 18)])
        ip[sel] = int_part
        n_int[sel] = np.maximum(17 - width, 1)
        # positional text keeps one fraction digit, "1e-05" keeps none
        n_frac[sel] = np.maximum(width - zeros, ~exp_form)
        index = np.arange(n)[sel]
        other[index[~sure]] = True
        sci = index[exp_form & sure]
        sci_e = e[exp_form & sure]
    start = _POINT - n_int - neg
    end = np.where(n_frac > 0, _POINT + 1 + n_frac, _POINT)
    # store only the words some cell's text reaches
    words = out.view(np.uint32)
    first, last = int(start.min(initial=_POINT)), int(end.max(initial=0))
    hi = ip // 1000
    words[:, 4] = three[ip - hi * 1000]
    for w in (3, 2, 1, 0):
        if 4 * w + 4 <= first:
            break
        rest = hi // 10000
        words[:, w] = four[hi - rest * 10000]
        hi = rest
    if last > _POINT + 1:
        for w, group in enumerate(_quads(frac_a, 3) + _quads(frac_b, 2), 5):
            if 4 * w >= last:
                break
            words[:, w] = four[group]
    flat = out.reshape(-1)
    row = np.arange(n) * out.shape[1]
    minus = np.flatnonzero(neg)
    flat[row[minus] + start[minus]] = ord("-")
    if len(sci):
        at = row[sci] + end[sci]
        mag = np.abs(sci_e)
        flat[at] = ord("e")
        flat[at + 1] = np.where(sci_e < 0, ord("-"), ord("+"))
        wide = mag >= 100
        flat[at[wide] + 2] = 48 + mag[wide] // 100
        at += wide               # the tens follow the hundreds, if any
        flat[at + 2] = 48 + mag // 10 % 10
        flat[at + 3] = 48 + mag % 10
        end[sci] += 4 + wide
    if other.any():
        index = np.flatnonzero(other)
        distinct, inverse = np.unique(x[index], return_inverse=True)
        fmt = repr if is_float else str
        table, length = text_table([fmt(v).encode()
                                    for v in distinct.tolist()])
        out[index, PLAIN:PLAIN + table.shape[1]] = table[inverse]
        start[index] = PLAIN
        end[index] = PLAIN + length[inverse]
    return start, end
