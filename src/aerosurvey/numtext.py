"""repr() of float64 and str() of int values, and table rows, in numpy.

NumberText lays out the text of every value of an array, exactly as
repr() (or str(), for ints) would give it, and writes each into one slot
of a byte canvas. Layout makes io_csv.write_table's rows from those, its
labels and separators, a chunk at a time, with no Python call per cell.

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

Layout. A value's text sits in its slot at fixed columns: integer digits
right-aligned to end before column _POINT, the '.' at _POINT, fraction
digits from _POINT + 1 and then any exponent suffix. So every digit
comes from column-wide stores of 4-digit groups as uint32 words, and
only the sign and the exponent suffix are placed per value. The word
tables hold FILL, a byte no UTF-8 text contains, in place of the zeros
that are not digits of the number (those left of the integer part and
right of the fraction), so every byte NumberText writes outside a text
is FILL. Positional text is used for 1e-4 <= |a| < 1e16, exponent text
("1e-05", "1.5e+300") otherwise, as repr() does.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

import numpy as np

_POINT = 19               # column of the '.'
TEXT_END = 41             # every number's text ends at or before this column
PLAIN = 16                # column where a repr() or str() fallback starts
FILL = 0xFF               # byte of a slot outside its text; never in UTF-8
_MARGIN = 1e-11           # distance to a decision point that needs repr()
_J0, _J1 = -300, 330      # range of the decimal scale exponent j
_S0 = -16                 # lowest binary scale exponent in _tables().pow2
_MIN_NORMAL = 2.2250738585072014e-308
# bytes of a cell's slot when no label is longer: the longest number text
# and a two-byte separator, in whole uint32 words
_SLOT = 44


_Tables = namedtuple("_Tables", "lead three_point three_bare frac0 frac "
                                "hi hi_a hi_b lo exp2 pow2 pow10")


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 byte values as native uint32 words."""
    return np.ascontiguousarray(chars, np.uint8).view(np.uint32).ravel()


@cache
def _tables() -> _Tables:
    """Word and power tables of NumberText, built at its first call.

    Each word table has two halves. Entry 10000 + g (1000 + g for the
    three-digit tables) is the text f"{g:04}" as one native uint32, or
    f"{g:03}" and then '.' (three_point) or FILL (three_bare). Entry g
    is the same text with FILL for the zeros that are not digits:
    leading zeros in lead and three_* (a three-digit group keeps its
    units digit), trailing zeros in frac and frac0 (frac0[0] keeps one
    '0', the fraction of "1.0"). Entry j - _J0 of (hi, hi_a, hi_b, lo,
    exp2) holds 10**j == (hi + lo) * 2**exp2 with hi in [1, 2) and lo the
    rounded rest; hi_a + hi_b == hi is its Veltkamp split.
    pow2[s - _S0] == 2**s; pow10[i] == 10**i.
    """
    n = np.arange(10000)
    four = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], 1)
    place = np.arange(4)
    nonzero = four != 0
    # first nonzero digit (4 for 0) and one past the last (0 for 0)
    first = np.where(nonzero.any(1), nonzero.argmax(1), 4)[:, None]
    stop = np.where(nonzero.any(1), 4 - nonzero[:, ::-1].argmax(1), 0)[:, None]
    four += 48
    trail = np.where(place >= stop, FILL, four)
    full = _words(four)
    lead = np.concatenate([_words(np.where(place < first, FILL, four)), full])
    frac = np.concatenate([_words(trail), full])
    trail[0, 0] = ord("0")
    frac0 = np.concatenate([_words(trail), full])
    three = four[:1000, 1:]
    stripped = np.where((place[:3] < first[:1000] - 1) & (place[:3] < 2),
                        FILL, three)
    three_point, three_bare = (
        np.concatenate([_words(np.column_stack([digits, np.full(1000, tail)]))
                        for digits in (stripped, three)])
        for tail in (ord("."), FILL))
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
    tables = _Tables(lead, three_point, three_bare, frac0, frac, hi, hi_a,
                     hi_b, np.array(lo), np.array(exp2), pow2, pow10)
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
    # ((ma hi_a - p) + ma hi_b + mb hi_a) + mb hi_b + mf lo, in place
    rest = ma * hi_a
    rest -= p
    term = ma * hi_b
    rest += term
    rest += np.multiply(mb, hi_a, out=term)
    rest += np.multiply(mb, hi_b, out=term)
    rest += np.multiply(mf, t.lo[i], out=term)
    del ma, mb, mf, term, hi_a, hi_b
    scale = t.pow2[t.exp2[i] + e2 - _S0]
    rest *= scale
    whole = np.floor(rest)
    rest -= whole
    p *= scale
    v = p.astype(np.int64)
    v += whole.astype(np.int64)
    h *= scale
    h *= 0.5
    return v, rest, h


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
    m = bits & ((1 << 52) - 1)
    m |= 1 << 52
    # at a power of two the gap below is half the gap above
    power = (m == 1 << 52) & (biased > 1)
    del biased
    j = np.log10(a)
    j = np.floor(j, out=j).astype(np.int64)
    np.subtract(16, j, out=j)
    v, f, h = _scaled(m, e2, j, t)
    # log10 is off by one next to a power of ten
    off = (v < pow10[16]).astype(np.int64) - (v >= pow10[17])
    redo = np.flatnonzero(off)
    if len(redo):
        j[redo] += off[redo]
        v[redo], f[redo], h[redo] = _scaled(m[redo], e2[redo], j[redo], t)
    del off, redo
    # below = f - h_low with h_low = h * (1 - power / 2); above = f + h
    below = np.multiply(power, -0.5)
    below += 1.0
    below *= h
    np.subtract(f, below, out=below)
    above = np.add(f, h, out=h)
    del h, power
    floor_below, floor_above = np.floor(below), np.floor(above)
    low = (floor_below + 1).astype(np.int64)
    low += v
    high = floor_above.astype(np.int64)
    high += v
    # where V and h are integers an end point can be one: it is in the
    # interval for an even significand; elsewhere it is not sure
    exact = (j >= 0) & (j <= 22) & (e2 + j >= 1)
    if exact.any():
        closed = (m & 1) == 0
        low -= exact & closed & (floor_below == below)
        high -= exact & ~closed & (floor_above == above)
        del closed
    del m, e2, floor_below, floor_above
    units = v - v // 10 * 10        # % is slower than // in numpy
    tens = units + f                 # V mod 10
    sure = ((v >= pow10[16]) & (v < pow10[17])
            & (exact | ~(_near_int(below) | _near_int(above)))
            & (np.abs(f - 0.5) >= _MARGIN) & (np.abs(tens - 5) >= _MARGIN))
    del exact, below, above
    ten = v - units
    ten += (tens >= 5) * 10
    del units, tens
    np.clip(ten, (low + 9) // 10 * 10, high // 10 * 10, out=ten)
    # selects by arithmetic: np.where is several times slower on
    # conditions that vary from value to value
    d = v + (f >= 0.5)
    del v, f
    d += (ten - d) * (ten >= low)
    del ten
    hundred = low + 99
    hundred //= 100
    hundred *= 100
    d += (hundred - d) * (hundred <= high)
    del low, high, hundred
    carry = d >= pow10[17]
    d[carry] //= 10
    zeros = (d // 10 * 10 == d).astype(np.int64)
    many = np.flatnonzero(d // 100 * 100 == d)
    if len(many):
        rest = d[many] // 100
        count = np.full(len(many), 2)
        for step in (8, 4, 2, 1):
            cut = rest // pow10[step]
            hit = cut * pow10[step] == rest
            rest += (cut - rest) * hit
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


def _text_table(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The texts as the rows of a FILL-padded uint8 table, and their
    lengths."""
    width = max(map(len, texts), default=0)
    pad = bytes([FILL])
    table = np.frombuffer(b"".join(t.ljust(width, pad) for t in texts),
                          np.uint8).reshape(len(texts), width)
    return table, np.array(list(map(len, texts)), np.int64)


class NumberText:
    """str() of each int, or repr() of the float64 value of each float, of
    an array x, laid out in byte slots before any slot is written.

    The text of x[i] goes to columns [start[i], end[i]) of its slot
    (start and end have x's shape). write() touches only the columns
    [first, high) of a slot, with first a multiple of 4 and at most
    PLAIN and high at most TEXT_END, and writes FILL wherever it writes
    outside a text; so a caller can size and place the slots of several
    arrays to fit their texts before writing any.
    Integer-valued floats below 1e16 and ints take no digit search;
    subnormals, nan, inf, ints of 1e16 and more and values
    _shortest_digits is not sure of are formatted by repr() or str(),
    once per distinct value.
    """

    def __init__(self, x: np.ndarray):
        t = _tables()
        pow10 = t.pow10
        self.shape = x.shape
        x = x.reshape(-1)
        n = len(x)
        self.is_float = is_float = x.dtype.kind == "f"
        if is_float:
            x = x.astype(np.float64, copy=False)
            a = np.abs(x)
            neg = np.signbit(x)
            with np.errstate(invalid="ignore"):     # signalling nan
                whole = (a < 1e16) & (a == np.floor(a))
                # the whole values, 0 elsewhere: fmin keeps nan and inf out
                ip = (np.fmin(a, 1e16) * whole).astype(np.int64)
            digits = ~whole & (a >= _MIN_NORMAL) & np.isfinite(a)
        else:
            neg = x < 0
            whole = (x > -10 ** 16) & (x < 10 ** 16)
            digits = np.zeros(n, bool)
            ip = np.abs(np.where(whole, x, 0).astype(np.int64))
        other = ~(whole | digits)
        n_int = np.ones(n, np.int64)
        if whole.any():
            at = slice(None) if whole.all() else np.flatnonzero(whole)
            n_int[at] = np.searchsorted(pow10[1:17], ip[at], side="right") + 1
        n_frac = np.full(n, int(is_float))
        # fraction digits left-aligned in 20 places: digits 1-12 and 13-20
        frac_a = np.zeros(n, np.int64)
        frac_b = np.zeros(n, np.int64)
        sci = np.zeros(0, np.intp)
        self.sci_e = np.zeros(0, np.int64)
        if digits.any():
            sel = slice(None) if digits.all() else np.flatnonzero(digits)
            d, e, zeros, sure = _shortest_digits(a[sel], t)
            exp_form = (e < -4) | (e >= 16)
            width = 16 - e * ~exp_form              # digits after the '.'
            split = pow10[np.minimum(width, 17)]
            int_part = d // split
            frac = d - int_part * split
            short = width <= 12
            scale = pow10[np.abs(width - 12)]
            top = frac // scale
            # frac * scale wraps where it is not short; the factor 0 drops it
            frac_a[sel] = top + (frac * scale - top) * short
            frac_b[sel] = (frac - top * scale) * (
                pow10[np.minimum(20 - width, 18)] * ~short)
            ip[sel] = int_part
            n_int[sel] = np.maximum(17 - width, 1)
            # positional text keeps one fraction digit, "1e-05" keeps none
            n_frac[sel] = np.maximum(width - zeros, ~exp_form)
            index = np.arange(n)[sel]
            other[index[~sure]] = True
            sci = index[exp_form & sure]
            self.sci_e = e[exp_form & sure]
        self.start = _POINT - n_int - neg
        self.end = _POINT + n_frac + (n_frac > 0)
        # the columns of the digit words some text reaches; first <= PLAIN
        self.first = int(self.start.min(initial=_POINT)) // 4 * 4
        self.last = int(self.end.max(initial=0))
        self.ip, self.n_frac = ip, n_frac
        self.frac_a, self.frac_b = frac_a, frac_b
        self.minus = np.flatnonzero(neg)
        self.sci = sci
        if len(sci):
            self.sci_at = self.end[sci]
            self.end[sci] += 4 + (np.abs(self.sci_e) >= 100)
        self.other = np.flatnonzero(other)
        if len(self.other):
            distinct, self.inverse = np.unique(x[self.other],
                                               return_inverse=True)
            fmt = repr if is_float else str
            self.table, length = _text_table([fmt(v).encode()
                                             for v in distinct.tolist()])
            self.start[self.other] = PLAIN
            self.end[self.other] = PLAIN + length[self.inverse]
        self.high = max(-(-self.last // 4) * 4, int(self.end.max(initial=0)))
        self.start = self.start.reshape(self.shape)
        self.end = self.end.reshape(self.shape)

    def write(self, out: np.ndarray, origin: int = 0) -> None:
        """Write each text into its slot out[i], with FILL around it.

        `out` is a uint8 array of shape x.shape + (S,) whose last axis is
        contiguous, so a view of some columns of a wider canvas will do.
        Column j of a slot of `out` is column origin + j of the layout:
        `origin` is a multiple of 4, at most first, and S >= high - origin.
        Columns outside [first, high) keep their bytes.
        """
        t = _tables()
        shape = self.shape
        ip = self.ip
        # store only the words some text reaches; the lower table halves
        # put FILL in place of zeros that are not digits
        words = out.view(np.uint32)
        w0 = origin // 4
        hi = ip // 1000
        three = t.three_point if self.is_float else t.three_bare
        words[..., 4 - w0] = three[np.minimum(ip, ip - hi * 1000 + 1000)
                                   ].reshape(shape)
        for w in range(3, self.first // 4 - 1, -1):
            rest = hi // 10000
            index = np.minimum(hi, hi - rest * 10000 + 10000)
            words[..., w - w0] = t.lead[index].reshape(shape)
            hi = rest
        if self.last > _POINT + 1:
            groups = _quads(self.frac_a, 3) + _quads(self.frac_b, 2)
            for k, group in enumerate(groups[:(self.last - 17) // 4]):
                # the full text where the fraction goes on past this group
                group += (self.n_frac > 4 * k + 4) * 10000
                table = t.frac if k else t.frac0
                words[..., 5 + k - w0] = table[group].reshape(shape)

        def put(cells, column, values) -> None:
            """out[cell, column] = values for the 1-D cell indices `cells`;
            a 2-D `column` gives each cell a row of columns. (The indices
            are unravelled in 1-D: numpy 2.4's unravel_index gets a (k, 1)
            array of over 8,192 indices wrong.)"""
            index = np.unravel_index(cells, shape)
            if np.ndim(column) == 2:
                index = [i[:, None] for i in index]
            out[(*index, column)] = values

        start = self.start.reshape(-1)
        put(self.minus, start[self.minus] - origin, ord("-"))
        # exponent suffixes, "e-05" and "e+300" apart
        e = self.sci_e
        wide = np.abs(e) >= 100
        for size, part in ((4, ~wide), (5, wide)):
            e_part = e[part]
            if len(e_part):
                mag = np.abs(e_part)
                digits = [48 + mag // 10 ** p % 10
                          for p in range(size - 3, -1, -1)]
                suffix = np.column_stack(
                    [np.full(len(mag), ord("e")), ord("+") + 2 * (e_part < 0),
                     *digits])
                put(self.sci[part], (self.sci_at[part] - origin)[:, None]
                    + np.arange(size), suffix)
        if len(self.other):
            put(self.other, slice(self.first - origin,
                                  -(-self.last // 4) * 4 - origin), FILL)
            put(self.other, slice(PLAIN - origin,
                                  PLAIN - origin + self.table.shape[1]),
                self.table[self.inverse])



class Layout:
    """The row bytes of a table, a chunk of rows at a time, in one reused
    canvas with a FILL-filled slot per cell.

    Each [first, stop) of `runs` is a run of adjacent float, or int,
    columns for one NumberText; `labels` maps every other column to
    (codes, texts), texts[codes[i]] being its row i's UTF-8 text, put at
    PLAIN like repr() fallbacks; `seps` holds each column's separator. A
    chunk's texts are laid out first, so a slot (_SLOT bytes, or wider for
    a long label) holds only the columns [lo, at + separator) they reach,
    and the rows are then the canvas bytes that are not FILL.
    """

    def __init__(self, runs, labels, seps):
        self.runs = runs
        self.labels = {ci: (codes, *_text_table(texts))
                       for ci, (codes, texts) in labels.items()}
        self.seps, self.sep_len = _text_table([sep.encode() for sep in seps])
        text_end = max([TEXT_END] + [PLAIN + table.shape[1]
                                     for _, table, _ in self.labels.values()])
        self.slot = max(_SLOT, -(-(text_end + self.seps.shape[1]) // 4) * 4)
        self.buffer = np.empty(0, np.uint8)

    def chunk_rows(self, cells: int) -> int:
        """Rows of a chunk as large as `cells` cells of _SLOT bytes."""
        return max(1, cells * _SLOT // (self.slot * max(len(self.seps), 1)))

    def rows(self, columns, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
        """(body, cell_bytes): the bytes of rows [r0, r1) of `columns`, and
        each cell's byte count, its separator included."""
        n_cols, longest = self.seps.shape
        size = (r1 - r0) * n_cols
        if len(self.buffer) < size * self.slot:
            self.buffer = np.empty(size * self.slot, np.uint8)
        cell = np.empty((r1 - r0, n_cols), np.int64)
        texts, lo, at = [], PLAIN, PLAIN
        for c0, c1 in self.runs:
            text = NumberText(np.stack(
                [columns[ci][r0:r1] for ci in range(c0, c1)], axis=1))
            np.subtract(text.end, text.start, out=cell[:, c0:c1])
            texts.append((c0, c1, text))
            lo, at = min(lo, text.first), max(at, text.high)
        labels = []
        for ci, (codes, table, length) in self.labels.items():
            cell[:, ci] = length[codes[r0:r1]]
            # only as wide as this chunk's longest text
            text_width = int(cell[:, ci].max())
            labels.append((ci, table[codes[r0:r1], :text_width]))
            at = max(at, PLAIN + text_width)
        width = -(-(at + longest - lo) // 4) * 4
        canvas = self.buffer[:size * width].reshape(r1 - r0, n_cols, width)
        row = np.full((n_cols, width), FILL, np.uint8)
        row[:, at - lo:at - lo + longest] = self.seps
        canvas[:] = row
        for c0, c1, text in texts:
            text.write(canvas[:, c0:c1], lo)
        del texts
        for ci, cells in labels:
            canvas[:, ci, PLAIN - lo:PLAIN - lo + cells.shape[1]] = cells
        del labels
        flat = canvas.reshape(-1)
        cell += self.sep_len
        return flat[flat != FILL], cell
