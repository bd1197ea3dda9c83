"""The bulk number kernel of the artifact writer against repr() and str().

numtext.NumberText must give every float64 value exactly the text
repr() gives it, and every int value the text str() gives it. The cases aim at
the places a shortest-digits search can go wrong: raw bit patterns of
every kind, every binary exponent, powers of two and ten and their
neighbours, the bounds of the positional layout (1e-4 and 1e16), exact
ties at the 17th digit, integers from 1e16 up whose round-trip interval
ends exactly on a multiple of 10 (where an even significand's closed
interval and an odd one's open interval give different texts), large
values whose interval ends on an integer only after inexact scaling, and
a run with every value sent to repr().
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import io_csv, numtext

PROPERTY = settings(max_examples=200)
RNG = np.random.default_rng(20240601)
# values at the edges of the layout: signed zero, a subnormal, 1e22, the
# positional bounds, exponent text with and without a '.', nan and inf
AWKWARD = [-0.0, 5e-324, 1e22, 0.1 + 0.2, -17.0, 1e16, 1e-4, 1e-05,
           -2.5e-17, 1.5e-300, 1.7976931348623157e308, np.nan, -np.inf,
           9999999999999998.0]


def _texts(x: np.ndarray) -> list[str]:
    """NumberText's texts, checking that it leaves FILL around each."""
    out = np.full((len(x), 48), numtext.FILL, np.uint8)
    text = numtext.NumberText(x)
    text.write(out)
    start, end = text.start, text.end
    inside = np.arange(48) >= start[:, None]
    inside &= np.arange(48) < end[:, None]
    assert (out[inside] != numtext.FILL).all()
    assert (out[~inside] == numtext.FILL).all()
    return [out[i, start[i]:end[i]].tobytes().decode() for i in range(len(x))]


def test_texts_written_into_a_view_of_a_wider_canvas():
    # two columns of a four-column canvas whose slots hold only the
    # layout columns [first, high): the other columns stay FILL
    x = np.concatenate([RNG.normal(0.0, 1e3, 396), AWKWARD]).reshape(-1, 2)
    text = numtext.NumberText(x)
    assert text.first % 4 == 0 and text.first <= numtext.PLAIN
    assert text.high <= numtext.TEXT_END
    width = -(-(text.high - text.first) // 4) * 4
    canvas = np.full((len(x), 4, width), numtext.FILL, np.uint8)
    text.write(canvas[:, 1:3], text.first)
    assert (canvas[:, [0, 3]] == numtext.FILL).all()
    start, end = text.start - text.first, text.end - text.first
    for (i, j), v in np.ndenumerate(x):
        slot = canvas[i, 1 + j]
        assert slot[start[i, j]:end[i, j]].tobytes() == repr(float(v)).encode()
        assert (np.delete(slot, np.s_[start[i, j]:end[i, j]])
                == numtext.FILL).all()


def _assert_matches_repr(x) -> None:
    x = np.asarray(x)
    want = [(repr if x.dtype.kind == "f" else str)(v) for v in x.tolist()]
    bad = [(w, g) for w, g in zip(want, _texts(x)) if w != g]
    assert not bad, f"{len(bad)} of {len(x)} differ, first {bad[:5]}"


def _floats(significand, exponent) -> np.ndarray:
    """significand * 2**exponent, exactly, for 53-bit integer significands."""
    return np.ldexp(np.asarray(significand, dtype=float),
                    np.asarray(exponent, dtype=np.int32))


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@PROPERTY
def test_raw_bit_patterns(bits):
    _assert_matches_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns_and_magnitudes():
    _assert_matches_repr(
        RNG.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64))
    sign = RNG.choice([-1.0, 1.0], 100_000)
    _assert_matches_repr(sign * 10.0 ** RNG.uniform(-307.5, 308.2, 100_000))


def test_every_binary_exponent():
    exponent = np.arange(-1074, 972)               # significand * 2**exponent
    m = RNG.integers(2 ** 52, 2 ** 53, (len(exponent), 12))
    m[:, :3] = (2 ** 52, 2 ** 52 + 1, 2 ** 53 - 1)
    _assert_matches_repr(_floats(m, exponent[:, None]).ravel())


def test_powers_neighbours_and_specials():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                             10.0 ** np.arange(-323, 309)])
    powers = powers[np.isfinite(powers) & (powers > 0)]
    near = np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)])
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                         5e-324, 2.2250738585072009e-308,
                         2.2250738585072014e-308, 1.7976931348623157e308,
                         1e-4, np.nextafter(1e-4, 0.0), 1e-5,
                         9999999999999998.0, 1e16, np.nextafter(1e16, 0.0),
                         0.1 + 0.2, 0.09999999999999999, 1e22, 1e23])
    _assert_matches_repr(np.concatenate([near, -near, specials]))


def test_subnormals():
    _assert_matches_repr(_floats(RNG.integers(1, 2 ** 52, 5000), -1074))


def test_short_decimals_and_integer_valued_floats():
    _assert_matches_repr(RNG.integers(1, 10 ** 6, 50_000)
                         / 10.0 ** RNG.integers(0, 12, 50_000))
    _assert_matches_repr(RNG.integers(-2 ** 57, 2 ** 57, 50_000).astype(float))


def test_exact_ties_at_the_17th_digit():
    # doubles in [2**50, 2**51) are spaced 0.25 apart: x.25 and x.75 have 18
    # significant digits, so their 17-digit text rounds a tie to even
    whole = RNG.integers(2 ** 50, 2 ** 51, 2000)
    ties = np.concatenate([whole + 0.25, whole + 0.75, [1480675860000000.25]])
    assert repr(1480675860000000.25) == "1480675860000000.2"
    _assert_matches_repr(ties)


def test_interval_ends_on_a_multiple_of_ten():
    # integers in [1e16, 1e17) are scaled exactly; V +- h lands on a
    # multiple of 10, which only an even significand's text may use
    cases = []
    for e2 in (1, 2, 3, 4):
        h = 2 ** (e2 - 1)
        lo, hi = max(10 ** 16, 2 ** (52 + e2)), min(10 ** 17, 2 ** (53 + e2))
        tens = RNG.integers(lo // 10 + 1, hi // 10 - 1, 600) * 10
        for x in np.concatenate([tens - h, tens + h]).tolist():
            if x % (2 * h) == 0 and lo <= x < hi:
                cases.append(float(x))
    assert len(cases) > 800
    assert repr(2e16 + 8) == "2.000000000000001e+16"       # even: closed
    assert repr(2e16 + 12) == "2.0000000000000012e+16"     # odd: open
    _assert_matches_repr(np.array(cases + [2e16 + 8, 2e16 + 12]))


def test_interval_ends_on_an_integer_after_inexact_scaling():
    # for x >= 1e17, V = x / 10**-j is inexact, yet (2m +- 1) * 2**(e2 - 1)
    # / 10**-j is an integer when 5**-j divides 2m +- 1
    cases = []
    for j in range(-1, -23, -1):
        five = 5 ** -j
        for e2 in range(-j + 1, -j + 60):
            m_lo, m_hi = 2 ** 52, 2 ** 53
            x_lo = m_lo * 2 ** e2
            if not 10 ** (16 - j) <= x_lo < 10 ** (17 - j):
                continue
            for sign in (1, -1):
                odd = RNG.integers(2 * m_lo // five, 2 * m_hi // five,
                                   40) * five
                odd = odd[(odd % 2 == 1)]
                m = (odd - sign) // 2
                m = m[(m >= m_lo) & (m < m_hi)]
                cases.extend((m * 2.0 ** e2).tolist())
    assert len(cases) > 500
    _assert_matches_repr(np.array(cases))


def test_ints_of_every_size():
    _assert_matches_repr(RNG.integers(-2 ** 63, 2 ** 63 - 1, 20_000,
                                      dtype=np.int64))
    _assert_matches_repr(RNG.integers(0, 2 ** 64 - 1, 20_000, dtype=np.uint64))
    _assert_matches_repr(np.array([0, -1, 10 ** 16 - 1, 10 ** 16, -10 ** 16,
                                   -10 ** 16 + 1, -2 ** 63, 2 ** 63 - 1]))
    _assert_matches_repr(np.arange(-300, 300, dtype=np.int16))


def test_every_value_sent_to_repr():
    # a margin wider than any gap leaves the digit search sure of nothing
    x = np.concatenate([RNG.normal(0.0, 1e3, 5000), [1e-300, 1.5e300]])
    with mock.patch.object(numtext, "_MARGIN", 2.0):
        _assert_matches_repr(x)


@pytest.mark.parametrize("dtype", (np.float16, np.float32))
def test_narrow_floats_print_their_float64_value(tmp_path, dtype):
    x = RNG.normal(0.0, 100.0, 3000).astype(dtype)
    io_csv.write_table(tmp_path / "t.csv", [], [x])
    assert (tmp_path / "t.csv").read_text().split() == [
        repr(float(v)) for v in x.tolist()]
