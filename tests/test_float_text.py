"""The CSV artifacts' float text against Python's own '%.17g', value by value.

`pipelines._csv` writes floats without a per-value call to the float
formatter; these seeded families are where an exact decimal conversion
goes wrong first: arbitrary bit patterns, every decade of the range,
the neighbours of each power of ten, ties at the 17th digit, roundings
that carry into the next decade, and the special values.
"""

import numpy as np
import pytest

from epiwave.app.pipelines import _csv

pytestmark = pytest.mark.filterwarnings("error")


def _assert_text_is_percent_17g(values):
    values = np.asarray(values, dtype=float).ravel()
    lines = _csv(["v"], values).split("\n")
    assert lines[0] == "v" and lines[-1] == ""
    want = ["%.17g" % v for v in values.tolist()]
    bad = [(v, got, ref) for v, got, ref
           in zip(values.tolist(), lines[1:-1], want) if got != ref]
    assert len(lines) - 2 == len(want) and not bad, bad[:5]


def _signed(rng, magnitudes):
    return magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape)


def test_random_bit_patterns():
    rng = np.random.default_rng(2401)
    bits = rng.integers(0, 2 ** 64, 60000, dtype=np.uint64, endpoint=False)
    _assert_text_is_percent_17g(bits.view(np.float64))


def test_log_uniform_magnitudes():
    rng = np.random.default_rng(2402)
    _assert_text_is_percent_17g(
        _signed(rng, 10.0 ** rng.uniform(-45.0, 18.0, 60000)))


def test_forty_ulps_around_every_power_of_ten():
    below = above = np.array([float(f"1e{k}") for k in range(-45, 19)])
    values = [below]
    for _ in range(40):
        below = np.nextafter(below, 0.0)
        above = np.nextafter(above, np.inf)
        values += [below, above]
    values = np.concatenate(values)
    _assert_text_is_percent_17g(np.concatenate([values, -values]))


def test_ties_at_the_seventeenth_digit():
    # n + 1/4 and n + 3/4 tie at the 17th digit for n in [1e15, 2**51);
    # random dyadic m / 2**j tie wherever m * 5**j has 18 digits ending in 5
    rng = np.random.default_rng(2403)
    n = rng.integers(10 ** 14, 10 ** 16, 20000).astype(float)
    dyadic = np.ldexp(rng.integers(1, 2 ** 20, 20000).astype(float),
                      rng.integers(-120, 40, 20000))
    values = np.concatenate([n + 0.25, n + 0.75, -(n + 0.5), dyadic])
    _assert_text_is_percent_17g(values)
    # round half to even, both ways
    assert _csv([], [1e15 + 0.25, 1e15 + 0.75, 2.0 ** -25]).split() == [
        "1000000000000000.2", "1000000000000000.8", "2.9802322387695312e-08"]


def test_roundings_that_carry_into_the_next_decade():
    nines = [float(f"9.{'9' * digits}e{k}")
             for k in range(-46, 18) for digits in (15, 16, 17, 20)]
    values = np.array(nines)
    _assert_text_is_percent_17g(np.concatenate([values, -values]))
    # the double nearest 1e-14 lies below it, and its 17 digits carry
    assert _csv([], [1e-14]) == "\n1e-14\n"


def test_special_values():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308]
    _assert_text_is_percent_17g(values)
