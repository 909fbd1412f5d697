"""quvar._g17.rows returns the bytes of the % operator it replaces, or None."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quvar import _g17

ENDS = ["\n", ",\n"]  # the free-mass rows, and the oscillators' with an empty last field


def _percent(table, end):
    row = ",".join(["%.17g"] * table.shape[1]) + end
    return (row * len(table)) % tuple(table.ravel().tolist())


def _bits(x):
    return int(np.float64(float(x)).view(np.uint64))


def _double(bits):
    return float(np.uint64(bits).view(np.float64))


def _covered(x):
    """The values '%.17g' writes without an exponent: 1e-4 <= |x| < 1e17."""
    return math.isfinite(x) and 1e-4 <= abs(x) < 1e17


def _check(table, end):
    got = _g17.rows(table, end)
    if all(_covered(x) for x in table.ravel().tolist()):
        assert got == _percent(table, end)
    else:
        assert got is None


covered = st.builds(
    lambda bits, neg: -_double(bits) if neg else _double(bits),
    st.integers(_bits(1e-4), _bits(1e17) - 1),
    st.booleans(),
)
doubles = st.one_of(
    covered,
    st.floats(allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(_double),
)


@given(
    data=st.data(),
    ncols=st.integers(1, 4),
    nrows=st.integers(1, 12),
    end=st.sampled_from(ENDS),
    mixed=st.booleans(),
)
def test_rows_equal_the_percent_operator(data, ncols, nrows, end, mixed):
    # Blocks of covered values only, or with any double among them (then None).
    values = data.draw(st.lists(doubles if mixed else covered, min_size=ncols * nrows,
                                max_size=ncols * nrows))
    _check(np.array(values).reshape(nrows, ncols), end)


@pytest.mark.parametrize("end", ENDS)
@pytest.mark.parametrize("ncols", [1, 4])
def test_random_bit_patterns_in_the_covered_range(end, ncols):
    rng = np.random.default_rng(17)
    bits = rng.integers(_bits(1e-4), _bits(1e17), 40_000, dtype=np.uint64)
    values = bits.view(np.float64) * rng.choice([-1.0, 1.0], bits.size)
    _check(values.reshape(-1, ncols), end)


def test_every_exponent_near_its_power_of_ten_and_round_numbers():
    # The doubles within 4 ulps of m * 10**e: the exponent estimate is off by
    # one next to a power of ten, and round numbers keep only their integer digits.
    base = [_bits(f"{m}e{e}") for e in range(-4, 17) for m in (1, 2, 5, 9.5, 9.999999999999999)]
    values = [_double(b + i) for b in base for i in range(-4, 5)]
    _check(np.array([x for x in values if _covered(x)]).reshape(-1, 1), "\n")


@pytest.mark.parametrize("x, text", [
    # Ties at the 17th digit round half to even, as '%.17g' does.
    (26217 / 262144, "0.10000991821289062"),  # ...062.5 -> 062
    (26215 / 262144, "0.10000228881835938"),  # ...937.5 -> 938
    (1e-4, "0.0001"),
    (1e16, "10000000000000000"),
    (np.nextafter(1e17, 0), "99999999999999984"),
    (100.0, "100"),
    (0.5, "0.5"),
    (-0.25, "-0.25"),
])
def test_pinned_values(x, text):
    assert _g17.rows(np.array([[x]]), "\n") == text + "\n" == "%.17g\n" % x


@pytest.mark.parametrize("x", [np.nextafter(1e-4, 0), 1e17, 0.0, -0.0, math.inf, math.nan])
def test_values_written_with_an_exponent_are_left_to_the_percent_operator(x):
    assert _g17.rows(np.array([[1.5, x]]), "\n") is None


def test_each_power_of_ten_is_the_least_double_above_it():
    # The premises rows() rests on: the search over _P10 finds the exponent
    # X with 10**X <= |x| < 10**(X + 1) exactly, and D = round(|x| * 10**(16 - X))
    # stays below 10**17, since the largest double below 10**(X + 1) does.
    for e, p in enumerate(_g17._P10.tolist(), start=-4):
        below = float(np.nextafter(p, 0))
        assert Fraction(below) < Fraction(10) ** e <= Fraction(p)
        assert Fraction(below) * Fraction(10) ** (17 - e) < 10**17 - Fraction(1, 2)
