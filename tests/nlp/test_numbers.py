"""Unit and property tests for numeral understanding and rounding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.numbers import (
    extract_number_mentions,
    round_to_significant,
    rounds_to,
    rounds_to_each,
)
from repro.nlp.tokens import tokenize_with_punct


def mentions(text):
    return extract_number_mentions(tokenize_with_punct(text))


class TestExtractDigits:
    def test_plain_integer(self):
        found = mentions("they gave money to 63 candidates")
        assert len(found) == 1
        assert found[0].value == 63

    def test_thousands_separator(self):
        assert mentions("about 1,234 rows")[0].value == 1234

    def test_decimal(self):
        assert mentions("an average of 3.5 goals")[0].value == 3.5

    def test_percent_sign(self):
        found = mentions("13% of respondents")[0]
        assert found.value == 13 and found.is_percentage

    def test_percent_word(self):
        found = mentions("13 percent of respondents")[0]
        assert found.value == 13 and found.is_percentage

    def test_magnitude(self):
        assert mentions("nearly 1.2 million users")[0].value == 1_200_000

    def test_year_flagged(self):
        found = mentions("back in 2014 the rule changed")[0]
        assert found.is_year_like

    def test_four_digit_count_with_comma_not_year(self):
        found = mentions("there were 2,014 incidents")[0]
        assert found.value == 2014 and not found.is_year_like

    def test_multiple_numbers(self):
        found = mentions("three were for abuse, one was for gambling, 2 more")
        assert [m.value for m in found] == [3, 1, 2]


class TestExtractSpelled:
    def test_simple_word(self):
        found = mentions("there were only four previous lifetime bans")
        assert found[0].value == 4 and found[0].is_spelled

    def test_compound(self):
        assert mentions("twenty three players left")[0].value == 23

    def test_hyphenated_compound(self):
        assert mentions("twenty-three players left")[0].value == 23

    def test_scales(self):
        assert mentions("two hundred people answered")[0].value == 200
        assert mentions("three million dollars raised")[0].value == 3_000_000

    def test_spelled_percent(self):
        found = mentions("ten percent of games")[0]
        assert found.value == 10 and found.is_percentage

    def test_ordinals_flagged(self):
        found = mentions("the third season was the best")
        assert found[0].is_ordinal and found[0].value == 3

    def test_digit_ordinal_flagged(self):
        found = mentions("ranked 4th overall")
        assert found[0].is_ordinal

    def test_no_numbers(self):
        assert mentions("no numerals appear here") == []


class TestRoundsTo:
    def test_exact(self):
        assert rounds_to(4, 4)

    def test_rounding_up(self):
        assert rounds_to(13.64, 14)

    def test_paper_rounding_error_detected(self):
        # The Stack Overflow claim: 13% claimed, true value ~13.64 -> 14.
        assert not rounds_to(13.64, 13)

    def test_one_significant_digit(self):
        assert rounds_to(38.7, 40)

    def test_two_significant_digits(self):
        assert rounds_to(63.2, 63)

    def test_fraction(self):
        assert rounds_to(0.347, 0.3)
        assert rounds_to(0.347, 0.35)

    def test_negative(self):
        assert rounds_to(-13.64, -14)
        assert not rounds_to(-13.64, 13.64)

    def test_null_result(self):
        assert not rounds_to(None, 4)

    def test_non_numeric_result(self):
        assert not rounds_to("four", 4)  # type: ignore[arg-type]

    def test_nan_result(self):
        assert not rounds_to(float("nan"), 4)

    def test_zero(self):
        assert rounds_to(0, 0)
        assert not rounds_to(0, 1)


class TestRoundToSignificant:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (13.64, 1, 10.0),
            (13.64, 2, 14.0),
            (13.64, 3, 13.6),
            (0.00347, 2, 0.0035),
            (98765, 2, 99000),
            (-13.64, 2, -14.0),
            (0, 3, 0.0),
        ],
    )
    def test_cases(self, value, digits, expected):
        assert round_to_significant(value, digits) == pytest.approx(expected)

    def test_invalid_digits(self):
        with pytest.raises(ValueError):
            round_to_significant(1.0, 0)


@settings(max_examples=100, deadline=None)
@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    digits=st.integers(min_value=1, max_value=10),
)
def test_rounding_is_admissible(value, digits):
    """Property: every significant-digit rounding of x is accepted for x."""
    rounded = round_to_significant(value, digits)
    assert rounds_to(value, rounded)


#: Values where the batched rounding kernel's prefilter is tightest or
#: must step aside: exact powers of ten, halfway values k.5 * 10**n,
#: signed zeros, ints around 2**53, and everything that is not a plain
#: finite number.
_EDGE_VALUES = (
    st.builds(
        lambda n, sign, as_int: sign * (10**n if as_int and n >= 0 else 10.0**n),
        st.integers(min_value=-8, max_value=15),
        st.sampled_from([1, -1]),
        st.booleans(),
    )
    | st.builds(
        lambda k, n, sign: sign * (k + 0.5) * 10.0**n,
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=-6, max_value=12),
        st.sampled_from([1, -1]),
    )
    | st.sampled_from([0, 0.0, -0.0])
    | st.builds(
        lambda d, sign: sign * (2**53 + d),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([1, -1]),
    )
    | st.sampled_from(
        [None, "4", True, False, float("nan"), float("inf"), float("-inf")]
    )
)
_VALUES = st.lists(
    _EDGE_VALUES
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=-1e7, max_value=1e7)
    | st.integers(min_value=-(10**7), max_value=10**7),
    max_size=30,
)


@st.composite
def _values_and_claim(draw):
    values = draw(_VALUES)
    numeric = [
        v for v in values
        if isinstance(v, (int, float)) and not isinstance(v, bool)
        and v == v and abs(v) != float("inf")
    ]
    claim = draw(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.floats(min_value=-1e7, max_value=1e7)
        | st.integers(min_value=-(10**7), max_value=10**7)
        | _EDGE_VALUES.filter(lambda v: isinstance(v, (int, float)))
    )
    if numeric and draw(st.booleans()):
        # A claim made by rounding one of the values itself: the kernel
        # must keep it for the scalar check.
        value = draw(st.sampled_from(numeric))
        claim = round_to_significant(value, draw(st.integers(1, 12)))
    return values, claim


@settings(max_examples=400, deadline=None)
@given(_values_and_claim())
def test_rounding_kernel_matches_scalar_check(values_and_claim):
    """Property: the batched kernel is exactly the per-value check."""
    values, claimed = values_and_claim
    expected = [rounds_to(value, claimed) for value in values]
    assert [bool(m) for m in rounds_to_each(values, claimed)] == expected


@pytest.mark.needs_numpy  # without NumPy every value goes to the decider
def test_rounding_kernel_sends_only_survivors_to_the_decider():
    """Values far from the claim never reach the scalar check; values
    that might round to it, and non-numbers, always do."""
    seen = []

    def decide(value, claimed):
        seen.append(value)
        return rounds_to(value, claimed)

    values = [1, 13.64, 14, 1000.0, -14, None, float("nan"), 2**60]
    matches = rounds_to_each(values, 14.0, decide)
    assert [bool(m) for m in matches] == [rounds_to(v, 14.0) for v in values]
    assert 1 not in seen and 1000.0 not in seen and -14 not in seen
    assert {13.64, 14} <= set(seen)
    assert None in seen and 2**60 in seen


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_spelled_numbers_roundtrip(number):
    """Property: spelled-out integers parse back to their value."""
    words = _spell(number)
    found = mentions(f"there were {words} things")
    assert found, words
    assert found[0].value == number


def _spell(number: int) -> str:
    units = [
        "zero", "one", "two", "three", "four", "five", "six", "seven",
        "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
        "fifteen", "sixteen", "seventeen", "eighteen", "nineteen",
    ]
    tens = [
        "", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
        "eighty", "ninety",
    ]
    if number < 20:
        return units[number]
    if number < 100:
        ten, unit = divmod(number, 10)
        return tens[ten] + ("" if unit == 0 else f"-{units[unit]}")
    hundred, rest = divmod(number, 100)
    text = f"{units[hundred]} hundred"
    if rest:
        text += f" and {_spell(rest)}"
    return text
