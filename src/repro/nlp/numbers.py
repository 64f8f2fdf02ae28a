"""Numeral understanding and the paper's admissible-rounding check.

Claims state *rounded* query results (paper Definition 1): a claim is
correct if some rounding of the true result to ``k`` significant digits
equals the claimed value, for any ``k``. :func:`rounds_to` implements that
predicate. :func:`extract_number_mentions` finds claimed values in text:
digit strings ("63", "1,234", "3.5"), percentages ("13%", "13 percent"),
spelled-out numbers ("four", "twenty-three"), and magnitude suffixes
("1.2 million").
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from repro._compat import np
from repro.nlp.tokens import Token

_UNITS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
    "twelve": 12, "thirteen": 13, "fourteen": 14, "fifteen": 15,
    "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
}
_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}
_SCALES = {"hundred": 100, "thousand": 1_000, "million": 1_000_000,
           "billion": 1_000_000_000}
_PERCENT_WORDS = {"percent", "percentage", "pct"}
_ORDINAL_WORDS = (
    "first", "second", "third", "fourth", "fifth", "sixth", "seventh",
    "eighth", "ninth", "tenth",
)
_ORDINAL_SUFFIX_RE = re.compile(r"^\d+(st|nd|rd|th)$", re.IGNORECASE)
_DIGIT_RE = re.compile(r"^\d[\d,]*(?:\.\d+)?%?$")


@dataclass(frozen=True)
class NumberMention:
    """A number found in text that may be a claimed query result."""

    value: float
    token_indexes: tuple[int, ...]
    text: str
    is_percentage: bool = False
    is_ordinal: bool = False
    is_year_like: bool = False
    is_spelled: bool = False

    @property
    def first_index(self) -> int:
        return self.token_indexes[0]


def extract_number_mentions(tokens: list[Token]) -> list[NumberMention]:
    """Find all number mentions in a tokenized sentence."""
    mentions: list[NumberMention] = []
    i = 0
    while i < len(tokens):
        mention, consumed = _match_at(tokens, i)
        if mention is not None:
            mentions.append(mention)
            i += consumed
        else:
            i += 1
    return mentions


def rounds_to(result: float | int | None, claimed: float, max_digits: int = 12) -> bool:
    """True if ``result`` rounded to *some* number of significant digits
    equals ``claimed`` (the paper's admissible rounding)."""
    if result is None:
        return False
    if not isinstance(result, (int, float)) or isinstance(result, bool):
        return False
    if math.isnan(result) or math.isinf(result):
        return False
    if _close(result, claimed):
        return True
    if result == 0:
        return False  # every rounding of zero is 0.0, compared just above
    # round_to_significant(result, digits) for each digits, sharing one
    # magnitude. Once a rounding reproduces ``result`` every finer one
    # does too (it lies at least as close to it), so the walk stops.
    magnitude = math.floor(math.log10(abs(result)))
    for digits in range(1, max_digits + 1):
        try:
            rounded = round(result, int(digits - 1 - magnitude))
        except OverflowError:
            continue  # rounds past the float range: equals no finite claim
        if rounded == result:
            return False
        if _close(rounded, claimed):
            return True
    return False


#: Plain ints below this magnitude convert to float exactly.
_EXACT_INT = 1 << 53
#: Prefilter bound of :func:`rounds_to_each` (see there): rounding moves a
#: value by at most ``0.5 * |v|``, ``isclose`` adds ``1.5e-9 * scale``.
_PREFILTER_REL = 0.51
_PREFILTER_ABS = 2e-9


def rounds_to_each(values: Sequence, claimed: float, decide=None):
    """``[decide(v, claimed) for v in values]`` as a bool array, where
    ``decide`` defaults to :func:`rounds_to`.

    One array pass first rejects the plain ``int``/``float`` values that
    provably cannot round to ``claimed``; only the survivors reach the
    scalar ``decide``, which stays the single decider. The bound: if
    ``rounds_to(v, c)`` holds, either ``isclose(v, c)``, so
    ``|v - c| <= 1e-9 * max(|v|, |c|, 1)``, or some rounding ``r`` of ``v``
    to ``d >= 1`` significant digits is close to ``c``. ``r`` moves ``v``
    by at most half a unit of its leading digit, ``0.5 * 10**m <= 0.5 *
    |v|`` (``m = floor(log10|v|)``; a ``log10`` rounded up to the next
    integer costs a relative 1e-13), so ``|r| <= 1.51 * |v|`` and
    ``|v - c| <= 0.5 * |v| + 1.51e-9 * max(|v|, |c|, 1)``. The prefilter
    keeps ``|v - c| <= 0.51 * |v| + 2e-9 * max(|v|, |c|, 1)``; its slack
    dwarfs the float error of evaluating it. Values the array cannot hold
    exactly (non-numbers, bools, NaN/inf, ``|int| >= 2**53``, subclasses)
    and claims that are not plain finite numbers go to ``decide``
    unfiltered. Without NumPy every value goes to ``decide``.
    """
    decide = rounds_to if decide is None else decide
    n = len(values)
    claim_plain = (
        (type(claimed) is float and math.isfinite(claimed))
        or (type(claimed) is int and -_EXACT_INT < claimed < _EXACT_INT)
    )
    if np is None or not claim_plain or n == 0:
        matches = [bool(decide(value, claimed)) for value in values]
        return np.array(matches, dtype=bool) if np is not None else matches
    nan = math.nan
    numbers = np.fromiter(
        (
            value
            if type(value) is float
            else float(value)
            if type(value) is int and -_EXACT_INT < value < _EXACT_INT
            else nan
            for value in values
        ),
        dtype=np.float64,
        count=n,
    )
    magnitude = np.abs(numbers)
    scale = np.maximum(magnitude, max(abs(float(claimed)), 1.0))
    with np.errstate(invalid="ignore"):
        possible = (
            np.abs(numbers - claimed)
            <= _PREFILTER_REL * magnitude + _PREFILTER_ABS * scale
        )
    # NaN placeholders compare False above and infinities True: both
    # reach ``decide``.
    undecided = possible | ~np.isfinite(numbers)
    matches = np.zeros(n, dtype=bool)
    for index in np.flatnonzero(undecided).tolist():
        matches[index] = decide(values[index], claimed)
    return matches


def round_to_significant(value: float, digits: int) -> float:
    """Round to ``digits`` significant digits (half away from zero at the
    margin handled by float rounding; adequate for claim checking)."""
    if value == 0:
        return 0.0
    if digits < 1:
        raise ValueError("significant digits must be >= 1")
    magnitude = math.floor(math.log10(abs(value)))
    factor = digits - 1 - magnitude
    return round(value, int(factor))


def _close(left: float, right: float) -> bool:
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)


def _match_at(tokens: list[Token], i: int) -> tuple[NumberMention | None, int]:
    token = tokens[i]
    lower = token.lower
    if _ORDINAL_SUFFIX_RE.match(token.text) or lower in _ORDINAL_WORDS:
        return (
            NumberMention(
                value=_ordinal_value(lower),
                token_indexes=(i,),
                text=token.text,
                is_ordinal=True,
            ),
            1,
        )
    if _DIGIT_RE.match(token.text):
        return _match_digits(tokens, i)
    if lower in _UNITS or lower in _TENS:
        return _match_spelled(tokens, i)
    return None, 1


def _match_digits(tokens: list[Token], i: int) -> tuple[NumberMention, int]:
    token = tokens[i]
    text = token.text
    is_percentage = text.endswith("%")
    digits = text.rstrip("%").replace(",", "")
    value = float(digits)
    consumed = 1
    indexes = [i]
    # Magnitude suffix: "1.2 million".
    if i + 1 < len(tokens) and tokens[i + 1].lower in _SCALES:
        value *= _SCALES[tokens[i + 1].lower]
        indexes.append(i + 1)
        consumed += 1
    # Percent word: "13 percent".
    if (
        not is_percentage
        and i + consumed < len(tokens)
        and tokens[i + consumed].lower in _PERCENT_WORDS
    ):
        is_percentage = True
        indexes.append(i + consumed)
        consumed += 1
    year_like = (
        not is_percentage
        and "," not in text
        and "." not in text
        and len(digits) == 4
        and 1800 <= value <= 2100
    )
    return (
        NumberMention(
            value=value,
            token_indexes=tuple(indexes),
            text=" ".join(tokens[j].text for j in indexes),
            is_percentage=is_percentage,
            is_year_like=year_like,
        ),
        consumed,
    )


def _match_spelled(tokens: list[Token], i: int) -> tuple[NumberMention, int]:
    value = 0.0
    current = 0.0
    consumed = 0
    indexes = []
    j = i
    while j < len(tokens):
        lower = tokens[j].lower
        if lower in _UNITS:
            current += _UNITS[lower]
        elif lower in _TENS:
            current += _TENS[lower]
        elif lower == "hundred" and current:
            current *= 100
        elif lower in _SCALES and lower != "hundred" and (current or value):
            value += (current or 1) * _SCALES[lower]
            current = 0.0
        elif (
            lower in ("and", "-")
            and consumed
            and j + 1 < len(tokens)
            and (tokens[j + 1].lower in _UNITS or tokens[j + 1].lower in _TENS)
        ):
            # Connectors inside spelled numbers: "hundred and five",
            # "twenty-three".
            j += 1
            continue
        else:
            break
        indexes.append(j)
        consumed = j - i + 1
        j += 1
    total = value + current
    is_percentage = (
        j < len(tokens) and tokens[j].lower in _PERCENT_WORDS
    )
    if is_percentage:
        indexes.append(j)
        consumed += 1
    return (
        NumberMention(
            value=total,
            token_indexes=tuple(indexes),
            text=" ".join(tokens[k].text for k in indexes),
            is_percentage=is_percentage,
            is_spelled=True,
        ),
        max(consumed, 1),
    )


def _ordinal_value(lower: str) -> float:
    if lower in _ORDINAL_WORDS:
        return float(_ORDINAL_WORDS.index(lower) + 1)
    match = re.match(r"^(\d+)", lower)
    return float(match.group(1)) if match else 0.0
