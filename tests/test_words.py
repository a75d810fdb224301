import enum
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from baxter.verify import _position_shuffle
from baxter.words import (
    check_word,
    evaluation,
    parse_word,
    restrict,
    schuetzenberger,
    shifted_shuffle,
    shuffle,
    standardize,
    word_str,
)

def _words_123(max_len):
    """Every word over {1, 2, 3} of length at most ``max_len``, the empty one too."""
    return [w for k in range(max_len + 1) for w in itertools.product((1, 2, 3), repeat=k)]


words_st = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=8).map(tuple)


def test_standardize_examples():
    assert standardize((5, 4, 2, 5, 4, 2, 4)) == (6, 3, 1, 7, 4, 2, 5)
    assert standardize((1, 1, 1)) == (1, 2, 3)
    assert standardize(()) == ()
    assert standardize((2, 1)) == (2, 1)


@given(words_st)
def test_standardize_is_idempotent_and_a_permutation(w):
    s = standardize(w)
    assert sorted(s) == list(range(1, len(w) + 1))
    assert standardize(s) == s


@given(words_st)
def test_standardize_preserves_relative_order(w):
    s = standardize(w)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] <= w[j]:
                assert s[i] < s[j]
            else:
                assert s[i] > s[j]


def test_evaluation_counts_letters():
    assert evaluation((3, 1, 3, 3)) == (1, 0, 3)
    assert evaluation(()) == ()


def test_restrict_keeps_interval_letters_in_place():
    assert restrict((5, 2, 7, 3, 6, 4, 1), 2, 4) == (2, 3, 4)
    assert restrict((5, 2, 7, 3, 6, 4, 1), 1, 7) == (5, 2, 7, 3, 6, 4, 1)
    assert restrict((5, 2, 7, 3, 6, 4, 1), 8, 9) == ()


def test_schuetzenberger_example():
    assert schuetzenberger((5, 3, 1, 1, 5, 2)) == (4, 1, 5, 5, 3, 1)
    assert schuetzenberger(()) == ()


@given(words_st.filter(lambda w: not w or min(w) == 1))
def test_schuetzenberger_is_an_involution_on_grounded_words(w):
    assert schuetzenberger(schuetzenberger(w)) == w


@given(words_st.filter(lambda w: not w or min(w) == 1))
def test_schuetzenberger_reverses_the_evaluation(w):
    ev = evaluation(w)
    assert evaluation(schuetzenberger(w)) == tuple(reversed(ev))


def test_shuffle_multiplicities():
    got = shuffle((1, 2), (3,))
    assert dict(got) == {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1}
    repeated = shuffle((1,), (1,))
    assert dict(repeated) == {(1, 1): 2}


@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(tuple),
    st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(tuple),
)
def test_shuffle_total_count_is_binomial(u, v):
    got = shuffle(u, v)
    assert sum(got.values()) == math.comb(len(u) + len(v), len(u))


def test_shuffle_matches_the_position_set_oracle():
    words = _words_123(4)
    for u, v in itertools.product(words, repeat=2):
        assert shuffle(u, v) == _position_shuffle(u, v), (u, v)


def test_standardize_matches_the_letter_then_index_sort():
    for w in _words_123(6):
        order = sorted(range(len(w)), key=lambda i: (w[i], i))
        expected = [0] * len(w)
        for value, i in enumerate(order, 1):
            expected[i] = value
        assert standardize(w) == tuple(expected), w


class Letter(enum.IntEnum):
    TWO = 2


def test_check_word_rejects_non_letters_with_one_message():
    for bad in (True, 1.0, 0):
        with pytest.raises(ValueError, match=rf"^letters must be integers >= 1, got {bad!r}$"):
            check_word((1, bad))
    assert check_word([Letter.TWO, 1]) == (2, 1)
    assert type(check_word([Letter.TWO])[0]) is Letter


def test_shifted_shuffle_shifts_the_second_factor():
    got = shifted_shuffle((1,), (1,))
    assert got == {(1, 2), (2, 1)}
    for w in shifted_shuffle((2, 1), (1, 2)):
        assert sorted(w) == [1, 2, 3, 4]


def test_word_str_round_trip():
    assert word_str((5, 2, 7, 3, 6, 4, 1)) == "5273641"
    assert word_str(()) == "e"
    assert word_str((12, 3)) == "12 3"
    assert parse_word(word_str((12, 3))) == (12, 3)


def test_parse_word_forms():
    assert parse_word("5273641") == (5, 2, 7, 3, 6, 4, 1)
    assert parse_word("5 2 7 3 6 4 1") == (5, 2, 7, 3, 6, 4, 1)
    assert parse_word("12, 3") == (12, 3)
    assert parse_word("e") == ()
    assert parse_word("10") == (10,)


@given(words_st)
def test_parse_word_inverts_word_str(w):
    assert parse_word(word_str(w)) == w


def test_parse_word_rejects_garbage_with_position():
    with pytest.raises(ValueError, match=r"position 4"):
        parse_word("5 2 yy 1")
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("0 1")


@pytest.mark.parametrize("text, bad, at", [
    ("1 --2", "--2", 2),  # digits after the minus signs, yet no integer
    ("1 ²", "²", 2),  # a digit that int() rejects
    ("① 2", "①", 0),
    ("²²", "²²", 0),  # not read one letter per digit
    ("5_0 _0", "_0", 4),  # int() takes "5_0"; "_0" also occurs inside it
])
def test_parse_word_reports_the_first_token_int_rejects(text, bad, at):
    with pytest.raises(ValueError, match=rf"^not an integer: {bad!r} \(at position {at}\)$"):
        parse_word(text)
