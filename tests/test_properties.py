"""Property tests of the key-level text I/O and unchecked construction.

They need ``hypothesis`` (the ``dev`` extra) and are skipped without it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hampack.core import Code, Space, Word, _code, _word, format_code, parse_code  # noqa: E402


@st.composite
def multisets(draw):
    """A code of H(n, q), q = 2..10, drawn as symbol tuples with repeats."""
    q = draw(st.integers(2, 10))
    n = draw(st.integers(1, 12 if q == 2 else 5))
    symbols = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    words = draw(st.lists(symbols, max_size=20))
    words += draw(st.lists(st.sampled_from(words), max_size=5)) if words else []
    return Space(n, q), words


@hypothesis.given(multisets())
@hypothesis.settings(max_examples=200, deadline=None)
def test_format_parse_round_trip(drawn):
    space, words = drawn
    code = Code(space, [Word.from_symbols(s, space.q) for s in words])
    text = format_code(code)
    assert text.splitlines()[1:] == sorted("".join(map(str, s)) for s in words)
    assert parse_code(text) == code
    assert format_code(parse_code(text)) == text


@hypothesis.given(multisets())
@hypothesis.settings(max_examples=200, deadline=None)
def test_unchecked_words_equal_checked_words(drawn):
    space, words = drawn
    checked = [Word.from_symbols(s, space.q) for s in words]
    for w in checked:
        fast = _word(space, w.key)
        assert fast == Word(space, w.key) == w
        assert hash(fast) == hash(w) and str(fast) == str(w) and fast.symbols == w.symbols
    assert _code(space, [w.key for w in checked]) == Code(space, checked)
