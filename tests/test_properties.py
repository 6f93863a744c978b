"""Property tests of the key encoding, of the key-level text I/O, of the
agreement of every way to build a code, of the coverage counts against
brute force, of verdicts under random isometries, and of the
extended-unitrade ball count against the halved-cube reading.

They need ``hypothesis`` (the ``dev`` extra) and are skipped without it.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hampack import constructions as con  # noqa: E402
from hampack.analysis import (  # noqa: E402
    _coverage_counts_full,
    _coverage_counts_union,
    distance_data,
    is_extended_unitrade,
    is_unitrade,
    verify_packing,
)
from hampack.core import (  # noqa: E402
    MAX_Q,
    Code,
    Space,
    Word,
    _code,
    _key_of,
    _popcount_view,
    _symbols_of,
    _word,
    coverage_multiplicity,
    format_code,
    parse_code,
)
from hampack.search import canonical_form  # noqa: E402
from oracles import halved_cube_reading  # noqa: E402


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


@hypothesis.given(multisets())
@hypothesis.settings(max_examples=200, deadline=None)
def test_key_encoding_contract(drawn):
    """What the package may assume of a key, whatever its type: the codec
    round-trips, key order is lexicographic order, and the popcount view
    reads distances (its popcounts are doubled for q > 2)."""
    space, words = drawn
    symbols = [tuple(s) for s in words]
    keys = [_key_of(space, s) for s in symbols]
    assert [_symbols_of(space, k) for k in keys] == symbols
    view, shift = _popcount_view(space, keys)
    assert shift == (space.q > 2)
    for i, (a, ka) in enumerate(zip(symbols, keys)):
        for j in range(i, len(keys)):
            b, kb = symbols[j], keys[j]
            assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
            assert (view[i] ^ view[j]).bit_count() == sum(x != y for x, y in zip(a, b)) << shift


@hypothesis.given(multisets(), st.randoms(use_true_random=False))
@hypothesis.settings(max_examples=200, deadline=None)
def test_every_constructor_gives_the_same_code(drawn, rng):
    space, words = drawn
    q = space.q
    ref = Counter(map(tuple, words))
    checked = [Word.from_symbols(s, q) for s in words]
    keys = [w.key for w in checked]
    text = f"{q} {space.n}\n" + "".join("".join(map(str, s)) + "\n" for s in words)
    shuffled = checked[:]
    rng.shuffle(shuffled)
    codes = [Code(space, checked), Code(space, shuffled), _code(space, keys), parse_code(text)]
    if q == 2:
        codes.append(Code.from_bits(space, keys))
    absent = Word.from_symbols([rng.randrange(q) for _ in range(space.n)], q)
    for code in codes:
        assert code.keys == tuple(sorted(keys)) and len(code) == len(words)
        assert [w.symbols for w in code.words] == sorted(ref.elements())
        assert code.words is code.words and list(code) == list(code.words)
        assert code == codes[0] and hash(code) == hash(codes[0])
        for s, m in ref.items():
            assert code.multiplicity(Word.from_symbols(s, q)) == m
        assert code.multiplicity(absent) == ref[absent.symbols]
        assert (absent in code) == (absent.symbols in ref)
        assert [w.symbols for w in code.duplicate_words()] == sorted(s for s, m in ref.items() if m > 1)
        assert [w.symbols for w in code.support().words] == sorted(ref)


KNOWN = [con.l_star(6), con.diagonal_unitrade(4), con.diagonal_unitrade(6),
         con.hamming_coset_union(3, 2), con.mds_code(3, 2)]


@st.composite
def small_codes(draw):
    """A code of at most 256 vertices: a random multiset or a known code."""
    if draw(st.booleans()):
        return draw(st.sampled_from(KNOWN))
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 8, 3: 5, 4: 4}[q]))
    symbols = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    words = draw(st.lists(symbols, min_size=1, max_size=20))
    return Code(Space(n, q), [Word.from_symbols(s, q) for s in words])


@st.composite
def coverage_cases(draw):
    """A random multiset of a space with q^n <= 256, a radius and a lambda."""
    q = draw(st.integers(2, MAX_Q))
    n = draw(st.integers(1, max(n for n in range(1, 9) if q**n <= 256)))
    symbols = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    words = draw(st.lists(symbols, max_size=12))
    words += draw(st.lists(st.sampled_from(words), max_size=4)) if words else []
    code = Code(Space(n, q), [Word.from_symbols(s, q) for s in words])
    return code, draw(st.integers(0, n)), draw(st.integers(1, 3))


@hypothesis.given(coverage_cases())
@hypothesis.settings(max_examples=200, deadline=None)
def test_coverage_matches_brute_force(case):
    code, r, lam = case
    counts = [(coverage_multiplicity(code, v, r), v) for v in code.space]
    top = max(m for m, _ in counts)
    witness = next(v for m, v in counts if m == top) if top else None
    expected = {v.key: m for m, v in counts if m}
    assert _coverage_counts_union(code, r) == expected
    assert _coverage_counts_full(code, r) == expected
    report = verify_packing(code, lam, r)
    assert (report.max_coverage, report.witness) == (top, witness)
    assert report.is_lambda_fold == (top <= lam)


def outcome(check, code):
    try:
        return check(code).ok
    except ValueError:
        return "ValueError"


@hypothesis.given(small_codes(), st.randoms(use_true_random=False))
@hypothesis.settings(max_examples=150, deadline=None)
def test_verdicts_are_invariant_under_isometries(code, rng):
    n, q = code.space.n, code.space.q
    perm = rng.sample(range(n), n)  # coordinate i moves to perm[i]
    relabel = [rng.sample(range(q), q) for _ in range(n)]  # symbols, per coordinate
    images = []
    for w in code.words:
        out = [0] * n
        for i, s in enumerate(w.symbols):
            out[perm[i]] = relabel[i][s]
        images.append(Word.from_symbols(out, q))
    image = Code(code.space, images)
    for r in range(min(2, n) + 1):
        assert verify_packing(image, 1, r).max_coverage == verify_packing(code, 1, r).max_coverage
    assert is_unitrade(image).ok == is_unitrade(code).ok
    assert distance_data(image).B == distance_data(code).B
    if q == 2:
        assert outcome(is_extended_unitrade, image) == outcome(is_extended_unitrade, code)
        assert canonical_form(image.support()) == canonical_form(code.support())


UNITRADES = [con.l_star(6), con.l_star(8), con.diagonal_unitrade(6), con.diagonal_unitrade(8),
             con.concatenate(con.l_star(6), con.diagonal_unitrade(2))]


@st.composite
def constant_parity_sets(draw):
    """A repeat-free constant-parity binary set, n = 5..10: random, or a
    translate of a known extended unitrade, maybe with a word dropped."""
    if draw(st.booleans()):
        n = draw(st.integers(5, 10))
        parity = draw(st.integers(0, 1))
        keys = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=24))
        # flipping the last bit where needed gives every key that parity
        return Code.from_bits(Space(n, 2), {k ^ (k.bit_count() & 1) ^ parity for k in keys})
    t = draw(st.sampled_from(UNITRADES))
    shift = draw(st.integers(0, (1 << t.space.n) - 1))
    keys = [k ^ shift for k in t.keys]
    if draw(st.booleans()):
        del keys[draw(st.integers(0, len(keys) - 1))]
    return Code.from_bits(t.space, keys)


@hypothesis.given(constant_parity_sets())
@hypothesis.settings(max_examples=200, deadline=None)
def test_ball_count_matches_halved_cube_reading(t_set):
    assert is_extended_unitrade(t_set).ok == halved_cube_reading(t_set)
