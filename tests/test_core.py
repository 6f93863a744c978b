"""Words, codes, balls, coverage, and the text format."""

import random
from itertools import combinations, product

import pytest

from hampack.core import (
    Code,
    Space,
    Word,
    _ball_keys,
    _check_lambda,
    _flip_masks,
    _flip_walk,
    antipode,
    ball,
    coverage_multiplicity,
    format_code,
    hamming_distance,
    parse_code,
    weight,
)

GEN1_ROW1 = "0011111100"
GEN1_ROW4 = "0101010111"


def bword(s: str) -> Word:
    return Word.from_string(s, 2)


def symbol_walk(center: list, q: int, r: int) -> list:
    """The radius-r ball as symbol tuples: by distance, then by changed
    positions, then by symbol shifts."""
    walk = []
    for k in range(r + 1):
        for positions in combinations(range(len(center)), k):
            for deltas in product(range(1, q), repeat=k):
                s = center[:]
                for i, d in zip(positions, deltas):
                    s[i] = (s[i] + d) % q
                walk.append(tuple(s))
    return walk


class TestSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            Space(0, 2)
        with pytest.raises(ValueError):
            Space(3, 1)
        with pytest.raises(ValueError):
            Space(3, 11)
        with pytest.raises(ValueError):
            Space(65, 2)
        Space(64, 2)
        Space(100, 3)

    def test_length_and_alphabet_must_be_ints(self):
        for n, q in ((True, 2), (2, True), (3.0, 2), (3, 2.0), ("3", 2), (3, None)):
            with pytest.raises(ValueError, match="must be ints"):
                Space(n, q)

    def test_sizes(self):
        assert Space(4, 3).size == 81
        assert Space(3, 2).ball_size(1) == 4
        # |B_1| = n(q-1) + 1
        for n in range(1, 6):
            for q in range(2, 6):
                assert Space(n, q).ball_size(1) == n * (q - 1) + 1

    def test_iteration_is_sorted_and_complete(self):
        words = list(Space(2, 3))
        assert len(words) == 9
        assert [str(w) for w in words] == sorted(str(w) for w in words)


class TestWord:
    def test_string_round_trip(self):
        for s in ("0000", "0101", "1111"):
            assert str(bword(s)) == s
        w = Word.from_string("0212", 3)
        assert str(w) == "0212"
        assert w.symbols == (0, 2, 1, 2)

    def test_bad_symbols(self):
        with pytest.raises(ValueError):
            Word.from_string("012", 2)
        with pytest.raises(ValueError):
            Word.from_string("09", 3)
        for q in (2, 3):
            for bad in (q, -1, 1.0, True, "1", None):
                with pytest.raises(ValueError, match=f"symbols must be ints in 0..{q - 1}"):
                    Word.from_symbols((0, bad), q)

    def test_lexicographic_order_matches_strings(self):
        rng = random.Random(1)
        for q in (2, 3):
            words = [
                Word.from_symbols([rng.randrange(q) for _ in range(6)], q) for _ in range(50)
            ]
            by_key = sorted(words, key=lambda w: w.key)
            by_str = sorted(words, key=str)
            assert [str(w) for w in by_key] == [str(w) for w in by_str]

    def test_parity(self):
        assert bword("0110").parity == 0
        assert bword("0111").parity == 1
        assert Word.from_string("012", 3).parity == 1


class TestDistanceAndWeight:
    def test_identity(self):
        z = bword("000")
        assert hamming_distance(z, z) == 0

    def test_ternary_triple_pairwise_distance_two(self):
        n = 6
        words = [Word.from_string(s.ljust(n, "0"), 3) for s in ("", "11", "22")]
        for i, x in enumerate(words):
            for y in words[i + 1:]:
                assert hamming_distance(x, y) == 2

    def test_generator_rows(self):
        # hand count: ones at {2,3,4,5,6,7} vs {1,3,5,7,8,9}; symmetric
        # difference has six positions (the span is even-distance, so any
        # odd value would be impossible)
        assert hamming_distance(bword(GEN1_ROW1), bword(GEN1_ROW4)) == 6

    def test_weight(self):
        assert weight(bword("0000000000")) == 0
        assert weight(bword("0001111011")) == 6
        for n in (3, 8, 64):
            assert weight(Word(Space(n, 2), (1 << n) - 1)) == n
        assert weight(Word.from_string("0120", 3)) == 2

    def test_weight_equals_distance_to_zero(self):
        rng = random.Random(2)
        space = Space(7, 3)
        zero = space.zero()
        for _ in range(30):
            w = Word.from_symbols([rng.randrange(3) for _ in range(7)], 3)
            assert weight(w) == hamming_distance(w, zero)

    def test_triangle_inequality(self):
        rng = random.Random(3)
        for q in (2, 4):
            for _ in range(100):
                x, y, z = (
                    Word.from_symbols([rng.randrange(q) for _ in range(8)], q)
                    for _ in range(3)
                )
                assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(bword("00"), bword("000"))
        with pytest.raises(ValueError):
            hamming_distance(bword("00"), Word.from_string("00", 3))


class TestBall:
    def test_radius_zero(self):
        c = Word.from_string("012", 3)
        assert list(ball(c, 0)) == [c]

    def test_explicit_small_ball(self):
        got = {str(w) for w in ball(bword("000"), 1)}
        assert got == {"000", "100", "010", "001"}

    def test_cardinality_closed_form(self):
        rng = random.Random(4)
        for n in range(1, 9):
            for q in (2, 3, 4):
                space = Space(n, q)
                center = Word.from_symbols([rng.randrange(q) for _ in range(n)], q)
                for r in range(n + 1):
                    words = list(ball(center, r))
                    assert len(words) == len({w.key for w in words})
                    assert len(words) == space.ball_size(r)

    def test_order_is_by_distance_then_positions_then_shifts(self):
        rng = random.Random(6)
        for n in range(1, 7):
            for q in (2, 3, 4):
                center = [rng.randrange(q) for _ in range(n)]
                for r in range(n + 1):
                    expect = symbol_walk(center, q, r)
                    assert [w.symbols for w in ball(Word.from_symbols(center, q), r)] == expect

    def test_qary_walk_matches_the_symbol_walk_at_every_center(self):
        for q in (3, 4, 5):
            for n in range(1, 5):
                for center in product(range(q), repeat=n):
                    for r in range(n + 1):
                        expect = [bytes(s) for s in symbol_walk(list(center), q, r)]
                        assert list(_ball_keys(Space(n, q), bytes(center), r)) == expect

    def test_binary_masks_are_the_flip_walk(self):
        # kept up to 2,081 members (the radius-2 ball at n = 64), walked past it
        for n, r in ((1, 1), (5, 2), (12, 3), (11, 11), (64, 2), (13, 13), (64, 3)):
            walk = tuple(_flip_walk(n, r))
            assert _flip_masks(n, r) == (walk if len(walk) <= 2081 else ())
            assert tuple(_ball_keys(Space(n, 2), 0, r)) == walk

    def test_large_binary_ball_is_walked_lazily(self):
        words = ball(Space(64, 2).zero(), 64)  # 2^64 words
        assert next(words).key == 0 and next(words).key == 1 << 63

    def test_radius_too_large(self):
        with pytest.raises(ValueError):
            list(ball(bword("00"), 3))

    def test_radius_must_be_an_int(self):
        # one check for ball() and ball_size(); True would pass for 1
        center = Word.from_string("012", 3)
        for r in (1.0, "1", None, True, False, -1, 4):
            with pytest.raises(ValueError, match="radius must be an int in 0..3"):
                ball(center, r)
            with pytest.raises(ValueError, match="radius must be an int in 0..3"):
                center.space.ball_size(r)
        assert Space(3, 3).ball_size(3) == 27


class TestCoverage:
    def test_empty_code(self):
        space = Space(4, 2)
        assert coverage_multiplicity(Code(space, []), space.zero(), 1) == 0

    def test_small_example(self):
        code = Code.from_strings(["000", "111"], 2)
        assert coverage_multiplicity(code, bword("100"), 1) == 1
        # no vertex is within distance 1 of both words of {000, 111}
        assert all(
            coverage_multiplicity(code, w, 1) == 1 for w in Space(3, 2)
        )

    def test_matches_ball_intersection(self):
        # independent oracle: enumerate the ball, count members of C in it
        rng = random.Random(5)
        space = Space(5, 2)
        keys = [rng.randrange(32) for _ in range(10)]
        code = Code.from_bits(space, keys)
        for _ in range(20):
            v = Word(space, rng.randrange(32))
            for r in (0, 1, 2):
                ball_keys = {w.key for w in ball(v, r)}
                independent = sum(1 for k in keys if k in ball_keys)
                assert coverage_multiplicity(code, v, r) == independent

    def test_radius_is_checked(self):
        # r = -1 used to count nothing, True counted as 1, and 1.5 and 9
        # were read as distances
        code = Code.from_strings(["000", "111"], 2)
        for r in (-1, True, 1.5, 4, 9):
            with pytest.raises(ValueError, match="radius must be an int in 0..3"):
                coverage_multiplicity(code, bword("100"), r)
        assert coverage_multiplicity(code, bword("100"), 3) == 2


class TestAntipode:
    def test_basic(self):
        assert str(antipode(bword("000"))) == "111"
        assert str(antipode(bword("010101"))) == "101010"

    def test_involution_and_distance(self):
        rng = random.Random(6)
        for _ in range(30):
            w = Word(Space(9, 2), rng.randrange(512))
            assert antipode(antipode(w)) == w
            assert hamming_distance(w, antipode(w)) == 9

    def test_binary_only(self):
        with pytest.raises(ValueError):
            antipode(Word.from_string("012", 3))


class TestCode:
    def test_multiset_semantics(self):
        code = Code.from_strings(["01", "01", "10"], 2)
        assert len(code) == 3
        assert code.multiplicity(bword("01")) == 2
        assert [str(w) for w in code.duplicate_words()] == ["01"]
        assert len(code.support()) == 2

    def test_canonical_order(self):
        code = Code.from_strings(["11", "00", "10"], 2)
        assert [str(w) for w in code.words] == ["00", "10", "11"]

    def test_translate(self):
        code = Code.from_strings(["012", "120"], 3)
        t = Word.from_string("111", 3)
        assert {str(w) for w in code.translate(t).words} == {"120", "201"}


class TestTextFormat:
    def test_round_trip_with_multiplicity_and_comments(self):
        text = "# comment\n2 3\n011\n\n011\n101\n"
        code = parse_code(text)
        assert len(code) == 3
        assert code.multiplicity(bword("011")) == 2
        again = parse_code(format_code(code))
        assert again == code

    def test_writer_canonical_order(self):
        code = Code.from_strings(["11", "00"], 2)
        assert format_code(code) == "2 2\n00\n11\n"

    def test_q_then_n_header(self):
        code = parse_code("3 2\n01\n21\n")
        assert code.space == Space(2, 3)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_code("")
        with pytest.raises(ValueError):
            parse_code("2 3\n01\n")
        with pytest.raises(ValueError):
            parse_code("2\n")


def reference_text(w: Word) -> str:
    return "".join(str(s) for s in w.symbols)


def random_multiset(rng: random.Random, space: Space, size: int) -> Code:
    """Random words of the space, about a third of them repeated."""
    words = [Word.from_symbols([rng.randrange(space.q) for _ in range(space.n)], space.q)
             for _ in range(size)]
    words += rng.sample(words, size // 3)
    return Code(space, words)


class TestBoundaryChecks:
    def test_lambda_check(self):
        for lam in (1, 2, 10**30):
            _check_lambda(lam)
        for lam in (0, -1, 2.0, 2.5, True, False, "2", None):
            with pytest.raises(ValueError, match=f"lambda must be a positive int, got {lam!r}"):
                _check_lambda(lam)

    @pytest.mark.parametrize("bad", ["٠١١", "０１１", "0_1", "+01", "0 1", "01²", "-01"])
    def test_only_ascii_digits_are_symbols(self, bad):
        with pytest.raises(ValueError):
            parse_code(f"2 3\n{bad}\n")
        with pytest.raises(ValueError):
            Word.from_string(bad, 2)
        with pytest.raises(ValueError):
            Word.from_string(bad, 10)
        with pytest.raises(ValueError):
            Code.from_strings(["011", bad], 3)

    @pytest.mark.parametrize("header", ["٢ ٣", "2 ３", "+2 3", "2 3_0", "2 x"])
    def test_header_takes_ascii_numbers_only(self, header):
        with pytest.raises(ValueError, match="bad header"):
            parse_code(f"{header}\n011\n")

    def test_symbol_beyond_the_alphabet(self):
        with pytest.raises(ValueError, match="alphabet 0..2"):
            parse_code("3 2\n01\n13\n")
        with pytest.raises(ValueError, match="has length"):
            parse_code("3 2\n01\n1\n012\n")

    def test_format_parse_round_trip_with_repeats(self):
        rng = random.Random(11)
        for q in range(2, 11):
            for n in (1, 3, 5):
                code = random_multiset(rng, Space(n, q), 12)
                text = format_code(code)
                lines = [f"{q} {n}"] + [reference_text(w) for w in code.words]
                assert text == "\n".join(lines) + "\n"
                again = parse_code(text)
                assert again == code and again.duplicate_words() == code.duplicate_words()
                assert [str(w) for w in again.words] == lines[1:]

    def test_from_bits_rejects_bad_keys(self):
        space = Space(4, 2)
        for keys in ([-1], [16], [0, 1 << 4], ["1"], [1.0], [None], [b"\x01"]):
            with pytest.raises(ValueError):
                Code.from_bits(space, keys)
        assert [w.key for w in Code.from_bits(space, [15, 0, 15]).words] == [0, 15, 15]
        with pytest.raises(ValueError):
            Code.from_bits(Space(4, 3), [0])

    def test_equal_but_distinct_spaces(self):
        a, b = Space(5, 3), Space(5, 3)
        assert a is not b
        x, y = Word(a, b"\x00\x01\x02\x00\x01"), Word(b, b"\x02\x01\x02\x00\x00")
        assert hamming_distance(x, y) == 2 and x + y == Word(a, b"\x02\x02\x01\x00\x01")
        code = Code(a, [x, y])
        assert code == Code(b, [y, x]) and y in code and code.multiplicity(y) == 1
        for other in (Space(5, 4), Space(6, 3)):
            z = other.zero()
            with pytest.raises(ValueError):
                hamming_distance(x, z)
            with pytest.raises(ValueError):
                Code(a, [x, z])

    def test_membership_matches_old_definitions(self):
        rng = random.Random(12)
        for q, n in ((2, 4), (2, 7), (3, 3), (5, 2)):
            space = Space(n, q)
            for size in (0, 1, 6, 20):
                code = random_multiset(rng, space, size)
                for w in Space(n, q):
                    w = Word(Space(n, q), w.key)  # an equal, distinct space object
                    assert (w in code) == (w in set(code.words))
                    assert code.multiplicity(w) == sum(1 for x in code.words if x == w)
                for foreign in (Space(n + 1, q).zero(), Space(n, q + 1).zero(), "0" * n, None):
                    assert foreign not in code
                    assert code.multiplicity(foreign) == 0
