"""GF(2) spans, coset unions, the Gray map, Z2Z4 modules, propelinear maps."""

import random
import re

import pytest

from hampack import linalg
from hampack.constructions import embedded_data, hamming_code_q
from hampack.core import Code, Space, Word, hamming_distance
from hampack.linalg import (
    BinaryMatrix,
    MixedMatrix,
    MixedWord,
    PropelinearMap,
    apply_propelinear,
    coset_union,
    gf2_rank,
    gf2_span,
    gray_map,
    group_closure,
    orbit,
    z4_module_span,
)


def bword(s: str) -> Word:
    return Word.from_string(s, 2)


class TestGf2Span:
    def test_empty_generators(self):
        span = gf2_span([], space=Space(3, 2))
        assert [str(w) for w in span.words] == ["000"]

    def test_full_generator_matrix(self):
        span = gf2_span(embedded_data().gen1)
        assert len(span) == 32

    def test_last_four_rows(self):
        # oracle: enumerate all sums of row subsets directly
        rows = embedded_data().gen1.rows[1:]
        explicit = set()
        for mask in range(16):
            acc = 0
            for i in range(4):
                if (mask >> i) & 1:
                    acc ^= rows[i].key
            explicit.add(acc)
        span = gf2_span(BinaryMatrix(rows))
        assert {w.key for w in span.words} == explicit
        assert len(span) == 16

    def test_closed_under_xor_and_size(self):
        rng = random.Random(10)
        gens = [Word(Space(8, 2), rng.randrange(256)) for _ in range(4)]
        span = gf2_span(gens, space=Space(8, 2))
        keys = {w.key for w in span.words}
        assert len(keys) == 1 << gf2_rank(span)
        for a in keys:
            for b in keys:
                assert (a ^ b) in keys


class TestGf2Rank:
    def test_zero(self):
        assert gf2_rank(Code.from_strings(["000"], 2)) == 0

    def test_known_ranks(self):
        assert gf2_rank(gf2_span(embedded_data().gen1)) == 5

    def test_rank_of_standard_basis(self):
        space = Space(6, 2)
        assert gf2_rank(Code.from_bits(space, [1 << i for i in range(6)])) == 6

    def test_rank_matches_span_size_on_random_sets(self):
        rng = random.Random(15)
        for n in range(1, 13):
            space = Space(n, 2)
            for _ in range(10):
                code = Code.from_bits(space, [rng.randrange(1 << n) for _ in range(rng.randrange(41))])
                assert 2 ** gf2_rank(code) == len(gf2_span(code.words, space))


class TestCosetUnion:
    def test_trivial(self):
        k = Code.from_strings(["00", "11"], 2)
        got = coset_union(k, [bword("00")])
        assert {str(w) for w in got.words} == {"00", "11"}

    def test_singleton_group(self):
        k = Code.from_strings(["000"], 2)
        got = coset_union(k, [bword("001"), bword("010")])
        assert {str(w) for w in got.words} == {"001", "010"}

    def test_96_words(self):
        data = embedded_data()
        k = gf2_span(BinaryMatrix(data.gen1.rows[1:]))
        got = coset_union(k, list(data.coset_reps_k1))
        assert len(got) == 96

    def test_cardinality_with_distinct_cosets(self):
        k = gf2_span([bword("1100"), bword("0011")], space=Space(4, 2))
        got = coset_union(k, [bword("0000"), bword("1000")])
        assert len(got) == 2 * len(k)

    def test_collapsing_reps_warn(self):
        k = Code.from_strings(["00", "11"], 2)
        with pytest.warns(UserWarning):
            got = coset_union(k, [bword("00"), bword("11")])
        assert len(got) == 2

    def test_not_a_group(self):
        with pytest.raises(ValueError):
            coset_union(Code.from_strings(["000", "110", "011"], 2), [bword("000")])
        with pytest.raises(ValueError):
            coset_union(Code.from_strings(["110"], 2), [bword("000")])

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_missing_sum_is_named_by_two_members(self, q):
        group = hamming_code_q(q) if q > 2 else gf2_span([bword("11000"), bword("01110"), bword("00111")])
        for dropped in group.words[1::3]:
            carrier = Code(group.space, [w for w in group.words if w != dropped])
            with pytest.raises(ValueError, match="not closed under addition") as err:
                coset_union(carrier, [group.space.zero()])
            a, b = (Word.from_string(s, q) for s in re.findall(r"(\d+) \+ (\d+)", str(err.value))[0])
            assert a in carrier.words and b in carrier.words and a + b not in carrier.words

    def test_closure_check_is_linear_in_the_group_size(self, monkeypatch):
        add, additions = linalg._add_keys, 0

        def counting_add(q, a, b):
            nonlocal additions
            additions += 1
            return add(q, a, b)

        monkeypatch.setattr(linalg, "_add_keys", counting_add)
        group = hamming_code_q(5)  # 625 words
        union = coset_union(group, [group.space.zero(), Word.from_symbols((1, 0, 0, 0, 0, 0), 5)])
        assert len(union) == 1250
        # closure: |G| - 1 new elements and one k·g test per coset; then
        # |G| per representative.  All pairs would take |G|^2 = 390,625.
        assert additions <= 2 * len(group) + len(union)


class TestGrayMap:
    def test_pinned_values(self):
        assert str(gray_map(MixedWord.from_string("1100|022"))) == "0011111100"
        assert str(gray_map(MixedWord.from_string("0111|111"))) == "0101010111"
        assert str(gray_map(MixedWord((0, 0), (0, 0, 0)))) == "00000000"

    def test_generator_consistency(self):
        data = embedded_data()
        for mixed, binary in zip(data.gen2.rows, data.gen1.rows[:4]):
            assert gray_map(mixed) == binary

    def test_injective(self):
        from itertools import product

        seen = set()
        for z2 in product((0, 1), repeat=2):
            for z4 in product(range(4), repeat=2):
                img = gray_map(MixedWord(z2, z4))
                assert img.key not in seen
                seen.add(img.key)
        assert len(seen) == 4 * 16

    def test_gray_distance_is_lee_like(self):
        # Gray images of Z4 symbols: pairwise binary distance equals the
        # circular distance on 0-1-2-3, so the image of a Z4-linear span
        # keeps its distance structure without being XOR-closed
        from itertools import product

        circ = lambda a, b: min((a - b) % 4, (b - a) % 4)
        for a, b in product(range(4), repeat=2):
            d = hamming_distance(
                gray_map(MixedWord((), (a,))), gray_map(MixedWord((), (b,)))
            )
            assert d == circ(a, b)


class TestZ4ModuleSpan:
    def test_single_order4_row(self):
        row = MixedWord.from_string("0|1")
        span = z4_module_span([row])
        assert len(span) == 4

    def test_gen3_module(self):
        span = z4_module_span(MixedMatrix(2, 4, embedded_data().gen3.rows[1:]))
        assert len(span) == 16

    def test_zero_row(self):
        assert z4_module_span([MixedWord((0,), (0,))]) == [MixedWord((0,), (0,))]

    def test_empty_matrix_spans_zero(self):
        assert z4_module_span(MixedMatrix(2, 1, ())) == [MixedWord((0, 0), (0,))]

    def test_empty_bare_list_needs_shape(self):
        with pytest.raises(ValueError):
            z4_module_span([])

    def test_redundant_check_rows_span_32(self):
        span = z4_module_span(embedded_data().check2)
        assert len(span) == 32


class TestPropelinear:
    def space(self):
        return Space(10, 2)

    def test_identity(self):
        ident = PropelinearMap.identity(self.space())
        w = bword("0101010101")
        assert apply_propelinear(ident, w) == w

    def test_complement_generator(self):
        xi0 = embedded_data().xi_generators[0]
        w = bword("0000011111")
        assert str(apply_propelinear(xi0, w)) == "1111100000"

    def test_isometry(self):
        rng = random.Random(11)
        maps = group_closure(list(embedded_data().xi_generators))
        for _ in range(20):
            m = maps[rng.randrange(len(maps))]
            x = Word(self.space(), rng.randrange(1024))
            y = Word(self.space(), rng.randrange(1024))
            assert hamming_distance(m(x), m(y)) == hamming_distance(x, y)

    def test_composition_is_application_order(self):
        rng = random.Random(12)
        _, xi1, xi2 = embedded_data().xi_generators
        for _ in range(20):
            x = Word(self.space(), rng.randrange(1024))
            assert (xi1 * xi2)(x) == xi1(xi2(x))

    def test_group_orders(self):
        data = embedded_data()
        assert len(group_closure([PropelinearMap.identity(self.space())])) == 1
        assert len(group_closure(list(data.xi_generators[1:]))) == 16
        assert len(group_closure(list(data.xi_generators))) == 32

    def test_orbit_of_zero_under_sub_group(self):
        data = embedded_data()
        sub = list(data.xi_generators[1:])
        assert len(orbit(sub, self.space().zero())) == 16

    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            PropelinearMap(bword("00"), (0, 0))


class TestMixedMatrixFormat:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MixedMatrix(1, 2, (MixedWord((0, 1), (0,)),))
