"""Packing verification, unitrade predicates, distributions, pair profiles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from hampack import analysis, constructions
from hampack.analysis import (
    Bipartition,
    Reducibility,
    _conflict_walk,
    _odd_cycle,
    average_distance,
    distance_data,
    inner_radius,
    is_antipodal,
    is_bipartite_unitrade,
    is_extended_unitrade,
    is_unitrade,
    krawtchouk,
    oa_strength1_check,
    pair_profile,
    primary_components,
    reducibility_certificate,
    verify_packing,
    weight_distribution,
)
from hampack.core import Code, Space, Word, coverage_multiplicity, hamming_distance, weight
from hampack.search import SearchConfig, classify_extended_unitrades
from oracles import (
    binary_projection, conflict_adjacency, coordinate_components, halved_cube_reading, krawtchouk_table,
    macwilliams_transform, pair_distances,
)


def bword(s: str) -> Word:
    return Word.from_string(s, 2)


def random_code(rng, n, size, q=2):
    space = Space(n, q)
    if q == 2:
        return Code.from_bits(space, {rng.randrange(1 << n) for _ in range(size)})
    return Code(space, [Word.from_symbols([rng.randrange(q) for _ in range(n)], q) for _ in range(size)])


class TestVerifyPacking:
    def test_empty(self):
        report = verify_packing(Code(Space(4, 2), []), 1, 1)
        assert report.max_coverage == 0 and report.is_lambda_fold

    def test_lambda_must_be_a_positive_int(self):
        code = constructions.mds_code(3, 3)
        for lam in (1.5, 3.0, 0, -1, True, "3", None):
            with pytest.raises(ValueError, match="lambda"):
                verify_packing(code, lam, 1)
        assert verify_packing(code, 3, 1).is_lambda_fold

    def test_radius_must_be_an_int(self):
        for code in (constructions.mds_code(3, 3), Code(Space(4, 2), [])):
            for r in (1.0, "1", None, True, -1, code.space.n + 1):
                with pytest.raises(ValueError, match="radius must be an int"):
                    verify_packing(code, 2, r)

    def test_whole_tiny_space(self):
        space = Space(2, 2)
        report = verify_packing(Code.from_bits(space, range(4)), 3, 1)
        assert report.max_coverage == 3

    def test_two_hamming_cosets_length7(self):
        # union of two cosets of the length-7 Hamming code: every ball
        # holds exactly one word of each coset
        space = Space(7, 2)
        code_keys = [v for v in range(128) if _syndrome7(v) == 0]
        code = Code.from_bits(space, code_keys)
        assert len(code) == 16
        shifted = code.translate(Word(space, 1))
        union = Code(space, list(code.words) + list(shifted.words))
        report = verify_packing(union, 2, 1)
        assert len(union) == 32
        assert report.max_coverage == 2 and report.is_lambda_fold

    def test_witness_and_failure(self):
        code = Code.from_strings(["000", "001"], 2)
        report = verify_packing(code, 1, 1)
        assert not report.is_lambda_fold
        assert report.max_coverage == 2

    def test_extension_preserves_fold(self):
        rng = random.Random(21)
        for _ in range(15):
            code = random_code(rng, 5, rng.randrange(1, 8))
            ext = constructions.extend_parity(code)
            a = verify_packing(code, 2, 1)
            b = verify_packing(ext, 2, 1)
            assert a.max_coverage == b.max_coverage

    def test_multiset_counts(self):
        code = Code.from_strings(["000", "000"], 2)
        report = verify_packing(code, 1, 1)
        assert report.max_coverage == 2
        assert [str(w) for w in report.duplicate_words] == ["000"]

    def test_dense_binary_codes_match_brute_force(self, all_pairs):
        # codes whose balls hold half the space or more: the 96-word C4
        # cells, their length-9 punctures, L*(10) and D8, each as built,
        # with one word moved and with one word repeated
        cells = [c4 for _, c4 in all_pairs.values()]
        sources = cells + [constructions.puncture_last(c4) for c4 in cells]
        sources += [constructions.l_star(10), constructions.diagonal_unitrade(8)]
        rng = random.Random(24)
        codes = []
        for code in sources:
            keys, n = list(code.keys), code.space.n
            i = rng.randrange(len(keys))
            moved = keys[:i] + [keys[i] ^ 1 << rng.randrange(n)] + keys[i + 1:]
            codes += [code, Code.from_bits(code.space, moved), Code.from_bits(code.space, keys + [keys[i]])]
        for code in codes:
            n = code.space.n
            assert 2 * len(code) * (n + 1) >= 1 << n
            counts = [(coverage_multiplicity(code, v, 1), v) for v in code.space]
            top = max(m for m, _ in counts)
            witness = next(v for m, v in counts if m == top)
            repeated = tuple(w for w, m in Counter(code.words).items() if m > 1)
            report = verify_packing(code, 2, 1)
            assert (report.max_coverage, report.witness, report.duplicate_words) == (top, witness, repeated)
            assert report.is_lambda_fold == (top <= 2)


def _syndrome7(v: int) -> int:
    s = 0
    for pos in range(7):
        if (v >> pos) & 1:
            s ^= pos + 1
    return s


class TestUnitradePredicates:
    def test_empty_and_singleton(self):
        space = Space(4, 2)
        assert is_unitrade(Code(space, [])).ok
        res = is_unitrade(Code.from_bits(space, [0]))
        assert not res.ok and res.witness is not None

    def test_smallest_plain_unitrade(self):
        t = Code.from_strings(["000", "111", "100", "011"], 2)
        assert is_unitrade(t).ok

    def test_punctured_96_is_unitrade(self, all_pairs):
        for _, c4 in all_pairs.values():
            punctured = constructions.puncture_last(c4)
            assert is_unitrade(punctured).ok

    def test_extended_diagonal(self):
        assert is_extended_unitrade(constructions.diagonal_unitrade(6)).ok

    def test_extended_rejects_singleton(self):
        assert not is_extended_unitrade(Code.from_strings(["0000"], 2)).ok

    def test_repeated_words_count_with_multiplicity(self):
        # a doubled word puts two words in each ball around it, for every n
        for n in range(4, 9):
            twice = Code.from_bits(Space(n, 2), [0, 0])
            assert is_unitrade(twice).ok and is_extended_unitrade(twice).ok
            thrice = Code.from_bits(Space(n, 2), [0, 0, 0])
            assert not is_unitrade(thrice).ok and not is_extended_unitrade(thrice).ok

    def test_mixed_parity_rejected(self):
        with pytest.raises(ValueError):
            is_extended_unitrade(Code.from_strings(["0000", "0001"], 2))

    def test_lstar_family(self):
        for n in (6, 8, 10):
            assert is_extended_unitrade(constructions.l_star(n)).ok


def _oracle_sets(all_pairs) -> list[Code]:
    """Extended unitrades of every constructed family, and every class
    representative at lengths 6 and 8."""
    diag, lstar = constructions.diagonal_unitrade, constructions.l_star
    sets = [lstar(n) for n in (6, 8, 10, 12)] + [diag(n) for n in (6, 8, 10)]
    sets += [constructions.concatenate(diag(4), diag(4)),
             constructions.concatenate(lstar(6), diag(2)),
             constructions.concatenate(lstar(6), lstar(6))]
    sets += [c4 for _, c4 in all_pairs.values()] + [constructions.classified_C4_display()]
    for n in (6, 8):
        sets += [cl.representative for cl in classify_extended_unitrades(SearchConfig(n=n))]
    return sets


def _near_misses(rng, t_set: Code) -> tuple[Code, Code]:
    """The set with one word moved by distance 2 onto a non-member, and
    the set with one word dropped."""
    keys = list(t_set.keys)
    i = rng.randrange(len(keys))
    moves = [keys[i] ^ (1 << a) ^ (1 << b) for a, b in combinations(range(t_set.space.n), 2)]
    target = rng.choice([k for k in moves if k not in t_set.keys])
    space = t_set.space
    return (Code.from_bits(space, keys[:i] + [target] + keys[i + 1:]),
            Code.from_bits(space, keys[:i] + keys[i + 1:]))


def test_ball_count_and_halved_cube_reading_agree(all_pairs):
    """Both readings accept every family and reject every near miss."""
    rng = random.Random(31)
    for t in _oracle_sets(all_pairs):
        assert is_extended_unitrade(t).ok and halved_cube_reading(t), t
        for miss in _near_misses(rng, t):
            assert not is_extended_unitrade(miss).ok and not halved_cube_reading(miss), t


class TestBipartiteness:
    def test_diagonal_bipartite(self):
        res = is_bipartite_unitrade(constructions.diagonal_unitrade(6), extended=True)
        assert res.bipartite
        p0, p1 = res.parts
        for part in (p0, p1):
            keys = [w.key for w in part.words]
            for i, a in enumerate(keys):
                for b in keys[i + 1:]:
                    assert (a ^ b).bit_count() >= 4

    def test_lstar_not_bipartite_with_odd_cycle(self):
        for n in (6, 8, 10):
            res = is_bipartite_unitrade(constructions.l_star(n), extended=True)
            assert not res.bipartite
            assert len(res.odd_cycle) % 2 == 1

    def test_odd_cycles_are_pinned(self):
        # the cycle closed by the first same-colour edge of the walk
        cycles = {n: [str(w) for w in is_bipartite_unitrade(constructions.l_star(n), True).odd_cycle]
                  for n in (6, 8, 10)}
        assert cycles == {
            6: ["000000", "100001", "110011", "110110", "000110"],
            8: ["11000011", "11011011", "11111111", "11110110", "11000110"],
            10: ["1111110011", "1111110110", "1111111100", "1111011000", "1111011011"],
        }
        reps = [c.representative for c in classify_extended_unitrades(SearchConfig(n=8)) if not c.bipartite]
        assert [[str(w) for w in is_bipartite_unitrade(t, True).odd_cycle] for t in reps] == [
            ["11000000", "11100100", "11100111", "10101111", "10111011", "11011011", "11000011"],
            ["11000000", "11100010", "11101110", "11001111", "11000101"],
        ]

    def test_empty_bipartite(self):
        assert is_bipartite_unitrade(Code(Space(4, 2), []), extended=True).bipartite

    def test_plain_unitrade_split_has_distance3_parts(self):
        t = Code.from_strings(["000", "111", "100", "011"], 2)
        res = is_bipartite_unitrade(t, extended=False)
        assert res.bipartite
        for part in res.parts:
            keys = [w.key for w in part.words]
            for i, a in enumerate(keys):
                for b in keys[i + 1:]:
                    assert (a ^ b).bit_count() >= 3

    def test_requires_unitrade(self):
        with pytest.raises(ValueError):
            is_bipartite_unitrade(Code.from_strings(["0000"], 2), extended=True)

    def test_plain_and_extended_readings_are_kept_apart(self):
        # the same set asked both ways: each reading runs its own check
        plain = Code.from_strings(["000", "111", "100", "011"], 2)
        assert is_bipartite_unitrade(plain, extended=False).bipartite
        with pytest.raises(ValueError, match="mixed-parity"):
            is_bipartite_unitrade(plain, extended=True)
        lstar = constructions.l_star(6)
        assert not is_bipartite_unitrade(lstar, extended=True).bipartite
        with pytest.raises(ValueError, match="not a 1-perfect unitrade"):
            is_bipartite_unitrade(lstar, extended=False)

    def test_bipartite_implies_antipodal(self):
        samples = [
            constructions.diagonal_unitrade(4),
            constructions.diagonal_unitrade(8),
            constructions.concatenate(
                constructions.diagonal_unitrade(2), constructions.diagonal_unitrade(4)
            ),
        ]
        for t in samples:
            if is_bipartite_unitrade(t, extended=True).bipartite:
                assert is_antipodal(t)


class TestAntipodal:
    def test_empty(self):
        assert is_antipodal(Code(Space(4, 2), []))

    def test_lstar_not_antipodal(self):
        assert not is_antipodal(constructions.l_star(6))

    def test_diagonal_antipodal(self):
        assert is_antipodal(constructions.diagonal_unitrade(6))


class TestComponentsAndReducibility:
    def test_empty_components(self):
        assert primary_components(Code(Space(4, 2), []), extended=True) == []

    def test_disjoint_translates_split(self):
        # two diagonal unitrades on supports more than distance 2 apart
        d = constructions.diagonal_unitrade(8)
        far = d.translate(bword("11110000"))
        merged = Code(d.space, list(d.words) + list(far.words))
        if is_extended_unitrade(merged).ok:
            comps = primary_components(merged, extended=True)
            assert len(comps) == 2

    def test_concat_of_lstar_with_pair_is_primary_but_reducible(self):
        two = Code.from_bits(Space(2, 2), [0b10, 0b01])
        t = constructions.concatenate(constructions.l_star(6), two)
        assert len(primary_components(t, extended=True)) == 1
        cert = reducibility_certificate(t)
        assert cert.kind == "factorization"
        left, right = cert.factors
        sizes = sorted((len(left), len(right)))
        assert sizes == [2, 10]

    def test_lstar_irreducible(self):
        for n in (6, 8, 10):
            assert reducibility_certificate(constructions.l_star(n)).kind == "irreducible"

    def test_repeated_word_certificate(self):
        # distance-0 pairs join no coordinates
        t = Code.from_strings(["0000", "0000"], 2)
        assert is_extended_unitrade(t).ok
        cert = reducibility_certificate(t)
        assert cert == Reducibility("unknown", ((0,), (1,), (2,), (3,)))

    def test_product_factorization(self):
        t = constructions.concatenate(
            constructions.diagonal_unitrade(4), constructions.diagonal_unitrade(4)
        )
        cert = reducibility_certificate(t)
        assert cert.kind == "factorization"

    def test_factor_parts_recover_the_factors(self):
        two = Code.from_bits(Space(2, 2), [0b10, 0b01])
        t = constructions.concatenate(constructions.l_star(6), two)
        cert = reducibility_certificate(t)
        parts = {len(p): p for p in cert.factors}
        assert {w.key for w in parts[10].words} == {w.key for w in constructions.l_star(6).words}
        assert {str(w) for w in parts[2].words} == {"10", "01"}


class TestOneCheckedGraph:
    @staticmethod
    def count_work(monkeypatch):
        """Walks are misses of the cached member walk; the union count and
        the pair pass, which no structure answer should need, are calls."""
        calls = Counter()

        def counted(name):
            kernel = getattr(analysis, name)

            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        for name in ("_coverage_counts_union", "_pair_pass"):
            monkeypatch.setattr(analysis, name, counted(name))
        analysis._unitrade_graph.cache_clear()
        analysis._ball_members.cache_clear()
        return calls

    def test_structure_calls_build_one_graph(self, monkeypatch, pair_z2z4):
        calls = self.count_work(monkeypatch)
        cell = pair_z2z4[1]
        assert len(cell) == 96 and is_extended_unitrade(cell).ok
        walk = analysis._ball_members(cell)
        before = {k: tuple(members) for k, members in walk.items()}
        is_bipartite_unitrade(cell, extended=True)
        primary_components(cell, extended=True)
        reducibility_certificate(cell)
        pair_profile(cell.translate(cell.words[0]))
        assert {k: tuple(members) for k, members in walk.items()} == before  # the shared walk is read only
        # the caller's check walks the cell once and the graph reads that
        # walk; the translate is walked once; no ball count or pair pass
        assert not calls and analysis._ball_members.cache_info().misses == 2
        assert not hasattr(analysis, "_conflict_adjacency")

    def test_distances_and_inner_radius_share_one_pass(self, pair_z2z4):
        cell = pair_z2z4[1]
        analysis._pair_pass.cache_clear()
        distance_data(cell)
        inner_radius(cell)
        info = analysis._pair_pass.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_classification_walks_each_set_once(self, monkeypatch):
        calls = self.count_work(monkeypatch)
        classes = classify_extended_unitrades(SearchConfig(n=8))
        # 9 sieve-new solutions and 8 representatives
        assert len(classes) == 8
        assert not calls and analysis._ball_members.cache_info().misses == 17

    def test_interleaved_sets_keep_their_own_answers(self, pair_z2z4):
        calls = (lambda t: is_bipartite_unitrade(t, extended=True),
                 lambda t: primary_components(t, extended=True),
                 reducibility_certificate)
        sets = (constructions.l_star(8), pair_z2z4[1])
        fresh = {}
        for t in sets:
            for k, call in enumerate(calls):
                analysis._unitrade_graph.cache_clear()
                fresh[t, k] = call(t)
        assert fresh[sets[0], 0] != fresh[sets[1], 0]
        for k, call in enumerate(calls):
            for t in sets + sets[::-1] + sets:
                assert call(t) == fresh[t, k]


class TestGraphRowsAgainstPairPass:
    """The rows that the checking ball walk builds equal those of the pair pass."""

    @staticmethod
    def assert_rows(code, extended):
        analysis._unitrade_graph.cache_clear()
        assert analysis._unitrade_graph(code, extended)[0] == conflict_adjacency(code)

    def test_unitrades_with_repeated_words(self):
        # a perfect code taken twice puts two words in every ball
        def syndrome(k):
            s = 0
            for b in range(7):
                s ^= (b + 1) * (k >> b & 1)
            return s

        hamming7 = Code.from_bits(Space(7, 2), [k for k in range(128) if not syndrome(k)])
        perfect = [constructions.hamming_code_q(2), constructions.hamming_code_q(3), hamming7]
        for code in perfect:
            doubled = Code(code.space, list(code.words) * 2)
            assert is_unitrade(doubled).ok and len(doubled.duplicate_words()) == len(code)
            self.assert_rows(doubled, False)
            w = code.words[-1]
            self.assert_rows(Code(code.space, [w, w]), False)
        for code in (constructions.extend_parity(perfect[0]), constructions.extend_parity(hamming7)):
            doubled = Code(code.space, list(code.words) * 2)
            assert is_extended_unitrade(doubled).ok
            self.assert_rows(doubled, True)

    def test_ternary_plain_unitrades(self):
        union = constructions.hamming_coset_union(3, 2)
        for code in (union, union.translate(Word.from_symbols([1, 2, 0, 1], 3))):
            assert code.space.q == 3 and is_unitrade(code).ok
            self.assert_rows(code, False)

    def test_class_representatives(self):
        for n in (6, 8):
            for cl in classify_extended_unitrades(SearchConfig(n=n)):
                self.assert_rows(cl.representative, True)


class TestDistanceData:
    def test_krawtchouk_endpoints(self):
        for n in (6, 9, 10):
            for i in range(n + 1):
                assert krawtchouk(n, 0, i) == 1
                assert krawtchouk(n, n, i) == (-1) ** i
                assert krawtchouk(n, 2, i) == ((n - 2 * i) ** 2 - n) // 2
                assert krawtchouk(n, n - 1, i) == (-1) ** i * (n - 2 * i)

    def test_linear_code_weight_distribution(self, pair_linear):
        c0, _ = pair_linear
        data = distance_data(c0, x=c0.words[0])
        # distance-invariant: B equals the weight distribution
        assert data.B == tuple(Fraction(a) for a in data.A_x)
        assert data.B[0] == 1 and data.B[4] == 15 and data.B[6] == 15 and data.B[10] == 1
        assert data.dual_nonnegative()

    def test_macwilliams_round_trip(self):
        rng = random.Random(22)
        for _ in range(10):
            code = random_code(rng, 6, rng.randrange(1, 10))
            data = distance_data(code)
            twice = macwilliams_transform(data.B_dual, 6, len(code))
            scale = Fraction(2**6, len(code) ** 2)
            assert twice == tuple(scale * b for b in data.B)

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError):
            distance_data(Code(Space(3, 2), []))

    def test_sum_rule(self):
        rng = random.Random(23)
        code = random_code(rng, 5, 7)
        data = distance_data(code)
        assert sum(data.B) == len(code)
        assert data.B_dual[0] == 1

    def test_dual_nonnegative_on_random_codes(self):
        rng = random.Random(25)
        for _ in range(25):
            code = random_code(rng, 6, rng.randrange(1, 12))
            assert distance_data(code).dual_nonnegative()


class TestOaAndRadius:
    def test_diagonal_balanced(self):
        assert oa_strength1_check(constructions.diagonal_unitrade(8))

    def test_empty_balanced(self):
        assert oa_strength1_check(Code(Space(4, 2), []))

    def test_column_counts_match_the_symbol_columns(self):
        # the balance check's old reading: sum each coordinate's symbols;
        # word sets closed under complement are balanced, random ones rarely
        rng = random.Random(56)
        for n in (1, 2, 7, 8, 9, 33, 63, 64):
            full = (1 << n) - 1
            for size in (0, 1, 2, 6, 20):
                half = [rng.randrange(1 << n) for _ in range(size // 2)] + [0] * (size % 2)
                for code in (Code.from_bits(Space(n, 2), half + [k ^ full for k in half]),
                             Code.from_bits(Space(n, 2), [rng.randrange(1 << n) for _ in range(size)])):
                    columns = [sum(w.symbols[i] for w in code.words) for i in range(n)]
                    assert analysis._column_counts(code.keys, n)[::-1] == columns
                    assert oa_strength1_check(code) == all(2 * c == len(code) for c in columns)

    def test_average_distance_half_n(self):
        rng = random.Random(24)
        for t in (constructions.l_star(6), constructions.diagonal_unitrade(8)):
            n = t.space.n
            for _ in range(5):
                v = Word(t.space, rng.randrange(1 << n))
                assert average_distance(t, v) == Fraction(n, 2)

    def test_inner_radius(self):
        assert inner_radius(Code.from_strings(["0101"], 2)) == 0
        # bipartite extended unitrades are antipodal: inner radius n
        assert inner_radius(constructions.diagonal_unitrade(8)) == 8
        for n in (6, 8, 10):
            t = constructions.l_star(n)
            assert n / 2 < inner_radius(t) <= n

    def test_inner_radius_empty(self):
        with pytest.raises(ValueError):
            inner_radius(Code(Space(3, 2), []))


class TestPairProfile:
    def test_requires_zero(self):
        with pytest.raises(ValueError):
            pair_profile(constructions.diagonal_unitrade(6).translate(bword("110000")))

    def test_requires_extended_unitrade(self):
        # the zero-word check comes first, then the unitrade check
        with pytest.raises(ValueError, match="all-zero word"):
            pair_profile(Code.from_strings(["1000", "1100"], 2))
        with pytest.raises(ValueError, match="mixed-parity"):
            pair_profile(Code.from_strings(["0000", "1000", "0100", "1100"], 2))
        with pytest.raises(ValueError, match="not an extended 1-perfect unitrade"):
            pair_profile(Code.from_strings(["0000", "1100"], 2))

    def test_diagonal_profile(self):
        n = 6
        prof = pair_profile(constructions.diagonal_unitrade(n))
        assert prof.plus[0] == n // 2
        assert prof.weight_counts[2] == 3
        assert prof.star[2] == 0
        assert 2 * prof.plus[2] == (n - 2) * prof.weight_counts[2] == 12

    def test_linear_relations(self):
        samples = [
            constructions.diagonal_unitrade(8),
            constructions.l_star(6),
            constructions.l_star(8),
        ]
        for t in samples:
            n = t.space.n
            prof = pair_profile(t)
            for i in range(0, n + 1, 2):
                w_i = prof.weight_counts[i]
                assert 2 * prof.minus[i] + prof.star[i] == i * w_i
                assert prof.star[i] + 2 * prof.plus[i] == (n - i) * w_i
                if i >= 2:
                    assert prof.minus[i] == prof.plus[i - 2]


class TestWeightDistributionHelper:
    def test_counts(self):
        code = Code.from_strings(["000", "011", "101"], 2)
        assert weight_distribution(code, bword("000")) == (1, 0, 2, 0)


# ---------------------------------------------------------------------------
# key-level kernels against definitions on hamming_distance
# ---------------------------------------------------------------------------

def ref_b(code):
    counts = [0] * (code.space.n + 1)
    for a in code.words:
        for b in code.words:
            counts[hamming_distance(a, b)] += 1
    return tuple(Fraction(c, len(code)) for c in counts)


def ref_inner_radius(code):
    return min(max(hamming_distance(x, y) for y in code.words) for x in code.words)


def ref_pair_profile(t):
    n = t.space.n
    w_counts, minus, star, plus = ([0] * (n + 1) for _ in range(4))
    for a in t.words:
        w_counts[weight(a)] += 1
        for b in t.words:
            if hamming_distance(a, b) == 2:
                step = weight(b) - weight(a)
                (plus if step == 2 else minus if step == -2 else star)[weight(a)] += 1
    return (n, len(t), tuple(w_counts), tuple(minus), tuple(star), tuple(plus))


def ref_conflicts(code, extended):
    near = (0, 2) if extended else (0, 1, 2)
    words = code.words
    return [[j for j in range(len(words)) if j != i and hamming_distance(words[i], words[j]) in near]
            for i in range(len(words))]


def ref_components(code, extended):
    words = code.words
    parent = list(range(len(words)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, row in enumerate(ref_conflicts(code, extended)):
        for j in row:
            parent[find(i)] = find(j)
    groups = {}
    for i, w in enumerate(words):
        groups.setdefault(find(i), []).append(w.key)
    return sorted(sorted(g) for g in groups.values())


def walk_bipartition(code):
    """The split or odd cycle that the walk finds on any code's conflict graph."""
    _, color, parent, clash = _conflict_walk(conflict_adjacency(code))
    if clash is not None:
        return Bipartition(None, tuple(code.words[i] for i in _odd_cycle(*clash, parent)))
    sides = ([w for w, c in zip(code.words, color) if c == side] for side in (0, 1))
    return Bipartition(tuple(Code(code.space, s) for s in sides), None)


def check_bipartition(code, extended, res):
    """The split is a proper 2-colouring of the conflict graph, or the
    cycle is an odd closed walk of conflicts; decided independently by
    a parity union-find."""
    adj = ref_conflicts(code, extended)
    parity_parent = {i: (i, 0) for i in range(len(code))}

    def find(a):
        p = 0
        while parity_parent[a][0] != a:
            a, step = parity_parent[a]
            p ^= step
        return a, p

    two_colourable = True
    for i, row in enumerate(adj):
        for j in row:
            (ri, pi), (rj, pj) = find(i), find(j)
            if ri == rj:
                two_colourable &= pi != pj
            else:
                parity_parent[ri] = (rj, pi ^ pj ^ 1)
    assert res.bipartite == two_colourable
    near = (0, 2) if extended else (0, 1, 2)
    if res.bipartite:
        assert sorted(w.key for p in res.parts for w in p.words) == [w.key for w in code.words]
        for part in res.parts:
            for i, a in enumerate(part.words):
                assert all(hamming_distance(a, b) not in near for b in part.words[i + 1:])
    else:
        cycle = res.odd_cycle
        assert len(cycle) % 2 == 1
        assert all(hamming_distance(cycle[i - 1], cycle[i]) in near for i in range(len(cycle)))


@pytest.fixture(scope="module")
def reference_samples(all_pairs):
    rng = random.Random(31)
    plain = [constructions.hamming_coset_union(3, 2), Code.from_strings(["000", "111", "100", "011"], 2)]
    plain += [constructions.puncture_last(pair[1]) for pair in all_pairs.values()]
    extended = [constructions.diagonal_unitrade(6), constructions.l_star(6), constructions.l_star(8),
                constructions.concatenate(constructions.l_star(6), constructions.diagonal_unitrade(2))]
    extended += [pair[1] for pair in all_pairs.values()]
    others = [pair[0] for pair in all_pairs.values()] + [constructions.mds_code(3, 4),
                                                          constructions.hamming_code_q(3)]
    for q, n in ((2, 6), (2, 9), (3, 4), (4, 3), (7, 2)):
        code = random_code(rng, n, 15, q)
        others.append(Code(code.space, list(code.words) + list(code.words[:5])))
    return plain, extended, others


def certificate_samples(reference_samples) -> list:
    """The extended reference samples, products, and coordinate-shuffled
    translates of the products, whose components are no longer runs of
    adjacent coordinates."""
    rng = random.Random(35)
    _, extended, _ = reference_samples
    d2, d4, d6, l6 = (constructions.diagonal_unitrade(2), constructions.diagonal_unitrade(4),
                      constructions.diagonal_unitrade(6), constructions.l_star(6))
    products = [constructions.concatenate(d4, d6), constructions.concatenate(l6, d4),
                constructions.concatenate(d4, d4), constructions.concatenate(l6, d2),
                constructions.concatenate(constructions.concatenate(d2, d4), d2)]
    samples = extended + products
    for t in products:
        n = t.space.n
        perm = rng.sample(range(n), n)
        shift = rng.randrange(1 << n)
        samples.append(Code.from_bits(t.space, [
            sum(1 << (n - 1 - perm[i]) for i in range(n) if k >> (n - 1 - i) & 1) ^ shift
            for k in t.keys]))
    return samples


class TestKeyKernelsAgainstReferences:
    def test_distances(self, reference_samples):
        plain, extended, others = reference_samples
        x_rng = random.Random(32)
        for code in plain + extended + others:
            x = code.words[x_rng.randrange(len(code))] + code.words[0]
            data = distance_data(code, x)
            assert data.B == ref_b(code)
            assert data.A_x == tuple(sum(1 for c in code.words if hamming_distance(c, x) == i)
                                     for i in range(code.space.n + 1))
            assert inner_radius(code) == ref_inner_radius(code)
            total = sum(hamming_distance(c, x) for c in code.words)
            assert average_distance(code, x) == Fraction(total, len(code))

    def test_pair_pass(self, reference_samples):
        # binary and q-ary codes, repeated words, and lone words of each kind
        plain, extended, others = reference_samples
        lone = [Code(c.space, c.words[:1]) for c in (plain[0], others[-1], others[-3])]
        assert any(len(set(c.keys)) < len(c) for c in others)
        for code in plain + extended + others + lone:
            counts, far = pair_distances(code)
            assert analysis._pair_pass(code.space, code.keys) == (tuple(counts), tuple(far))

    def test_conflicts_splits_and_components(self, reference_samples):
        plain, extended, others = reference_samples
        for group, ext in ((plain, False), (extended, True)):
            for code in group:
                # on a constant-parity set, distance <= 2 is distance 0 or 2
                assert analysis._unitrade_graph(code, ext)[0] == ref_conflicts(code, ext)
                check_bipartition(code, ext, is_bipartite_unitrade(code, ext))
                got = primary_components(code, ext)
                assert sorted([w.key for w in c.words] for c in got) == ref_components(code, ext)
        for code in others:  # no unitrade: the unchecked graph and walk
            assert conflict_adjacency(code) == ref_conflicts(code, False)
            check_bipartition(code, False, walk_bipartition(code))

    def test_pair_profiles(self, reference_samples):
        _, extended, _ = reference_samples
        for t in extended:
            t0 = t.translate(t.words[-1])
            prof = pair_profile(t0)
            got = (prof.n, prof.total, prof.weight_counts, prof.minus, prof.star, prof.plus)
            assert got == ref_pair_profile(t0)

    def test_reducibility_factors(self, reference_samples):
        _, extended, _ = reference_samples
        d2, d4 = constructions.diagonal_unitrade(2), constructions.diagonal_unitrade(4)
        samples = extended + [constructions.concatenate(d4, d4),
                              constructions.concatenate(constructions.concatenate(d2, d4), d2)]
        kinds = []
        for t in samples:
            cert = reducibility_certificate(t)
            kinds.append(cert.kind)
            if cert.kind != "factorization":
                continue
            symbols = {w.symbols for w in t.words}
            for coords, factor in zip(cert.factor_coords, cert.factors):
                assert [w.symbols for w in factor.words] == sorted(
                    {tuple(s[c] for c in coords) for s in symbols})
            left, right = cert.factor_coords
            rebuilt = set()
            for u in cert.factors[0].words:
                for v in cert.factors[1].words:
                    s = [0] * t.space.n
                    for c, x in zip(left + right, u.symbols + v.symbols):
                        s[c] = x
                    rebuilt.add(tuple(s))
            assert rebuilt == symbols
        assert kinds.count("factorization") == 4

    def test_projections_match_symbol_reading(self, reference_samples):
        # seeded random cuts: coordinates with gaps, in any order
        rng = random.Random(34)
        _, extended, others = reference_samples
        codes = [code for code in extended + others if code.space.q == 2]
        codes += [random_code(rng, rng.randrange(1, 11), rng.randrange(1, 30)) for _ in range(40)]
        for code in codes:
            n = code.space.n
            for _ in range(5):
                coords = tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
                for cut in (coords, tuple(sorted(coords))):
                    got = analysis._project(code, cut)
                    assert got.space == Space(len(cut), 2)
                    assert [w.symbols for w in got.words] == binary_projection(code, cut), (code.keys, cut)

    def test_certificates_match_symbol_projection(self, reference_samples, monkeypatch):
        samples = certificate_samples(reference_samples)
        got = [reducibility_certificate(t) for t in samples]
        monkeypatch.setattr(analysis, "_project", lambda t, coords: Code(
            Space(len(coords), 2), [Word.from_symbols(s, 2) for s in binary_projection(t, coords)]))
        assert got == [reducibility_certificate(t) for t in samples]
        assert [cert.kind for cert in got].count("factorization") == 12

    def test_coordinate_components_match_brute_force(self, reference_samples):
        samples = certificate_samples(reference_samples)
        for t in samples:
            assert reducibility_certificate(t).coordinate_components == coordinate_components(t), t.keys
        assert sum(len(coordinate_components(t)) > 1 for t in samples) == 12

    def test_dual_distribution_written_out(self, reference_samples):
        # B'_k = sum_i B_i K_k(i) / |C|, with B from all ordered pairs and
        # K from character sums over the whole space
        rng = random.Random(33)
        codes = [code for group in reference_samples for code in group if code.space.q == 2]
        for _ in range(50):
            code = random_code(rng, rng.randrange(1, 10), rng.randrange(1, 20))
            codes.append(Code(code.space, list(code.words) + list(code.words[:rng.randrange(3)])))
        for code in codes:
            n, b, table = code.space.n, ref_b(code), krawtchouk_table(code.space.n)
            expected = tuple(sum(b[i] * table[k][i] for i in range(n + 1)) / len(code) for k in range(n + 1))
            assert distance_data(code).B_dual == expected

    def test_weight_distribution_space_check(self):
        code = Code.from_strings(["000", "011"], 2)
        with pytest.raises(ValueError):
            weight_distribution(code, Word.from_string("000", 3))
        assert weight_distribution(code, Word(Space(3, 2), 0)) == (1, 0, 1, 0)
