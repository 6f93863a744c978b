"""Every explicit construction, checked against its defining properties."""

import random
import re

import pytest

from hampack import analysis
from hampack import constructions as con
from hampack.analysis import (
    is_bipartite_unitrade,
    is_extended_unitrade,
    is_unitrade,
    verify_packing,
)
from hampack.core import Code, Space, Word, hamming_distance, weight
from hampack.linalg import BinaryMatrix, MixedMatrix, gf2_rank
from oracles import radius1_counts, radius1_coverage


def bword(s: str) -> Word:
    return Word.from_string(s, 2)


class TestEmbeddedData:
    def test_self_checks_pass(self):
        data = con.embedded_data()
        assert len(data.gen1.rows) == 5
        assert len(data.coset_reps_k1) == 6
        assert len(data.coset_reps_k2) == 6
        assert len(data.orbit_seeds) == 6

    def test_matrix_shapes(self):
        data = con.embedded_data()
        assert (data.gen2.binary_cols, data.gen2.quaternary_cols) == (4, 3)
        assert (data.check2.binary_cols, data.check2.quaternary_cols) == (4, 3)
        assert (data.gen3.binary_cols, data.gen3.quaternary_cols) == (2, 4)
        assert (data.check3.binary_cols, data.check3.quaternary_cols) == (2, 4)

    @staticmethod
    def corrupted(**fields) -> con.EmbeddedData:
        data = con.embedded_data()
        values = {name: getattr(data, name) for name in con.EmbeddedData.__annotations__}
        return con.EmbeddedData(**{**values, **fields})

    def test_each_self_check_refuses_its_corruption(self):
        data = con.embedded_data()
        g2, c1 = data.gen2, data.check1
        swapped = MixedMatrix(g2.binary_cols, g2.quaternary_cols, (g2.rows[1], g2.rows[0]) + g2.rows[2:])
        flipped = BinaryMatrix((Word(c1.space, c1.rows[0].key ^ 1),) + c1.rows[1:])
        padded = BinaryMatrix(c1.rows + (c1.space.zero(),))  # still orthogonal, one entry more per column
        for fields, message in (({"gen2": swapped}, "Gray image of 1010|202 is not 0011111100"),
                                ({"check1": flipped}, "generator and check rows not orthogonal"),
                                ({"check1": padded}, "check columns are not a permutation of generator columns")):
            with pytest.raises(RuntimeError, match=f"embedded data corrupt: {message}"):
                con._self_check(self.corrupted(**fields))

    def test_z2z4_pair_refuses_a_module_of_the_wrong_size(self, monkeypatch):
        rows = MixedMatrix.from_strings(["11|2222", "10|0000", "01|0000"])  # the last two span 4 words
        data = self.corrupted(gen3=rows)
        monkeypatch.setattr(con, "embedded_data", lambda: data)
        with pytest.raises(RuntimeError, match="the two-row module must have 16 elements"):
            con.packing96_z2z4()

    def test_duality_of_mixed_matrices(self):
        # inner product 2*(z2 . z2) + (z4 . z4) mod 4 vanishes pairwise
        data = con.embedded_data()
        def dot(u, v):
            return (2 * sum(a * b for a, b in zip(u.z2, v.z2))
                    + sum(a * b for a, b in zip(u.z4, v.z4))) % 4
        for u in data.gen2.rows:
            for v in data.check2.rows:
                assert dot(u, v) == 0
        for u in data.gen3.rows:
            for v in data.check3.rows:
                assert dot(u, v) == 0


class TestMds:
    def test_degenerate_length(self):
        code = con.mds_code(1, 5)
        assert [str(w) for w in code.words] == ["0"]

    def test_pairs(self):
        assert {str(w) for w in con.mds_code(2, 2).words} == {"00", "11"}

    def test_ternary_cube(self):
        code = con.mds_code(3, 3)
        assert len(code) == 9
        assert verify_packing(code, 3, 1).is_lambda_fold

    def test_sizes_min_distance_and_fold(self):
        for n in range(2, 5):
            for q in range(2, 6):
                code = con.mds_code(n, q)
                assert len(code) == q ** (n - 1)
                dmin = min(
                    hamming_distance(a, b)
                    for i, a in enumerate(code.words)
                    for b in code.words[i + 1 : i + 30]
                )
                assert dmin == 2
                assert verify_packing(code, n, 1).is_lambda_fold


class TestHammingCode:
    def test_binary_repetition(self):
        code = con.hamming_code_q(2)
        assert {str(w) for w in code.words} == {"000", "111"}

    def test_ternary_perfect(self):
        code = con.hamming_code_q(3)
        assert len(code) == 9
        report = verify_packing(code, 1, 1)
        assert report.is_lambda_fold and report.max_coverage == 1
        # perfect: 9 words x ball 9 = 81 vertices, covering everything once
        space = code.space
        assert len(code) * space.ball_size(1) == space.size

    def test_prime_restriction(self):
        with pytest.raises(ValueError):
            con.hamming_code_q(4)

    @pytest.mark.parametrize("build", [con.hamming_code_q, lambda q: con.hamming_coset_union(q, 1)],
                             ids=["code", "coset_union"])
    def test_float_order_is_refused(self, build):
        with pytest.raises(ValueError, match="q=3.0"):
            build(3.0)

    def test_coset_union_sizes_and_folds(self):
        for lam in (1, 4, 9):
            union = con.hamming_coset_union(3, lam)
            assert len(union) == lam * 9
            assert verify_packing(union, lam, 1).is_lambda_fold

    def test_full_space_at_lambda_q_squared(self):
        union = con.hamming_coset_union(3, 9)
        assert len(union) == 81 == union.space.size

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            con.hamming_coset_union(3, 10)
        for lam in (0, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="lambda must be a positive int"):
                con.hamming_coset_union(3, lam)

    @pytest.mark.parametrize("q,lams", [(2, range(1, 5)), (3, range(1, 10)), (5, (1, 2, 13, 25))])
    def test_coset_union_covers_every_vertex_lambda_times(self, q, lams):
        for lam in lams:
            union = con.hamming_coset_union(q, lam)
            assert len(union) == lam * q ** (q - 1)
            counts = radius1_coverage(union)
            assert len(counts) == q ** (q + 1) and set(counts.values()) == {lam}, (q, lam)

    @pytest.mark.parametrize("lam", [1, 2])
    def test_coset_union_over_gf7(self, lam):
        # 7^8 vertices are too many to list: sample them
        union = con.hamming_coset_union(7, lam)
        assert len(union) == lam * 7 ** 6
        rng = random.Random(lam)
        vertices = [tuple(rng.randrange(7) for _ in range(8)) for _ in range(300)]
        vertices += [w.symbols for w in union.words[::5000]]  # codewords too
        assert set(radius1_counts(union, vertices)) == {lam}

    def test_repeated_cosets_collapse_to_fewer_folds(self):
        # two representatives of one coset: a union of 2 cosets, a 2-fold
        # packing, which is also a 3-fold one
        reps = [Word.from_symbols(s, 3) for s in ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1))]
        assert reps[1] + con.hamming_code_q(3).words[1] == reps[2]
        with pytest.warns(UserWarning, match="duplicates collapsed"):
            union = con.hamming_coset_union(3, 3, reps)
        assert len(union) == 18 and set(radius1_coverage(union).values()) == {2}

    def test_construction_does_not_check_its_own_output(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the coset union re-verified its own output")

        for name in ("verify_packing", "_coverage_counts_union", "_coverage_counts_full"):
            monkeypatch.setattr(analysis, name, refuse)
        assert len(con.hamming_coset_union(3, 4)) == 36
        assert len(con.hamming_coset_union(5, 2)) == 1250


class TestDiagonal:
    def test_tiny(self):
        assert {str(w) for w in con.diagonal_unitrade(2).words} == {"00", "11"}

    def test_structure(self):
        for n in (4, 6, 8):
            d = con.diagonal_unitrade(n)
            assert len(d) == 1 << (n // 2)
            assert is_extended_unitrade(d).ok
            assert is_bipartite_unitrade(d, extended=True).bipartite

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            con.diagonal_unitrade(5)


class TestLStar:
    def test_sizes(self):
        # |L*(n)| = 2^(n/2-2) (n/2 + 2), checked against direct enumeration
        for n in (6, 8, 10, 12):
            expected = (1 << (n // 2 - 2)) * (n // 2 + 2)
            assert len(con.l_star(n)) == expected

    def test_n6_card_10(self):
        assert len(con.l_star(6)) == 10

    @pytest.mark.parametrize("n", [6.0, True, "6", 5, 4])
    def test_length_must_be_an_even_int_of_at_least_6(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got n={n!r}")):
            con.l_star(n)

    def test_unitrade_and_nonbipartite(self):
        for n in (6, 8, 10):
            t = con.l_star(n)
            assert is_extended_unitrade(t).ok
            assert not is_bipartite_unitrade(t, extended=True).bipartite

    def test_constant_weight_translate(self):
        for n in (6, 8, 10):
            t = con.l_star(n)
            shift = Word.from_string("01" * (n // 2), 2)
            weights = {weight(w + shift) for w in t.words}
            assert weights == {n // 2}

    def test_shift_by_two_invariance(self):
        for n in (6, 8):
            t = con.l_star(n)
            rotated = set()
            for w in t.words:
                k = w.key
                rotated.add(((k << 2) | (k >> (n - 2))) & ((1 << n) - 1))
            assert rotated == {w.key for w in t.words}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            con.l_star(4)
        with pytest.raises(ValueError):
            con.l_star(7)


class TestConcatenate:
    def test_diagonal_product(self):
        d2 = con.diagonal_unitrade(2)
        prod = con.concatenate(d2, d2)
        assert {str(w) for w in prod.words} == {"0000", "0011", "1100", "1111"}

    def test_empty_factor(self):
        empty = Code(Space(4, 2), [])
        assert len(con.concatenate(empty, con.diagonal_unitrade(4))) == 0

    def test_second_nonbipartite_class_of_length8(self):
        two = Code.from_bits(Space(2, 2), [0b10, 0b01])
        t = con.concatenate(con.l_star(6), two)
        assert len(t) == 20
        assert is_extended_unitrade(t).ok
        assert not is_bipartite_unitrade(t, extended=True).bipartite

    def test_unitrade_and_bipartite_iff(self):
        cases = [
            (con.diagonal_unitrade(4), con.diagonal_unitrade(4), True),
            (con.diagonal_unitrade(4), con.l_star(6), False),
            (con.l_star(6), con.l_star(6), False),
        ]
        for left, right, expect_bip in cases:
            prod = con.concatenate(left, right)
            assert is_extended_unitrade(prod).ok
            assert is_bipartite_unitrade(prod, extended=True).bipartite is expect_bip

    def test_rejects_non_unitrades(self):
        with pytest.raises(ValueError):
            con.concatenate(Code.from_strings(["00"], 2), con.diagonal_unitrade(4))


class TestExtendPunctureShorten:
    def test_extend_singleton(self):
        assert [str(w) for w in con.extend_parity(Code.from_strings(["000"], 2)).words] == ["0000"]

    def test_extend_then_puncture_round_trip(self):
        rng = random.Random(30)
        space = Space(6, 2)
        code = Code.from_bits(space, {rng.randrange(64) for _ in range(12)})
        assert con.puncture_last(con.extend_parity(code)) == code

    def test_puncture_96(self, all_pairs):
        for _, c4 in all_pairs.values():
            p = con.puncture_last(c4)
            assert p.space.n == 9 and len(p) == 96
            report = verify_packing(p, 2, 1)
            assert report.is_lambda_fold and not report.duplicate_words
            assert is_unitrade(p).ok

    def test_shorten(self, pair_linear):
        _, c4 = pair_linear
        packing9 = con.puncture_last(c4)
        sizes = []
        for coord in range(9):
            short = con.majority_shorten(packing9, coord)
            assert verify_packing(short, 2, 1).is_lambda_fold
            sizes.append(len(short))
        assert max(sizes) >= 48
        assert 48 in sizes

    def test_shorten_validation(self):
        code = con.diagonal_unitrade(4)
        with pytest.raises(ValueError):
            con.shorten(code, 4, 0)
        with pytest.raises(ValueError):
            con.shorten(code, 0, 2)

    def test_shorten_matches_symbol_definition(self):
        rng = random.Random(50)
        for q in (2, 3, 5):
            for _ in range(15):
                n = rng.randint(2, 6)
                words = [Word.from_symbols([rng.randrange(q) for _ in range(n)], q) for _ in range(rng.randint(1, 12))]
                code = Code(Space(n, q), words + words[:2])
                for coord in range(n):
                    for s in range(q):
                        expect = sorted(w.symbols[:coord] + w.symbols[coord + 1:]
                                        for w in code.words if w.symbols[coord] == s)
                        assert [w.symbols for w in con.shorten(code, coord, s).words] == expect
                    counts = [sum(w.symbols[coord] == s for w in code.words) for s in range(q)]
                    best = counts.index(max(counts))  # ties go to the smaller symbol
                    assert con.majority_shorten(code, coord) == con.shorten(code, coord, best)

    def test_majority_shorten_validation(self):
        code = con.mds_code(3, 3)
        for coord in (3, -1):
            with pytest.raises(ValueError, match="out of range"):
                con.majority_shorten(code, coord)
        with pytest.raises(ValueError, match="empty"):
            con.majority_shorten(Code(Space(3, 3), []), 0)

    def test_shorten_refuses_non_int_coordinates_and_symbols(self):
        code = con.mds_code(3, 3)
        for bad in (1.0, True, False, "1", None):
            with pytest.raises(ValueError, match=f"coordinate {bad!r} out of range"):
                con.shorten(code, bad, 0)
            with pytest.raises(ValueError, match=f"symbol {bad!r} out of range"):
                con.shorten(code, 0, bad)
            with pytest.raises(ValueError, match=f"coordinate {bad!r} out of range"):
                con.majority_shorten(code, bad)

    def test_qary_puncture(self):
        code = con.mds_code(3, 3)
        assert len(con.puncture_last(code).support()) == 9


class TestPacking96Family:
    def test_sizes_and_ranks(self, all_pairs):
        ranks = {}
        for name, (c0, c4) in all_pairs.items():
            assert len(c0) == 32 and len(c4) == 96
            ranks[name] = gf2_rank(c0)
        assert ranks == {"linear": 5, "z2z4": 6, "propelinear": 7}

    def test_unitrade_and_nonbipartite(self, all_pairs):
        for c0, c4 in all_pairs.values():
            assert is_extended_unitrade(c4).ok
            assert not is_bipartite_unitrade(c4, extended=True).bipartite

    def test_parities(self, all_pairs):
        for c0, c4 in all_pairs.values():
            assert {w.parity for w in c0.words} == {0}
            assert {w.parity for w in c4.words} == {1}

    def test_c0_self_complementary(self, all_pairs):
        for c0, _ in all_pairs.values():
            mask = (1 << 10) - 1
            keys = {w.key for w in c0.words}
            assert {k ^ mask for k in keys} == keys

    def test_display_form(self):
        disp = con.classified_C4_display()
        assert len(disp) == 96
        assert is_extended_unitrade(disp).ok

    def test_display_is_equivalent_to_the_linear_unitrade(self, pair_linear):
        # verified, not assumed: the classification display names the same
        # class as the linear construction (and only that one)
        from hampack.search import are_equivalent

        _, c4 = pair_linear
        assert are_equivalent(con.classified_C4_display(), c4)

    def test_forced_profile_of_extremal_48_word_packings(self, pair_linear):
        # shortening the optimal length-9 packing and re-extending gives an
        # even-weight packing meeting the LP bound with equality, so its
        # local weight distribution is forced: A_0=1, A_2=4, A_8=2
        from hampack.analysis import weight_distribution
        from hampack.bounds import forced_distance_profile, lp_bound_even

        _, c4 = pair_linear
        packing9 = con.puncture_last(c4)
        forced = forced_distance_profile(9, 2)
        assert forced == {0: 1, 2: 4, 8: 2}
        for coord in (0, 4, 8):
            ext = con.extend_parity(con.majority_shorten(packing9, coord))
            assert len(ext) == lp_bound_even(9, 2).value == 48
            for x in ext.words:
                a = weight_distribution(ext, x)
                assert {i: a[i] for i in forced} == forced

    def test_z2z4_dual_description_spans_32(self):
        code = con.z2z4_span_code(con.embedded_data().check2)
        assert len(code) == 32 and gf2_rank(code) == 6

    def test_z2z4_dual_description_is_equivalent_to_c0(self, pair_z2z4):
        # the check-matrix-as-generator description lives in permuted
        # coordinates; as codes the two descriptions are equivalent
        from hampack.search import are_equivalent

        c0, _ = pair_z2z4
        assert are_equivalent(con.z2z4_span_code(con.embedded_data().check2), c0)

    def test_constructed_sizes_never_exceed_applicable_bounds(self, all_pairs):
        from hampack.bounds import lp_bound, sphere_packing_bound

        for _, c4 in all_pairs.values():
            p9 = con.puncture_last(c4)
            assert len(p9) <= lp_bound(9, 2).value
            assert len(p9) <= sphere_packing_bound(9, 2, 2, 1)
        for lam in range(1, 10):
            assert len(con.hamming_coset_union(3, lam)) <= sphere_packing_bound(4, 3, lam, 1)
        for n in range(1, 5):
            for q in range(2, 6):
                assert len(con.mds_code(n, q)) <= sphere_packing_bound(n, q, n, 1)
