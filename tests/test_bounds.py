"""Exact bound formulas against pinned values and cross-relations."""

from fractions import Fraction

import pytest

from hampack.analysis import is_bipartite_unitrade
from hampack.bounds import (
    SpectrumBoundInput,
    forced_distance_profile,
    hamming_eigenvalue_bound,
    lp_bound,
    lp_bound_even,
    mds_interval,
    regular_graph_bound,
    sphere_packing_bound,
    unitrade_min_cardinality,
)
from hampack.constructions import diagonal_unitrade, puncture_last
from oracles import even_weight_lp_table, least_plain_unitrades


class TestSpherePacking:
    def test_headline_value(self):
        assert sphere_packing_bound(9, 2, 2, 1) == 102

    def test_radius_zero(self):
        assert sphere_packing_bound(4, 3, 2, 0) == 2 * 81

    def test_ternary(self):
        # floor(2*9/5); brute force confirms the maximum is exactly 3
        assert sphere_packing_bound(2, 3, 2, 1) == 3

    def test_big_integers(self):
        assert sphere_packing_bound(60, 2, 1, 1) == 2**60 // 61

    def test_radius_must_be_an_int(self):
        # the check that Space.ball_size uses, without its length limits
        for r in (1.0, "1", None, True, -1, 61):
            with pytest.raises(ValueError, match="radius must be an int in 0..60"):
                sphere_packing_bound(60, 2, 1, r)


BAD_LAMBDAS = (2.5, 2.0, True, False, "2", None, Fraction(2), 0, -1)


class TestIntegerParameters:
    # one check of lambda (core._check_lambda) for every bound, and int
    # word lengths and alphabet sizes; non-int values used to give float
    # values, bool-as-int values, TypeError or AttributeError
    @pytest.mark.parametrize("lam", BAD_LAMBDAS)
    def test_lambda_must_be_a_positive_int(self, lam):
        for bound, args in ((sphere_packing_bound, (9, 2, lam, 1)), (lp_bound, (9, lam)),
                            (lp_bound_even, (9, lam)), (hamming_eigenvalue_bound, (3, 7, lam)),
                            (SpectrumBoundInput, (4, Fraction(1), lam, 16))):
            with pytest.raises(ValueError, match="lambda must be a positive int"):
                bound(*args)

    @pytest.mark.parametrize("bad", [9.0, 2.5, True, "9", None])
    def test_length_and_alphabet_must_be_ints(self, bad):
        for bound, args in ((sphere_packing_bound, (bad, 2, 2, 1)),
                            (sphere_packing_bound, (9, bad, 2, 1)),
                            (mds_interval, (bad, 7)), (mds_interval, (3, bad)),
                            (hamming_eigenvalue_bound, (bad, 7, 3)),
                            (hamming_eigenvalue_bound, (3, bad, 3)),
                            (lp_bound, (bad, 2)), (lp_bound_even, (bad, 2))):
            with pytest.raises(ValueError):
                bound(*args)

    def test_int_values_unchanged(self):
        value = sphere_packing_bound(9, 2, 2, 1)
        assert value == 102 and type(value) is int
        assert mds_interval(3, 7) == (49, Fraction(3 * 343, 19))
        assert hamming_eigenvalue_bound(3, 7, 3).value == 49

    def test_k2_spectrum_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate spectrum"):
            hamming_eigenvalue_bound(1, 2, 1)


class TestRegularGraphBound:
    def test_alpha_zero_degenerates(self):
        inp = SpectrumBoundInput(10, Fraction(0), 3, 100)
        assert regular_graph_bound(inp) == Fraction(3, 10)

    def test_h36_density(self):
        inp = SpectrumBoundInput(15, Fraction(3), 3, 6**3)
        assert regular_graph_bound(inp) == Fraction(1, 6)

    def test_alpha_at_degree_rejected(self):
        with pytest.raises(ValueError):
            SpectrumBoundInput(10, Fraction(10), 2, 100)

    def test_vacuous_flag(self):
        inp = SpectrumBoundInput(4, Fraction(3), 1, 16)
        assert inp.vacuous
        assert regular_graph_bound(inp) < 0


class TestHammingEigenvalueBound:
    def test_h36(self):
        assert hamming_eigenvalue_bound(3, 6, 3).value == 36

    def test_h24(self):
        assert hamming_eigenvalue_bound(2, 4, 2).value == 4

    def test_q_at_least_2n_gives_mds_value(self):
        for n in range(2, 7):
            for q in range(2 * n, 2 * n + 5):
                assert hamming_eigenvalue_bound(n, q, n).value == q ** (n - 1)

    def test_small_q_flagged(self):
        res = hamming_eigenvalue_bound(9, 2, 2)
        assert any("outside" in a for a in res.assumptions)


class TestMdsInterval:
    def test_values(self):
        assert mds_interval(3, 3) == (9, Fraction(81, 7))
        assert mds_interval(1, 5) == (1, Fraction(1))
        assert mds_interval(2, 2) == (2, Fraction(8, 3))

    def test_interval_is_consistent(self):
        for n in range(1, 8):
            for q in range(2, 9):
                lower, upper = mds_interval(n, q)
                assert lower <= upper


class TestLpBound:
    def test_headline_values(self):
        assert lp_bound(9, 2).value == 96
        assert lp_bound(8, 2).value == 48
        assert lp_bound(7, 1).value == 16

    def test_case_ids(self):
        assert lp_bound(8, 2).formula_id == "lp(a)"
        assert lp_bound(9, 2).formula_id == "lp(b)"
        assert lp_bound(6, 2).formula_id == "lp(c)"
        assert lp_bound(7, 2).formula_id == "lp(d)"

    def test_case_d_is_sphere_packing(self):
        for n in (3, 7, 11, 15):
            for lam in (1, 2, 3):
                assert lp_bound(n, lam).value == sphere_packing_bound(n, 2, lam, 1)

    def test_even_values(self):
        assert lp_bound_even(10, 2).value == 96
        assert lp_bound_even(9, 2).value == 48
        assert lp_bound_even(9, 2).formula_id == "lp_even(a)"
        assert lp_bound_even(8, 1).value == 16
        assert lp_bound_even(8, 1).formula_id == "lp_even(d)"

    def test_even_weight_matches_its_own_table(self):
        # the even-weight bound is the plain table one coordinate longer;
        # the oracle keeps the even-weight table written out in n
        for n in range(3, 201):
            for lam in range(1, 13):
                b = lp_bound_even(n, lam)
                assert (b.value, b.raw, b.formula_id) == even_weight_lp_table(n, lam), (n, lam)

    def test_extension_consistency(self):
        # appending a parity bit preserves the fold, so the plain bound at
        # n must equal the even-weight bound at n+1
        for n in range(2, 26):
            for lam in range(1, 7):
                assert lp_bound(n, lam).value == lp_bound_even(n + 1, lam).value

    def test_sphere_comparison_with_known_exceptions(self):
        # the LP bound is usually at least as strong as sphere packing;
        # the complete list of desk-range exceptions (all with lambda
        # large relative to n) is pinned here
        exceptions = set()
        for n in range(2, 31):
            for lam in range(1, 7):
                if lp_bound(n, lam).value > sphere_packing_bound(n, 2, lam, 1):
                    exceptions.add((n, lam))
        assert exceptions == {(2, 5), (5, 4), (5, 5), (5, 6), (9, 6)}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lp_bound(1, 1)
        with pytest.raises(ValueError):
            lp_bound_even(2, 1)
        with pytest.raises(ValueError):
            lp_bound(5, 0)


class TestUnitradeMinCardinality:
    def test_extended(self):
        assert unitrade_min_cardinality(4, extended=True) == 4
        assert unitrade_min_cardinality(6, extended=True) == 8
        assert unitrade_min_cardinality(10, extended=True) == 32

    def test_plain(self):
        assert unitrade_min_cardinality(9, extended=False) == 32
        for n in (3, 5, 7, 9):  # attained by the punctured diagonal, a bipartite unitrade
            t_set = puncture_last(diagonal_unitrade(n + 1))
            assert len(t_set) == unitrade_min_cardinality(n, extended=False)
            assert is_bipartite_unitrade(t_set, extended=False).bipartite

    @pytest.mark.parametrize("n", [3, 5])
    def test_plain_minimum_by_brute_force(self, n):
        # the least bipartite plain unitrade is no smaller than the least one
        least, least_bipartite = least_plain_unitrades(n)
        assert least == least_bipartite == unitrade_min_cardinality(n, extended=False)

    def test_parity_rejection(self):
        with pytest.raises(ValueError):
            unitrade_min_cardinality(7, extended=True)
        with pytest.raises(ValueError):
            unitrade_min_cardinality(8, extended=False)

    @pytest.mark.parametrize("n, extended", [(0, True), (-2, True), (True, False)])
    def test_length_must_be_a_positive_int(self, n, extended):
        with pytest.raises(ValueError, match=f"n={n!r}"):
            unitrade_min_cardinality(n, extended)


class TestForcedDistanceProfile:
    def test_length10(self):
        assert forced_distance_profile(10, 2) == {0: 1, 2: 5}

    def test_lambda_one(self):
        assert forced_distance_profile(10, 1) == {0: 1, 2: 0}

    def test_case_a_adds_near_full_distance(self):
        assert forced_distance_profile(9, 2) == {0: 1, 2: 4, 8: 2}

    def test_case_d_rejected(self):
        with pytest.raises(ValueError):
            forced_distance_profile(8, 2)
