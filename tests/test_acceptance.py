"""Acceptance suite: the headline claims, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  All arithmetic is exact; tolerances are zero.

The intersection array asserted in criterion 3 is (10,9,4;1,6,10): the
third forward intersection number counts neighbors in the merged
distance-3 cell, i.e. both 96-word cells of the five-cell partition,
2 + 2 = 4 per vertex of the distance-2 cell.
"""

import random
from fractions import Fraction

from hampack import constructions as con
from hampack.analysis import (
    average_distance,
    inner_radius,
    is_antipodal,
    is_bipartite_unitrade,
    is_extended_unitrade,
    oa_strength1_check,
    pair_profile,
    verify_packing,
    weight_distribution,
)
from hampack.bounds import (
    hamming_eigenvalue_bound,
    lp_bound,
    lp_bound_even,
    sphere_packing_bound,
    unitrade_min_cardinality,
)
from hampack.core import Code, Space, Word
from hampack.linalg import gf2_rank
from hampack.partitions import (
    FIVE_CELL_MATRIX,
    FIVE_CELL_SIZES,
    distance_partition,
    split_distance3_cell,
)
from hampack.search import (
    SearchConfig,
    are_equivalent,
    classify_extended_unitrades,
    max_packing_size,
    max_twofold_packing_size,
    min_extended_unitrade_size,
)
from oracles import halved_cube_reading


def test_criterion_01_bounds_table():
    assert sphere_packing_bound(9, 2, 2, 1) == 102
    assert lp_bound(9, 2).value == 96
    assert lp_bound(8, 2).value == 48
    assert lp_bound_even(10, 2).value == 96
    assert lp_bound(7, 1).value == 16


def test_criterion_02_constructions_meet_lp_bound(all_pairs):
    for name, (_, c4) in all_pairs.items():
        assert len(c4) == 96, name
        assert is_extended_unitrade(c4).ok, name
        assert not is_bipartite_unitrade(c4, extended=True).bipartite, name
        packing = con.puncture_last(c4)
        report = verify_packing(packing, 2, 1)
        assert packing.space == Space(9, 2)
        assert report.is_lambda_fold and report.max_coverage == 2, name
        # optimality: the construction meets the LP upper bound exactly
        assert len(packing) == lp_bound(9, 2).value == 96, name


def test_criterion_03_structure(all_pairs):
    ranks = {}
    c4s = {}
    for name, (c0, c4) in all_pairs.items():
        part = distance_partition(c0)
        assert part.completely_regular, name
        assert part.matrix.intersection_array() == ((10, 9, 4), (1, 6, 10)), name
        five = split_distance3_cell(c0, c4)
        assert five.matrix is not None and five.matrix.entries == FIVE_CELL_MATRIX, name
        assert five.cell_sizes == FIVE_CELL_SIZES == (32, 320, 480, 96, 96), name
        ranks[name] = gf2_rank(c0)
        c4s[name] = c4
    assert (ranks["linear"], ranks["z2z4"], ranks["propelinear"]) == (5, 6, 7)
    names = list(c4s)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not are_equivalent(c4s[a], c4s[b]), (a, b)


def test_criterion_04_classification_small_lengths():
    classes6 = classify_extended_unitrades(SearchConfig(n=6, nonbipartite_only=True))
    assert len(classes6) == 1
    assert are_equivalent(classes6[0].representative, con.l_star(6))

    classes8 = classify_extended_unitrades(SearchConfig(n=8, nonbipartite_only=True))
    assert len(classes8) == 2
    two = Code.from_bits(Space(2, 2), [0b01, 0b10])
    expected = [con.concatenate(con.l_star(6), two), con.l_star(8)]
    got = [c.representative for c in classes8]
    assert are_equivalent(got[0], expected[0])
    assert are_equivalent(got[1], expected[1])


def test_criterion_05_min_cardinalities_match_search_oracle():
    for n in (4, 6, 8):
        found = min_extended_unitrade_size(n)
        assert found == 2 ** (n // 2)
        assert found == unitrade_min_cardinality(n, extended=True)


def test_criterion_06_extremal_local_profile(all_pairs):
    for name, (_, c4) in all_pairs.items():
        for x in c4.words:
            a = weight_distribution(c4, x)
            assert a[0] == 1, name
            assert a[2] == 5, name
        punctured = con.puncture_last(c4)
        assert not punctured.duplicate_words(), name


def _unitrade_zoo(all_pairs):
    zoo = [
        con.diagonal_unitrade(4),
        con.diagonal_unitrade(6),
        con.diagonal_unitrade(8),
        con.diagonal_unitrade(10),
        con.l_star(6),
        con.l_star(8),
        con.l_star(10),
        con.concatenate(con.diagonal_unitrade(4), con.diagonal_unitrade(4)),
        con.concatenate(con.l_star(6), con.diagonal_unitrade(2)),
        con.classified_C4_display(),
    ]
    zoo.extend(c4 for _, c4 in all_pairs.values())
    for cfg in (SearchConfig(n=6), SearchConfig(n=8)):
        zoo.extend(cl.representative for cl in classify_extended_unitrades(cfg))
    return zoo


def test_criterion_07_property_suites(all_pairs):
    rng = random.Random(2026)
    for t in _unitrade_zoo(all_pairs):
        n = t.space.n
        # ball intersections in {0, 2}, definitional scan
        assert is_extended_unitrade(t).ok
        # halved-cube characterization agrees for n >= 5
        if n >= 5:
            assert halved_cube_reading(t)
        # strength-1 orthogonal array
        assert oa_strength1_check(t)
        # exact average distance n/2 from 5 random words
        for _ in range(5):
            v = Word(t.space, rng.randrange(1 << n))
            assert average_distance(t, v) == Fraction(n, 2)
        # pair-profile relations after translating zero into the set
        shifted = t.translate(t.words[0])
        prof = pair_profile(shifted)
        for i in range(0, n + 1, 2):
            w_i = prof.weight_counts[i]
            assert 2 * prof.minus[i] + prof.star[i] == i * w_i
            assert prof.star[i] + 2 * prof.plus[i] == (n - i) * w_i
            if i >= 2:
                assert prof.minus[i] == prof.plus[i - 2]
        # inner radius strictly above n/2
        assert 2 * inner_radius(t) > n
        # bipartite implies antipodal
        if is_bipartite_unitrade(t, extended=True).bipartite:
            assert is_antipodal(t)
            assert inner_radius(t) == n
    # concatenation is bipartite exactly when both factors are
    cases = [
        (con.diagonal_unitrade(4), con.diagonal_unitrade(6), True),
        (con.diagonal_unitrade(4), con.l_star(6), False),
        (con.l_star(6), con.l_star(8), False),
    ]
    for left, right, expected in cases:
        prod = con.concatenate(left, right)
        assert is_extended_unitrade(prod).ok
        assert is_bipartite_unitrade(prod, extended=True).bipartite is expected


def test_criterion_08_mds_and_eigenvalue():
    for n in range(1, 5):
        for q in range(2, 6):
            code = con.mds_code(n, q)
            assert len(code) == q ** (n - 1)
            report = verify_packing(code, n, 1)
            assert report.is_lambda_fold, (n, q)
    for n in range(2, 6):
        q = 2 * n
        assert hamming_eigenvalue_bound(n, q, n).value == q ** (n - 1)
    # exhaustive confirmation on H(2,4)
    assert max_packing_size(2, 4, 2, 1) == 4 == hamming_eigenvalue_bound(2, 4, 2).value


def test_criterion_09_hamming_coset_unions():
    for lam in range(1, 10):
        union = con.hamming_coset_union(3, lam)
        assert len(union) == lam * 9
        report = verify_packing(union, lam, 1)
        assert report.is_lambda_fold, lam
        # strictly above the lam q^n / (n q) comparison line
        assert len(union) > Fraction(lam * 81, 4 * 3)


def test_criterion_10_measured_maxima_respect_bounds():
    for n in range(1, 8):
        measured = max_twofold_packing_size(n)
        assert measured <= sphere_packing_bound(n, 2, 2, 1)
        if n >= 2:
            assert measured <= lp_bound(n, 2).value
    assert max_packing_size(2, 3, 2, 1) <= sphere_packing_bound(2, 3, 2, 1)
    assert max_packing_size(2, 4, 2, 1) <= hamming_eigenvalue_bound(2, 4, 2).value
