"""Canonical forms, classification, and the exact search oracles."""

import concurrent.futures
import hashlib
import inspect
import json
import random
import re
import subprocess
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path
from itertools import combinations, permutations, product
from multiprocessing import get_context
from types import SimpleNamespace

import pytest

from hampack import analysis, search
from hampack import constructions as con
from hampack.analysis import (
    _distance_counts,
    is_antipodal,
    is_bipartite_unitrade,
    is_extended_unitrade,
    primary_components,
    reducibility_certificate,
)
from hampack.bounds import lp_bound, sphere_packing_bound
from hampack.core import MAX_Q, Code, Space, Word, ball, weight
from hampack.search import (
    _CHECKPOINT_VERSION,
    _UNITS_PER_THREAD,
    EquivalenceClass,
    SearchConfig,
    _Engine,
    _expand_units,
    _OrbitSieve,
    _canonical_search,
    _column_profile,
    _difference_rank,
    _max_packing_search,
    _node,
    _packing_tables,
    _run_enumeration,
    _search_unit,
    _seed_group,
    _seeded_engine,
    are_equivalent,
    canonical_form,
    classify_extended_unitrades,
    has_constant_weight_translate,
    max_packing_size,
    max_twofold_packing_size,
    min_extended_unitrade_size,
)
from oracles import constant_weight_translate_scan, search_below_seed


def random_isometry(rng, code: Code) -> Code:
    n = code.space.n
    perm = list(range(n))
    rng.shuffle(perm)
    shift = rng.randrange(1 << n)
    keys = []
    for w in code.words:
        k = w.key
        img = 0
        for i in range(n):
            if (k >> (n - 1 - i)) & 1:
                img |= 1 << (n - 1 - perm[i])
        keys.append(img ^ shift)
    return Code.from_bits(code.space, keys)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so that each call's arguments are recorded in
    the returned list, which fills as the wrapper is called."""
    calls = []
    plain = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or plain(*args))
    return calls


def brute_force_form(keys: list[int], n: int) -> list[int]:
    """Lex-min sorted image over all n! * 2^n isometries of H(n, 2)."""
    best = None
    for perm in permutations(range(n)):
        bit_img = [1 << perm[b] for b in range(n)]
        table = [0] * (1 << n)
        for key in range(1, 1 << n):
            low = key & -key
            table[key] = table[key ^ low] | bit_img[low.bit_length() - 1]
        for shift in range(1 << n):
            image = sorted(table[k] ^ shift for k in keys)
            if best is None or image < best:
                best = image
    return best


def span(gens: list[int]) -> set[int]:
    out = {0}
    for g in gens:
        out |= {x ^ g for x in out}
    return out


def oracle_sets() -> list[tuple[list[int], int]]:
    """Seeded random sets (mostly a trivial group) and highly symmetric
    ones (linear spans, coset unions, unitrades): pruning by automorphisms
    acts only on the latter."""
    rng = random.Random(47)
    sets = []
    for n in (3, 4, 5):
        for _ in range(40):
            sets.append((rng.sample(range(1 << n), rng.randrange(1, 1 << (n - 1))), n))
        for _ in range(20):
            lin = span([rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, n - 1))])
            sets.append((sorted(lin), n))
            shifts = rng.sample(range(1 << n), rng.randrange(2, 4))
            sets.append((sorted({x ^ s for x in lin for s in shifts}), n))
    for t in (con.diagonal_unitrade(4), con.l_star(6)):
        sets.append(([w.key for w in t.words], t.space.n))
    return sets


def pair_permutation_tables(n: int) -> list[list[int]]:
    """Reference seed group: a 2^n-entry image table for every permutation
    of the n/2 aligned pairs composed with swaps inside pairs."""
    half = n // 2
    tables = []
    for block_order in permutations(range(half)):
        for flips in product((0, 1), repeat=half):
            perm = [0] * n
            for t in range(half):
                ta, tb = 2 * block_order[t], 2 * block_order[t] + 1
                if flips[t]:
                    ta, tb = tb, ta
                perm[2 * t], perm[2 * t + 1] = ta, tb
            bit_img = [0] * n
            for i in range(n):
                bit_img[n - 1 - i] = 1 << (n - 1 - perm[i])
            table = [0] * (1 << n)
            for key in range(1, 1 << n):
                low = key & -key
                table[key] = table[key ^ low] | bit_img[low.bit_length() - 1]
            tables.append(table)
    return tables


def orbit_minimal(solution: tuple[int, ...], tables: list[list[int]]) -> bool:
    """Is the sorted key list the least of its images under the tables?"""
    sol = list(solution)
    return all(sorted(table[k] for k in sol) >= sol for table in tables)


@lru_cache(maxsize=None)
def oracle_classes(n: int) -> tuple[EquivalenceClass, ...]:
    """Slow oracle: the canonical form of every solution of the plain seeded
    enumeration, with no group filtering, and flags from the public checks."""
    space = Space(n, 2)
    classes = []
    for keys in {_canonical_search(sol, n)[0] for sol in search_below_seed(n)[0]}:
        rep = Code.from_bits(space, keys)
        kind = reducibility_certificate(rep).kind
        classes.append(EquivalenceClass(
            representative=rep,
            cardinality=len(rep),
            bipartite=is_bipartite_unitrade(rep, extended=True).bipartite,
            antipodal=is_antipodal(rep),
            constant_weight_translate=has_constant_weight_translate(rep),
            irreducible=kind == "irreducible",
            reducibility_kind=kind,
        ))
    classes.sort(key=lambda cl: (cl.cardinality, [w.key for w in cl.representative.words]))
    return tuple(classes)


class TestCanonicalForm:
    def test_idempotent(self):
        for t in (con.diagonal_unitrade(6), con.l_star(6), con.l_star(8)):
            c = canonical_form(t)
            assert canonical_form(c) == c

    def test_invariant_under_random_isometries(self, all_pairs):
        rng = random.Random(40)
        cases = [(con.diagonal_unitrade(6), 10), (con.l_star(6), 10)]
        cases += [(t, 1) for pair in all_pairs.values() for t in pair]  # C0 and C4 cells
        for t, images in cases:
            c = canonical_form(t)
            for _ in range(images):
                assert canonical_form(random_isometry(rng, t)) == c

    def test_odd_parity_sets_translate_to_even(self):
        t = con.l_star(6).translate(Word.from_string("100000", 2))
        c = canonical_form(t)
        assert {w.parity for w in c.words} == {0}
        assert c == canonical_form(con.l_star(6))

    def test_canonical_form_is_lex_minimal_orbit_member(self):
        rng = random.Random(41)
        t = con.diagonal_unitrade(4)
        c = canonical_form(t)
        # sampled orbit members never beat the canonical form
        for _ in range(200):
            m = random_isometry(rng, t)
            assert [w.key for w in c.words] <= sorted(w.key for w in m.words)

    def test_empty(self):
        empty = Code(Space(4, 2), [])
        assert canonical_form(empty) == empty

    def test_matches_brute_force_over_all_isometries(self):
        for keys, n in oracle_sets():
            form = canonical_form(Code.from_bits(Space(n, 2), keys))
            assert [w.key for w in form.words] == brute_force_form(keys, n), (n, sorted(keys))

    def test_matches_brute_force_at_length_6(self):
        # all 6! * 2^6 isometries: seeded random sets and symmetric ones
        rng = random.Random(49)
        sets = [rng.sample(range(64), rng.randrange(1, 13)) for _ in range(60)]
        for _ in range(10):
            gens = rng.sample(range(1, 64), 3)
            sets.append(sorted(span(gens)))
            shifts = rng.sample(range(64), rng.randrange(2, 4))
            sets.append(sorted({x ^ t for x in span(gens[:2]) for t in shifts}))
        for t in (con.diagonal_unitrade(6), con.l_star(6)):
            sets.append(list(t.keys))
        for keys in sets:
            form = canonical_form(Code.from_bits(Space(6, 2), keys))
            assert list(form.keys) == brute_force_form(keys, 6), sorted(keys)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_brute_force_on_every_set_of_the_shortest_lengths(self, n):
        # n = 1 leaves the low half-word table a single entry
        for size in range(1, (1 << n) + 1):
            for keys in combinations(range(1 << n), size):
                form = canonical_form(Code.from_bits(Space(n, 2), keys))
                assert list(form.keys) == brute_force_form(list(keys), n), keys

    @pytest.mark.slow
    def test_matches_brute_force_at_length_7(self):
        # all 7! * 2^7 isometries: seeded random sets and one linear span
        rng = random.Random(53)
        sets = [rng.sample(range(128), rng.randrange(5, 11)) for _ in range(3)]
        sets.append(sorted(span(rng.sample(range(1, 128), 3))))
        for keys in sets:
            form = canonical_form(Code.from_bits(Space(7, 2), keys))
            assert list(form.keys) == brute_force_form(keys, 7), sorted(keys)

    @pytest.mark.parametrize("n", [7, 9, 11, 12])
    def test_invariant_under_random_isometries_at_unequal_and_wide_halves(self, n):
        # odd n splits a key into halves of unequal width
        rng = random.Random(54 + n)
        sets = [rng.sample(range(1 << n), rng.randrange(2, 25)) for _ in range(6)]
        gens = rng.sample(range(1, 1 << n), 4)
        sets.append(sorted(span(gens)))
        shifts = rng.sample(range(1 << n), 3)
        sets.append(sorted({x ^ s for x in span(gens[:3]) for s in shifts}))
        for keys in sets:
            code = Code.from_bits(Space(n, 2), keys)
            form = canonical_form(code)
            assert form.keys[0] == 0 and list(form.keys) <= sorted(code.keys)
            for _ in range(3):
                assert canonical_form(random_isometry(rng, code)) == form, sorted(keys)

    def test_translates_searched(self, pair_linear):
        # automorphisms found in the first two translates join every word
        # of the linear C4 cell and of its C0 code into one orbit
        c0, c4 = pair_linear
        for t, searched in ((c4, 2), (c0, 2)):
            form, count = _canonical_search(sorted(w.key for w in t.words), 10)
            assert count == searched
            assert 8 * count <= len(t)
            assert list(form) == [w.key for w in canonical_form(t).words]

    def test_leaves_per_form(self, pair_linear, monkeypatch):
        # each leaf builds the two half-word tables of its permutation once,
        # so the table builds pin the leaves of the search tree
        c0, c4 = pair_linear
        classes = [cl.representative for cl in classify_extended_unitrades(SearchConfig(n=8))]
        cases = [(c4, 22), (c0, 721), (con.l_star(10), 33)]
        cases += zip(classes, (25, 18, 41, 18, 25, 386, 37, 25), strict=True)
        tables = count_calls(monkeypatch, search, "_bit_lookup")
        for t, leaves in cases:
            tables.clear()
            _canonical_search(t.keys, t.space.n)
            assert len(tables) == 2 * leaves, len(t)

    def test_hint_returns_the_plain_form(self):
        # every equal-size pair of the oracle sets and their images, both
        # orders: the other set's form as a hint never changes the answer
        rng = random.Random(42)
        buckets: dict[tuple[int, int], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for keys, n in oracle_sets():
            code = Code.from_bits(Space(n, 2), keys)
            for t in (code, random_isometry(rng, code)):
                buckets.setdefault((n, len(t)), []).append((t.keys, _canonical_search(t.keys, n)[0]))
        pairs = met = 0
        for (n, _), bucket in buckets.items():
            for (keys, form), (_, target) in permutations(bucket, 2):
                assert _canonical_search(keys, n, target)[0] == form, (keys, target)
                pairs += 1
                met += form == target
        assert pairs > 4000 and 600 < met < pairs

    def test_hint_of_another_c4_cell_searches_the_plain_translates(self, all_pairs):
        # every translate of a C4 cell has one weight profile, so the hint
        # keeps the plain translate order, and an inequivalent cell's form
        # is never met: the hinted search is the plain one, step by step
        rng = random.Random(48)
        cells = [c4 for _, c4 in all_pairs.values()]
        forms = [canonical_form(t).keys for t in cells]
        for t in cells:
            assert len({tuple(sorted((k ^ x).bit_count() for k in t.keys)) for x in t.keys}) == 1
        for (a, _), (_, target) in permutations(zip(cells, forms), 2):
            for _ in range(2):
                image = random_isometry(rng, a).keys
                assert _canonical_search(image, 10, target) == _canonical_search(image, 10)

    @pytest.mark.parametrize("name, plain", [("linear_c4", 2), ("l_star_10", 2)])
    def test_same_class_hint_stops_after_one_translate(self, pair_linear, name, plain):
        t = pair_linear[1] if name == "linear_c4" else con.l_star(10)
        image = random_isometry(random.Random(50), t).keys
        form = canonical_form(t).keys
        assert _canonical_search(image, 10) == (form, plain)
        assert _canonical_search(image, 10, form) == (form, 1)


    def test_deep_tree_needs_no_recursion(self):
        # twin columns 0 and 1 never split, so every node of the tree has
        # one child per remaining word: the depth is the size of the set
        space = Space(6, 2)
        twins = Code.from_bits(space, [k for k in range(64) if k >> 5 == k >> 4 & 1])
        assert len(twins) == 32
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 16)
        try:
            form, count = _canonical_search(twins.keys, 6)
        finally:
            sys.setrecursionlimit(limit)
        assert canonical_form(twins) == Code.from_bits(space, form)
        assert form == tuple(sorted(form)) and form[0] == 0


class TestAreEquivalent:
    def test_translation_invariance(self):
        t = con.l_star(8)
        assert are_equivalent(t, t.translate(Word.from_string("11000000", 2)))

    def test_inequivalent_lengths_raise(self):
        with pytest.raises(ValueError):
            are_equivalent(con.l_star(6), con.l_star(8))

    def test_size_shortcut(self):
        assert not are_equivalent(con.diagonal_unitrade(6), con.l_star(6))

    def test_non_binary_sets_raise(self):
        ternary = Code.from_strings(["000", "111", "222"], 3)
        shifted = Code.from_strings(["001", "112", "220"], 3)
        with pytest.raises(ValueError):
            are_equivalent(ternary, shifted)
        binary = Code.from_strings(["000", "011", "101"], 2)
        with pytest.raises(ValueError):
            are_equivalent(ternary, binary)
        with pytest.raises(ValueError):
            are_equivalent(binary, ternary)

    def test_repeated_words_raise_before_any_invariant(self):
        # a cheaper invariant must not decide for a set outside the domain
        repeated = Code.from_strings(["0000", "0000", "1100"], 2)
        others = [Code.from_strings(words, 2) for words in (
            ["0000", "1111", "1100"],  # same size, other distance profile
            ["0011", "0011", "1111"],  # same profile, also repeated
            ["0000", "1100"],  # other size
        )]
        for other in others:
            for a, b in ((repeated, other), (other, repeated)):
                with pytest.raises(ValueError, match="multiplicity-free"):
                    are_equivalent(a, b)

    def test_matches_brute_force_forms(self):
        # every equal-size pair of the oracle sets and their images
        rng = random.Random(43)
        items: dict[tuple[int, int], list[tuple[Code, list[int]]]] = {}
        for keys, n in oracle_sets():
            code = Code.from_bits(Space(n, 2), keys)
            form = brute_force_form(keys, n)
            items.setdefault((n, len(code)), []).extend(
                [(code, form), (random_isometry(rng, code), form)])
        pairs = equivalent = 0
        same_profile_split = {True: 0, False: 0}  # inequivalent, profiles equal: by rank?
        for bucket in items.values():
            for (a, form_a), (b, form_b) in combinations(bucket, 2):
                assert are_equivalent(a, b) == (form_a == form_b), (a.keys, b.keys)
                pairs += 1
                equivalent += form_a == form_b
                if form_a != form_b and _distance_counts(a.space, a.keys) == _distance_counts(b.space, b.keys):
                    n = a.space.n
                    same_profile_split[_difference_rank(a.keys, n) != _difference_rank(b.keys, n)] += 1
        assert pairs > 2000 and 300 < equivalent < pairs
        assert min(same_profile_split.values()) > 0

    def test_difference_rank_is_an_isometry_invariant(self, all_pairs):
        rng = random.Random(44)
        cases = [con.diagonal_unitrade(6), con.l_star(6)]
        cases += [t for pair in all_pairs.values() for t in pair]  # C0 and C4 cells
        cases += [c.representative for c in classify_extended_unitrades(SearchConfig(n=8))]
        for t in cases:
            rank = _difference_rank(t.keys, t.space.n)
            assert 2 ** rank == len(span([k ^ t.keys[0] for k in t.keys]))
            for _ in range(5):
                assert _difference_rank(random_isometry(rng, t).keys, t.space.n) == rank
        assert [_difference_rank(c0.keys, c0.space.n) for c0, _ in all_pairs.values()] == [5, 6, 7]

    def test_rank_rejects_before_canonical_search(self, all_pairs, monkeypatch):
        # the three 32-word classes of length 8, and the three C0 codes,
        # agree in size and distance profile and differ in rank, which is
        # checked first: no pair runs a pair pass
        rng = random.Random(45)
        classes = classify_extended_unitrades(SearchConfig(n=8))
        for family in ([c.representative for c in classes if c.cardinality == 32],
                       [c0 for c0, _ in all_pairs.values()]):
            images = [random_isometry(rng, t) for t in family]
            assert len(images) == 3
            assert len({tuple(_distance_counts(t.space, t.keys)) for t in images}) == 1
            assert len({_difference_rank(t.keys, t.space.n) for t in images}) == 3
            assert len({tuple(_column_profile(t.keys, t.space.n)) for t in images}) == 1
            searches = count_calls(monkeypatch, search, "_canonical_search")
            passes = count_calls(monkeypatch, analysis, "_pair_pass")
            search._invariants.cache_clear()
            for a, b in permutations(images, 2):
                assert not are_equivalent(a, b)
            assert searches == passes == []
            monkeypatch.undo()

    def test_profile_rejects_equal_ranks_before_canonical_search(self, pair_linear, monkeypatch):
        # the rank-5 C0 code and the diagonal unitrade of length 10 agree in
        # size, column weights and rank; only the distance profile tells them apart
        rng = random.Random(57)
        a, b = (random_isometry(rng, t) for t in (pair_linear[0], con.diagonal_unitrade(10)))
        assert len(a) == len(b) == 32
        assert _column_profile(a.keys, 10) == _column_profile(b.keys, 10)
        assert _difference_rank(a.keys, 10) == _difference_rank(b.keys, 10) == 5
        search._invariants.cache_clear()
        searches = count_calls(monkeypatch, search, "_canonical_search")
        passes = count_calls(monkeypatch, analysis, "_pair_pass")
        for x, y in ((a, b), (b, a)):
            assert not are_equivalent(x, y)
        assert searches == [] and len(passes) == 2

    def test_cached_repeat_runs_no_rank_elimination(self, monkeypatch):
        calls = []
        rank = search.gf2_rank
        monkeypatch.setattr(search, "gf2_rank", lambda code: calls.append(code) or rank(code))
        search._invariants.cache_clear()
        t = con.l_star(8)
        image = random_isometry(random.Random(46), t)
        assert are_equivalent(t, image)
        assert len(calls) == 2
        for a, b in ((t, image), (image, t)):
            assert are_equivalent(a, b)
        assert len(calls) == 2

    def test_reversed_pair_runs_no_search(self, monkeypatch):
        t = con.l_star(8)
        image = random_isometry(random.Random(51), t)
        form = canonical_form(t).keys
        calls = []
        plain = search._canonical_search
        monkeypatch.setattr(search, "_canonical_search",
                            lambda keys, n, target=None: calls.append(target) or plain(keys, n, target))
        search._invariants.cache_clear()
        assert are_equivalent(t, image)
        assert calls == [None, form]  # the second search is hinted with the first form
        assert are_equivalent(image, t)
        assert len(calls) == 2

    def test_column_profile_is_an_isometry_invariant(self, all_pairs):
        rng = random.Random(52)
        cases = [Code.from_bits(Space(n, 2), keys) for keys, n in oracle_sets()]
        cases += [t for pair in all_pairs.values() for t in pair]  # C0 and C4 cells
        cases += [c.representative for c in classify_extended_unitrades(SearchConfig(n=8))]
        for t in cases:
            profile = _column_profile(t.keys, t.space.n)
            for _ in range(3):
                assert _column_profile(random_isometry(rng, t).keys, t.space.n) == profile

    def test_one_step_moves_change_the_column_profile(self):
        # the moved word's coordinate count goes up or down by one, and for
        # an even size that always changes its min with the complement count
        moves = 0
        for keys, n in oracle_sets():
            if len(keys) % 2:
                continue
            profile = _column_profile(keys, n)
            for i, k in enumerate(keys):
                for b in range(n):
                    assert _column_profile(keys[:i] + [k ^ 1 << b] + keys[i + 1:], n) != profile
                    moves += 1
        assert moves > 3000

    def test_near_miss_leaves_the_record_cache_untouched(self, monkeypatch):
        t = con.l_star(8)
        keys = list(random_isometry(random.Random(53), t).keys)
        keys[0] ^= next(1 << b for b in range(8) if keys[0] ^ 1 << b not in keys)
        near = Code.from_bits(t.space, keys)
        passes = count_calls(monkeypatch, analysis, "_pair_pass")
        before = search._invariants.cache_info()
        for a, b in ((t, near), (near, t)):
            assert not are_equivalent(a, b)
        assert search._invariants.cache_info() == before
        assert passes == []

    def test_repeated_pair_computes_nothing_again(self, monkeypatch):
        # an equivalent pair, and an inequivalent one that the rank rejects
        rng = random.Random(54)
        t = con.l_star(8)
        k32 = [c.representative for c in classify_extended_unitrades(SearchConfig(n=8))
               if c.cardinality == 32]
        pairs = [(t, random_isometry(rng, t)), (random_isometry(rng, k32[0]), random_isometry(rng, k32[1]))]
        search._invariants.cache_clear()
        assert [are_equivalent(a, b) for a, b in pairs] == [True, False]
        passes = count_calls(monkeypatch, analysis, "_pair_pass")
        ranks = count_calls(monkeypatch, search, "gf2_rank")
        searches = count_calls(monkeypatch, search, "_canonical_search")
        for a, b in pairs:
            assert [are_equivalent(a, b), are_equivalent(b, a)] == [a is t] * 2
        assert passes == ranks == searches == []

    def test_forms_after_a_pair_run_no_search(self, monkeypatch):
        # the second set of the pair in key order is searched with the
        # first set's form as a hint; its exact form is kept all the same
        for t in (con.l_star(8), con.l_star(10)):
            image = random_isometry(random.Random(55), t)
            form = _canonical_search(t.keys, t.space.n)[0]
            search._invariants.cache_clear()
            searches = count_calls(monkeypatch, search, "_canonical_search")
            assert are_equivalent(t, image)
            assert [target for _, _, target in searches] == [None, form]
            assert canonical_form(image).keys == canonical_form(t).keys == form
            assert len(searches) == 2
            monkeypatch.undo()


class TestClassifySmall:
    def test_n6_complete(self):
        classes = classify_extended_unitrades(SearchConfig(n=6))
        assert len(classes) == 2
        assert [c.cardinality for c in classes] == [8, 10]
        diag, lstar = classes
        assert diag.bipartite and diag.antipodal
        assert not lstar.bipartite
        assert are_equivalent(lstar.representative, con.l_star(6))
        assert are_equivalent(diag.representative, con.diagonal_unitrade(6))

    def test_n6_nonbipartite_only(self):
        classes = classify_extended_unitrades(SearchConfig(n=6, nonbipartite_only=True))
        assert len(classes) == 1
        assert classes[0].cardinality == 10

    def test_n4(self):
        classes = classify_extended_unitrades(SearchConfig(n=4))
        assert [c.cardinality for c in classes] == [4]
        assert classes[0].bipartite

    def test_n8_nonbipartite_identities(self):
        classes = classify_extended_unitrades(SearchConfig(n=8, nonbipartite_only=True))
        assert [c.cardinality for c in classes] == [20, 24]
        two = Code.from_bits(Space(2, 2), [0b01, 0b10])
        concat = con.concatenate(con.l_star(6), two)
        assert are_equivalent(classes[0].representative, concat)
        assert are_equivalent(classes[1].representative, con.l_star(8))
        assert classes[0].reducibility_kind == "factorization"
        assert classes[1].irreducible

    def test_n8_total_count_regression(self):
        classes = classify_extended_unitrades(SearchConfig(n=8))
        assert len(classes) == 8
        assert [c.cardinality for c in classes] == [16, 20, 24, 24, 28, 32, 32, 32]

    def test_representatives_are_pairwise_inequivalent_and_valid(self):
        classes = classify_extended_unitrades(SearchConfig(n=6))
        for i, a in enumerate(classes):
            assert is_extended_unitrade(a.representative).ok
            assert a.representative == canonical_form(a.representative)
            for b in classes[i + 1:]:
                if a.cardinality == b.cardinality:
                    assert not are_equivalent(a.representative, b.representative)

    def test_flags_reproducible_from_representative(self):
        from hampack.analysis import is_antipodal, is_bipartite_unitrade

        for cl in classify_extended_unitrades(SearchConfig(n=8)):
            rep = cl.representative
            assert cl.bipartite == is_bipartite_unitrade(rep, extended=True).bipartite
            assert cl.antipodal == is_antipodal(rep)
            assert cl.constant_weight_translate == has_constant_weight_translate(rep)

    def test_constant_weight_translate_is_binary_only(self):
        assert has_constant_weight_translate(con.l_star(6))
        with pytest.raises(ValueError, match="defined for q=2 only"):
            has_constant_weight_translate(con.mds_code(3, 3))

    def test_constant_weight_translate_matches_the_full_scan(self):
        # random sets with constant columns: the scan over the varying
        # coordinates answers as the scan over the whole space does
        rng = random.Random(56)
        answers = {True: 0, False: 0}
        for n in range(1, 13):
            for _ in range(30):
                varying = rng.sample(range(n), rng.randrange(1, n + 1))
                base = rng.randrange(1 << n)
                keys = {base ^ sum(rng.randrange(2) << b for b in varying)
                        for _ in range(rng.randrange(1, 8))}
                code = Code.from_bits(Space(n, 2), sorted(keys))
                answer = has_constant_weight_translate(code)
                assert answer == constant_weight_translate_scan(code), (n, sorted(keys))
                answers[answer] += 1
        assert min(answers.values()) > 20

    def test_constant_weight_translate_scans_the_varying_coordinates(self):
        # {0, 1, 3} varies on 2 of 40 coordinates: 4 words are tried, not 2^40
        assert not has_constant_weight_translate(Code.from_bits(Space(40, 2), [0, 1, 3]))
        assert has_constant_weight_translate(Code.from_bits(Space(40, 2), [0, 3 << 20]))
        with pytest.raises(ValueError, match="varies on 25 coordinates"):
            has_constant_weight_translate(Code.from_bits(Space(40, 2), [0, (1 << 25) - 1]))

    def test_max_cardinality_filter(self):
        classes = classify_extended_unitrades(SearchConfig(n=8, max_cardinality=24))
        assert all(c.cardinality <= 24 for c in classes)
        assert [c.cardinality for c in classes] == [16, 20, 24, 24]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=7)
        with pytest.raises(ValueError):
            SearchConfig(n=14)
        for threads in (0, -1, 2.5, "2", True):
            with pytest.raises(ValueError):
                SearchConfig(n=6, threads=threads)
        for card in (-3, 0, 2.5, True):
            with pytest.raises(ValueError):
                SearchConfig(n=6, max_cardinality=card)
        for n in (6.0, "6", True):
            with pytest.raises(ValueError):
                SearchConfig(n=n)

    def test_filter_flags_must_be_bools(self):
        # a truthy non-bool would switch its filter on and reach the checkpoint header
        for flag in ("nonbipartite_only", "antipodal_only"):
            for value in ("no", 0.0, 1, None):
                with pytest.raises(ValueError, match="must be bools"):
                    SearchConfig(n=8, **{flag: value})
        assert SearchConfig(n=8, antipodal_only=True).filter_key()["antipodal_only"] is True

    def test_non_unitrade_representative_is_an_assertion(self, monkeypatch):
        # {0000, 0011} meets the ball around 0100 once: the certificate's
        # checking walk refuses it, and the guard reports a defect
        monkeypatch.setattr(search, "_canonical_search", lambda keys, n: ((0b0000, 0b0011), 1))
        with pytest.raises(AssertionError, match="non-unitrade representative"):
            classify_extended_unitrades(SearchConfig(n=4))

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("antipodal", [False, True])
    def test_max_cardinality_matches_filtered_full_classification(self, n, antipodal):
        # the touched-clique bound cuts only branches above the cap
        full = classify_extended_unitrades(SearchConfig(n=n, antipodal_only=antipodal))
        for cap in (8, 12, 16, 20, 24, 28):
            capped = classify_extended_unitrades(
                SearchConfig(n=n, antipodal_only=antipodal, max_cardinality=cap)
            )
            assert capped == [c for c in full if c.cardinality <= cap], (n, antipodal, cap)

    def test_search_nodes_with_cardinality_cap(self):
        # without the touched-clique bound this run visited 501 nodes
        out, nodes = search_below_seed(8, max_cardinality=16)
        assert {len(t) for t in out} == {16}
        assert nodes == 321 and nodes < 501
        # without a cap nothing is cut
        assert search_below_seed(8)[1] == 718

    @pytest.mark.parametrize("kw,count,nodes,digest", [
        ({}, 218, 718, "c79ea78f9f1e0b21"),
        ({"max_cardinality": 16}, 1, 321, "77bb6d506b46078d"),
        ({"antipodal_only": True}, 58, 102, "5b8f69d92492b13e"),
    ])
    def test_solution_order(self, kw, count, nodes, digest):
        # a digest of the solution list pins the order in which the DFS
        # visits its nodes, not only what it finds
        solutions, visited = search_below_seed(8, **kw)
        assert (len(solutions), visited) == (count, nodes)
        assert hashlib.sha256(repr(solutions).encode()).hexdigest()[:16] == digest

    def test_search_leaves_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the search changed the process-wide recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert search_below_seed(8)[1] == 718
        assert min_extended_unitrade_size(8) == 16

    def test_unit_rejection_work_counts(self):
        # one plain search below the seed visits 718, 321 and 102 nodes.  The
        # split walks the search's own node, which never emits a child whose
        # OUT prefix contradicts the state, and lists in the OUT prefix only
        # the words it sets itself: the antipodal split, where setting a word
        # OUT sets its complement OUT too, kept 15 such dead units before
        # (26 units, 5 rejected, 18 searched in 18 nodes)
        for kw, counts in (
            ({}, {"units": 20, "rejected": 6, "searched": 9, "nodes": 141}),
            ({"max_cardinality": 16}, {"units": 20, "rejected": 6, "searched": 9, "nodes": 54}),
            ({"antipodal_only": True}, {"units": 24, "rejected": 6, "searched": 8, "nodes": 8}),
        ):
            assert _run_enumeration(SearchConfig(n=8, **kw))[1] == counts, kw


def engine_fields(engine: _Engine) -> tuple:
    """An independent copy of every field that a mark covers."""
    return (bytearray(engine.status), bytearray(engine.cin), bytearray(engine.cund),
            engine.in_count, engine.touched, list(engine.fronts))


def check_engine_state(engine: _Engine) -> None:
    """The counters recomputed from the word statuses, and the fixpoint of
    the propagation rules, after a successful assign."""
    status = engine.status
    cin = [sum(status[m] == _Engine.IN for m in ms) for ms in engine.clique_members]
    cund = [sum(status[m] == _Engine.UNDECIDED for m in ms) for ms in engine.clique_members]
    assert list(engine.cin) == cin
    assert list(engine.cund) == cund
    assert engine.in_count == status.count(_Engine.IN)
    assert engine.touched == sum(1 for c in cin if c)
    for c_in, c_und in zip(cin, cund):
        assert (c_in, c_und) == (2, 0) or (c_in < 2 and c_und != 1 and (c_in, c_und) != (1, 0))
    # pick_front sees every clique with one chosen word and open candidates
    assert {ci for ci, (c_in, c_und) in enumerate(zip(cin, cund))
            if c_in == 1 and c_und} <= set(engine.fronts)
    if engine.antipodal_only:
        assert all(status[i] == status[j] for i, j in enumerate(engine.complement))
    if engine.max_cardinality is not None:
        assert engine.in_count <= engine.max_cardinality


MARK_FIELDS = ("status", "cin", "cund", "in_count", "touched", "fronts")
ENGINE_KINDS = {"plain": {}, "antipodal": {"antipodal_only": True}, "capped": {"max_cardinality": 16}}


class TestEngine:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_assign_mark_undo_against_recomputed_state(self, n, kind):
        # a cap of n words binds within these random sequences, 16 does not
        kw = {"max_cardinality": n} if kind == "capped" else ENGINE_KINDS[kind]
        rng = random.Random(f"{n}-{kind}")
        engine = _Engine(n, **kw)
        marks = [(engine.mark(), engine_fields(engine))]
        failed = restored = 0
        for _ in range(400):
            step = rng.random()
            if step < 0.2:
                marks.append((engine.mark(), engine_fields(engine)))
                continue
            undecided = engine.undecided_indices()
            if step < 0.35 or not undecided:
                mark, fields = rng.choice(marks)  # any mark, not only the last
                engine.undo(mark)
                assert engine_fields(engine) == fields
                restored += 1
                continue
            word = rng.choice(undecided) if rng.random() < 0.9 else rng.randrange(len(engine.status))
            if engine.assign(word, rng.choice((_Engine.IN, _Engine.OUT))):
                check_engine_state(engine)
            else:
                failed += 1
                mark, fields = rng.choice(marks)
                engine.undo(mark)
                assert engine_fields(engine) == fields
        assert failed and restored

    @pytest.mark.parametrize("n,kind", [(n, kind) for n in (6, 8) for kind in ENGINE_KINDS]
                             + [(10, "antipodal")])
    def test_units_resume_like_a_replay_from_the_seed(self, n, kind):
        kw = ENGINE_KINDS[kind]
        # a unit's mark is the state that replaying its decisions from the
        # seed reaches, and a unit search starts from that mark alone.
        # Smaller splits leave units at n = 6, where the default target
        # splits the whole tree; a target of 1 keeps the seed itself
        checked = 0
        for target in (1, 2, _UNITS_PER_THREAD):
            engine = _seeded_engine(n, **kw)
            units = _expand_units(engine, target)[0]
            for unit in units:
                fresh = _Engine(n, **kw)
                replay = [*fresh.seed_decisions(), *unit.decisions]
                assert all(fresh.assign(idx, val) for idx, val in replay)
                for field, replayed, stored in zip(MARK_FIELDS, fresh.mark(), unit.start,
                                                   strict=True):
                    assert replayed == stored, (target, unit.decisions, field)
                checked += 1
        assert checked

    def test_node_yields_the_decisions_that_reach_each_child(self):
        # a DFS below each unit that keeps each child's decisions from the
        # seed, as the split does.  No child below the seed has an OUT prefix
        # at n <= 8; below the n = 10 antipodal units 52 do, and replaying
        # one reaches the child's state
        kw = {"antipodal_only": True}
        engine = _seeded_engine(10, **kw)
        checked = 0
        for unit in _expand_units(engine, _UNITS_PER_THREAD)[0]:
            engine.undo(unit.start)
            # a node and the length of the decisions that reach it
            stack, decisions = [(_node(engine, []), len(unit.decisions))], list(unit.decisions)
            while stack:
                node, depth = stack[-1]
                child = next(node, None)
                if child is None:
                    stack.pop()
                    continue
                w, outs = child
                del decisions[depth:]
                decisions += [(u, _Engine.OUT) for u in outs] + [(w, _Engine.IN)]
                if outs:
                    fresh = _seeded_engine(10, **kw)
                    assert all(fresh.assign(idx, val) for idx, val in decisions)
                    assert fresh.mark() == engine.mark()
                    checked += 1
                stack.append((_node(engine, []), len(decisions)))
        assert checked == 52

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_split_keeps_every_class(self, n, kind):
        # oracle: the classes of one search below the seed, whatever the
        # split target (1 keeps the seed itself as the one unit; 64 splits
        # each of these trees to the leaves, leaving no unit)
        kw = ENGINE_KINDS[kind]
        form = lru_cache(maxsize=None)(lambda sol: _canonical_search(sol, n)[0])
        expected = set(map(form, search_below_seed(n, **kw)[0]))
        for target in (1, 2, 8, 32, 64):
            engine = _seeded_engine(n, **kw)
            units, found, _ = _expand_units(engine, target)
            for unit in units:
                found += _search_unit(n, engine.antipodal_only, engine.max_cardinality,
                                      unit.start)[0]
            assert set(map(form, found)) == expected, target


class TestSeedGroup:
    def test_order(self):
        for n, order in ((4, 8), (6, 48), (8, 384), (10, 3840)):
            group = _seed_group(n)
            assert len(group.tables) * len(group.swaps) == order

    @pytest.mark.parametrize("n,sizes", [(4, (2,)), (4, (3,)), (4, (4,)), (6, (2,)), (6, (1, 1))])
    def test_sieve_passes_one_item_per_orbit(self, n, sizes):
        # every item of the given part sizes, against the orbits of the
        # full image tables of the pair permutations
        tables = pair_permutation_tables(n)
        sieve = _OrbitSieve(n)
        seen = set()
        for parts in product(*(combinations(range(1 << n), size) for size in sizes)):
            least = min(tuple(tuple(sorted(t[k] for k in part)) for part in parts) for t in tables)
            assert sieve.is_new(parts) == (least not in seen), parts
            seen.add(least)

    def test_sieve_matches_orbit_minimal_filter(self):
        tables = pair_permutation_tables(8)
        solutions = search_below_seed(8)[0]
        sieve = _OrbitSieve(8)
        kept = [s for s in solutions if sieve.is_new((s,))]
        assert len(kept) == sum(orbit_minimal(s, tables) for s in solutions) == 9


class TestClassificationOracle:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_plain_enumeration(self, n):
        assert len(oracle_classes(n)) == {4: 1, 6: 2, 8: 8}[n]
        for nonbipartite, antipodal, cap in product((False, True), (False, True),
                                                    (None, 8, 12, 16, 20, 24, 28)):
            expected = [
                c for c in oracle_classes(n)
                if not (nonbipartite and c.bipartite) and (c.antipodal or not antipodal)
                and (cap is None or c.cardinality <= cap)
            ]
            got = classify_extended_unitrades(SearchConfig(
                n=n, nonbipartite_only=nonbipartite, antipodal_only=antipodal, max_cardinality=cap))
            assert got == expected, (n, nonbipartite, antipodal, cap)


DIAGONAL_8 = list(con.diagonal_unitrade(8).keys)  # an extended unitrade
# journal lines that break one rule each, for the n = 8 split into 9 units
BAD_LINES = {
    "list": '[["0", []]]',
    "string-solutions": '[0, "abc"]',
    "string-solution": '[0, ["abc"]]',
    "not-a-unitrade": '[0, [[0, 3, 5]]]',
    "index-past-units": '[9, []]',
    "negative-index": '[-1, []]',
    "padded-index": '[00, []]',
    "empty-solution": '[0, [[]]]',
    "float-key": '[0, [[0, 3.0, 5]]]',
    "bool-key": '[0, [[false, 3, 5]]]',
    "decreasing": json.dumps([3, [DIAGONAL_8[::-1]]]),
    "odd-weight": json.dumps([3, [[k ^ 1 for k in DIAGONAL_8]]]),
    "key-past-2^n": json.dumps([3, [DIAGONAL_8[:-1] + [DIAGONAL_8[-1] | 3 << 8]]]),
    "string-index": '["0", []]',
    "bool-index": '[true, []]',
    "float-index": '[1.0, []]',
    "object": '{"0": []}',
    "bare-index": '[0]',
    "three-items": '[0, [], []]',
    "null": 'null',
    "unclosed": '[0, [',
    "blank": '',
    "repeated-unit": '[0, []]\n[0, []]',
}


def journal_header(cfg: SearchConfig, unit_count: int) -> bytes:
    return json.dumps({"version": _CHECKPOINT_VERSION, "filters": cfg.filter_key(),
                       "unit_count": unit_count}).encode() + b"\n"


def journal_units(path) -> list[int]:
    """The units that a journal lists, in file order."""
    return [json.loads(line)[0] for line in path.read_bytes().splitlines()[1:]]


@pytest.fixture
def serial_pool(monkeypatch):
    """Worker pools replaced by a stand-in that records its size and runs
    each submitted unit at once, in this process; ``os.cpu_count()``
    returns ``pool.cpus``."""
    pool = SimpleNamespace(sizes=[], cpus=64)

    class SerialPool:
        def __init__(self, max_workers):
            pool.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: pool.cpus)
    return pool


class TestThreadsAndCheckpoints:
    def test_thread_count_does_not_change_output(self):
        one = classify_extended_unitrades(SearchConfig(n=6))
        two = classify_extended_unitrades(SearchConfig(n=6, threads=2))
        assert [c.representative for c in one] == [c.representative for c in two]
        assert [c.flags for c in one] == [c.flags for c in two]

    def test_serial_runs_load_no_pool_modules(self):
        # a fresh interpreter: only a run that starts workers may load them
        code = f"""
import os, sys
sys.path.insert(0, {str(Path(search.__file__).parents[1])!r})
import hampack, hampack.cli, hampack.search
from hampack.search import SearchConfig, classify_extended_unitrades
serial = classify_extended_unitrades(SearchConfig(n=6))
os.cpu_count = lambda: 1
assert serial and classify_extended_unitrades(SearchConfig(n=6, threads=4)) == serial
loaded = sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing")))
assert not loaded, loaded
"""
        run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr

    def test_one_thread_does_not_ask_for_the_cpu_count(self, monkeypatch):
        def cpu_count():
            raise AssertionError("os.cpu_count() called")

        serial = classify_extended_unitrades(SearchConfig(n=6))
        monkeypatch.setattr(search.os, "cpu_count", cpu_count)
        assert classify_extended_unitrades(SearchConfig(n=6, threads=1)) == serial

    def test_spawned_workers_match_the_serial_run(self, monkeypatch):
        # a spawned worker starts a fresh interpreter and inherits no state
        # of this process: the unit search and its arguments are all it gets
        cfg, sizes = SearchConfig(n=8, threads=2), []

        def spawn_pool(max_workers):
            sizes.append(max_workers)
            return ProcessPoolExecutor(max_workers, mp_context=get_context("spawn"))

        monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
        serial = _run_enumeration(cfg)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn_pool)
        assert _run_enumeration(cfg) == serial
        assert sizes == [2] and serial[1]["nodes"] == 131

    def test_worker_pool_is_bounded_by_cpus_and_units(self, serial_pool, tmp_path):
        serial_pool.cpus = 1
        serial = _run_enumeration(SearchConfig(n=8, threads=4))
        for count, size in ((64, 4), (3, 3), (1, None), (None, None)):
            serial_pool.cpus = count
            serial_pool.sizes.clear()
            # the split follows the thread count, so the results do not move
            assert _run_enumeration(SearchConfig(n=8, threads=4)) == serial, count
            assert serial_pool.sizes == ([size] if size else []), count
        # a journal that leaves two units to search
        serial_pool.cpus = 64
        path = tmp_path / "pool.ckpt"
        cfg = SearchConfig(n=8, threads=4, checkpoint_path=str(path))
        units = serial[1]["searched"]
        path.write_bytes(journal_header(cfg, units) + b"".join(
            json.dumps([i, []]).encode() + b"\n" for i in range(2, units)))
        serial_pool.sizes.clear()
        _run_enumeration(cfg)
        assert serial_pool.sizes == [2]
        assert sorted(journal_units(path)) == list(range(units))

    def test_units_are_journaled_as_they_finish(self, serial_pool, monkeypatch, tmp_path):
        # units that finish in reverse order are journaled in that order,
        # and their solutions still come back in unit order
        serial_pool.cpus = 1
        serial = _run_enumeration(SearchConfig(n=8, threads=4))
        serial_pool.cpus = 64
        monkeypatch.setattr(concurrent.futures, "as_completed", lambda futures: reversed(list(futures)))
        path = tmp_path / "order.ckpt"
        assert _run_enumeration(SearchConfig(n=8, threads=4, checkpoint_path=str(path))) == serial
        assert serial_pool.sizes == [4]
        assert journal_units(path) == list(range(32))[::-1]

    @pytest.mark.parametrize("threads,units", [(1, 9), (4, 32)])
    def test_resume_from_every_prefix_and_torn_line(self, serial_pool, tmp_path, threads, units):
        plain = _run_enumeration(SearchConfig(n=8, threads=threads))
        path = tmp_path / "prefix.ckpt"
        cfg = SearchConfig(n=8, threads=threads, checkpoint_path=str(path))
        assert _run_enumeration(cfg) == plain
        # the header, then one line per unit: each unit's solutions are written once
        header, *entries = path.read_bytes().splitlines(keepends=True)
        assert header == journal_header(cfg, units) and len(entries) == units
        assert sorted(journal_units(path)) == list(range(units))
        for kept in range(units + 1):
            prefix = header + b"".join(entries[:kept])
            # a crash can tear the line being written: it is cut off and searched again
            tails = [b""] + ([entries[kept][:len(entries[kept]) // 2]] if kept < units else [])
            for tail in tails:
                path.write_bytes(prefix + tail)
                solutions, counts = _run_enumeration(cfg)
                assert solutions == plain[0], (kept, tail)
                assert dict(counts, nodes=0) == dict(plain[1], nodes=0)
                assert (counts["nodes"] == 0) == (kept == units)
                assert path.read_bytes().startswith(prefix)
                assert sorted(journal_units(path)) == list(range(units))
        # and the classes, from a torn journal
        path.write_bytes(header + entries[0] + entries[1][:5])
        assert classify_extended_unitrades(cfg) == classify_extended_unitrades(
            SearchConfig(n=8, threads=threads))

    def test_checkpoint_resume(self, tmp_path):
        path = tmp_path / "run.ckpt"
        cfg = SearchConfig(n=6, checkpoint_path=str(path))
        first = classify_extended_unitrades(cfg)
        assert path.exists()
        again = classify_extended_unitrades(cfg)
        assert [c.representative for c in first] == [c.representative for c in again]

    def test_checkpoint_corruption_rejected(self, tmp_path):
        # an empty file, a torn header and a file that is not JSON are
        # refused, and left as they were
        path = tmp_path / "bad.ckpt"
        cfg = SearchConfig(n=8, checkpoint_path=str(path))
        header = journal_header(cfg, 9)
        for data, reason in ((b"", "not JSON"), (header[:20], "not JSON"),
                             (header[:-1], "header line is torn"), (b"{ not json\n", "not JSON"),
                             (b"\x80\xff\n", "not JSON")):
            path.write_bytes(data)
            with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + reason):
                classify_extended_unitrades(cfg)
            assert path.read_bytes() == data

    def test_n8_threads_and_checkpoints_match_serial(self, tmp_path):
        serial = classify_extended_unitrades(SearchConfig(n=8))
        assert classify_extended_unitrades(SearchConfig(n=8, threads=2)) == serial
        path = tmp_path / "n8.ckpt"
        cfg = SearchConfig(n=8, checkpoint_path=str(path))
        assert classify_extended_unitrades(cfg) == serial
        # resume with every other unit still to search
        header, *entries = path.read_bytes().splitlines(keepends=True)
        assert len(entries) == 9
        path.write_bytes(header + b"".join(entries[1::2]))
        assert classify_extended_unitrades(cfg) == serial
        assert sorted(journal_units(path)) == list(range(9))
        # the thread count sets the split, so a checkpoint resumes only with its own
        with pytest.raises(ValueError, match="thread count"):
            classify_extended_unitrades(SearchConfig(n=8, threads=2, checkpoint_path=str(path)))

    def test_checkpoint_of_other_format_rejected(self, tmp_path):
        path = tmp_path / "old.ckpt"
        cfg = SearchConfig(n=8, checkpoint_path=str(path))
        # a whole-state file of format version 3 with the same filters and
        # unit count, the same as version 2 (units split by their own rule)
        # and without a format version, a state written when units were
        # split without the seed group, and a version-3 header line
        v3 = {"version": 3, "filters": cfg.filter_key(), "unit_count": 9,
              "completed": {"3": [DIAGONAL_8]}}
        unversioned = {k: v for k, v in v3.items() if k != "version"}
        old = {"filters": cfg.filter_key(), "unit_count": 256, "closed": [], "completed": {}}
        for bad in (v3, dict(v3, version=2), unversioned, old, []):
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match="format version"):
                classify_extended_unitrades(cfg)
            assert path.read_text() == json.dumps(bad)
        data = journal_header(cfg, 9).replace(b'"version": 4', b'"version": 3') + b"[0, []]\n"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="format version"):
            classify_extended_unitrades(cfg)
        assert path.read_bytes() == data

    @pytest.mark.parametrize("case", BAD_LINES)
    def test_checkpoint_entries_are_checked_at_load(self, tmp_path, case):
        # a good entry, then one that breaks a rule; the file is left as it was
        path = tmp_path / "entries.ckpt"
        cfg = SearchConfig(n=8, checkpoint_path=str(path))
        data = journal_header(cfg, 9) + b"[5, []]\n" + BAD_LINES[case].encode() + b"\n"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            classify_extended_unitrades(cfg)
        assert path.read_bytes() == data

    def test_checkpoint_entry_of_a_unitrade_is_accepted(self, tmp_path):
        # the control for the cases above: the diagonal, stored as is
        path = tmp_path / "diagonal.ckpt"
        cfg = SearchConfig(n=8, checkpoint_path=str(path))
        path.write_bytes(journal_header(cfg, 9) + json.dumps([3, [DIAGONAL_8]]).encode() + b"\n")
        reps = [c.representative for c in classify_extended_unitrades(cfg)]
        assert canonical_form(con.diagonal_unitrade(8)) in reps

    def test_checkpoint_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        data = journal_header(SearchConfig(n=8), 9)
        path.write_bytes(data)
        with pytest.raises(ValueError, match="other filters"):
            classify_extended_unitrades(SearchConfig(n=6, checkpoint_path=str(path)))
        assert path.read_bytes() == data


class TestMinUnitradeSize:
    def test_small_lengths(self):
        assert min_extended_unitrade_size(4) == 4
        assert min_extended_unitrade_size(6) == 8

    def test_n8(self):
        assert min_extended_unitrade_size(8) == 16

    def test_matches_power_formula(self):
        for n in (2, 4, 6, 8):
            assert min_extended_unitrade_size(n) == 1 << (n // 2)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            min_extended_unitrade_size(5)

    def test_length_must_be_an_int(self):
        for n in (4.0, "4", True, None):
            with pytest.raises(ValueError):
                min_extended_unitrade_size(n)

    def test_matches_smallest_class(self):
        for n in (4, 6, 8):
            classes = classify_extended_unitrades(SearchConfig(n=n))
            assert min_extended_unitrade_size(n) == min(c.cardinality for c in classes)

    def test_one_capped_run(self, monkeypatch):
        # the diagonal fits the cap, so a run that finds nothing is a fault
        caps = []

        def capped_run(cfg):
            caps.append(cfg.max_cardinality)
            return [], {}

        monkeypatch.setattr(search, "_run_enumeration", capped_run)
        with pytest.raises(AssertionError, match="diagonal"):
            min_extended_unitrade_size(8)
        assert caps == [16]


def brute_force_max_packing(n: int, q: int, lam: int, r: int) -> int:
    """Largest total over all multiplicity vectors in {0..lam}^(q^n) whose
    radius-r balls each hold at most lam codewords.  Vertices are fixed in
    order; a prefix that overfills a ball, or that cannot beat the best
    total even with lam on every later vertex, has no better completion."""
    words = [w.symbols for w in Space(n, q)]
    near = [[u for u, y in enumerate(words) if sum(a != b for a, b in zip(x, y)) <= r]
            for x in words]
    cov = [0] * len(words)
    best = 0

    def extend(i: int, total: int) -> None:
        nonlocal best
        if total + lam * (len(words) - i) <= best:
            return
        if i == len(words):
            best = total
            return
        for m in range(min(lam - cov[u] for u in near[i]), -1, -1):
            for u in near[i]:
                cov[u] += m
            extend(i + 1, total + m)
            for u in near[i]:
                cov[u] -= m

    extend(0, 0)
    return best


def weight_order(space: Space) -> list[Word]:
    return sorted(space, key=lambda w: (weight(w), w.symbols))


def spaces_of_size(low: int, high: int) -> list[tuple[int, int]]:
    """Every (n, q) with low <= q^n <= high."""
    return [(n, q) for q in range(2, MAX_Q + 1) for n in range(1, high.bit_length())
            if low <= q**n <= high]


def check_packing_tables(n: int, q: int, radii) -> None:
    """Hold the packing tables against symbol tuples alone: the words
    sorted by weight, then lexicographically, and each ball the vertices
    whose symbols differ from the centre's in at most r places."""
    words = sorted(product(range(q), repeat=n), key=lambda x: (n - x.count(0), x))
    weights = [n - x.count(0) for x in words]
    size = len(words)
    distances = [bytes(sum(a != b for a, b in zip(x, y)) for y in words) for x in words]
    for r in radii:
        balls, dying, next_weight = _packing_tables.__wrapped__(n, q, r)
        assert type(balls) is type(dying) is type(next_weight) is tuple
        assert all(type(b) is tuple for b in balls) and all(type(d) is tuple for d in dying)
        assert sum(map(len, dying)) == size
        for v, row in enumerate(distances):
            assert balls[v] == tuple(u for u in reversed(range(size)) if row[u] <= r), (n, q, r, v)
            assert v in dying[balls[v][0]]
            assert weights[next_weight[v] - 1] == weights[v]
            assert next_weight[v] == size or weights[next_weight[v]] == weights[v] + 1


def reference_max_packing(n: int, q: int, lam: int, r: int,
                          lexicographic: bool = False) -> tuple[int, int]:
    """The packing search without the room bound: the same vertex order
    (by weight, then lexicographic), root, second codeword and cap, cut by
    nothing else.  With ``lexicographic``, the search before the weight
    order: vertices in lexicographic order and any second codeword."""
    space = Space(n, q)
    words = list(space) if lexicographic else weight_order(space)
    index = {w: i for i, w in enumerate(words)}
    balls = [[index[u] for u in ball(w, r)] for w in words]
    size = len(words)
    # the second codeword is 0 again or the first word of a weight
    second = set(range(size)) if lexicographic else (
        {0} | {i for i in range(1, size) if weight(words[i]) > weight(words[i - 1])})
    cap = lam * size // space.ball_size(r)
    if q == 2 and r == 1 and n >= 2:
        cap = min(cap, lp_bound(n, lam).value)
    cov = [0] * size
    chosen: list[int] = []
    best = placements = v = 0
    while best < cap:
        while v < size and (any(cov[u] >= lam for u in balls[v])
                            or (len(chosen) == 1 and v not in second)):
            v += 1
        if v < size:
            for u in balls[v]:
                cov[u] += 1
            chosen.append(v)
            placements += 1
            best = max(best, len(chosen))
            continue
        if len(chosen) <= 1:
            break
        v = chosen.pop()
        for u in balls[v]:
            cov[u] -= 1
        v += 1
    return best, placements


def sweep_instances() -> list[tuple[int, int, int, int]]:
    """Every space with q^n <= 27 (and q within the digit limit) and H(5, 2),
    lambda <= 3, all radii; (5, 2, 3, 1) is left out, at about 8 s for the
    lexicographic reference."""
    spaces = [(n, q) for n in range(1, 5) for q in range(2, MAX_Q + 1) if q**n <= 27]
    spaces.append((5, 2))
    return [(n, q, lam, r) for n, q in spaces for lam in (1, 2, 3) for r in range(n + 1)
            if (n, q, lam, r) != (5, 2, 3, 1)]


class TestMaxPacking:
    def test_matches_unbounded_reference(self):
        for args in sweep_instances():
            value, placements = _max_packing_search(*args)
            reference = reference_max_packing(*args)
            assert value == reference[0], args
            assert placements <= reference[1], args

    def test_matches_lexicographic_search(self):
        # the weight order and the second-codeword cut change only which
        # packings are searched, never the maximum
        for args in sweep_instances():
            assert max_packing_size(*args) == reference_max_packing(*args, lexicographic=True)[0], args

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (2, 4)])
    def test_matches_brute_force(self, n, q):
        for r in range(n + 1):
            for lam in range(1, (2 if q**n == 9 else 3) + 1):
                assert max_packing_size(n, q, lam, r) == brute_force_max_packing(n, q, lam, r), (
                    n, q, lam, r)

    def test_placements(self):
        # the instances of the benchmark's exact workload.  In lexicographic
        # order with every second codeword tried, these searches placed the
        # `lexicographic` counts; the weight order and the second-codeword
        # cut leave only the two-fold n = 6, 7 and (4,3,1,1) searches, which
        # meet the cap on their first descent, as they were.  Without the
        # room bound as well, (4,2,3,1), (3,3,2,1), (3,4,1,1) and (5,2,2,1)
        # placed 8,770, 2,258, 172 and 2,532, and without fixing the least
        # codeword by translation, (4,2,3,1) and (3,4,1,1) placed 28,192
        # and 3,808
        for args, value, placements, lexicographic in (((4, 2, 3, 1), 8, 1091, 2229),
                                                       ((3, 3, 2, 1), 6, 122, 750),
                                                       ((3, 4, 1, 1), 4, 8, 113),
                                                       ((4, 3, 1, 1), 9, 9, 9),
                                                       ((2, 5, 2, 1), 5, 7, 11),
                                                       ((5, 2, 2, 1), 10, 501, 958),
                                                       ((6, 2, 2, 1), 16, 16, 16),
                                                       ((7, 2, 2, 1), 32, 32, 32)):
            assert _max_packing_search(*args) == (value, placements), args
            assert placements <= lexicographic

    def test_room_bound_on_a_deep_optimum(self):
        # the optimum meets the cap 16, but the first packing of 16 in
        # search order lies deep: without the room bound the lexicographic
        # search placed 1,948,714 codewords to reach it, and with it 93,585;
        # the weight order alone brings that to 51,425, and the
        # second-codeword cut leaves it there
        assert _max_packing_search(5, 2, 3, 1) == (16, 51425)

    def test_tables_are_built_once_per_space(self):
        _packing_tables.cache_clear()
        for lam in (1, 2, 3):
            max_packing_size(3, 3, lam, 1)
        info = _packing_tables.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        max_packing_size(3, 3, 1, 2)
        assert _packing_tables.cache_info().misses == 2
        for n, q in spaces_of_size(1, 256):
            check_packing_tables(n, q, range(n + 1))

    @pytest.mark.slow
    def test_tables_at_larger_sizes(self):
        for n, q in spaces_of_size(257, 1024):
            check_packing_tables(n, q, sorted({1, 2, n}))

    def test_large_tables_are_built_per_call(self):
        max_packing_size(4, 2, 3, 1)
        before = _packing_tables.cache_info()
        # 1,024 balls of 1,024 entries each: over the cached size
        assert max_packing_size(10, 2, 1, 10) == 1
        after = _packing_tables.cache_info()
        assert (after.misses, after.hits, after.currsize) == (
            before.misses, before.hits, before.currsize)
        max_packing_size(4, 2, 3, 1)
        assert _packing_tables.cache_info().hits == after.hits + 1

    def test_twofold_values(self):
        # frozen from the exhaustive oracle itself
        expected = {1: 2, 2: 2, 3: 4, 4: 5, 5: 10, 6: 16, 7: 32}
        for n, value in expected.items():
            assert max_twofold_packing_size(n) == value

    def test_twofold_meets_lp_bound_at_7(self):
        assert max_twofold_packing_size(7) == lp_bound(7, 2).value

    def test_twofold_never_exceeds_bounds(self):
        for n in range(2, 8):
            v = max_twofold_packing_size(n)
            assert v <= sphere_packing_bound(n, 2, 2, 1)
            assert v <= lp_bound(n, 2).value

    def test_h23(self):
        assert max_packing_size(2, 3, 2, 1) == 3 == sphere_packing_bound(2, 3, 2, 1)

    def test_h24(self):
        assert max_packing_size(2, 4, 2, 1) == 4

    def test_multiset_maximum(self):
        # H(2,2), lambda=5: repeated words are essential to reach 6
        assert max_packing_size(2, 2, 5, 1) == 6

    def test_classical_code_sizes(self):
        # lambda=1 reduces to maximum minimum-distance-3 codes, whose
        # exact sizes at these lengths are classical
        assert max_packing_size(5, 2, 1, 1) == 4
        assert max_packing_size(6, 2, 1, 1) == 8

    def test_exhaustion_below_both_bounds(self):
        # H(4,2), lambda=3: both closed-form bounds give 9, the true
        # maximum is 8, certified by exhausting the branch tree
        assert max_packing_size(4, 2, 3, 1) == 8
        assert sphere_packing_bound(4, 2, 3, 1) == 9
        assert lp_bound(4, 3).value == 9

    def test_radius_zero_multisets(self):
        assert max_packing_size(2, 2, 3, 0) == 12

    def test_deep_search_has_no_recursion_limit(self):
        # every vertex is taken once: a search path 2048 nodes deep
        assert max_packing_size(11, 2, 1, 0) == 2048

    def test_range_guards(self):
        with pytest.raises(ValueError):
            max_twofold_packing_size(8)
        for n in (True, 5.0, "5"):
            with pytest.raises(ValueError):
                max_twofold_packing_size(n)
        with pytest.raises(ValueError):
            max_packing_size(13, 2, 2, 1)
        for q in (2, 3):
            for lam in (0, -2, 1.5, True, "2"):
                with pytest.raises(ValueError):
                    max_packing_size(2, q, lam, 1)

    def test_integer_parameters_are_checked_before_the_tables(self):
        # True == 1 and hashes like it, so the cached tables of H(1, 2)
        # would answer for it
        assert max_packing_size(1, 2, 1, 1) == 1
        before = _packing_tables.cache_info()
        for args in ((True, 2, 1, 1), (3.0, 2, 1, 1), (3, 2.0, 1, 1), (3, True, 1, 1),
                     (3, 2, 1, True), (3, 2, 1, 1.0), (3, 2, 1, "1"), (3, 2, 1, None)):
            with pytest.raises(ValueError):
                max_packing_size(*args)
        assert _packing_tables.cache_info() == before


@pytest.mark.slow
class TestLongJobs:
    def test_n10_antipodal_nonbipartite_class(self):
        classes = classify_extended_unitrades(
            SearchConfig(n=10, antipodal_only=True, nonbipartite_only=True)
        )
        assert [c.cardinality for c in classes] == [80]

    def test_split_and_resume_agree_at_n10(self, tmp_path):
        # threads 1 and 2 split the tree differently (8 and 17 units); the
        # resume searches every other unit of the two-thread split again
        sizes = [32, 48, 56, 64, 64, 64, 64, 64, 72, 80, 80]
        serial = classify_extended_unitrades(SearchConfig(n=10, antipodal_only=True))
        assert [c.cardinality for c in serial] == sizes
        path = tmp_path / "n10.ckpt"
        cfg = SearchConfig(n=10, antipodal_only=True, threads=2, checkpoint_path=str(path))
        assert classify_extended_unitrades(cfg) == serial
        header, *entries = path.read_bytes().splitlines(keepends=True)
        assert len(entries) == 17
        path.write_bytes(header + b"".join(entries[1::2]))
        assert classify_extended_unitrades(cfg) == serial
        assert sorted(journal_units(path)) == list(range(17))

    def test_n10_full_classification(self):
        # 30 primary (connected) classes, and two 80-word disjoint unions
        # of two 40-word unitrades
        classes = classify_extended_unitrades(SearchConfig(n=10, nonbipartite_only=True))
        pieces = [[len(p) for p in primary_components(c.representative, extended=True)]
                  for c in classes]
        primary = [c for c, sizes in zip(classes, pieces) if len(sizes) == 1]
        assert len(classes) == 32 and len(primary) == 30
        assert sorted(c.cardinality for c in primary) == [
            40, 48, 50, 56, 56, 58, 62, 62, 70, 70, 70, 72, 72, 72, 72, 72,
            72, 72, 72, 72, 76, 80, 80, 80, 86, 88, 88, 96, 96, 96,
        ]
        assert sum(1 for c in primary if c.constant_weight_translate) == 11
        unions = [(c, sizes) for c, sizes in zip(classes, pieces) if len(sizes) != 1]
        assert len(unions) == 2
        for c, sizes in unions:
            assert c.cardinality == 80 and sizes == [40, 40]
            assert c.flags == {"bipartite": False, "antipodal": False,
                               "constant_weight_translate": False, "irreducible": False}
            assert c.reducibility_kind == "unknown"
        reps = [c.representative.keys for c in classes]
        assert hashlib.sha256(repr(reps).encode()).hexdigest()[:16] == "f22478d950791b96"

    def test_min_unitrade_size_n10(self, monkeypatch):
        # one capped run gives the minimum, and its work counts pin the
        # engine's branching: a change to it fails here, with no extra search
        runs = []

        def recorded(cfg):
            result = _run_enumeration(cfg)
            runs.append((cfg, result[1]))
            return result

        monkeypatch.setattr(search, "_run_enumeration", recorded)
        assert min_extended_unitrade_size(10) == 32
        assert runs == [(SearchConfig(n=10, max_cardinality=32),
                         {"units": 34, "rejected": 19, "searched": 8, "nodes": 456957})]
