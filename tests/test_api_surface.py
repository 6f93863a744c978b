"""Documented refusals and public dunders that the module tests do not
reach: each refusal raises its own message, and each dunder gives the
answer that its plain reading gives."""

import copy
import dataclasses
import functools
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hampack import constructions as con
from hampack.analysis import (
    Bipartition,
    CheckResult,
    Reducibility,
    average_distance,
    distance_data,
    is_antipodal,
    is_bipartite_unitrade,
    is_extended_unitrade,
    oa_strength1_check,
    pair_profile,
    reducibility_certificate,
    verify_packing,
    weight_distribution,
)
from hampack.bounds import BoundResult, SpectrumBoundInput, lp_bound
from hampack.core import Code, Space, Word, coverage_multiplicity, hamming_distance
from hampack.linalg import (
    BinaryMatrix,
    MixedMatrix,
    MixedWord,
    PropelinearMap,
    apply_propelinear,
    coset_union,
    gf2_rank,
    gf2_span,
    gray_image,
    gray_map,
    group_closure,
    orbit,
)
from hampack.partitions import (
    IntersectionMatrix,
    distance_partition,
    partition_from_unitrade,
    split_distance3_cell,
)
from hampack.search import SearchConfig, canonical_form, classify_extended_unitrades

TERNARY = Code.from_strings(["012", "120"], 3)
WORD = Word(Space(3, 2), 0)


def binary(*texts: str) -> Code:
    return Code.from_strings(texts, 2)


REFUSALS = {
    "canonical-form-q3": (lambda: canonical_form(TERNARY), "implemented for q=2 only"),
    "canonical-form-repeat": (lambda: canonical_form(binary("00", "00")), "multiplicity-free"),
    "word-key-past-2^n": (lambda: Word(Space(3, 2), 8), "binary word key out of range"),
    "word-bool-key": (lambda: Word(Space(3, 2), True), "binary word key out of range"),
    "from-bits-bool-key": (lambda: Code.from_bits(Space(3, 2), [True, False]),
                           "binary word key out of range"),
    "word-short-key": (lambda: Word(Space(3, 3), b"\0\1"), "length does not match space"),
    "word-symbol-past-q": (lambda: Word(Space(2, 3), b"\0\3"), "symbol out of alphabet range"),
    "is-antipodal-q3": (lambda: is_antipodal(TERNARY), "antipodality is defined for q=2"),
    "oa-strength1-q3": (lambda: oa_strength1_check(TERNARY), "balance check is defined for q=2"),
    "pair-profile-q3": (lambda: pair_profile(TERNARY), "pair profiles are defined for q=2"),
    "extended-unitrade-q3": (lambda: is_extended_unitrade(TERNARY),
                             "extended unitrades are defined for q=2"),
    "extend-parity-q3": (lambda: con.extend_parity(TERNARY), "parity extension is defined for q=2"),
    "gf2-rank-q3": (lambda: gf2_rank(TERNARY), "gf2_rank requires q=2"),
    "gf2-span-q3": (lambda: gf2_span(TERNARY.words), "gf2_span requires q=2"),
    "binary-matrix-q3": (lambda: BinaryMatrix(TERNARY.words), "BinaryMatrix requires q=2"),
    "binary-matrix-row-list": (lambda: BinaryMatrix([Word.from_string("01", 2)]),
                               "rows must be a tuple of Words"),
    "binary-matrix-text-rows": (lambda: BinaryMatrix(("01",)), "rows must be a tuple of Words"),
    "mixed-matrix-row-list": (lambda: MixedMatrix(1, 1, [MixedWord((0,), (1,))]),
                              "rows must be a tuple of MixedWords"),
    "mixed-matrix-text-rows": (lambda: MixedMatrix(1, 1, ("0|1",)),
                               "rows must be a tuple of MixedWords"),
    "mixed-matrix-float-cols": (lambda: MixedMatrix(1.0, 1, (MixedWord((0,), (1,)),)),
                                "binary_cols must be an int >= 0, got 1.0"),
    "mixed-matrix-negative-cols": (lambda: MixedMatrix(-1, 0, ()),
                                   "binary_cols must be an int >= 0, got -1"),
    "mixed-matrix-bool-cols": (lambda: MixedMatrix(0, True, ()),
                               "quaternary_cols must be an int >= 0, got True"),
    "propelinear-text-translation": (lambda: PropelinearMap("000", (0, 1, 2)),
                                     "translation must be a binary Word, got '000'"),
    "propelinear-no-translation": (lambda: PropelinearMap(None, (0,)),
                                   "translation must be a binary Word, got None"),
    "propelinear-ternary-translation": (lambda: PropelinearMap(TERNARY.words[0], (0, 1, 2)),
                                        "translation must be a binary Word"),
    "spectrum-negative-alpha": (lambda: SpectrumBoundInput(3, Fraction(-1), 1, 8),
                                "alpha must be nonnegative"),
    "coset-union-rep-count": (
        lambda: con.hamming_coset_union(3, 2, [Word.from_string("0000", 3)]),
        "expected 2 representatives, got 1",
    ),
    "puncture-length-1": (lambda: con.puncture_last(binary("0", "1")), "cannot puncture length-1"),
    "partition-empty-code": (lambda: distance_partition(Code(Space(4, 2), [])),
                             "partition of an empty code is undefined"),
    "partition-two-spaces": (lambda: split_distance3_cell(binary("0000"), binary("00000")),
                             "codes live in different spaces"),
    "partition-covering-radius-2": (
        lambda: split_distance3_cell(binary("0000", "1111"), binary("0000")),
        "covering radius < 3",
    ),
    "partition-length-8": (lambda: partition_from_unitrade(con.diagonal_unitrade(8)),
                           "specific to length 10"),
    "partition-length-23": (lambda: distance_partition(Code.from_bits(Space(23, 2), [0])),
                            "supported up to n=22"),
    "partition-not-tridiagonal": (
        lambda: IntersectionMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0))).intersection_array(),
        "requires a tridiagonal matrix",
    ),
    "group-closure-empty": (lambda: group_closure([]), "at least one generator"),
    "code-from-no-strings": (lambda: Code.from_strings([], 2), "cannot infer the space"),
    "binary-matrix-ragged": (lambda: BinaryMatrix((Word.from_string("01", 2), Word.from_string("011", 2))),
                             "ragged rows: all rows must share one space"),
    "binary-matrix-empty-space": (lambda: BinaryMatrix(()).space, "empty matrix has no space"),
    "gf2-span-empty": (lambda: gf2_span([]), "pass the ambient space explicitly"),
    "gf2-span-ragged": (lambda: gf2_span([Word.from_string("01", 2), Word.from_string("011", 2)]),
                        "generator outside the ambient space"),
    "coset-union-repeat": (lambda: coset_union(binary("00", "00"), []),
                           "coset carrier contains duplicate words"),
    "mixed-word-add-shapes": (lambda: MixedWord((0,), (1,)) + MixedWord((0, 1), (1,)),
                              "mixed word shape mismatch"),
    "mixed-matrix-no-strings": (lambda: MixedMatrix.from_strings([]), "empty mixed matrix"),
    "gray-image-empty": (lambda: gray_image([]), "Gray image of an empty set"),
    "propelinear-compose-lengths": (
        lambda: PropelinearMap.identity(Space(3, 2)).compose(PropelinearMap.identity(Space(4, 2))),
        "length mismatch in composition",
    ),
    "propelinear-apply-lengths": (
        lambda: apply_propelinear(PropelinearMap.identity(Space(3, 2)), Word(Space(4, 2), 0)),
        "length mismatch between map and word",
    ),
    "partition-q3": (lambda: distance_partition(TERNARY), "implemented for q=2 only"),
    "partition-from-unitrade-repeat": (
        lambda: partition_from_unitrade(Code.from_bits(Space(10, 2), [0, 0])),
        "unitrade input contains duplicate words",
    ),
    "intersection-matrix-row-sum": (
        lambda: IntersectionMatrix(((0, 1), (1, 0))).validate((1, 1), 2),
        "row 0 sums to 1, degree is 2",
    ),
    "reducibility-empty": (lambda: reducibility_certificate(Code(Space(4, 2), [])),
                           "undefined for the empty unitrade"),
    "average-distance-empty": (lambda: average_distance(Code(Space(4, 2), []), Word(Space(4, 2), 0)),
                               "average distance to an empty set"),
    "coset-union-text-q": (lambda: con.hamming_coset_union("3", 2), "q='3' is not a prime int"),
    "diagonal-text-n": (lambda: con.diagonal_unitrade("4"), "needs an even int n >= 2, got n='4'"),
    "code-int-word": (lambda: Code(Space(2, 2), [1]), "word 1 does not live in"),
    "gf2-span-int-rows": (lambda: gf2_span([1, 2]), r"rows must be a tuple of Words, got \(1, 2\)"),
    "intersection-matrix-short-sizes": (
        lambda: IntersectionMatrix(((0, 1), (1, 0))).validate([1], 1),
        r"cell sizes \[1\] do not match the 2 cells",
    ),
    # a text where a Word belongs
    "distance-text-word": (lambda: hamming_distance(WORD, "000"), "expected a Word, got '000'"),
    "distance-text-first-word": (lambda: hamming_distance("000", WORD), "expected a Word or a Code, got '000'"),
    "coverage-text-word": (lambda: coverage_multiplicity(binary("000"), "000", 1), "expected a Word, got '000'"),
    "weights-text-word": (lambda: weight_distribution(binary("000"), "000"), "expected a Word, got '000'"),
    "average-distance-text-word": (lambda: average_distance(binary("000"), "000"), "expected a Word, got '000'"),
    "distance-data-text-word": (lambda: distance_data(binary("000"), "000"), "expected a Word, got '000'"),
    "translate-text-word": (lambda: binary("000").translate("000"), "expected a Word, got '000'"),
    "word-less-than-text": (lambda: WORD < "000", "expected a Word, got '000'"),
    "word-at-most-text": (lambda: WORD <= "000", "expected a Word, got '000'"),
    "word-plus-text": (lambda: WORD + "000", "expected a Word, got '000'"),
    "coset-union-text-rep": (lambda: coset_union(con.hamming_code_q(3), ["0000"]), "expected a Word, got '0000'"),
    "hamming-coset-union-text-rep": (lambda: con.hamming_coset_union(3, 1, ["0000"]),
                                     "expected a Word, got '0000'"),
    "hamming-coset-union-no-reps": (lambda: con.hamming_coset_union(3, 2, (None, None)),
                                    "expected a Word, got None"),
    "propelinear-apply-text": (lambda: apply_propelinear(PropelinearMap.identity(Space(3, 2)), "000"),
                               "expected a Word, got '000'"),
    "orbit-text-seed": (lambda: orbit([PropelinearMap.identity(Space(3, 2))], "000"),
                        "expected a Word, got '000'"),
    "orbit-no-generators-text-seed": (lambda: orbit([], "x"), "expected a Word, got 'x'"),
    # a Code of the very same space object where a Word belongs
    "distance-code-word": (lambda: hamming_distance(WORD, Code(WORD.space, [])),
                           r"expected a Word, got Code\(n=3, q=2, size=0\)"),
    "coverage-code-word": (lambda: coverage_multiplicity(Code(WORD.space, []), Code(WORD.space, []), 1),
                           r"expected a Word, got Code\(n=3, q=2, size=0\)"),
    "translate-code": (lambda: Code(WORD.space, []).translate(Code(WORD.space, [])),
                       r"expected a Word, got Code\(n=3, q=2, size=0\)"),
    # other inputs of the wrong kind
    "code-text-space": (lambda: Code("x", []), "space must be a Space, got 'x'"),
    "intersection-matrix-ragged": (lambda: IntersectionMatrix(((0, 1), (1,))),
                                   r"entries must be a square tuple of int tuples, got \(\(0, 1\), \(1,\)\)"),
    "intersection-matrix-text": (lambda: IntersectionMatrix("ab"),
                                 "entries must be a square tuple of int tuples, got 'ab'"),
    "intersection-matrix-float-entry": (lambda: IntersectionMatrix(((1.0,),)),
                                        "entries must be a square tuple of int tuples"),
    "propelinear-compose-text": (lambda: PropelinearMap.identity(Space(3, 2)).compose("x"),
                                 "expected a PropelinearMap, got 'x'"),
    "group-closure-text": (lambda: group_closure(["x"]), "expected PropelinearMaps, got 'x'"),
    "gray-map-text": (lambda: gray_map("x"), "expected MixedWords, got 'x'"),
    "propelinear-cycles-text-n": (lambda: PropelinearMap.from_cycles("000", [[0, 1]], "3"),
                                  "n must be an int, got '3'"),
    "spectrum-text-degree": (lambda: SpectrumBoundInput("3", Fraction(1), 1, 8), "degree must be an int, got '3'"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, fragment = REFUSALS[name]
    with pytest.raises(ValueError, match=fragment):
        call()


class TestVerdictTruth:
    def test_check_result_is_its_verdict(self):
        # without __bool__ a dataclass is always truthy, so every
        # `if is_extended_unitrade(...)` would pass
        assert is_extended_unitrade(con.diagonal_unitrade(4))
        assert not is_extended_unitrade(binary("0000", "0011"))

    def test_bipartition_is_its_verdict(self):
        assert is_bipartite_unitrade(con.diagonal_unitrade(6), extended=True)
        assert not is_bipartite_unitrade(con.l_star(6), extended=True)

    def test_bound_result_int_is_its_value(self):
        for n, lam in ((10, 2), (9, 2), (7, 1)):
            bound = lp_bound(n, lam)
            assert int(bound) == bound.value and type(int(bound)) is int


class TestWordOperators:
    def test_order_is_the_digit_string_order(self):
        for q in (2, 3):
            words = list(Space(3, q))
            for a in words:
                for b in words:
                    assert (a < b) == (str(a) < str(b)) and (a <= b) == (str(a) <= str(b))

    def test_order_across_spaces_is_refused(self):
        a, b = Word(Space(3, 2), 0), Word(Space(4, 2), 0)
        for compare in (lambda: a < b, lambda: a <= b):
            with pytest.raises(ValueError, match="space mismatch"):
                compare()

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_negation_and_difference_are_symbolwise_mod_q(self, q):
        rng = random.Random(q)
        for _ in range(30):
            x = Word.from_symbols([rng.randrange(q) for _ in range(5)], q)
            y = Word.from_symbols([rng.randrange(q) for _ in range(5)], q)
            assert (-x).symbols == tuple((-s) % q for s in x.symbols)
            assert (x - y).symbols == tuple((a - b) % q for a, b in zip(x.symbols, y.symbols))
            assert x - y + y == x


class TestText:
    def test_packing_report_str(self):
        assert str(verify_packing(binary("000", "111"), 1, 1)) == (
            "max_coverage=1 (<= lambda=1), witness=000, duplicates=0")
        assert str(verify_packing(binary("000", "001", "001"), 2, 1)) == (
            "max_coverage=3 (> lambda=2), witness=000, duplicates=1")

    def test_code_repr(self):
        assert repr(binary("000", "111")) == "Code(n=3, q=2, size=2)"
        assert repr(Code(Space(4, 5), [])) == "Code(n=4, q=5, size=0)"

    def test_mixed_word_text_round_trip(self):
        for text in ("01|0123", "|32", "1|"):
            word = MixedWord.from_string(text)
            assert str(word) == text and MixedWord.from_string(str(word)) == word
        assert MixedWord.from_string("10|31") == MixedWord((1, 0), (3, 1))


# One sample of each value type, built by the library where it can be.
VALUES = {
    "Space": lambda: Space(3, 2),
    "Word": lambda: Word(Space(3, 2), 5),
    "BinaryMatrix": lambda: BinaryMatrix.from_strings(["011", "101"]),
    "MixedWord": lambda: MixedWord((1,), (2, 3)),
    "MixedMatrix": lambda: MixedMatrix.from_strings(["1|23", "0|11"]),
    "PropelinearMap": lambda: PropelinearMap.from_cycles("010", [[0, 1]], 3),
    "BoundResult": lambda: lp_bound(9, 2),
    "SpectrumBoundInput": lambda: SpectrumBoundInput(3, Fraction(1, 2), 1, 8),
    "PackingReport": lambda: verify_packing(binary("000", "001", "001"), 2, 1),
    "CheckResult": lambda: is_extended_unitrade(binary("0000", "0011")),
    "Bipartition": lambda: is_bipartite_unitrade(con.l_star(6), extended=True),
    "Reducibility": lambda: reducibility_certificate(
        con.concatenate(con.l_star(6), binary("10", "01"))),
    "DistanceData": lambda: distance_data(binary("000", "011", "101")),
    "PairProfile": lambda: pair_profile(con.diagonal_unitrade(4)),
    "EmbeddedData": con.embedded_data,
    "IntersectionMatrix": lambda: distance_partition(binary("000", "111")).matrix,
    "Partition": lambda: distance_partition(binary("000", "111")),
    "SearchConfig": lambda: SearchConfig(6, threads=2),
    "EquivalenceClass": lambda: classify_extended_unitrades(SearchConfig(4))[0],
}
SLOTTED = {"Space", "Word", "MixedWord", "PropelinearMap"}


def fields_of(value) -> tuple:
    return tuple(type(value).__annotations__)


@functools.cache
def reference_class(cls: type) -> type:
    """A class with the same name and fields that ``dataclasses`` makes: the oracle."""
    return dataclasses.make_dataclass(cls.__name__, cls.__annotations__, frozen=True)


def reference(value):
    return reference_class(type(value))(*[getattr(value, k) for k in fields_of(value)])


class TestValueTypes:
    def test_table_covers_every_value_type(self):
        assert [type(VALUES[name]()).__name__ for name in VALUES] == list(VALUES)

    @pytest.mark.parametrize("name", VALUES)
    def test_repr_eq_and_hash_match_a_dataclass(self, name):
        value, ref = VALUES[name](), reference(VALUES[name]())
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref)
        assert value == VALUES[name]() and ref == reference(VALUES[name]())
        others = [VALUES[other]() for other in VALUES if other != name]
        assert [value == other for other in others] == [ref == reference(other) for other in others]
        assert value != ref and ref != value
        assert value.__match_args__ == fields_of(value)

    def test_equal_fields_of_two_types_are_unequal(self):
        a, b = BinaryMatrix(()), IntersectionMatrix(())
        assert a.rows == b.entries and a != b and b != a
        assert CheckResult(True, None) != Bipartition(True, None)

    @pytest.mark.parametrize("name", VALUES)
    def test_fields_can_be_neither_assigned_nor_deleted(self, name):
        value = VALUES[name]()
        for field in fields_of(value):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert value == VALUES[name]()

    @pytest.mark.parametrize("name", VALUES)
    def test_pickle_and_copies_are_equal(self, name):
        value = VALUES[name]()
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)

    @pytest.mark.parametrize("name", VALUES)
    def test_keywords_and_positions_agree(self, name):
        value = VALUES[name]()
        fields = [getattr(value, k) for k in fields_of(value)]
        by_keyword = type(value)(**dict(zip(fields_of(value), fields)))
        assert type(value)(*fields) == by_keyword == value
        assert type(value)(*fields[:1], **dict(zip(fields_of(value)[1:], fields[1:]))) == value

    @pytest.mark.parametrize("name", VALUES)
    def test_missing_extra_and_repeated_arguments_are_refused(self, name):
        value = VALUES[name]()
        cls, names = type(value), fields_of(value)
        fields = [getattr(value, k) for k in names]
        for call in (lambda: cls(), lambda: cls(*fields, None), lambda: cls(*fields, unknown=0),
                     lambda: cls(*fields, **{names[0]: fields[0]}),
                     lambda: cls(**dict(zip(names[1:], fields[1:])))):
            with pytest.raises(TypeError):
                call()

    def test_defaults_apply(self):
        assert BoundResult(1, Fraction(1), "x") == BoundResult(1, Fraction(1), "x", (), False)
        assert Reducibility("unknown", ()) == Reducibility("unknown", (), None, None)
        assert SearchConfig(6) == SearchConfig(6, False, False, None, 1, None)
        assert SearchConfig(n=6, threads=2).threads == 2 and SearchConfig(n=6).threads == 1

    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_slotted_types_have_no_dict(self, name):
        value = VALUES[name]()
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == fields_of(value)

    def test_post_init_checks_run_for_every_call_shape(self):
        with pytest.raises(ValueError, match="supported lengths"):
            SearchConfig(n=5)
        with pytest.raises(ValueError, match="supported lengths"):
            SearchConfig(5, threads=1)
        with pytest.raises(ValueError, match="out of range"):
            Word(key=8, space=Space(3, 2))


def test_library_imports_load_neither_dataclasses_nor_inspect():
    # a fresh interpreter: the value types are built without generated code
    code = f"""
import sys
sys.path.insert(0, {str(Path(con.__file__).parents[1])!r})
import hampack.cli, hampack.core, hampack.analysis, hampack.bounds, hampack.constructions
import hampack.linalg, hampack.partitions, hampack.search
loaded = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
assert not loaded, loaded
"""
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
