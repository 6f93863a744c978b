"""Equitable partitions, distance partitions, five-cell reconstructions."""

import random
import re
from math import comb

import pytest

from hampack import constructions as con
from hampack.core import Code, Space, Word
from hampack.partitions import (
    FIVE_CELL_MATRIX,
    FIVE_CELL_SIZES,
    IntersectionMatrix,
    Partition,
    distance_cells,
    distance_partition,
    is_equitable,
    partition_from_unitrade,
    split_distance3_cell,
)
from oracles import distance_cells as oracle_distance_cells, equitable_reading


class TestIntersectionMatrix:
    def test_reference_consistency(self):
        m = IntersectionMatrix(FIVE_CELL_MATRIX)
        m.validate(FIVE_CELL_SIZES, degree=10)
        assert sum(FIVE_CELL_SIZES) == 1 << 10

    def test_tridiagonal_detection(self):
        tri = IntersectionMatrix(((0, 10, 0), (1, 3, 6), (0, 6, 4)))
        assert tri.is_tridiagonal()
        assert not IntersectionMatrix(FIVE_CELL_MATRIX).is_tridiagonal()

    def test_intersection_array(self):
        tri = IntersectionMatrix(((0, 10, 0, 0), (1, 0, 9, 0), (0, 6, 0, 4), (0, 0, 10, 0)))
        assert tri.intersection_array() == ((10, 9, 4), (1, 6, 10))

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            IntersectionMatrix(((0, 10), (1, 9))).validate((4, 20), degree=10)


class TestIsEquitable:
    def test_trivial_partition(self):
        space = Space(4, 2)
        matrix, witness = is_equitable(space, [range(16)])
        assert witness is None
        assert matrix.entries == ((4,),)

    def test_parity_partition(self):
        space = Space(5, 2)
        evens = [k for k in range(32) if k.bit_count() % 2 == 0]
        odds = [k for k in range(32) if k.bit_count() % 2 == 1]
        matrix, _ = is_equitable(space, [evens, odds])
        assert matrix.entries == ((0, 5), (5, 0))

    def test_non_equitable_witness(self):
        # {0} vs rest: vertex 1 has a neighbor in {0} while vertex 7 has none
        space = Space(3, 2)
        matrix, witness = is_equitable(space, [[0], list(range(1, 8))])
        assert matrix is None and witness is not None
        m2, w2 = is_equitable(space, [[0, 1], list(range(2, 8))])
        assert m2 is None and w2 is not None

    def test_overlap_and_cover_errors(self):
        space = Space(3, 2)
        with pytest.raises(ValueError, match="overlap at vertex 001"):
            is_equitable(space, [[0, 1], [1, 2] + list(range(3, 8))])
        with pytest.raises(ValueError, match="7 vertices missing"):
            is_equitable(space, [[0]])
        with pytest.raises(ValueError, match="cell 1 is empty"):
            is_equitable(space, [range(8), []])

    def test_members_must_be_vertex_keys(self):
        space = Space(3, 2)
        rest = list(range(1, 8))
        for bad, cells in ((-1, [[-1, 0] + rest]), (8, [[0], rest + [8]]), (True, [[0], rest[1:] + [True]]),
                           ("1", [[0, "1"], rest[1:]]), (2.0, [[0, 2.0], rest])):
            with pytest.raises(ValueError, match=f"holds {bad!r}, not a vertex key"):
                is_equitable(space, cells)
        for other in (Space(4, 2), Space(3, 3)):
            with pytest.raises(ValueError, match=re.escape(f"cell 1 is a code of {other!r}")):
                is_equitable(space, [[0], Code(other, [other.zero()])])
        # the boundary cells of a larger space are read key by key
        with pytest.raises(ValueError, match="cell 1 holds 8, not a vertex key"):
            is_equitable(space, distance_cells(Code.from_bits(Space(4, 2), [0])))
        # a code of the space itself is read by its keys
        odd = Code.from_bits(space, [1, 2, 4, 7])
        assert is_equitable(space, [Code.from_bits(space, [0, 3, 5, 6]), odd])[0].entries == ((0, 3), (3, 0))


def _oracle_check(space, cells):
    matrix, witness = is_equitable(space, cells)
    rows, bad = equitable_reading(space.n, [frozenset(c) for c in cells])
    assert (matrix.entries if matrix else None) == rows
    assert (witness.key if witness else None) == bad
    return matrix


def _moved(cells, rng):
    """The partition with one vertex moved to another cell (a near miss)."""
    cells = [set(c) for c in cells]
    src = rng.choice([i for i, c in enumerate(cells) if len(c) > 1])
    dst = (src + rng.randrange(1, len(cells))) % len(cells)
    v = rng.choice(sorted(cells[src]))
    cells[src].discard(v)
    cells[dst].add(v)
    return cells


class TestBitsetKernelsAgainstOracles:
    def test_random_partitions(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randrange(1, 11)
            cells = [set() for _ in range(rng.randrange(1, 6))]
            for v in range(1 << n):
                cells[rng.randrange(len(cells))].add(v)
            _oracle_check(Space(n, 2), [c for c in cells if c])

    def test_distance_partitions_of_random_codes(self):
        rng = random.Random(42)
        equitable = 0
        for _ in range(120):
            n = rng.randrange(1, 11)
            space = Space(n, 2)
            code = Code.from_bits(space, [rng.randrange(1 << n) for _ in range(rng.randrange(1, 6))])
            cells = distance_cells(code)
            assert cells == oracle_distance_cells(code)
            equitable += _oracle_check(space, cells) is not None
            if len(cells) > 1 and sum(len(c) > 1 for c in cells):
                _oracle_check(space, _moved(cells, rng))
        assert 0 < equitable < 120

    def test_paper_partitions_and_near_misses(self, all_pairs):
        rng = random.Random(43)
        for c0, c4 in all_pairs.values():
            space = c0.space
            assert distance_cells(c0) == oracle_distance_cells(c0)
            parts = [distance_partition(c0), split_distance3_cell(c0, c4), partition_from_unitrade(c4)]
            for part in parts:
                assert part.matrix is not None and _oracle_check(space, part.cells) == part.matrix
                for _ in range(3):
                    assert _oracle_check(space, _moved(part.cells, rng)) is None
            # a C0 code with one word moved is no longer completely regular
            moved = Code.from_bits(space, list(c0.keys[1:]) + [c0.keys[0] ^ 1])
            assert distance_cells(moved) == oracle_distance_cells(moved)
            assert _oracle_check(space, distance_cells(moved)) is None
            # a C4 cell with one word swapped for another distance-3 vertex
            spare = min(parts[0].cells[3] - frozenset(c4.keys))
            part = split_distance3_cell(c0, Code.from_bits(space, list(c4.keys[1:]) + [spare]))
            assert part.matrix is None and _oracle_check(space, part.cells) is None

    def test_antipodal_pair_at_length_16(self):
        n = 16
        space = Space(n, 2)
        part = distance_partition(Code.from_bits(space, [0, (1 << n) - 1]))
        assert part.cell_sizes == tuple(2 * comb(n, d) for d in range(n // 2)) + (comb(n, n // 2),)
        assert part.completely_regular
        b, c = part.matrix.intersection_array()
        assert b == tuple(n - d for d in range(n // 2))
        assert c == tuple(d for d in range(1, n // 2)) + (n,)


class TestDistancePartition:
    def test_single_vertex_gives_sphere_layers(self):
        space = Space(4, 2)
        part = distance_partition(Code.from_bits(space, [0]))
        assert part.cell_sizes == (1, 4, 6, 4, 1)
        assert part.completely_regular
        b, c = part.matrix.intersection_array()
        assert b == (4, 3, 2, 1) and c == (1, 2, 3, 4)

    def test_completely_regular_pairs(self, all_pairs):
        for c0, _ in all_pairs.values():
            part = distance_partition(c0)
            assert part.cell_sizes == (32, 320, 480, 192)
            assert part.completely_regular
            assert part.matrix.intersection_array() == ((10, 9, 4), (1, 6, 10))

    def test_covering_radius_three(self, pair_linear):
        c0, _ = pair_linear
        assert len(distance_partition(c0).cells) == 4


class TestSplitDistance3:
    def test_reproduces_reference_matrix(self, all_pairs):
        for c0, c4 in all_pairs.values():
            part = split_distance3_cell(c0, c4)
            assert part.equitable
            assert part.matrix.entries == FIVE_CELL_MATRIX
            assert part.cell_sizes == FIVE_CELL_SIZES

    def test_empty_split_degenerates_to_four_cells(self, pair_linear):
        c0, _ = pair_linear
        empty = Code(c0.space, [])
        part = split_distance3_cell(c0, empty)
        assert len(part.cells) == 4
        assert part.matrix is not None
        assert part.matrix.entries != FIVE_CELL_MATRIX

    def test_containment_enforced(self, pair_linear):
        c0, _ = pair_linear
        with pytest.raises(ValueError):
            split_distance3_cell(c0, Code.from_bits(c0.space, [0]))


class TestPartitionFromUnitrade:
    def test_reconstruction_succeeds(self, all_pairs):
        for _, c4 in all_pairs.values():
            part = partition_from_unitrade(c4)
            assert part is not None
            assert part.cell_sizes == FIVE_CELL_SIZES
            assert part.matrix.entries == FIVE_CELL_MATRIX

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            partition_from_unitrade(con.diagonal_unitrade(10))

    def test_even_parity_rejected(self, pair_linear):
        _, c4 = pair_linear
        shifted = c4.translate(Word.from_string("1000000000", 2))
        with pytest.raises(ValueError):
            partition_from_unitrade(shifted)

    def test_non_unitrade_rejected(self, all_pairs):
        # one word swapped for another odd one: 96 odd words, no unitrade
        for _, c4 in all_pairs.values():
            spare = next(k for k in range(1, 1 << 10, 2) if k.bit_count() & 1 and k not in c4.keys)
            swapped = Code.from_bits(c4.space, list(c4.keys[1:]) + [spare])
            with pytest.raises(ValueError, match="not an extended 1-perfect unitrade"):
                partition_from_unitrade(swapped)

    def test_merge_last_two_cells_is_tridiagonal(self, all_pairs):
        for _, c4 in all_pairs.values():
            part = partition_from_unitrade(c4)
            merged = [part.cells[0], part.cells[1], part.cells[2], part.cells[3] | part.cells[4]]
            matrix, _ = is_equitable(part.space, merged)
            assert matrix is not None and matrix.is_tridiagonal()

    def test_make_partition_helper(self):
        space = Space(3, 2)
        for cells, equitable in (([[0], [1, 2, 4], [3, 5, 6], [7]], True),
                                 ([[0, 7], [1, 2, 4], [3, 5, 6]], False)):
            cells = tuple(frozenset(c) for c in cells)
            matrix, witness = is_equitable(space, cells)
            part = Partition(space, cells, matrix)
            assert part.equitable == equitable and (witness is None) == equitable
            assert part.cell_sizes == tuple(len(c) for c in cells)
