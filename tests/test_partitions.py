"""Equitable partitions, distance partitions, five-cell reconstructions."""

import pytest

from hampack import constructions as con
from hampack.core import Code, Space, Word
from hampack.partitions import (
    FIVE_CELL_MATRIX,
    FIVE_CELL_SIZES,
    IntersectionMatrix,
    Partition,
    distance_partition,
    is_equitable,
    partition_from_unitrade,
    split_distance3_cell,
)


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
        with pytest.raises(ValueError):
            is_equitable(space, [[0, 1], [1, 2] + list(range(3, 8))])
        with pytest.raises(ValueError):
            is_equitable(space, [[0]])


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
