"""Equitable partitions and completely regular codes in H(n, 2).

A partition (C_0, ..., C_m) of the vertex set is equitable when every
vertex of C_i has a number s_{i,j} of neighbors in C_j that depends only
on (i, j); the matrix (s_{i,j}) is the intersection matrix.  A code is
completely regular when its distance partition is equitable with a
tridiagonal matrix, summarized by the intersection array
(b_0, ..., b_{rho-1}; c_1, ..., c_rho).

The module also reconstructs the five-cell partition that the 96-word
extended unitrades of length 10 live in: with T the odd-parity unitrade,

    C2 = N(T),  C0 = even \\ C2,  C1 = N(C0),  C3 = odd \\ (T u C1),

and the reconstruction is accepted only if the result is equitable with
the reference matrix ``FIVE_CELL_MATRIX`` below.

Cells are kept as frozensets of bit-packed vertex keys; the n <= 22 cap
keeps the vertex-indexed arrays affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import Code, Space, Word, _word

MAX_PARTITION_N = 22

# reference intersection matrix of the five-cell partitions around the
# 32-word completely regular codes of length 10 (cells C0..C4, degree 10)
FIVE_CELL_MATRIX = (
    (0, 10, 0, 0, 0),
    (1, 0, 9, 0, 0),
    (0, 6, 0, 2, 2),
    (0, 0, 10, 0, 0),
    (0, 0, 10, 0, 0),
)

# the matrix above forces the cell sizes: solve |C_i| s_ij = |C_j| s_ji
# with total 2^10
FIVE_CELL_SIZES = (32, 320, 480, 96, 96)


@dataclass(frozen=True)
class IntersectionMatrix:
    """The quotient matrix s_{i,j} of an equitable partition."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.entries)

    def validate(self, cell_sizes: Sequence[int], degree: int) -> None:
        """Consistency: |C_i| s_ij = |C_j| s_ji and rows sum to the degree."""
        for i, row in enumerate(self.entries):
            if sum(row) != degree:
                raise ValueError(f"row {i} sums to {sum(row)}, degree is {degree}")
            for j, s in enumerate(row):
                if cell_sizes[i] * s != cell_sizes[j] * self.entries[j][i]:
                    raise ValueError(f"edge count mismatch between cells {i} and {j}")

    def is_tridiagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.m)
            for j in range(self.m)
            if abs(i - j) > 1
        )

    def intersection_array(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(b_0..b_{rho-1}; c_1..c_rho) of a tridiagonal matrix."""
        if not self.is_tridiagonal():
            raise ValueError("intersection array requires a tridiagonal matrix")
        b = tuple(self.entries[i][i + 1] for i in range(self.m - 1))
        c = tuple(self.entries[i][i - 1] for i in range(1, self.m))
        return b, c


@dataclass(frozen=True)
class Partition:
    """Disjoint cells covering all 2^n vertices, with the matrix if equitable."""

    space: Space
    cells: tuple[frozenset[int], ...]
    matrix: Optional[IntersectionMatrix]

    @property
    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    @property
    def equitable(self) -> bool:
        return self.matrix is not None

    @property
    def completely_regular(self) -> bool:
        return self.matrix is not None and self.matrix.is_tridiagonal()


def _check_space(space: Space) -> None:
    if space.q != 2:
        raise ValueError("partition machinery is implemented for q=2 only")
    if space.n > MAX_PARTITION_N:
        raise ValueError(f"partitions are supported up to n={MAX_PARTITION_N}")


def _cell_index(space: Space, cells: Sequence[frozenset[int]]) -> list[int]:
    idx = [-1] * space.size
    for ci, cell in enumerate(cells):
        if not cell:
            raise ValueError(f"cell {ci} is empty")
        for key in cell:
            if idx[key] != -1:
                raise ValueError(f"cells overlap at vertex {_word(space, key)}")
            idx[key] = ci
    missing = idx.count(-1)
    if missing:
        raise ValueError(f"cells do not cover the space: {missing} vertices missing")
    return idx


def is_equitable(
    space: Space, cells: Sequence[Iterable[int] | Code]
) -> tuple[Optional[IntersectionMatrix], Optional[Word]]:
    """Intersection matrix of the partition, or a witness vertex that breaks it."""
    _check_space(space)
    cell_sets = tuple(frozenset(c.keys if isinstance(c, Code) else c) for c in cells)
    idx = _cell_index(space, cell_sets)
    n, m = space.n, len(cell_sets)
    rows: list[Optional[tuple[int, ...]]] = [None] * m
    for key in range(space.size):
        profile = [0] * m
        for b in range(n):
            profile[idx[key ^ (1 << b)]] += 1
        ci = idx[key]
        prof = tuple(profile)
        if rows[ci] is None:
            rows[ci] = prof
        elif rows[ci] != prof:
            return None, _word(space, key)
    matrix = IntersectionMatrix(tuple(r for r in rows if r is not None))
    matrix.validate([len(c) for c in cell_sets], space.degree)
    return matrix, None


def distance_cells(code: Code) -> list[frozenset[int]]:
    """Vertex layers by exact distance to the code (BFS from the support)."""
    space = code.space
    _check_space(space)
    if len(code) == 0:
        raise ValueError("distance partition of an empty code is undefined")
    n = space.n
    dist = [-1] * space.size
    frontier = sorted(set(code.keys))
    for k in frontier:
        dist[k] = 0
    layers = [frozenset(frontier)]
    d = 0
    while frontier:
        nxt = []
        for k in frontier:
            for b in range(n):
                other = k ^ (1 << b)
                if dist[other] == -1:
                    dist[other] = d + 1
                    nxt.append(other)
        if nxt:
            layers.append(frozenset(nxt))
        frontier = nxt
        d += 1
    return layers


def distance_partition(code: Code) -> Partition:
    """Partition by distance to the code; equitable + tridiagonal means
    the code is completely regular."""
    layers = distance_cells(code)
    matrix, _ = is_equitable(code.space, layers)
    return Partition(code.space, tuple(layers), matrix)


def split_distance3_cell(c0: Code, c4: Code) -> Partition:
    """Five-cell partition (C0, C1, C2, D3 \\ C4, C4) refining the distance
    partition of C0 at distance 3."""
    if c0.space != c4.space:
        raise ValueError("codes live in different spaces")
    layers = distance_cells(c0)
    if len(layers) < 4:
        raise ValueError("the code has covering radius < 3: nothing to split")
    c4_keys = frozenset(c4.keys)
    if not c4_keys <= layers[3]:
        raise ValueError("the splitting cell is not contained in the distance-3 cell")
    cells: list[frozenset[int]] = list(layers[:3])
    cells.append(frozenset(layers[3] - c4_keys))
    cells.append(c4_keys)
    cells.extend(layers[4:])
    # an empty split (or an exact split) degenerates to fewer cells
    cells = [c for c in cells if c]
    matrix, _ = is_equitable(c0.space, cells)
    return Partition(c0.space, tuple(cells), matrix)


def partition_from_unitrade(t_set: Code) -> Optional[Partition]:
    """Rebuild the five-cell partition from its odd-parity 96-word cell.

    Returns None when the reconstruction is not equitable with the
    reference matrix, which is exactly the acceptance condition.
    """
    from .analysis import is_extended_unitrade

    space = t_set.space
    _check_space(space)
    if space.n != 10:
        raise ValueError("the five-cell reconstruction is specific to length 10")
    c4 = frozenset(t_set.keys)
    if len(t_set) != len(c4):
        raise ValueError("unitrade input contains duplicate words")
    if len(t_set) != 96:
        raise ValueError(f"expected a 96-word unitrade, got {len(t_set)} words")
    if any(not k.bit_count() & 1 for k in c4):
        raise ValueError("expected an odd-parity unitrade; translate by an odd word first")
    if not is_extended_unitrade(t_set).ok:
        raise ValueError("input is not an extended 1-perfect unitrade")

    n = space.n
    odd = frozenset(k for k in range(space.size) if k.bit_count() & 1)
    even = frozenset(k for k in range(space.size) if not k.bit_count() & 1)
    c2 = frozenset(k ^ (1 << b) for k in c4 for b in range(n))
    c0 = even - c2
    c1 = frozenset(k ^ (1 << b) for k in c0 for b in range(n))
    c3 = odd - c4 - c1
    if c1 & c4:
        return None
    cells = (c0, c1, c2, c3, c4)
    if any(not c for c in cells):
        return None
    matrix, _ = is_equitable(space, cells)
    if matrix is None or matrix.entries != FIVE_CELL_MATRIX:
        return None
    return Partition(space, cells, matrix)
