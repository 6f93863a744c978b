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

Inside, a vertex set S is a 2^n-bit int, bit v for the vertex with key v;
its image along coordinate b is ``((S & M_b) << 2^b) | ((S >> 2^b) & M_b)``
with cached masks M_b.  Distance layers come from a breadth-first search
over whole layers, equitability from bit-sliced neighbour counts; cells
are frozensets of keys at the API boundary only.  The n <= 22 cap bounds
each set and count plane to 512 KiB, a boundary cell to 2^22 keys.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import or_, xor
from typing import Iterable, Iterator, Optional, Sequence

from .core import Code, Space, Word, _frozen, _word

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


@_frozen
class IntersectionMatrix:
    """The quotient matrix s_{i,j} of an equitable partition."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.entries
        if type(rows) is not tuple or not all(
                type(row) is tuple and len(row) == len(rows) and all(type(s) is int for s in row) for row in rows):
            raise ValueError(f"entries must be a square tuple of int tuples, got {rows!r}")

    @property
    def m(self) -> int:
        return len(self.entries)

    def validate(self, cell_sizes: Sequence[int], degree: int) -> None:
        """Consistency: |C_i| s_ij = |C_j| s_ji and rows sum to the degree."""
        if len(cell_sizes) != self.m:
            raise ValueError(f"cell sizes {cell_sizes!r} do not match the {self.m} cells of the matrix")
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


@_frozen
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


@lru_cache(maxsize=None)
def _masks(n: int) -> tuple[int, ...]:
    """M_b, the set of keys with bit b clear, for b = 0..n-1; built once per n."""
    masks = []
    for b in range(n):
        mask, period = (1 << (1 << b)) - 1, 2 << b
        while period < 1 << n:
            mask, period = mask | mask << period, 2 * period
        masks.append(mask)
    return tuple(masks)


def _images(bits: int, n: int) -> Iterator[int]:
    """The set moved along each coordinate: bit b of every key flipped."""
    for b, mask in enumerate(_masks(n)):
        yield ((bits & mask) << (1 << b)) | ((bits >> (1 << b)) & mask)


def _neighbourhood(bits: int, n: int) -> int:
    return reduce(or_, _images(bits, n), 0)


def _least(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _bits(keys: Iterable[int], size: int) -> int:
    """The vertex set of keys known to lie in 0..size-1."""
    digits = bytearray(b"0") * size
    for k in keys:
        digits[-1 - k] = 49  # the digit "1" of bit k, counted from the low end
    return int(digits, 2)


class _Cell(frozenset):
    """A cell at the API boundary that keeps its vertex set, so that cells
    handed back to ``is_equitable`` are not read again key by key."""

    __slots__ = ("bits",)


def _members(bits: int, size: int) -> _Cell:
    """The keys of a vertex set, for the API boundary."""
    cell = _Cell(compress(range(size), bin(bits)[:1:-1].encode().translate(_BINARY_DIGITS)))
    cell.bits = bits
    return cell


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")  # the digits of bin(), lowest bit first


def _cell_bits(space: Space, cells: Iterable[Iterable[int] | Code]) -> list[int]:
    """The cells as vertex sets, checked to be nonempty, disjoint and covering."""
    size, out, seen = space.size, [], 0
    for ci, cell in enumerate(cells):
        if isinstance(cell, Code) and cell.space != space:
            raise ValueError(f"cell {ci} is a code of {cell.space}, not of {space}")
        if isinstance(cell, _Cell) and not cell.bits >> size:
            bits = cell.bits
        else:
            keys = cell.keys if isinstance(cell, Code) else tuple(cell)
            if keys and ({*map(type, keys)} != {int} or min(keys) < 0 or max(keys) >= size):
                bad = next(k for k in keys if type(k) is not int or not 0 <= k < size)
                raise ValueError(f"cell {ci} holds {bad!r}, not a vertex key of {space}")
            bits = _bits(keys, size)
        if not bits:
            raise ValueError(f"cell {ci} is empty")
        if bits & seen:
            raise ValueError(f"cells overlap at vertex {_word(space, _least(bits & seen))}")
        seen |= bits
        out.append(bits)
    if seen != (1 << size) - 1:
        raise ValueError(f"cells do not cover the space: {size - seen.bit_count()} vertices missing")
    return out


def _equitable(space: Space, cells: Sequence[int]) -> tuple[Optional[IntersectionMatrix], Optional[Word]]:
    """The matrix of a partition into vertex sets, or the witness.

    The n images of cell C_j are added into bit-sliced count planes: a
    vertex has sum_l 2^l [in plane l] neighbours in C_j, and C_i is
    equitable towards C_j when every plane holds all of C_i or none of
    it.  The witness is the least vertex whose counts differ from those
    of the least vertex of its cell.
    """
    firsts = [_least(c) for c in cells]
    rows = [[0] * len(cells) for _ in cells]
    off = [0] * len(cells)  # per cell: the members whose counts differ from its least member's
    for j, cell in enumerate(cells):
        planes: list[int] = []
        for carry in _images(cell, space.n):  # add one 0/1 plane, carry rippling up
            for level, plane in enumerate(planes):
                planes[level], carry = plane ^ carry, plane & carry
            if carry:
                planes.append(carry)
        for level, plane in enumerate(planes):
            for i, (ci, first) in enumerate(zip(cells, firsts)):
                full = plane >> first & 1
                rows[i][j] += full << level
                off[i] |= ci & ~plane if full else ci & plane
    if any(off):
        return None, _word(space, min(_least(o) for o in off if o))
    matrix = IntersectionMatrix(tuple(map(tuple, rows)))
    matrix.validate([c.bit_count() for c in cells], space.degree)
    return matrix, None


def is_equitable(
    space: Space, cells: Iterable[Iterable[int] | Code]
) -> tuple[Optional[IntersectionMatrix], Optional[Word]]:
    """Intersection matrix of the partition, or a witness vertex that breaks it."""
    _check_space(space)
    return _equitable(space, _cell_bits(space, cells))


def _distance_layers(code: Code) -> list[int]:
    """Vertex sets by exact distance to the code (BFS over whole layers)."""
    _check_space(code.space)
    if len(code) == 0:
        raise ValueError("distance partition of an empty code is undefined")
    layers = [_bits(code.keys, code.space.size)]
    reached = layers[0]
    while layer := _neighbourhood(layers[-1], code.space.n) & ~reached:
        layers.append(layer)
        reached |= layer
    return layers


def _partition(space: Space, cells: Sequence[int]) -> Partition:
    return Partition(space, tuple(_members(c, space.size) for c in cells), _equitable(space, cells)[0])


def distance_cells(code: Code) -> list[frozenset[int]]:
    """Vertex layers by exact distance to the code."""
    return [_members(layer, code.space.size) for layer in _distance_layers(code)]


def distance_partition(code: Code) -> Partition:
    """Partition by distance to the code; equitable + tridiagonal means
    the code is completely regular."""
    return _partition(code.space, _distance_layers(code))


def split_distance3_cell(c0: Code, c4: Code) -> Partition:
    """Five-cell partition (C0, C1, C2, D3 \\ C4, C4) refining the distance
    partition of C0 at distance 3."""
    if c0.space != c4.space:
        raise ValueError("codes live in different spaces")
    layers = _distance_layers(c0)
    if len(layers) < 4:
        raise ValueError("the code has covering radius < 3: nothing to split")
    split = _bits(c4.keys, c0.space.size)
    if split & ~layers[3]:
        raise ValueError("the splitting cell is not contained in the distance-3 cell")
    cells = [*layers[:3], layers[3] & ~split, split, *layers[4:]]
    # an empty split (or an exact split) degenerates to fewer cells
    return _partition(c0.space, [c for c in cells if c])


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
    c4 = _bits(t_set.keys, space.size)
    if len(t_set) != c4.bit_count():
        raise ValueError("unitrade input contains duplicate words")
    if len(t_set) != 96:
        raise ValueError(f"expected a 96-word unitrade, got {len(t_set)} words")
    every = (1 << space.size) - 1
    odd = reduce(xor, (every ^ m for m in _masks(space.n)))  # an odd number of bits set
    if c4 & ~odd:
        raise ValueError("expected an odd-parity unitrade; translate by an odd word first")
    c2 = _neighbourhood(c4, space.n)
    c0 = every & ~(odd | c2)
    c1 = _neighbourhood(c0, space.n)
    c3 = odd & ~(c4 | c1)
    cells = (c0, c1, c2, c3, c4)
    matrix = None if c1 & c4 or not all(cells) else _equitable(space, cells)[0]
    if matrix is not None and matrix.entries == FIVE_CELL_MATRIX:
        # every even vertex is in C0 or C2, with 0 or 2 neighbours in the
        # input: it is an extended unitrade, and needs no ball count
        return Partition(space, tuple(_members(c, space.size) for c in cells), matrix)
    if not is_extended_unitrade(t_set).ok:
        raise ValueError("input is not an extended 1-perfect unitrade")
    return None
