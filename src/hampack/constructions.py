"""Explicit code and unitrade constructions.

Families implemented here:

  * distance-2 MDS codes (zero digit sum mod q), the optimal n-fold
    1-packings for large alphabets;
  * q-ary Hamming codes of length q+1 (prime q) and unions of their
    cosets, which beat the MDS cardinality when q = n-1;
  * the irreducible non-bipartite extended unitrades L*(n) for even
    n >= 6, plus diagonal unitrades and concatenation;
  * parity extension / puncturing / shortening, the moves between
    length-n packings and their even-weight companions;
  * the three inequivalent 96-word extended 1-perfect unitrades of
    length 10 together with their 32-word completely regular codes:
    one linear pair, one Z2Z4-linear pair, one purely propelinear pair.

The generator/check matrices, coset representatives, propelinear
generators and orbit seeds for the 96-word objects are embedded as
data; ``embedded_data()`` cross-checks them (Gray-map consistency,
orthogonality, column multisets) and refuses to hand out inconsistent
tables.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import isqrt

from .core import Code, Space, Word, _check_lambda, _check_same_space, _code, _frozen, _key_of, _symbols_of
from .linalg import (
    BinaryMatrix,
    MixedMatrix,
    MixedWord,
    PropelinearMap,
    _coset_union,
    gf2_span,
    gray_image,
    gray_map,
    orbit,
    z4_module_span,
)

# ---------------------------------------------------------------------------
# embedded data for the three 96-word unitrades
# ---------------------------------------------------------------------------

_GEN1 = ("0011111100", "1100111010", "1111001001", "0101010111", "1010100111")
_CHECK1 = ("1101100011", "0011001111", "0110110110", "1010111001", "1101011100")

# mixed rows are written 'z2 block | z4 block'
_GEN2 = ("1100|022", "1010|202", "1001|220", "0111|111")
_CHECK2 = ("1100|011", "1010|101", "1001|110")
_GEN3 = ("11|2222", "10|0111", "01|1031")
_CHECK3 = ("11|2222", "10|1110", "01|1301")

_COSET_REPS_K1 = (
    "0001001001",
    "0001001100",
    "0001011110",
    "0001010010",
    "0000010101",
    "0000010011",
)
_COSET_REPS_K2 = ("01|1300", "10|1300", "00|2030", "10|1030", "01|0330", "11|3330")

_DISPLAY_GENS = ("0001111011", "0010101010", "0100110100", "1000110111")
_DISPLAY_TRANSLATES = (
    "0000000000",
    "0000100001",
    "0000100111",
    "0000101110",
    "0000111001",
    "0000111100",
)

_XI0_TRANSLATION = "1111111111"
_XI1_TRANSLATION, _XI1_CYCLES = "0101001111", ((0, 1), (2, 3))
_XI2_TRANSLATION, _XI2_CYCLES = "0001010011", ((2, 3), (4, 5), (6, 7, 8, 9))

_ORBIT_SEEDS = (
    "0000000111",
    "0000110100",
    "0000001101",
    "0000110001",
    "0000101010",
    "0000011010",
)


@_frozen
class EmbeddedData:
    """Checked generator data behind the three 96-word constructions."""

    gen1: BinaryMatrix
    check1: BinaryMatrix
    gen2: MixedMatrix
    check2: MixedMatrix
    gen3: MixedMatrix
    check3: MixedMatrix
    coset_reps_k1: tuple[Word, ...]
    coset_reps_k2: tuple[MixedWord, ...]
    display_gens: BinaryMatrix
    display_translates: tuple[Word, ...]
    xi_generators: tuple[PropelinearMap, PropelinearMap, PropelinearMap]
    orbit_seeds: tuple[Word, ...]


def _self_check(data: EmbeddedData) -> None:
    for mixed_row, binary_row in zip(data.gen2.rows, data.gen1.rows[:4]):
        if gray_map(mixed_row) != binary_row:
            raise RuntimeError(
                f"embedded data corrupt: Gray image of {mixed_row} is not {binary_row}"
            )
    for g in data.gen1.rows:
        for h in data.check1.rows:
            if (g.key & h.key).bit_count() % 2:
                raise RuntimeError("embedded data corrupt: generator and check rows not orthogonal")
    if sorted(data.gen1.columns()) != sorted(data.check1.columns()):
        raise RuntimeError("embedded data corrupt: check columns are not a permutation of generator columns")


@cache
def embedded_data() -> EmbeddedData:
    data = EmbeddedData(
        gen1=BinaryMatrix.from_strings(_GEN1),
        check1=BinaryMatrix.from_strings(_CHECK1),
        gen2=MixedMatrix.from_strings(_GEN2),
        check2=MixedMatrix.from_strings(_CHECK2),
        gen3=MixedMatrix.from_strings(_GEN3),
        check3=MixedMatrix.from_strings(_CHECK3),
        coset_reps_k1=tuple(Word.from_string(s, 2) for s in _COSET_REPS_K1),
        coset_reps_k2=tuple(MixedWord.from_string(s) for s in _COSET_REPS_K2),
        display_gens=BinaryMatrix.from_strings(_DISPLAY_GENS),
        display_translates=tuple(Word.from_string(s, 2) for s in _DISPLAY_TRANSLATES),
        xi_generators=(
            PropelinearMap(Word.from_string(_XI0_TRANSLATION, 2), tuple(range(10))),
            PropelinearMap.from_cycles(_XI1_TRANSLATION, _XI1_CYCLES, 10),
            PropelinearMap.from_cycles(_XI2_TRANSLATION, _XI2_CYCLES, 10),
        ),
        orbit_seeds=tuple(Word.from_string(s, 2) for s in _ORBIT_SEEDS),
    )
    _self_check(data)
    return data


# ---------------------------------------------------------------------------
# elementary families
# ---------------------------------------------------------------------------

def mds_code(n: int, q: int) -> Code:
    """All words with digit sum 0 mod q: a distance-2 MDS code of size q^(n-1)."""
    space = Space(n, q)
    keys = [_key_of(space, prefix + ((-sum(prefix)) % q,)) for prefix in product(range(q), repeat=n - 1)]
    return _code(space, keys)


def hamming_code_q(q: int) -> Code:
    """The 1-perfect code of length q+1 over GF(q), prime q.

    Two check equations over the projective-line columns; the kernel has
    q^(n-2) words and every radius-1 ball holds exactly one of them.
    """
    if type(q) is not int or not (q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))):
        raise ValueError(f"prime-field construction only: q={q!r} is not a prime int")
    n = q + 1
    # pairwise independent columns over GF(q): the projective line
    cols = [(0, 1), (1, 0)] + [(1, a) for a in range(1, q)]
    space = Space(n, q)
    keys = []
    # columns 0 and 1 are pivots: x1 = -sum_{j>=2} cols[j][0] x_j, x0 likewise
    for free in product(range(q), repeat=n - 2):
        s0 = sum(cols[j + 2][0] * free[j] for j in range(n - 2)) % q
        s1 = sum(cols[j + 2][1] * free[j] for j in range(n - 2)) % q
        keys.append(_key_of(space, ((-s1) % q, (-s0) % q) + free))
    return _code(space, keys)


def hamming_coset_union(q: int, lam: int, reps: list[Word] | None = None) -> Code:
    """Union of lam cosets of the q-ary Hamming code: a lam-fold 1-packing.

    Default representatives walk the syndrome space in lexicographic
    order.  Each coset of the 1-perfect code meets every radius-1 ball in
    exactly one word, so the union of k <= lam distinct cosets covers
    every vertex exactly k times.  The union skips ``coset_union``'s
    closure proof: the Hamming code is a kernel, and so a group.
    """
    _check_lambda(lam)
    code = hamming_code_q(q)
    if lam > q * q:
        raise ValueError(f"coset count {lam} out of range 1..{q * q}")
    if reps is None:
        syndromes = list(product(range(q), repeat=2))[:lam]
        return _coset_union(code, [_key_of(code.space, (s1, s0) + (0,) * (q - 1)) for s0, s1 in syndromes])
    if len(reps) != lam:
        raise ValueError(f"expected {lam} representatives, got {len(reps)}")
    for r in reps:
        _check_same_space(code, r)
    return _coset_union(code, [r.key for r in reps])


# ---------------------------------------------------------------------------
# unitrade families
# ---------------------------------------------------------------------------

def diagonal_unitrade(n: int) -> Code:
    """{(x, x)}: the minimum-cardinality extended unitrade, 2^(n/2) words."""
    if type(n) is not int or n % 2 or n < 2:
        raise ValueError(f"the diagonal construction needs an even int n >= 2, got n={n!r}")
    half = n // 2
    space = Space(n, 2)
    return _code(space, ((x << half) | x for x in range(1 << half)))


def l_star(n: int) -> Code:
    """The irreducible non-bipartite extended unitrade L*(n), even n >= 6.

    Base set L: all words whose aligned pairs (x_2t, x_2t+1) are 00 or
    11, with an even number of 11 pairs.  For each even i the block
    (x_i, x_i+1, x_i+2, x_i+3), indices mod n, is overwritten by 0110 in
    every word of L, giving n/2 more sets; the union has
    2^(n/2-2) (n/2 + 2) words.
    """
    if type(n) is not int or n % 2 or n < 6:
        raise ValueError(f"L*(n) needs an even int n >= 6, got n={n!r}")
    base = [[b for b in pairs for _ in range(2)]
            for pairs in product((0, 1), repeat=n // 2) if sum(pairs) % 2 == 0]
    words = {tuple(w) for w in base}
    for i in range(0, n, 2):
        for w in base:
            w = w[:]
            for d, s in enumerate((0, 1, 1, 0)):
                w[(i + d) % n] = s
            words.add(tuple(w))
    space = Space(n, 2)
    return _code(space, [_key_of(space, w) for w in words])


def concatenate(left: Code, right: Code) -> Code:
    """Product unitrade {(u | v)}; extended unitrade of the joint length."""
    from .analysis import is_extended_unitrade

    for part in (left, right):
        if not is_extended_unitrade(part).ok:
            raise ValueError("concatenation requires extended 1-perfect unitrades")
    n_right = right.space.n
    space = Space(left.space.n + n_right, 2)
    return _code(space, ((u << n_right) | v for u in left.keys for v in right.keys))


# ---------------------------------------------------------------------------
# extension, puncturing, shortening
# ---------------------------------------------------------------------------

def extend_parity(code: Code) -> Code:
    """Append the parity-check bit; packing radius/fold carry over both ways."""
    if code.space.q != 2:
        raise ValueError("parity extension is defined for q=2 only")
    space = Space(code.space.n + 1, 2)
    return _code(space, ((k << 1) | (k.bit_count() & 1) for k in code.keys))


def puncture_last(code: Code) -> Code:
    """Delete the last coordinate of every word."""
    if code.space.n < 2:
        raise ValueError("cannot puncture length-1 words")
    space = Space(code.space.n - 1, code.space.q)
    return _code(space, (_key_of(space, _symbols_of(code.space, k)[:-1]) for k in code.keys))


def shorten(code: Code, coord: int, symbol: int) -> Code:
    """Keep words with the given symbol at coord, then delete that coordinate."""
    n, q = code.space.n, code.space.q
    if type(coord) is not int or not 0 <= coord < n:
        raise ValueError(f"coordinate {coord!r} out of range: expected an int in 0..{n - 1}")
    if type(symbol) is not int or not 0 <= symbol < q:
        raise ValueError(f"symbol {symbol!r} out of range: expected an int in 0..{q - 1}")
    space = Space(n - 1, q)
    words = (_symbols_of(code.space, k) for k in code.keys)
    return _code(space, (_key_of(space, s[:coord] + s[coord + 1:]) for s in words if s[coord] == symbol))


def majority_shorten(code: Code, coord: int) -> Code:
    """Shorten at the coordinate's most frequent symbol (ties: smaller symbol)."""
    if len(code) == 0:
        raise ValueError("an empty code has no most frequent symbol")
    # shorten checks the coordinate; max keeps the first, smallest symbol
    return max((shorten(code, coord, s) for s in range(code.space.q)), key=len)


# ---------------------------------------------------------------------------
# the three 96-word unitrades and their completely regular codes
# ---------------------------------------------------------------------------

def packing96_linear() -> tuple[Code, Code]:
    """Linear pair: C0 = span of the 5 generator rows, C4 = union of the
    6 listed cosets of the span of the last 4 rows."""
    data = embedded_data()
    c0 = gf2_span(data.gen1)
    k1 = gf2_span(data.gen1.rows[1:])
    c4 = _coset_union(k1, [r.key for r in data.coset_reps_k1])
    return c0, c4


def z2z4_span_code(matrix: MixedMatrix) -> Code:
    """Gray image of the Z2Z4-additive span of the matrix rows."""
    return gray_image(z4_module_span(matrix))


def packing96_z2z4() -> tuple[Code, Code]:
    """Z2Z4 pair in the frame of the second generator matrix.

    C0 is the Gray image of the full additive span; C4 is the Gray image
    of the 6 listed cosets of the module generated by the last two rows.
    The dual description (the 3-row check matrix used as a generator)
    spans a coordinate-permuted copy of the same code; both are exposed
    and the equivalence is checked by the test suite.
    """
    data = embedded_data()
    c0 = z2z4_span_code(data.gen3)
    module = z4_module_span(data.gen3.rows[1:])
    if len(module) != 16:
        raise RuntimeError("embedded data corrupt: the two-row module must have 16 elements")
    cosets = [k + r for r in data.coset_reps_k2 for k in module]
    c4 = gray_image(cosets)
    return c0, c4


def packing96_propelinear() -> tuple[Code, Code]:
    """Propelinear pair: C0 = orbit of zero under the three generators,
    C4 = union of the six seed orbits under the last two."""
    data = embedded_data()
    xi0, xi1, xi2 = data.xi_generators
    space = Space(10, 2)
    c0 = orbit([xi0, xi1, xi2], space.zero())
    c4 = _code(space, {k for seed in data.orbit_seeds for k in orbit([xi1, xi2], seed).keys})
    return c0, c4


def classified_C4_display() -> Code:
    """The 96-word unitrade as displayed by the classification: the span
    of four generators unioned over six translates."""
    data = embedded_data()
    k = gf2_span(data.display_gens)
    return _coset_union(k, [t.key for t in data.display_translates])
