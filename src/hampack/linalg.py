"""Exact linear algebra over GF(2), GF(q) and the mixed Z2/Z4 alphabet.

Three kinds of generating structure feed the explicit constructions:

  * plain GF(2) generator matrices (spans, ranks, coset unions),
  * mixed Z2Z4-additive matrices, whose rows have a block of binary
    coordinates (arithmetic mod 2) and a block of quaternary coordinates
    (arithmetic mod 4), mapped to binary words by the Gray map
    0->00, 1->01, 2->11, 3->10 applied to each quaternary symbol,
  * propelinear maps x -> t + pi(x), a translation composed with a
    coordinate permutation; these compose and invert, and orbit/closure
    computations give codes with a regular automorphism subgroup.

The Gray image of a mixed word lists the Gray pairs of the quaternary
block first, then the binary block, so that the quaternary generators of
the embedded data reproduce the matching binary generator rows exactly.

The permutation convention is (pi . x)[pi[i]] = x[i]: pi moves
coordinate i to position pi[i].  With cycles of length > 2 the opposite
convention gives different orbits; this one is the convention under
which the embedded propelinear generators reproduce the documented
96-word unitrade, which the test suite verifies.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable, Sequence

from .core import Code, Space, Word, _add_keys, _check_same_space, _code, _frozen, _key_of, _word

GRAY = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}


def _check_ints(name: str, entries: tuple[int, ...], bound: int) -> None:
    """The one check of a symbol or coordinate tuple: a tuple of ints in 0..bound-1."""
    if type(entries) is not tuple:
        raise ValueError(f"{name} must be a tuple of ints, got {entries!r}")
    for x in entries:
        if type(x) is not int or not 0 <= x < bound:
            raise ValueError(f"{name} entry {x!r} is not an int in 0..{bound - 1}")


def _check_rows(rows: tuple, kind: type) -> None:
    """The one check of a matrix's rows: a tuple of ``kind`` instances."""
    if type(rows) is not tuple or not all(isinstance(r, kind) for r in rows):
        raise ValueError(f"rows must be a tuple of {kind.__name__}s, got {rows!r}")


# ---------------------------------------------------------------------------
# GF(2) and GF(q) vector machinery
# ---------------------------------------------------------------------------

@_frozen
class BinaryMatrix:
    """A list of binary words of common length, used as matrix rows."""

    rows: tuple[Word, ...]

    def __post_init__(self) -> None:
        _check_rows(self.rows, Word)
        if self.rows:
            space = self.rows[0].space
            if space.q != 2:
                raise ValueError("BinaryMatrix requires q=2 words")
            for r in self.rows:
                if r.space != space:
                    raise ValueError("ragged rows: all rows must share one space")

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "BinaryMatrix":
        return cls(tuple(Word.from_string(t, 2) for t in texts))

    @property
    def space(self) -> Space:
        if not self.rows:
            raise ValueError("empty matrix has no space")
        return self.rows[0].space

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(r.symbols[j] for r in self.rows) for j in range(self.space.n)]


def gf2_span(gens: BinaryMatrix | Sequence[Word], space: Space | None = None) -> Code:
    """The 2**rank distinct GF(2) sums of row subsets, multiplicity 1."""
    if isinstance(gens, BinaryMatrix):
        rows = gens.rows
    else:
        rows = tuple(gens)
        _check_rows(rows, Word)
    if not rows and space is None:
        raise ValueError("empty generator set: pass the ambient space explicitly")
    space = space if space is not None else rows[0].space
    if space.q != 2:
        raise ValueError("gf2_span requires q=2")
    span = {0}
    for r in rows:
        if r.space != space:
            raise ValueError("ragged rows: generator outside the ambient space")
        span |= {v ^ r.key for v in span}
    return _code(space, span)  # XORs of rows checked to live in the space


def gf2_rank(code: Code) -> int:
    """Dimension of the GF(2) span of the words."""
    if code.space.q != 2 and code.keys:
        raise ValueError("gf2_rank requires q=2")
    pivots: dict[int, int] = {}  # leading bit -> the basis row with that leading bit
    for v in code.keys:
        while v and (p := pivots.get(v.bit_length())):
            v ^= p
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def coset_union(group_code: Code, reps: Sequence[Word]) -> Code:
    """Union of the cosets group_code + r over the given representatives.

    The carrier must actually be a group under coordinatewise addition
    mod q (checked).  Representatives falling in a common coset collapse,
    with a warning, since the union is taken as a set.

    Closure is checked in O(|G|) additions: the subgroup generated so far,
    H, grows by one member g at a time into H ∪ (H+g) ∪ (H+2g) ∪ ...,
    stopping at the first coset that lands back in H, and every new
    element must be a member.  Each new element is the sum of an element
    already proven a member and g, so a missing one names two members
    whose sum is missing.  Once every member lies in H, H is the carrier.
    """
    space, q = group_code.space, group_code.space.q
    members = set(group_code.keys)
    if len(members) != len(group_code):
        raise ValueError("coset carrier contains duplicate words")
    zero = space.zero().key
    if zero not in members:
        raise ValueError("coset carrier is not a group: missing the zero word")
    subgroup, generated = [zero], {zero}
    for g in group_code.keys:
        if g in generated:
            continue
        coset, grown = subgroup, []  # coset = H + k·g, and coset[0] = k·g
        while _add_keys(q, coset[0], g) not in generated:
            shifted = []
            for a in coset:
                s = _add_keys(q, a, g)
                if s not in members:
                    raise ValueError("coset carrier is not closed under addition: "
                                     f"{_word(space, a)} + {_word(space, g)}")
                shifted.append(s)
            coset = shifted
            grown += coset
            generated.update(coset)
        subgroup += grown
    for r in reps:
        _check_same_space(group_code, r)
    return _coset_union(group_code, [r.key for r in reps])


def _coset_union(group_code: Code, reps: Sequence[int | bytes]) -> Code:
    """The union of ``coset_union``, from representative keys of its space."""
    q, members = group_code.space.q, set(group_code.keys)
    union = {_add_keys(q, k, r) for r in reps for k in members}
    if len(union) != len(reps) * len(members):
        warnings.warn("coset representatives are not in distinct cosets; duplicates collapsed")
    return _code(group_code.space, union)


# ---------------------------------------------------------------------------
# Z2Z4-additive words and matrices
# ---------------------------------------------------------------------------

@_frozen
class MixedWord:
    """A word with a Z2 block (symbols mod 2) and a Z4 block (symbols mod 4)."""

    __slots__ = ("z2", "z4")
    z2: tuple[int, ...]
    z4: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ints("Z2 block", self.z2, 2)
        _check_ints("Z4 block", self.z4, 4)

    @classmethod
    def from_string(cls, text: str) -> "MixedWord":
        """Parse 'bb|qqqq' (binary digits, a bar, quaternary digits)."""
        left, _, right = text.partition("|")
        return cls(tuple(int(c) for c in left.strip()), tuple(int(c) for c in right.strip()))

    def __add__(self, other: "MixedWord") -> "MixedWord":
        if len(self.z2) != len(other.z2) or len(self.z4) != len(other.z4):
            raise ValueError("mixed word shape mismatch")
        return MixedWord(
            tuple((a + b) % 2 for a, b in zip(self.z2, other.z2)),
            tuple((a + b) % 4 for a, b in zip(self.z4, other.z4)),
        )

    def __str__(self) -> str:
        return "".join(map(str, self.z2)) + "|" + "".join(map(str, self.z4))


@_frozen
class MixedMatrix:
    """Rows of common Z2/Z4 shape; the generator form of a Z2Z4-additive code."""

    binary_cols: int
    quaternary_cols: int
    rows: tuple[MixedWord, ...]

    def __post_init__(self) -> None:
        for name in ("binary_cols", "quaternary_cols"):
            cols = getattr(self, name)
            if type(cols) is not int or cols < 0:
                raise ValueError(f"{name} must be an int >= 0, got {cols!r}")
        _check_rows(self.rows, MixedWord)
        for r in self.rows:
            if len(r.z2) != self.binary_cols or len(r.z4) != self.quaternary_cols:
                raise ValueError("row shape does not match the declared column counts")

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "MixedMatrix":
        rows = tuple(MixedWord.from_string(t) for t in texts)
        if not rows:
            raise ValueError("empty mixed matrix")
        return cls(len(rows[0].z2), len(rows[0].z4), rows)


def gray_map(w: MixedWord) -> Word:
    """Binary image of a mixed word: Gray pairs of the Z4 block, then the Z2 block."""
    return gray_image([w]).words[0]


def gray_image(words: Iterable[MixedWord]) -> Code:
    images = [[b for s in w.z4 for b in GRAY[s]] + list(w.z2) for w in words]
    if not images:
        raise ValueError("cannot take the Gray image of an empty set")
    space = Space(len(images[0]), 2)
    if any(len(bits) != space.n for bits in images):
        raise ValueError("Gray images of different lengths do not share a space")
    return _code(space, [_key_of(space, bits) for bits in images])


def _closure(seeds: Iterable, gens: Sequence, act: Callable) -> set:
    """The seeds and everything reached from them by ``act(g, x)``, breadth first."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def z4_module_span(gens: MixedMatrix | Sequence[MixedWord]) -> list[MixedWord]:
    """Closure of the generators under mixed addition (Z2 mod 2, Z4 mod 4);
    with no generators the span is the zero word alone."""
    if isinstance(gens, MixedMatrix):
        rows = list(gens.rows)
        shape = (gens.binary_cols, gens.quaternary_cols)
    else:
        rows = list(gens)
        if not rows:
            raise ValueError("empty generator list: the zero shape is ambiguous; pass a MixedMatrix")
        shape = (len(rows[0].z2), len(rows[0].z4))
    zero = MixedWord((0,) * shape[0], (0,) * shape[1])
    return sorted(_closure([zero], rows, MixedWord.__add__), key=lambda m: (m.z2, m.z4))


# ---------------------------------------------------------------------------
# propelinear maps
# ---------------------------------------------------------------------------

@_frozen
class PropelinearMap:
    """x -> translation + pi(x), with (pi . x)[pi[i]] = x[i]."""

    __slots__ = ("translation", "permutation")
    translation: Word
    permutation: tuple[int, ...]

    def __post_init__(self) -> None:
        t = self.translation
        if not isinstance(t, Word) or t.space.q != 2:
            raise ValueError(f"translation must be a binary Word, got {t!r}")
        n = t.space.n
        _check_ints("permutation", self.permutation, n)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("permutation is not a bijection of 0..n-1")

    @classmethod
    def identity(cls, space: Space) -> "PropelinearMap":
        return cls(space.zero(), tuple(range(space.n)))

    @classmethod
    def from_cycles(cls, translation: str, cycles: Sequence[Sequence[int]], n: int) -> "PropelinearMap":
        perm = list(range(n))
        for cyc in cycles:
            for idx, a in enumerate(cyc):
                if type(a) is not int or not 0 <= a < n:
                    raise ValueError(f"cycle entry {a!r} is not a coordinate in 0..{n - 1}")
                perm[a] = cyc[(idx + 1) % len(cyc)]
        return cls(Word.from_string(translation, 2), tuple(perm))

    def __call__(self, x: Word) -> Word:
        return apply_propelinear(self, x)

    def compose(self, other: "PropelinearMap") -> "PropelinearMap":
        """self after other: (self*other)(x) = self(other(x))."""
        n = len(self.permutation)
        if len(other.permutation) != n:
            raise ValueError("length mismatch in composition")
        perm = tuple(self.permutation[other.permutation[i]] for i in range(n))
        return PropelinearMap(apply_propelinear(self, other.translation), perm)

    def __mul__(self, other: "PropelinearMap") -> "PropelinearMap":
        return self.compose(other)


def _apply(m: PropelinearMap, key: int) -> int:
    """The key of m(x), from the key of the binary word x."""
    perm, n = m.permutation, len(m.permutation)
    out = m.translation.key
    for i in range(n):
        if (key >> (n - 1 - i)) & 1:
            out ^= 1 << (n - 1 - perm[i])
    return out


def apply_propelinear(m: PropelinearMap, x: Word) -> Word:
    """translation + pi(x); an isometry of H(n, 2)."""
    if x.space is not m.translation.space and x.space != m.translation.space:
        raise ValueError("length mismatch between map and word")
    return _word(x.space, _apply(m, x.key))


def group_closure(gens: Sequence[PropelinearMap]) -> list[PropelinearMap]:
    """Smallest composition-closed set containing the generators and identity."""
    if not gens:
        raise ValueError("group_closure needs at least one generator to fix the space")
    els = _closure([PropelinearMap.identity(gens[0].translation.space)], gens, PropelinearMap.compose)
    return sorted(els, key=lambda m: (m.translation.key, m.permutation))


def orbit(gens: Sequence[PropelinearMap], seed: Word) -> Code:
    """Orbit of a word under the group generated by the maps."""
    if any(g.translation.space != seed.space for g in gens):
        raise ValueError("length mismatch between map and word")
    return _code(seed.space, _closure([seed.key], gens, _apply))
