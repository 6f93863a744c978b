"""Exhaustive classification and exact search oracles, H(n, 2).

Extended 1-perfect unitrades of length n are enumerated by a clique
propagation search: the relevant balls are the maximum cliques of the
halved n-cube (one per odd-parity word), and a partial selection is
extended by unit-propagation style rules

    2 words in a clique  -> the rest of the clique is excluded,
    1 word + 1 candidate -> the candidate is forced in,
    1 word + 0 candidates / 3 words -> dead branch,
    0 words + 1 candidate -> the candidate is excluded,

branching on the clique with the fewest candidate partners.  Symmetry
is broken up front: the all-zero word is in the set and its n/2
distance-2 neighbors are exactly the aligned pair words 1100...,
0011..., ....  Every equivalence class has such a member (translate a
member to zero, then permute its neighbor matching onto the aligned
pairs), so the enumeration is complete.  Every word lies in n cliques
and a unitrade meets each clique it touches in exactly two words, so a
branch that has touched k cliques has no completion below ⌈2k/n⌉ words;
capped enumerations cut on this bound.  The minimum size of a unitrade
is the least size that an enumeration capped at 2^(n/2) words finds.

Isomorphs are rejected as early as is safe, under the seed group G: the
coordinate permutations that preserve the seed, i.e. the aligned pairs
permuted and swapped inside (384 elements at n = 8).  A classification
splits the tree below the seed into units, lists of IN and OUT
decisions, and drops a unit whose decisions are the G-image of a kept
unit's: propagation commutes with G, so its subtree lists exactly the
images of the kept unit's unitrades.  The split walks the search's own
node, so it branches exactly as the search does.  The engine's marks
are snapshots of its state, and each unit holds a snapshot of its own
state; a unit is searched from it and replays no decision.  One
function, ``_search_unit``, searches a unit from the run's parameters
and its mark alone, here or in a worker process, and a checkpoint
journal records each kept unit as it finishes.  A run that starts no
worker process (one thread, one CPU, or one unit left to search)
imports no multiprocessing module, and with one thread it does not ask
for the CPU count.  Of
the unitrades found, one per G-orbit is kept (bucketed by a G-invariant
and tested against the kept ones); the nonbipartite filter then drops
bipartite ones, since bipartiteness is an isometry invariant; and only
the rest get canonical forms, which merge the G-orbits into classes.

Equivalence is the isometry group of H(n, 2) acting on vertex sets:
coordinate permutations composed with translations (odd-parity sets are
translated onto even parity).  Two sets are compared by invariants
first, cheapest first: size, column weights (the sorted min(k_i, m - k_i)
over the coordinates, O(m·n)), the GF(2) rank of the difference set
{c + c0} (the dimension of the affine span, an O(m·n) elimination), and
the distance profile (an O(m²) pass over the pairs); only sets that
agree on all four get canonical forms, and the second set's search
stops as soon as it meets the first set's form.  A set that passes size
and column weights gets one record, in an LRU shared with
``canonical_form``, holding its rank, distance profile and form, each
filled on first use.  The canonical form is the exact lexicographic
minimum of the sorted word list over the group, computed by branch and
bound over ordered column partitions: the minimum always starts with the
zero word, so only translations by members matter (taken in key order),
and columns are refined word by word, emitting at each step the smallest
realizable next word.  A node whose blocks are all single columns fixes
the permutation.  It is finished from two half-word lookup tables of that
permutation, built by the helper that also builds the seed group's
tables; they give both the node's form and, at a tie, the automorphism.

``max_twofold_packing_size`` and ``max_packing_size`` are exact
branch-and-bound oracles that share no code with the constructions they
check; ``max_packing_size``'s docstring gives the search, its symmetry
cut and its room bound.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from functools import cached_property, lru_cache
from itertools import pairwise, permutations
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Optional, Sequence

from .analysis import (
    _column_counts, _distance_counts, is_antipodal, is_bipartite_unitrade, is_extended_unitrade,
    reducibility_certificate,
)
from .bounds import lp_bound, sphere_packing_bound
from .core import Code, Space, _ball_keys, _check_lambda, _code, _frozen
from .linalg import gf2_rank

_MIN_N, _MAX_N = 4, 12


# ---------------------------------------------------------------------------
# canonical forms and equivalence
# ---------------------------------------------------------------------------

def _bit_lookup(bit_img: Sequence[int]) -> list[int]:
    """Image of every key on len(bit_img) bits, bit b going to bit_img[b]."""
    table = [0] * (1 << len(bit_img))
    for key in range(1, len(table)):
        low = key & -key
        table[key] = table[key ^ low] | bit_img[low.bit_length() - 1]
    return table


def _canonical_search(
    keys: Sequence[int], n: int, target: Optional[tuple[int, ...]] = None,
) -> tuple[tuple[int, ...], int]:
    """Exact lex-min of the sorted key list over translations x permutations,
    and the number of translates whose tree was searched.

    A leaf is a translate plus ordered column blocks that fix the form:
    every word is placed and constant on each block, or every block is a
    single column, so that the permutation is fixed.  A leaf is finished
    from two half-word lookup tables of its permutation, built by
    ``_bit_lookup`` (as ``_SeedGroup`` builds its tables): they give every
    key's value at the leaf, hence its form, with no further refinement.  Two leaves that reach the
    incumbent form give an automorphism of the set (McKay, "Practical
    graph isomorphism", 1981), which maps each key to the key of equal
    value at the incumbent; its orbits are folded into a union-find over
    the set.  Translates in one orbit of the automorphism group give the
    same candidate forms, so a translate whose orbit holds a searched one
    is skipped exactly, and a tree is left as soon as its own translate
    joins such an orbit.

    Translates are searched in key order.  ``target``, the form of some
    set, only changes the cost: translates whose weight profile is the
    target's go first (a stable sort, so the rest keep key order), and
    the search stops at a leaf equal to it.  That leaf is an image of the
    set, so the set lies in the target's class, whose lex-min form the
    target is; the answer is exact either way.
    """
    if not keys:
        return (), 0
    key_set = set(keys)
    full = (1 << n) - 1
    half, low = n // 2, (1 << n // 2) - 1
    best: Optional[list[int]] = None
    best_keys: dict[int, int] = {}  # the incumbent leaf's value of each key -> the key
    t = 0  # the translate whose tree is being searched
    parent = {k: k for k in key_set}
    searched_roots: set[int] = set()  # orbits holding a fully searched translate
    orbits = len(key_set)
    stop = met = False  # met: the incumbent is the target

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def leaf(blocks: tuple[int, ...]) -> None:
        """Take a better leaf as incumbent, or fold the automorphism that
        maps a tied leaf onto the incumbent into the orbits: it maps each
        key to the key of equal value at the incumbent."""
        nonlocal best, best_keys, orbits, stop, met
        bit_img = [0] * n
        for d, c in enumerate(b for mask in blocks for b in range(n - 1, -1, -1) if mask >> b & 1):
            bit_img[c] = 1 << (n - 1 - d)
        hi, lo = _bit_lookup(bit_img[half:]), _bit_lookup(bit_img[:half])
        shift = hi[t >> half] | lo[t & low]  # P(x ^ t) = P(x) ^ P(t) for the leaf's permutation P
        keys_of = {(hi[x >> half] | lo[x & low]) ^ shift: x for x in key_set}
        if len(keys_of) != len(key_set):
            raise AssertionError("the leaf's tables do not map the set one to one")
        cand = sorted(keys_of)
        if best is None or cand < best:
            best, best_keys = cand, keys_of
            if target is not None and tuple(cand) == target:
                stop = met = True
            return
        if cand != best or orbits == 1:  # one orbit: nothing left to skip
            return
        for v, x in keys_of.items():
            rx, rz = find(x), find(best_keys[v])
            if rx != rz:
                parent[rz] = rx
                orbits -= 1
                if rz in searched_roots:
                    searched_roots.add(rx)
        # the rest of this tree gives the forms of a searched translate
        stop = find(t) in searched_roots

    def val_and_refinement(word: int, blocks: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Smallest value of the word consistent with the ordered blocks,
        and the refinement that realizes it (zero columns first)."""
        v = 0
        refined: list[int] = []
        for mask in blocks:
            ones = word & mask
            v = (v << mask.bit_count()) | ((1 << ones.bit_count()) - 1)
            zeros = mask ^ ones
            if zeros:
                refined.append(zeros)
            if ones:
                refined.append(ones)
        return v, tuple(refined)

    translates = sorted(key_set)
    if target is not None:  # only a translate of the target's profile meets it
        profile = sorted(k.bit_count() for k in target)
        translates.sort(key=lambda t: sorted((k ^ t).bit_count() for k in key_set) != profile)
    searched = 0
    for t in translates:
        if met:
            break
        if find(t) in searched_roots:
            continue
        searched += 1
        stop, emitted = False, [0]  # emitted: the prefix of the node's form
        # depth first on an explicit stack, as the depth can reach the size
        # of the set; a node is (blocks, parent's words, word taken, depth)
        stack = [((full,), frozenset(k ^ t for k in key_set), 0, 1)]
        while stack and not stop:
            blocks, remaining, taken, depth = stack.pop()
            del emitted[depth:]
            if best is not None and emitted > best[:depth]:
                continue
            remaining = remaining - {taken}
            if not remaining or all(m.bit_count() == 1 for m in blocks):
                # every word placed, or the permutation fully determined
                leaf(blocks)
                continue
            lo, options = None, []
            for w in remaining:
                v, refined = val_and_refinement(w, blocks)
                if lo is None or v < lo:
                    lo, options = v, [(w, refined)]
                elif v == lo:
                    options.append((w, refined))
            emitted.append(lo)
            stack.extend((refined, remaining, w, depth + 1) for w, refined in reversed(options))
        searched_roots.add(find(t))
    assert best is not None
    return tuple(best), searched


def _column_profile(keys: Sequence[int], n: int) -> list[int]:
    """Sorted min(k_i, m - k_i) over the coordinates, k_i the words with
    bit i set: coordinate permutations permute the k_i, and a translation
    maps k_i to m - k_i where it flips bit i, so this is an isometry
    invariant, read in O(m·n).  One word moved one step changes one k_i by
    one, which for even m always changes its min."""
    m = len(keys)
    return sorted(min(k, m - k) for k in _column_counts(keys, n))


def _difference_rank(keys: tuple[int, ...], n: int) -> int:
    """GF(2) rank of the difference set {c + c0}: the dimension of the
    set's affine span, which every isometry of H(n, 2) preserves."""
    return gf2_rank(_code(Space(n, 2), [k ^ keys[0] for k in keys])) if keys else 0


class _Invariants:
    """The isometry invariants of one multiplicity-free binary set, each
    computed on first use and kept: the difference rank, the distance
    profile and the canonical form."""

    def __init__(self, keys: tuple[int, ...], n: int) -> None:
        self.keys, self.n = keys, n
        self._form: Optional[tuple[int, ...]] = None

    @cached_property
    def rank(self) -> int:
        return _difference_rank(self.keys, self.n)

    @cached_property
    def profile(self) -> tuple[int, ...]:
        return _distance_counts(Space(self.n, 2), self.keys)

    def form(self, target: Optional[tuple[int, ...]] = None) -> tuple[int, ...]:
        """The canonical form; ``target`` is a stopping hint for
        ``_canonical_search``, whose answer is exact either way."""
        if self._form is None:
            self._form = _canonical_search(self.keys, self.n, target)[0]
        return self._form


@lru_cache(maxsize=256)
def _invariants(keys: tuple[int, ...], n: int) -> _Invariants:
    """The one record of the set, shared by ``canonical_form`` and
    ``are_equivalent``; a pair's sets enter it only once they pass the
    size and column checks, so near misses never evict forms."""
    return _Invariants(keys, n)


def canonical_form(t_set: Code) -> Code:
    """Lexicographic minimum of the set over coordinate permutations and
    translations; idempotent, and equal across equivalent sets."""
    if t_set.space.q != 2:
        raise ValueError("canonical forms are implemented for q=2 only")
    keys = t_set.keys
    if len(set(keys)) != len(keys):
        raise ValueError("canonical forms are defined for multiplicity-free sets")
    return _code(t_set.space, _invariants(keys, t_set.space.n).form())


def are_equivalent(a: Code, b: Code) -> bool:
    """One set maps to the other under a coordinate permutation plus a
    translation.

    Both sets must be multiplicity-free (``ValueError`` otherwise, before
    anything is compared).  The checks run cheapest first: size, column
    weights, the rank of the difference set, the distance profile, and
    only then the canonical forms, which alone can answer True.  A set
    that passes the first two enters the record cache, so a repeated pair
    computes nothing again.  The pair is put in key order, and the second
    set's search stops once it meets the first set's form, so the pair is
    cached the same way in either order.
    """
    if a.space.n != b.space.n:
        raise ValueError("sets of different lengths are never equivalent")
    if a.space.q != 2 or b.space.q != 2:
        raise ValueError("equivalence is implemented for q=2 only")
    if len(set(a.keys)) != len(a) or len(set(b.keys)) != len(b):
        raise ValueError("equivalence is defined for multiplicity-free sets")
    n = a.space.n
    if len(a) != len(b) or _column_profile(a.keys, n) != _column_profile(b.keys, n):
        return False
    first, second = (_invariants(keys, n) for keys in sorted((a.keys, b.keys)))
    if first.rank != second.rank or first.profile != second.profile:
        return False
    form = first.form()
    return second.form(form) == form


# ---------------------------------------------------------------------------
# the unitrade enumeration engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _halved_cube(
    n: int,
) -> tuple[list[int], dict[int, int], list[list[int]], list[list[int]], list[int]]:
    """The engine's read-only structure, built once per n: the even words,
    their indices, the members of each clique (one per odd word), the
    cliques of each even word, and the index of each even word's complement."""
    evens = [k for k in range(1 << n) if k.bit_count() % 2 == 0]
    odds = [k for k in range(1 << n) if k.bit_count() % 2 == 1]
    even_index = {k: i for i, k in enumerate(evens)}
    clique_members = [[even_index[c ^ (1 << b)] for b in range(n)] for c in odds]
    member_cliques: list[list[int]] = [[] for _ in evens]
    for ci, members in enumerate(clique_members):
        for m in members:
            member_cliques[m].append(ci)
    complement = [even_index[k ^ ((1 << n) - 1)] for k in evens]
    return evens, even_index, clique_members, member_cliques, complement


class _Engine:
    """Clique-propagation search over the even-parity words of H(n, 2).

    A mark is an immutable snapshot of the whole search state (word
    statuses, clique counters, the chosen-word and touched counts, the
    pending fronts); undoing to it writes the snapshot back.  Marks pickle,
    so ``_search_unit`` resumes from one in an engine of its own with the
    same parameters, in this process or in a worker.
    """

    UNDECIDED, IN, OUT = 0, 1, 2

    def __init__(self, n: int, antipodal_only: bool = False, max_cardinality: Optional[int] = None):
        self.n = n
        self.antipodal_only = antipodal_only
        self.max_cardinality = max_cardinality
        (self.evens, self.even_index, self.clique_members,
         self.member_cliques, self.complement) = _halved_cube(n)
        self.status = bytearray(len(self.evens))
        self.cin = bytearray(len(self.clique_members))
        self.cund = bytearray([n]) * len(self.clique_members)
        self.in_count = 0
        self.touched = 0  # cliques holding at least one chosen word
        self.nodes = 0  # search nodes visited
        self.fronts: list[int] = []

    # -- assignment with propagation --------------------------------------

    def assign(self, idx: int, val: int) -> bool:
        """Set one word in/out and propagate; False on contradiction, after
        which the state is inconsistent until the next undo."""
        status, cin, cund = self.status, self.cin, self.cund
        fronts = self.fronts
        member_cliques, clique_members = self.member_cliques, self.clique_members
        complement = self.complement if self.antipodal_only else None
        max_card = self.max_cardinality
        pending = [(idx, val)]
        pop, push = pending.pop, pending.append
        while pending:
            i, v = pop()
            st = status[i]
            if st:
                if st != v:
                    return False
                continue
            if v == 1:
                if max_card is not None and self.in_count >= max_card:
                    return False
                self.in_count += 1
            status[i] = v
            if complement is not None:
                comp = complement[i]
                cst = status[comp]
                if not cst:
                    push((comp, v))
                elif cst != v:
                    return False
            for ci in member_cliques[i]:
                c_und = cund[ci] - 1
                cund[ci] = c_und
                c_in = cin[ci]
                if v == 1:
                    if not c_in:
                        self.touched += 1
                    c_in += 1
                    cin[ci] = c_in
                if c_in == 0:
                    if c_und == 1:
                        for mj in clique_members[ci]:
                            if not status[mj]:
                                push((mj, 2))
                                break
                elif c_in == 1:
                    if c_und == 0:
                        return False
                    if c_und == 1:
                        for mj in clique_members[ci]:
                            if not status[mj]:
                                push((mj, 1))
                                break
                    elif v == 1:  # listed once, when its first word comes in
                        fronts.append(ci)
                elif c_in == 2:
                    if c_und:
                        for mj in clique_members[ci]:
                            if not status[mj]:
                                push((mj, 2))
                else:
                    return False
        return True

    def mark(self) -> tuple:
        return (bytes(self.status), bytes(self.cin), bytes(self.cund),
                self.in_count, self.touched, tuple(self.fronts))

    def undo(self, mark: tuple) -> None:
        status, cin, cund, self.in_count, self.touched, fronts = mark
        self.status[:] = status
        self.cin[:] = cin
        self.cund[:] = cund
        self.fronts[:] = fronts

    # -- branching structure ----------------------------------------------

    def pick_front(self) -> Optional[list[int]]:
        """Candidate partners of a pending 1-word clique, fewest first.

        The undecided counters give candidate counts for free, so only
        the chosen clique's member list is materialized.
        """
        cin, cund = self.cin, self.cund
        best_ci, best_n = -1, 1 << 30
        for ci in self.fronts:
            if cin[ci] != 1:
                continue
            c = cund[ci]
            if c and c < best_n:
                best_ci, best_n = ci, c
                if c == 2:
                    break
        if best_ci < 0:
            return None
        status = self.status
        return [mj for mj in self.clique_members[best_ci] if not status[mj]]

    def in_keys(self) -> tuple[int, ...]:
        return tuple(self.evens[i] for i in range(len(self.evens)) if self.status[i] == self.IN)

    def undecided_indices(self) -> list[int]:
        return [i for i in range(len(self.evens)) if self.status[i] == self.UNDECIDED]

    def seed_decisions(self) -> list[tuple[int, int]]:
        """The symmetry-broken seed: zero plus the aligned pair words."""
        n = self.n
        decisions = [(self.even_index[0], self.IN)]
        for t in range(n // 2):
            decisions.append((self.even_index[0b11 << (n - 2 - 2 * t)], self.IN))
        return decisions


def _node(engine: _Engine, out: list) -> Iterator[tuple[int, list[int]]]:
    """One node of the exhaustive DFS from the current engine state, the
    only branching rule of the search and of the unit split.

    Records the unitrade closed at the node into ``out``, and yields once
    per child with the child's decisions applied: the word set IN and the
    node's running list of words set OUT, which a caller that keeps it
    copies.  The caller searches the child before resuming, and the node
    undoes its decisions itself.

    A unitrade T touches each clique it meets in exactly two words, and
    each word lies in n cliques, so |T|·n = 2·touched(T).  Touched cliques
    stay touched along a branch, so every completion has at least
    ⌈2·touched/n⌉ words; a branch whose bound exceeds the cardinality cap
    is cut.
    """
    engine.nodes += 1
    limit = engine.max_cardinality
    if limit is not None and -(-2 * engine.touched // engine.n) > limit:
        return
    outs: list[int] = []
    cands = engine.pick_front()
    if cands is not None:
        mk = engine.mark()
        for mj in cands:
            if engine.assign(mj, engine.IN):
                yield mj, outs
            engine.undo(mk)
        return
    # quiescent: the current in-set is a complete extended unitrade
    out.append(engine.in_keys())
    if limit is not None and engine.in_count >= limit:
        return
    # extensions, partitioned by the smallest newly added word
    frame = engine.mark()
    for w in engine.undecided_indices():
        if engine.status[w] != engine.UNDECIDED:
            continue
        mk = engine.mark()
        if engine.assign(w, engine.IN):
            yield w, outs
        engine.undo(mk)
        if not engine.assign(w, engine.OUT):
            break
        outs.append(w)
    engine.undo(frame)


def _search_unit(
    n: int, antipodal_only: bool, max_cardinality: Optional[int], start: tuple
) -> tuple[list[tuple[int, ...]], int]:
    """Every unitrade below the state ``start``, a mark of an engine of these
    parameters, and the search nodes: an exhaustive DFS on an engine of its
    own, so a worker process needs nothing but the arguments.  An explicit
    stack of nodes keeps the depth off the interpreter's call stack."""
    engine = _Engine(n, antipodal_only, max_cardinality)
    engine.undo(start)
    out: list[tuple[int, ...]] = []
    stack = [_node(engine, out)]
    while stack:
        if next(stack[-1], None) is not None:  # a child's decisions are applied
            stack.append(_node(engine, out))
        else:
            stack.pop()
    return out, engine.nodes


def _seeded_engine(
    n: int, antipodal_only: bool = False, max_cardinality: Optional[int] = None
) -> Optional[_Engine]:
    """An engine in the seed's state; None if the seed breaks the cap."""
    engine = _Engine(n, antipodal_only, max_cardinality)
    return engine if all(engine.assign(idx, val) for idx, val in engine.seed_decisions()) else None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@_frozen
class SearchConfig:
    """Parameters of one classification run."""

    n: int
    nonbipartite_only: bool = False
    antipodal_only: bool = False
    max_cardinality: Optional[int] = None
    threads: int = 1
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n % 2 or not _MIN_N <= self.n <= _MAX_N:
            raise ValueError(f"supported lengths are even ints n in {_MIN_N}..{_MAX_N}")
        if type(self.threads) is not int or self.threads < 1:
            raise ValueError("threads must be a positive int")
        if type(self.nonbipartite_only) is not bool or type(self.antipodal_only) is not bool:
            raise ValueError("nonbipartite_only and antipodal_only must be bools")
        card = self.max_cardinality
        if card is not None and (type(card) is not int or card < 1):
            raise ValueError("max_cardinality must be None or a positive int")

    def filter_key(self) -> dict:
        return {
            "n": self.n,
            "nonbipartite_only": self.nonbipartite_only,
            "antipodal_only": self.antipodal_only,
            "max_cardinality": self.max_cardinality,
        }


@_frozen
class EquivalenceClass:
    """One equivalence class of extended unitrades, canonically represented."""

    representative: Code
    cardinality: int
    bipartite: bool
    antipodal: bool
    constant_weight_translate: bool
    irreducible: bool
    reducibility_kind: str

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "bipartite": self.bipartite,
            "antipodal": self.antipodal,
            "constant_weight_translate": self.constant_weight_translate,
            "irreducible": self.irreducible,
        }


def has_constant_weight_translate(t_set: Code) -> bool:
    """Is some translate of the set constant-weight (equivalently: is the
    set at uniform distance from some word)?  Defined for q=2.  A column
    on which every word agrees adds one amount to every distance, so only
    the words zero outside the k varying columns are tried (ValueError
    for k > 24, where that would take minutes)."""
    if t_set.space.q != 2:
        raise ValueError("constant-weight translates are defined for q=2 only")
    keys = t_set.keys
    first = keys[0] if keys else 0
    varying = 0
    for k in keys:
        varying |= k ^ first
    if varying.bit_count() > 24:
        raise ValueError(f"the set varies on {varying.bit_count()} coordinates; the "
                         "constant-weight translate search covers at most 24")
    v = varying
    while any((k ^ v).bit_count() != (first ^ v).bit_count() for k in keys):
        if not v:
            return False
        v = (v - 1) & varying  # the next submask of the varying columns
    return True


class _SeedGroup:
    """The coordinate permutations that preserve the seed: permutations of
    the n/2 aligned pairs composed with swaps inside pairs, (n/2)!·2^(n/2)
    elements (384 at n = 8).  Built once per n.

    Pair t is bits 2t, 2t+1 of a key.  An element maps a key by a pair
    permutation, read from two half-word lookup tables, and then swaps
    the bits of the chosen pairs, which changes only the pairs whose two
    bits differ.  Storage is (n/2)! table pairs of 2^(n/2) entries and
    2^(n/2) swap masks, not a 2^n table per element.
    """

    def __init__(self, n: int) -> None:
        half = n // 2
        self.half = half
        self.low_bits = int("01" * half, 2)  # the low bit of every pair
        self.tables = []
        for order in permutations(range(half)):
            bit_img = [0] * n
            for t, u in enumerate(order):
                bit_img[2 * t], bit_img[2 * t + 1] = 1 << 2 * u, 2 << 2 * u
            self.tables.append((_bit_lookup(bit_img[half:]), _bit_lookup(bit_img[:half])))
        self.swaps = [
            sum(3 << 2 * t for t in range(half) if f >> t & 1) for f in range(1 << half)
        ]

    def invariant(self, parts: Sequence[Sequence[int]]) -> tuple:
        """Per part, the sorted (pairs 11, pairs 01 or 10) counts of its keys."""
        low = self.low_bits
        return tuple(
            tuple(sorted(((k & k >> 1 & low).bit_count(), ((k ^ k >> 1) & low).bit_count())
                         for k in part))
            for part in parts
        )

    def maps_onto(self, parts: Sequence[Sequence[int]], targets: Sequence[set[int]]) -> bool:
        """Does some element map every part into, hence onto, its equal-sized
        target?  Each pair permutation is tried on the first key alone, and
        the rest is mapped only for the swaps that keep the first key in."""
        half, mask, low = self.half, (1 << self.half) - 1, self.low_bits
        keys = [(k, target) for part, target in zip(parts, targets) for k in part]
        if not keys:
            return True
        (k0, t0), rest = keys[0], keys[1:]
        for hi, lo in self.tables:
            y0 = hi[k0 >> half] | lo[k0 & mask]
            d0 = ((y0 ^ y0 >> 1) & low) * 3  # the pairs that a swap changes
            hits = [s for s in self.swaps if y0 ^ (d0 & s) in t0]
            if not hits:
                continue
            images = []
            for k, target in rest:
                y = hi[k >> half] | lo[k & mask]
                images.append((y, ((y ^ y >> 1) & low) * 3, target))
            for s in hits:
                if all(y ^ (d & s) in target for y, d, target in images):
                    return True
        return False


@lru_cache(maxsize=None)
def _seed_group(n: int) -> _SeedGroup:
    return _SeedGroup(n)


class _OrbitSieve:
    """Passes the first item offered from each orbit of the seed group.

    An item is a tuple of key lists, mapped part by part.  Items are
    bucketed by an invariant of the group, and an item is tested against
    the kept items of its bucket only.
    """

    def __init__(self, n: int) -> None:
        self.group = _seed_group(n)
        self.kept: dict[tuple, list[tuple[set[int], ...]]] = {}

    def is_new(self, parts: Sequence[Sequence[int]]) -> bool:
        bucket = self.kept.setdefault(self.group.invariant(parts), [])
        if any(self.group.maps_onto(parts, targets) for targets in bucket):
            return False
        bucket.append(tuple(set(part) for part in parts))
        return True


# Kept units to split the tree into, per worker: splitting deeper rejects
# more isomorphic subtrees but costs sieve tests on every generated unit.
_UNITS_PER_THREAD = 8
_CHECKPOINT_VERSION = 4  # 1: no seed group; 2: units split by their own rule; 3: one whole state


class _Unit(NamedTuple):
    """A subtree below the seed: its decisions from the seed (IN and OUT
    literals, for the sieve), and the mark of its own state."""

    decisions: list[tuple[int, int]]
    start: tuple


def _expand_units(
    engine: _Engine, target: int
) -> tuple[list[_Unit], list[tuple[int, ...]], dict[str, int]]:
    """Split the search tree below the engine's state into units.

    A unit is expanded by walking ``_node`` from its mark, and each child
    is kept with the decisions that reach it and a mark of its state.  A
    child whose decisions are the image of a kept unit's under the seed
    group is dropped: propagation commutes with the group, so its subtree
    lists the images of the kept unit's unitrades.  A kept unit that is
    split further stays covered by its children and by the unitrade
    closed at it, so rejection acts at every level.  Returns (units,
    closed, counts): ``closed`` collects the complete unitrades closed at
    the expanded nodes themselves (the 'stop here' alternative of the
    extension branching), and ``counts`` the units generated, rejected
    and left to search.
    """
    sieve = _OrbitSieve(engine.n)
    evens, IN, OUT = engine.evens, engine.IN, engine.OUT
    units = [_Unit([], engine.mark())]
    closed: list[tuple[int, ...]] = []
    generated = rejected = 0
    while units and len(units) < target:
        units.sort(key=lambda u: len(u.decisions))
        unit = units.pop(0)
        engine.undo(unit.start)
        for w, outs in _node(engine, closed):
            generated += 1
            child = unit.decisions + [(u, OUT) for u in outs] + [(w, IN)]
            literals = ([evens[i] for i, v in child if v == IN],
                        [evens[i] for i, v in child if v != IN])
            if sieve.is_new(literals):
                units.append(_Unit(child, engine.mark()))
            else:
                rejected += 1
    return units, closed, {"units": generated, "rejected": rejected, "searched": len(units)}


def _run_enumeration(cfg: SearchConfig) -> tuple[list[tuple[int, ...]], dict[str, int]]:
    """The unitrades found while splitting and below the kept units, in unit
    order, which hold a member of every class, and the work counts: units
    generated, rejected and searched, and the search nodes of the units in
    this call.

    ``cfg.threads`` sets how finely the tree is split.  Each unit is one
    ``_search_unit`` call on the run's parameters and the unit's mark, made
    here or in a worker process: at most that many workers, and no more
    than there are CPUs or units to search, which leaves the results alone."""
    counts = {"units": 0, "rejected": 0, "searched": 0, "nodes": 0}
    params = (cfg.n, cfg.antipodal_only, cfg.max_cardinality)
    engine = _seeded_engine(*params)
    if engine is None:
        return [], counts
    units, solutions, split_counts = _expand_units(engine, _UNITS_PER_THREAD * cfg.threads)
    counts.update(split_counts)

    found, journal = _open_journal(cfg, len(units)) if cfg.checkpoint_path else ({}, None)
    todo = [i for i in range(len(units)) if i not in found]
    workers = min(cfg.threads, os.cpu_count() or 1, len(todo)) if cfg.threads > 1 else 1
    pool = None
    if workers > 1:  # only a run that starts workers loads the pool modules
        import concurrent.futures as cf

        pool = cf.ProcessPoolExecutor(workers)
    with journal or nullcontext(), pool or nullcontext():
        if pool:
            pending = {pool.submit(_search_unit, *params, units[i].start): i for i in todo}
            results = ((pending[f], f.result()) for f in cf.as_completed(pending))
        else:
            results = ((i, _search_unit(*params, units[i].start)) for i in todo)
        for i, (sols, nodes) in results:  # as the units finish
            found[i] = sols
            counts["nodes"] += nodes
            if journal:
                journal.write(json.dumps([i, sols]) + "\n")
                journal.flush()
    return solutions + [s for i in range(len(units)) for s in found[i]], counts


def _open_journal(cfg: SearchConfig, unit_count: int) -> tuple[dict[int, list], IO[str]]:
    """The solutions of the units that the checkpoint journal lists, and the
    journal opened for appending; a missing journal is started.

    The journal is a header line (format version, filters, unit count),
    then one ``[unit, solutions]`` line per unit as it finishes.  A last
    line without its newline was torn by a crash: it is cut off, and its
    unit is searched again.  A file that fails any other check raises
    ``ValueError`` and is left as it was.
    """
    path = Path(cfg.checkpoint_path)
    header = {"version": _CHECKPOINT_VERSION, "filters": cfg.filter_key(), "unit_count": unit_count}
    if not path.exists():
        path.write_text(json.dumps(header) + "\n", encoding="ascii")
    data = path.read_bytes()
    head, newline, body = data.partition(b"\n")
    try:
        stored = json.loads(head)
    except ValueError as exc:
        raise ValueError(f"corrupt checkpoint {path}: the header line is not JSON ({exc})") from None
    if not isinstance(stored, dict) or stored.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path} is not in format version {_CHECKPOINT_VERSION}; "
                         "its units were split by another version of the search")
    if not newline:
        raise ValueError(f"corrupt checkpoint {path}: the header line is torn")
    if stored != header:
        raise ValueError(f"checkpoint {path} was written for other filters or another thread count")
    *lines, torn = body.split(b"\n")
    space, found = Space(cfg.n, 2), {}
    for number, line in enumerate(lines, 2):
        try:
            entry = json.loads(line)
        except ValueError:
            entry = None
        if not (isinstance(entry, list) and len(entry) == 2 and type(entry[0]) is int
                and 0 <= entry[0] < unit_count and entry[0] not in found
                and isinstance(entry[1], list)):
            raise ValueError(f"checkpoint {path}: line {number} is not a [unit, solutions] "
                             f"entry of a unit below {unit_count} listed once")
        unit, sols = entry
        if not all(_is_stored_unitrade(space, s) for s in sols):
            raise ValueError(f"checkpoint {path}: unit {unit} holds a solution that is not a list "
                             f"of increasing even-weight keys forming an extended unitrade")
        found[unit] = [tuple(s) for s in sols]
    journal = path.open("a", encoding="ascii")
    journal.truncate(len(data) - len(torn))
    return found, journal


def _is_stored_unitrade(space: Space, sol: object) -> bool:
    """Is ``sol`` a nonempty list of increasing even-weight keys of the
    space that form an extended unitrade?"""
    return (
        isinstance(sol, list) and bool(sol)
        and all(type(k) is int and 0 <= k < space.size and k.bit_count() % 2 == 0 for k in sol)
        and all(a < b for a, b in zip(sol, sol[1:]))
        and is_extended_unitrade(_code(space, sol)).ok
    )


def classify_extended_unitrades(cfg: SearchConfig) -> list[EquivalenceClass]:
    """Complete, isomorph-free classification of the nonempty extended
    1-perfect unitrades of length cfg.n satisfying the filters."""
    solutions = _run_enumeration(cfg)[0]

    n = cfg.n
    space = Space(n, 2)
    sieve = _OrbitSieve(n)
    classes: dict[tuple[int, ...], bool] = {}  # canonical keys -> bipartite
    for sol in solutions:
        if not sieve.is_new((sol,)):
            continue
        # bipartiteness is an isometry invariant: test it before the form
        bip = is_bipartite_unitrade(_code(space, sol), extended=True).bipartite
        if cfg.nonbipartite_only and bip:
            continue
        classes.setdefault(_canonical_search(sol, n)[0], bip)

    result = []
    for canon, bip in classes.items():
        rep = _code(space, canon)
        # the only run-time guard on n = 10 and 12 output (no tier-1 test
        # enumerates them): the certificate's graph walk checks the set
        try:
            red = reducibility_certificate(rep)
        except ValueError:
            raise AssertionError("classification produced a non-unitrade representative") from None
        result.append(
            EquivalenceClass(
                representative=rep,
                cardinality=len(rep),
                bipartite=bip,
                antipodal=is_antipodal(rep),
                constant_weight_translate=has_constant_weight_translate(rep),
                irreducible=red.kind == "irreducible",
                reducibility_kind=red.kind,
            )
        )
    result.sort(key=lambda cl: (cl.cardinality, cl.representative.keys))
    return result


# ---------------------------------------------------------------------------
# exact minimum / maximum oracles
# ---------------------------------------------------------------------------

def min_extended_unitrade_size(n: int) -> int:
    """Exact minimum cardinality of a nonempty extended unitrade: the least
    size that a capped enumeration finds.

    A run capped at c words lists a member of every class of at most c
    words, so its least size is the minimum once it finds any.  The cap
    is 2^(n/2), the size of the diagonal {(x, x)}, which is an extended
    unitrade, so that one run always finds one.
    """
    if type(n) is not int or n % 2 or not 2 <= n <= _MAX_N:
        raise ValueError(f"supported lengths are even ints n in 2..{_MAX_N}")
    if n == 2:
        return 2  # both unitrades of length 2 have two words
    solutions = _run_enumeration(SearchConfig(n=n, max_cardinality=1 << (n // 2)))[0]
    if not solutions:
        raise AssertionError("the capped run missed the diagonal unitrade")
    return min(map(len, solutions))


def max_packing_size(n: int, q: int, lam: int, r: int) -> int:
    """Exact maximum size of a lambda-fold r-packing in H(n, q).

    Depth-first search over vertices in weight-then-lexicographic order;
    repeated codewords are modeled by allowing a vertex to be taken again,
    so the answer is the true multiset maximum.  Translations of H(n, q)
    act transitively and map balls onto balls, so every packing has a
    translate in which the zero word is a codeword of a closest pair (or a
    repeated codeword), and only packings holding the zero word are
    searched.  The stabilizer of 0 (coordinate permutations and
    per-coordinate permutations of the nonzero symbols) is transitive on
    each weight, so it maps the codeword nearest 0 onto the least word of
    its weight d, and every other codeword has weight at least d: the
    second codeword is 0 again or the first word of some weight.  The
    vertices that this skips still count in the room bound below, which
    holds for any vertex order.  Codewords are placed in
    nondecreasing order, so a vertex whose ball lies wholly below the next
    candidate keeps its coverage, and its spare room lam - cov is lost;
    each codeword fills |B_r| units of room, so a node is cut once
    (lam * q^n - lost room) // |B_r| cannot beat the best size found.
    Certification is by meeting a proven upper bound or exhausting that
    subtree.  The balls are built once per (n, q, r), shared by calls for
    every lambda, and kept for the last few spaces of at most 2^16 ball
    entries; larger tables are built for one call.
    """
    return _max_packing_search(n, q, lam, r)[0]


# Spaces whose balls hold at most this many entries in all keep their
# tables between calls (every space of H(n, 2) up to n = 12 at radius 1).
_CACHED_BALL_ENTRIES = 1 << 16


@lru_cache(maxsize=8)
def _packing_tables(
    n: int, q: int, r: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The packing search's read-only structure, built once per (n, q, r):
    each vertex's radius-r ball in decreasing order, the vertices listed
    under their largest ball member, and each vertex's first vertex of
    the next weight (q^n past the last).  Vertex v is the v-th word in
    weight-then-key order (key order is lexicographic), so vertex 0 is the
    zero word: ``core``'s ball walk from zero lists the words of weight w
    at |B_(w-1)| .. |B_w| - 1, and a ball is the ranks of its ``_ball_keys``.
    The balls hold q^n * |B_r| entries, so only a few small spaces are kept."""
    space = Space(n, q)
    words = list(_ball_keys(space, space.zero().key, n))
    layers = list(pairwise([0, *map(space.ball_size, range(n + 1))]))
    order = [k for start, end in layers for k in sorted(words[start:end])]
    rank = {k: v for v, k in enumerate(order)}
    balls = tuple(tuple(sorted(map(rank.__getitem__, _ball_keys(space, k, r)), reverse=True))
                  for k in order)
    dying: list[list[int]] = [[] for _ in order]
    for v, ball in enumerate(balls):
        dying[ball[0]].append(v)
    return balls, tuple(map(tuple, dying)), tuple(end for start, end in layers for _ in range(start, end))


def _max_packing_search(n: int, q: int, lam: int, r: int) -> tuple[int, int]:
    """Maximum packing size, and the number of codeword placements tried."""
    _check_lambda(lam)
    space = Space(n, q)
    size = space.size
    if size > 4096:
        raise ValueError("the exact packing search is a desk-scale oracle (q^n <= 4096)")
    ball_size = space.ball_size(r)
    if size * ball_size <= _CACHED_BALL_ENTRIES:
        balls, dying, next_weight = _packing_tables(n, q, r)
    else:  # built for this call alone
        balls, dying, next_weight = _packing_tables.__wrapped__(n, q, r)
    cap = sphere_packing_bound(n, q, lam, r)
    if q == 2 and r == 1 and n >= 2:
        cap = min(cap, lp_bound(n, lam).value)

    # An explicit stack of the chosen vertices, nondecreasing: a child's
    # loop starts at its parent's vertex (repeats allowed), and the search
    # stops once the cap is met.  The root is vertex 0, so the search ends
    # when it would be popped; the second codeword is 0 or the first vertex
    # of a weight, and a backtrack at that depth goes on to the next weight
    # (the first candidate after the root is one too: 0 when lam > 1, and
    # else the first vertex of weight 2r + 1, the first one not blocked).
    # full[c] counts the vertices of ball c that hold lam codewords, for
    # the centres c not below the vertex whose placement filled them: no
    # smaller candidate is asked until it is undone.  Once the next
    # candidate is v, a vertex whose largest ball member lies below v gains
    # no more coverage (membership is symmetric), and its spare room is
    # dead: no completion beats best once
    # dead > lam * q^n - (best + 1) * |B_r|.
    cov = [0] * size
    full = [0] * size
    chosen: list[tuple[int, int]] = []  # (vertex, dead room when it was placed)
    best = placements = dead = 0
    limit = lam * size - ball_size
    v = 0
    while best < cap:
        while v < size and full[v]:
            for u in dying[v]:
                dead += lam - cov[u]
            v += 1
        if v < size and dead <= limit:
            for u in balls[v]:
                cov[u] += 1
                if cov[u] == lam:
                    for c in balls[u]:
                        if c < v:
                            break
                        full[c] += 1
            chosen.append((v, dead))
            placements += 1
            if len(chosen) > best:
                best = len(chosen)
                limit = lam * size - (best + 1) * ball_size
            continue
        if len(chosen) <= 1:
            break
        v, dead = chosen.pop()
        for u in balls[v]:
            if cov[u] == lam:
                for c in balls[u]:
                    if c < v:
                        break
                    full[c] -= 1
            cov[u] -= 1
        stop = next_weight[v] if len(chosen) == 1 else v + 1
        for w in range(v, stop):
            for u in dying[w]:
                dead += lam - cov[u]
        v = stop
    return best, placements


def max_twofold_packing_size(n: int) -> int:
    """Exact maximum size of a 2-fold 1-packing in H(n, 2), n <= 7."""
    if type(n) is not int or not 1 <= n <= 7:
        raise ValueError("the exhaustive two-fold oracle takes an int n in 1..7")
    return max_packing_size(n, 2, 2, 1)
