"""Verification predicates and exact distributions for codes in H(n, q).

The central objects being verified:

  * lambda-fold r-packings: every radius-r ball contains at most lambda
    codewords, counted with multiplicity;
  * 1-perfect unitrades: every radius-1 ball meets the set in 0 or 2
    words;
  * extended 1-perfect unitrades: constant-parity binary sets where the
    balls centered at opposite-parity words meet the set in 0 or 2.

Each property is read once, by exact ball counts over the balls around
the codewords (``_coverage_counts_union``); a binary ball is the key
XORed with cached flip masks.  Only a dense q-ary packing (q > 2) is
still counted over the whole space.  Both unitrade readings count
radius-1 balls; the extended one reads the counts at the centres of
opposite parity.  For n >= 5 the extended property
of a set without repeated words has an equivalent reading inside the
halved n-cube (degree exactly n/2, no triangles), which the tests use
as an oracle.

The structure answers of a unitrade read one checked conflict graph,
built and walked once by ``_unitrade_graph``, which keeps the last
set's: the words that share a radius-1 ball in the walk that checks the
set, which are the words at distance <= 2.  The extended case needs no
relation of its own: distances inside a constant-parity set are even,
so distance <= 2 means distance 0 or 2 there.

All distributions (distance distribution, MacWilliams transform) are
computed from integer pair counts and returned as exact rationals, so
nonnegativity of the dual distribution is a hard check rather than a
tolerance question; the Krawtchouk table is built once per n.  The
pair counts and the inner radius read one pass over the pairs
(``_pair_pass``), which keeps the last set's; the isometry tests of
``search`` read the same pass for their distance profile.  Column
weights (``_column_counts``) take one shift, mask and popcount per
coordinate, and serve both the balance check and the column profile
of those tests.

Everything here is pure and read-only; inputs are immutable codes.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import Iterable, Optional, Sequence

from .core import (
    Code, Space, Word, _ball_keys, _check_lambda, _check_radius, _check_same_space, _code,
    _frozen, _popcount_view, _word, hamming_distance,
)

# ---------------------------------------------------------------------------
# packing verification
# ---------------------------------------------------------------------------

@_frozen
class PackingReport:
    """Exact maximum ball coverage of a code, with a witness vertex."""

    max_coverage: int
    witness: Optional[Word]
    lambda_queried: int
    is_lambda_fold: bool
    duplicate_words: tuple[Word, ...]

    def __str__(self) -> str:
        verdict = "<= lambda" if self.is_lambda_fold else "> lambda"
        return (f"max_coverage={self.max_coverage} ({verdict}={self.lambda_queried}), "
                f"witness={self.witness}, duplicates={len(self.duplicate_words)}")


def _coverage_counts_union(code: Code, r: int) -> dict:
    """Coverage counts over the union of balls around codewords."""
    return Counter(k for c in code.keys for k in _ball_keys(code.space, c, r))


def _coverage_counts_full(code: Code, r: int) -> dict:
    counts: dict = {}
    for v in code.space:
        m = sum(1 for c in code.words if hamming_distance(c, v) <= r)
        if m:
            counts[v.key] = m
    return counts


def verify_packing(code: Code, lam: int, r: int) -> PackingReport:
    """Exact maximum coverage over all vertices of the space.

    Vertices covering at least one codeword all lie in some ball around
    a codeword, so counting the union of those balls finds the true
    maximum whenever the code is nonempty.  Every binary code is counted
    that way, by |C|·|B_r| XORs of keys with cached flip masks.  A q-ary
    code whose balls hold half the space or more (2·|C|·|B_r| >= q^n)
    still takes the full-space scan, with the same counts; that rule
    and the scan go once the benchmark measures the library's memory,
    not the jobs it keeps (ROADMAP item 1).  The witness is the least
    word with the maximum count.
    """
    _check_lambda(lam)
    space = code.space
    _check_radius(space.n, r)
    dups = tuple(code.duplicate_words())
    if len(code) == 0:
        return PackingReport(0, None, lam, True, dups)
    scan_all = space.q > 2 and 2 * len(code) * space.ball_size(r) >= space.size
    counts = _coverage_counts_full(code, r) if scan_all else _coverage_counts_union(code, r)
    max_cov = max(counts.values())
    witness = _word(space, min(k for k, v in counts.items() if v == max_cov))
    return PackingReport(max_cov, witness, lam, max_cov <= lam, dups)


# ---------------------------------------------------------------------------
# unitrade predicates
# ---------------------------------------------------------------------------

@_frozen
class CheckResult:
    """Boolean verdict plus, on failure, a witness ball center."""

    ok: bool
    witness: Optional[Word]

    def __bool__(self) -> bool:
        return self.ok


def _verdict(t_set: Code, extended: bool, balls: Optional[dict] = None) -> CheckResult:
    """Every radius-1 ball (centred off the set's parity, in the extended
    reading) holds 0 or 2 words; ``balls``, the members of each ball from
    the walk, saves counting them again."""
    parity = None
    if extended:
        if t_set.space.q != 2:
            raise ValueError("extended unitrades are defined for q=2 only")
        parity = {k.bit_count() & 1 for k in t_set.keys}
        if len(parity) > 1:
            raise ValueError("mixed-parity input: not a candidate extended unitrade")
    held = _coverage_counts_union(t_set, 1).items() if balls is None else zip(balls, map(len, balls.values()))
    bad = [k for k, v in held if v != 2 and (parity is None or k.bit_count() & 1 not in parity)]
    return CheckResult(False, _word(t_set.space, min(bad))) if bad else CheckResult(True, None)


def is_unitrade(t_set: Code) -> CheckResult:
    """|B intersect T| in {0, 2} for every radius-1 ball B of H(n, q)."""
    return _verdict(t_set, False)


def is_extended_unitrade(t_set: Code) -> CheckResult:
    """Constant-parity set meeting opposite-parity balls in 0 or 2 words.

    One reading, the definitional ball count: only the balls centred at
    the opposite-parity neighbours of members can meet the set, and the
    balls around the members reach every one of those centres, so no
    full scan is needed, and nothing cross-checks the count at run time.
    Balls count repeated words with multiplicity, as in ``is_unitrade``.
    """
    return _verdict(t_set, True)


def is_antipodal(t_set: Code) -> bool:
    """Closed under complementation of all coordinates (q=2)."""
    if t_set.space.q != 2:
        raise ValueError("antipodality is defined for q=2 only")
    mask = (1 << t_set.space.n) - 1
    keys = set(t_set.keys)
    return all((k ^ mask) in keys for k in keys)


# ---------------------------------------------------------------------------
# bipartiteness, components, reducibility
# ---------------------------------------------------------------------------

@_frozen
class Bipartition:
    """2-coloring into distance-3 (distance-4) codes, or an odd-cycle refutation."""

    parts: Optional[tuple[Code, Code]]
    odd_cycle: Optional[tuple[Word, ...]]

    @property
    def bipartite(self) -> bool:
        return self.parts is not None

    def __bool__(self) -> bool:
        return self.bipartite


@lru_cache(maxsize=1)
def _pair_pass(space: Space, keys: Sequence[int | bytes]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One pass over the pairs i < j of ``keys`` (a tuple): counts[d], the
    pairs at distance d, d = 0..n, and far[i], the largest distance from
    word i to the others.  The last set's result is kept, so the distance
    counts and the inner radius of one code share the pass.

    The view's popcounts are the distances shifted left by ``shift``, so
    the counts are read off at every (1 << shift)-th popcount."""
    keys, shift = _popcount_view(space, keys)
    counts = [0] * ((space.n << shift) + 1)
    far = [0] * len(keys)
    for i, a in enumerate(keys):
        top = far[i]
        for j in range(i + 1, len(keys)):
            d = (a ^ keys[j]).bit_count()
            counts[d] += 1
            if d > top:
                top = d
            if d > far[j]:
                far[j] = d
        far[i] = top
    return tuple(counts[::1 << shift]), tuple(f >> shift for f in far)


def _distance_counts(space: Space, keys: Sequence[int | bytes]) -> tuple[int, ...]:
    """counts[d]: the pairs i < j of ``keys`` (a tuple) at distance d, d = 0..n."""
    return _pair_pass(space, keys)[0]


def _column_counts(keys: Sequence[int], n: int) -> list[int]:
    """k[b]: the binary keys with bit b set, b = 0..n-1, in O(|keys|·n).

    The keys, each below 2^64 (``MAX_BINARY_N``), are laid side by side
    in one int of 64-bit fields; bit b of every field is then one shift,
    one mask and one popcount away."""
    fields = array("Q", keys)
    packed = int.from_bytes(fields.tobytes(), sys.byteorder)
    ones = int.from_bytes((array("Q", [1]) * len(fields)).tobytes(), sys.byteorder)
    return [(packed >> b & ones).bit_count() for b in range(n)]


def _ball_members(code: Code) -> dict:
    """The radius-1 ball walk: the members (word indices, increasing) of
    every ball that meets the code, by centre."""
    space, balls = code.space, {}
    for i, c in enumerate(code.keys):
        for k in _ball_keys(space, c, 1):
            balls.setdefault(k, []).append(i)
    return balls


def _conflict_walk(adj: Sequence[Iterable[int]]):
    """One depth-first walk of a graph given by its rows (a conflict graph,
    or reducibility's coordinate graph): the components (vertices in
    discovery order), each vertex's colour and parent, and the first
    same-colour edge (None if there is none).  Parents are set once, so
    that edge closes the odd cycle an early-exit walk finds."""
    color = [-1] * len(adj)
    parent = [-1] * len(adj)
    components: list[list[int]] = []
    clash = None
    for start in range(len(adj)):
        if color[start] != -1:
            continue
        color[start] = 0
        stack, members = [start], [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    stack.append(v)
                    members.append(v)
                elif clash is None and color[v] == color[u]:
                    clash = (u, v)
        components.append(members)
    return components, color, parent, clash


@lru_cache(maxsize=1)
def _unitrade_graph(t_set: Code, extended: bool):
    """The conflict rows of a checked unitrade, then the walk's components,
    colours, parents and first clash; shared, so read-only.  A set that is
    not a unitrade raises ``ValueError`` with a witness ball center.

    One ball walk checks the set and gives the rows: two words are within
    distance 2 exactly when they share a radius-1 ball, and no ball of a
    checked unitrade holds more than two members."""
    balls = _ball_members(t_set)
    res = _verdict(t_set, extended, balls)
    if not res.ok:
        kind = "an extended" if extended else "a"
        raise ValueError(f"input is not {kind} 1-perfect unitrade; witness ball center {res.witness}")
    rows: list[set[int]] = [set() for _ in t_set.keys]
    for members in balls.values():
        if len(members) == 2:
            i, j = members
            rows[i].add(j)
            rows[j].add(i)
    adj = [sorted(row) for row in rows]
    return (adj, *_conflict_walk(adj))


def is_bipartite_unitrade(t_set: Code, extended: bool) -> Bipartition:
    """Split a unitrade into two distance-3 (distance-4 if extended) codes.

    The conflict graph joins words at distance <= 2 (0 or 2 in the
    extended case, where all distances are even); a valid split is a
    proper 2-coloring, and an odd cycle found by the walk refutes it.
    """
    _, _, color, parent, clash = _unitrade_graph(t_set, extended)
    space, keys = t_set.space, t_set.keys
    if clash is not None:
        return Bipartition(None, tuple(_word(space, keys[i]) for i in _odd_cycle(*clash, parent)))
    parts = (_code(space, [k for k, c in zip(keys, color) if c == side]) for side in (0, 1))
    return Bipartition(tuple(parts), None)


def _odd_cycle(u: int, v: int, parent: list[int]) -> list[int]:
    anc_u, anc_v = [u], [v]
    while parent[anc_u[-1]] != -1:
        anc_u.append(parent[anc_u[-1]])
    seen = {x: i for i, x in enumerate(anc_u)}
    while anc_v[-1] not in seen:
        anc_v.append(parent[anc_v[-1]])
    return anc_u[: seen[anc_v[-1]] + 1][::-1] + anc_v[:-1]


def primary_components(t_set: Code, extended: bool) -> list[Code]:
    """Partition into minimal sub-unitrades.

    Two words sharing a radius-1 ball (distance <= 2; 0 or 2 in the
    extended case) must stay together, so the minimal pieces are the
    connected components of that relation, each a unitrade itself.
    """
    keys = t_set.keys
    pieces = [_code(t_set.space, [keys[i] for i in members])
              for members in _unitrade_graph(t_set, extended)[1]]
    pieces.sort(key=lambda c: c.keys)
    return pieces


@_frozen
class Reducibility:
    """Outcome of the concatenation-factorization test.

    kind is 'irreducible' (coordinate graph connected: a distance-2 pair
    straddles every coordinate cut), 'factorization' (an explicit product
    decomposition was found) or 'unknown' (disconnected coordinate graph
    but no factorization across the tried cuts; disconnectedness alone
    does not prove reducibility).
    """

    kind: str
    coordinate_components: tuple[tuple[int, ...], ...]
    factor_coords: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    factors: Optional[tuple[Code, Code]] = None


def _project(t_set: Code, coords: tuple[int, ...]) -> Code:
    """The set of words restricted to the coordinates (binary), cut from
    the keys one run of adjacent coordinates at a time."""
    n, m = t_set.space.n, len(coords)
    runs = []  # (shift to the run's last coordinate, run mask, shift into the image)
    i = 0
    while i < m:
        j = i + 1
        while j < m and coords[j] == coords[j - 1] + 1:
            j += 1
        runs.append((n - 1 - coords[j - 1], (1 << (j - i)) - 1, m - j))
        i = j
    return _code(Space(m, 2), {sum((k >> s & mask) << p for s, mask, p in runs) for k in t_set.keys})


def reducibility_certificate(t_set: Code) -> Reducibility:
    """Certify irreducibility or exhibit a concatenation factorization.

    The coordinate graph joins coordinates a and b when some distance-2
    pair differs in exactly a and b; its components come from the walk
    that reads the conflict graph."""
    adj = _unitrade_graph(t_set, True)[0]
    if len(t_set) == 0:
        raise ValueError("reducibility is undefined for the empty unitrade")
    n, keys = t_set.space.n, t_set.keys
    joined: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(adj):
        for j in row:
            if j > i and (diff := keys[i] ^ keys[j]):  # diff == 0: a repeated word, at distance 0
                a, b = n - diff.bit_length(), n - (diff & -diff).bit_length()
                joined[a].add(b)
                joined[b].add(a)
    # the walk starts at each component's least coordinate, in order
    components = tuple(tuple(sorted(c)) for c in _conflict_walk(joined)[0])
    if len(components) == 1:
        return Reducibility("irreducible", components)
    # try to factor across every union of components versus the rest
    k = len(components)
    for mask in range(1, 1 << (k - 1)):
        left = tuple(sorted(c for i in range(k) if (mask >> i) & 1 for c in components[i]))
        right = tuple(sorted(c for i in range(k) if not (mask >> i) & 1 for c in components[i]))
        u_proj, v_proj = _project(t_set, left), _project(t_set, right)
        # the set lies inside the product of its projections, so it is
        # that product exactly when it has as many distinct words
        if len(u_proj) * len(v_proj) == len(set(keys)) == len(keys):
            return Reducibility("factorization", components, (left, right), (u_proj, v_proj))
    return Reducibility("unknown", components)


# ---------------------------------------------------------------------------
# distributions: distance, weight, MacWilliams
# ---------------------------------------------------------------------------

def krawtchouk(n: int, k: int, i: int) -> int:
    """K_k(i) = sum_j (-1)^j C(i, j) C(n-i, k-j), binary Hamming scheme."""
    return sum((-1) ** j * comb(i, j) * comb(n - i, k - j) for j in range(k + 1))


@lru_cache(maxsize=None)
def _krawtchouk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """K[k][i] for k, i = 0..n, built once per n."""
    return tuple(tuple(krawtchouk(n, k, i) for i in range(n + 1)) for k in range(n + 1))


@_frozen
class DistanceData:
    """Exact distance/weight distributions of one code.

    B[i] is the average number of codeword pairs at distance i (rational);
    A_x[i] counts codewords at distance i from the reference word;
    B_dual is the MacWilliams transform |C| B'_k = sum_i B_i K_k(i),
    defined for q=2, where nonnegativity holds for every genuine code.
    """

    n: int
    size: int
    B: tuple[Fraction, ...]
    A_x: Optional[tuple[int, ...]]
    B_dual: Optional[tuple[Fraction, ...]]
    K: Optional[tuple[tuple[int, ...], ...]]

    def dual_nonnegative(self) -> bool:
        return self.B_dual is not None and all(b >= 0 for b in self.B_dual)


def weight_distribution(code: Code, x: Word) -> tuple[int, ...]:
    """A_i(x): codewords (with multiplicity) at distance i from x."""
    _check_same_space(code, x)
    (x_view,), shift = _popcount_view(code.space, (x.key,))
    counts = [0] * (code.space.n + 1)
    for b in _popcount_view(code.space, code.keys)[0]:
        counts[(x_view ^ b).bit_count() >> shift] += 1
    return tuple(counts)


def distance_data(code: Code, x: Optional[Word] = None) -> DistanceData:
    """Exact B, A_x and (for q=2) the dual distribution and Krawtchouk table."""
    if len(code) == 0:
        raise ValueError("distance distribution of an empty code is undefined")
    n = code.space.n
    size = len(code)
    # B counts ordered pairs, each word paired with itself too
    ordered = [2 * c for c in _distance_counts(code.space, code.keys)]
    ordered[0] += size
    b_dist = tuple(Fraction(c, size) for c in ordered)
    a_x = weight_distribution(code, x) if x is not None else None
    if code.space.q == 2:
        # B'_k = (1/size) sum_i B_i K_k(i) = sum_i ordered_i K_k(i) / size^2
        table = _krawtchouk_table(n)
        b_dual = tuple(Fraction(sum(map(mul, ordered, row)), size * size) for row in table)
    else:
        table = None
        b_dual = None
    return DistanceData(n, size, b_dist, a_x, b_dual, table)


# ---------------------------------------------------------------------------
# orthogonal-array balance, inner radius, pair profiles
# ---------------------------------------------------------------------------

def oa_strength1_check(t_set: Code) -> bool:
    """Each coordinate holds 0 and 1 equally often (strength-1 OA)."""
    if t_set.space.q != 2:
        raise ValueError("the balance check is defined for q=2 only")
    return all(2 * k == len(t_set) for k in _column_counts(t_set.keys, t_set.space.n))


def average_distance(t_set: Code, v: Word) -> Fraction:
    """Exact average Hamming distance from v to the members."""
    if len(t_set) == 0:
        raise ValueError("average distance to an empty set is undefined")
    a_v = weight_distribution(t_set, v)
    return Fraction(sum(i * a for i, a in enumerate(a_v)), len(t_set))


def inner_radius(t_set: Code) -> int:
    """min over members of the max distance to other members."""
    if len(t_set) == 0:
        raise ValueError("inner radius of an empty set is undefined")
    return min(_pair_pass(t_set.space, t_set.keys)[1])


@_frozen
class PairProfile:
    """Counts of distance-2 pairs of an extended unitrade by weight relation.

    All pair counts are ordered-pair counts classified by the weight of
    the first element: plus[i] pairs go from weight i to weight i+2,
    star[i] stay at weight i, minus[i] drop to weight i-2.  They satisfy
    2*minus[i] + star[i] = i*weight_counts[i],
    star[i] + 2*plus[i] = (n-i)*weight_counts[i] and
    minus[i] = plus[i-2].
    """

    n: int
    total: int
    weight_counts: tuple[int, ...]
    minus: tuple[int, ...]
    star: tuple[int, ...]
    plus: tuple[int, ...]


def pair_profile(t_set: Code) -> PairProfile:
    """Distance-2 pair counts by weight of an extended unitrade holding the zero word."""
    space = t_set.space
    if space.q != 2:
        raise ValueError("pair profiles are defined for q=2 only")
    if space.zero() not in t_set:
        raise ValueError("translate the unitrade so that it contains the all-zero word")
    adj = _unitrade_graph(t_set, True)[0]  # rows: the words at distance 0 or 2
    n, keys = space.n, t_set.keys
    weights = [k.bit_count() for k in keys]
    w_counts = [weights.count(i) for i in range(n + 1)]
    minus, star, plus = ([0] * (n + 1) for _ in range(3))
    for a, wa, row in zip(keys, weights, adj):
        for j in row:
            if keys[j] != a:  # a repeated word is at distance 0
                step = weights[j] - wa
                (plus if step == 2 else minus if step == -2 else star)[wa] += 1
    return PairProfile(n, len(t_set), tuple(w_counts), tuple(minus), tuple(star), tuple(plus))
