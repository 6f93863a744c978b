"""Independent readings that the tests hold the library's answers against.

They read a code's space and keys, or only its length, and share no
code with ``hampack``.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product


def halved_cube_reading(t_set) -> bool:
    """The extended-unitrade property of a constant-parity binary set
    without repeated words, read inside the halved n-cube (one parity
    class, adjacency = distance 2).

    For n >= 5 the set is an extended 1-perfect unitrade exactly when it
    induces a subgraph of degree n/2 with no triangles: each member meets
    each of its n balls in one more member, two members at distance 2
    share two balls, and a triangle puts three members in one ball.
    """
    n = t_set.space.n
    members = set(t_set.keys)
    assert len(members) == len(t_set), "the reading needs a set without repeats"
    pair_flips = [(1 << i) | (1 << j) for i, j in combinations(range(n), 2)]
    for k in members:
        nbrs = [k ^ f for f in pair_flips if k ^ f in members]
        if 2 * len(nbrs) != n:
            return False
        if any((a ^ b).bit_count() == 2 for a, b in combinations(nbrs, 2)):
            return False
    return True


def radius1_coverage(t_set) -> dict:
    """How many codewords, repeats counted, lie within distance 1 of each
    vertex of the space; every vertex is listed, as a tuple of symbols,
    covered or not."""
    vertices = list(product(range(t_set.space.q), repeat=t_set.space.n))
    return dict(zip(vertices, radius1_counts(t_set, vertices)))


def radius1_counts(t_set, vertices) -> list:
    """How many codewords, repeats counted, lie within distance 1 of each
    given vertex (a tuple of symbols); each ball is walked one changed
    symbol at a time, so spaces too large to list can be sampled."""
    n, q = t_set.space.n, t_set.space.q
    words = Counter(tuple(key >> (n - 1 - i) & 1 for i in range(n)) if q == 2 else tuple(key)
                    for key in t_set.keys)
    counts = []
    for v in vertices:
        total = words[v]
        for i in range(n):
            for s in range(q):
                if s != v[i]:
                    total += words[v[:i] + (s,) + v[i + 1:]]
        counts.append(total)
    return counts


def krawtchouk_table(n: int) -> list[list[int]]:
    """K[k][i], the binary Krawtchouk numbers as character sums: the sum
    of (-1)^(u·v) over the 2^n words v of weight k, for a word u of
    weight i."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        u = (1 << i) - 1
        for v in range(1 << n):
            table[v.bit_count()][i] += -1 if (u & v).bit_count() & 1 else 1
    return table


def macwilliams_transform(b, n: int, size: int) -> tuple:
    """B'_k = (1/size) sum_i B_i K_k(i), in exact rationals."""
    table = krawtchouk_table(n)
    return tuple(sum((Fraction(b[i]) * table[k][i] for i in range(n + 1)), Fraction(0)) / size
                 for k in range(n + 1))


def least_plain_unitrades(n: int) -> tuple[int, int]:
    """The least sizes of a nonempty plain 1-perfect unitrade of H(n, 2),
    and of a bipartite one, by exhaustive search.

    A unitrade stays one under translation, so it may hold the zero word.
    From {0}, the search adds, in every possible way, a missing word to a
    radius-1 ball that holds exactly one word, and drops any set with a
    ball of three or more; every unitrade containing 0 is reached, or a
    smaller unitrade inside it is.  A unitrade inside a bipartite one is
    bipartite (its conflict graph is an induced subgraph), so the least
    of either kind is among the sets the search stops at.
    """
    balls = [[v] + [v ^ (1 << i) for i in range(n)] for v in range(1 << n)]
    least, least_bipartite = None, None
    seen = set()
    stack = [frozenset([0])]
    while stack:
        t_set = stack.pop()
        if t_set in seen or (least_bipartite is not None and len(t_set) >= least_bipartite):
            continue
        seen.add(t_set)
        counts = [sum(u in t_set for u in ball) for ball in balls]
        if max(counts) > 2:
            continue
        deficient = next((b for b, c in zip(balls, counts) if c == 1), None)
        if deficient is None:
            if least is None or len(t_set) < least:
                least = len(t_set)
            if _conflict_graph_bipartite(t_set):
                least_bipartite = len(t_set)
            continue
        stack.extend(t_set | {u} for u in deficient if u not in t_set)
    return least, least_bipartite


def _conflict_graph_bipartite(t_set) -> bool:
    """Whether the graph joining members at distance 1 or 2 is 2-colourable."""
    color = {}
    for start in t_set:
        if start in color:
            continue
        color[start], todo = 0, [start]
        while todo:
            u = todo.pop()
            for v in t_set:
                if v != u and (u ^ v).bit_count() <= 2:
                    if v not in color:
                        color[v] = 1 - color[u]
                        todo.append(v)
                    elif color[v] == color[u]:
                        return False
    return True


def conflict_adjacency(code) -> list:
    """The pair pass: for each word, the indices j != i (increasing) of
    the words at distance 0, 1 or 2, from one sweep over the pairs i < j."""
    keys = code.keys

    def distance(a, b):
        return (a ^ b).bit_count() if code.space.q == 2 else sum(x != y for x, y in zip(a, b))

    adj = [[] for _ in keys]
    for i, a in enumerate(keys):
        for j in range(i + 1, len(keys)):
            if distance(a, keys[j]) <= 2:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def distance_cells(code) -> list:
    """The vertex layers of a binary code by exact distance, from a
    breadth-first search one vertex at a time."""
    n = code.space.n
    dist = [-1] * (1 << n)
    frontier = sorted(set(code.keys))
    for k in frontier:
        dist[k] = 0
    layers = [frozenset(frontier)]
    while frontier:
        nxt = []
        for k in frontier:
            for b in range(n):
                other = k ^ (1 << b)
                if dist[other] == -1:
                    dist[other] = dist[k] + 1
                    nxt.append(other)
        if nxt:
            layers.append(frozenset(nxt))
        frontier = nxt
    return layers


def equitable_reading(n: int, cells) -> tuple:
    """(matrix rows, None) for an equitable partition of H(n, 2) into
    cells of keys, or (None, witness key): scanning the vertices in key
    order, the first whose neighbour counts per cell differ from those
    of the first vertex of its cell."""
    idx = {k: ci for ci, cell in enumerate(cells) for k in cell}
    assert sorted(idx) == list(range(1 << n)), "the cells must partition the space"
    rows = [None] * len(cells)
    for key in range(1 << n):
        profile = [0] * len(cells)
        for b in range(n):
            profile[idx[key ^ (1 << b)]] += 1
        ci = idx[key]
        if rows[ci] is None:
            rows[ci] = tuple(profile)
        elif rows[ci] != tuple(profile):
            return None, key
    return tuple(rows), None


def binary_projection(code, coords) -> list:
    """The distinct words of a binary code restricted to the coordinates,
    in the given order, as sorted symbol tuples, built one symbol at a
    time (coordinate 0 is the most significant bit of a key)."""
    n = code.space.n
    words = {tuple(key >> (n - 1 - i) & 1 for i in range(n)) for key in code.keys}
    return sorted({tuple(s[c] for c in coords) for s in words})
