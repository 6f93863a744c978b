"""Seeded job lists for the hampack benchmark, with truth labels.

The generator never imports hampack.  Binary sources are pinned word
lists (``pinned.json``: canonical forms and constructions recorded at the
seed commit), q-ary sources are closed-form families built here, and the
labels are either pinned values, paper facts, or checks made by the small
reference functions below.  A defect in the library therefore cannot leak
into the labels it is checked against.

A run is a sequence of rounds.  Every round of a workload has the same
composition (job kinds, families, corruptions); the seed picks the random
isometric images, the corrupted word, the construct specs and the order.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

WORKLOADS = ("certify", "identify", "exact")

# paper facts: the 32-word codes are completely regular with this array,
# and the 96-word cells rebuild this five-cell equitable partition
C0_INTERSECTION_ARRAY = ((10, 9, 4), (1, 6, 10))
C0_RANKS = {"c0a": 5, "c0b": 6, "c0c": 7}
FIVE_CELL_MATRIX = (
    (0, 10, 0, 0, 0),
    (1, 0, 9, 0, 0),
    (0, 6, 0, 2, 2),
    (0, 0, 10, 0, 0),
    (0, 0, 10, 0, 0),
)
FIVE_CELL_SIZES = (32, 320, 480, 96, 96)


@dataclass
class Job:
    """One benchmark job: what to run, its inputs, and the expected answer.

    ``words`` holds the input multiset (bit-packed ints for q = 2, symbol
    tuples otherwise) so that checks can recount coverage at a witness.
    """

    kind: str
    family: str
    texts: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    words: tuple = ()
    truth: dict = field(default_factory=dict)
    corruption: str | None = None
    qary: bool = False
    repeat: bool = False
    profile_reject: bool = False


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@cache
def pinned() -> dict:
    """Word lists and answers recorded at the seed commit."""
    return json.loads(Path(__file__).with_name("pinned.json").read_text())


def binary_source(name: str) -> tuple[int, list[int]]:
    """(n, keys) of a named binary family: pinned sets, D<n>, A*B."""
    if name in pinned()["sets"]:
        entry = pinned()["sets"][name]
        return entry["n"], list(entry["keys"])
    if "*" in name:
        left, right = name.split("*")
        n_l, k_l = binary_source(left)
        n_r, k_r = binary_source(right)
        return n_l + n_r, [(u << n_r) | v for u in k_l for v in k_r]
    if name.startswith("D"):
        n = int(name[1:])
        half = n // 2
        return n, [(x << half) | x for x in range(1 << half)]
    raise KeyError(name)


def mds_words(n: int, q: int) -> list[tuple[int, ...]]:
    """All words of H(n, q) with digit sum 0 mod q."""
    out = []
    for prefix in _all_words(n - 1, q):
        out.append(prefix + ((-sum(prefix)) % q,))
    return out


def _all_words(n: int, q: int) -> list[tuple[int, ...]]:
    words = [()]
    for _ in range(n):
        words = [w + (s,) for w in words for s in range(q)]
    return words


def ternary_hamming_cosets(lam: int) -> list[tuple[int, ...]]:
    """Union of the first ``lam`` cosets (by syndrome) of the ternary
    Hamming code of length 4: every radius-1 ball holds exactly lam words."""
    cols = ((0, 1), (1, 0), (1, 1), (1, 2))
    by_syndrome: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for w in _all_words(4, 3):
        s = tuple(sum(c[i] * x for c, x in zip(cols, w)) % 3 for i in (0, 1))
        by_syndrome.setdefault(s, []).append(w)
    out = []
    for s in sorted(by_syndrome)[:lam]:
        out.extend(by_syndrome[s])
    return out


# ---------------------------------------------------------------------------
# isometries, text format, reference checks
# ---------------------------------------------------------------------------

def binary_image(keys: list[int], n: int, rng: random.Random, translate: int | None = None) -> list[int]:
    """Coordinate permutation plus translation, words in random order.

    ``translate`` fixes the translation; None draws a random one.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    bit_img = [1 << (n - 1 - perm[i]) for i in range(n)]
    t = rng.getrandbits(n) if translate is None else translate
    out = []
    for k in keys:
        v = 0
        for i in range(n):
            if (k >> (n - 1 - i)) & 1:
                v |= bit_img[i]
        out.append(v ^ t)
    rng.shuffle(out)
    return out


def qary_image(words: list[tuple[int, ...]], q: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Coordinate permutation plus a symbol permutation per coordinate."""
    n = len(words[0])
    perm = list(range(n))
    rng.shuffle(perm)
    sigma = []
    for _ in range(n):
        s = list(range(q))
        rng.shuffle(s)
        sigma.append(s)
    out = []
    for w in words:
        v = [0] * n
        for i, x in enumerate(w):
            v[perm[i]] = sigma[i][x]
        out.append(tuple(v))
    rng.shuffle(out)
    return out


def binary_text(keys: list[int], n: int) -> str:
    return f"2 {n}\n" + "".join(format(k, f"0{n}b") + "\n" for k in keys)


def qary_text(words: list[tuple[int, ...]], q: int) -> str:
    return f"{q} {len(words[0])}\n" + "".join("".join(map(str, w)) + "\n" for w in words)


def binary_ball(u: int, n: int) -> list[int]:
    return [u] + [u ^ (1 << b) for b in range(n)]


def qary_ball(u: tuple[int, ...], q: int) -> list[tuple[int, ...]]:
    out = [u]
    for i, x in enumerate(u):
        for s in range(q):
            if s != x:
                out.append(u[:i] + (s,) + u[i + 1:])
    return out


def coverage(words, u, q: int, n: int) -> int:
    """Codewords (with multiplicity) within distance 1 of u."""
    counts = Counter(words)
    ball = binary_ball(u, n) if q == 2 else qary_ball(u, q)
    return sum(counts[v] for v in ball)


def neighbour_count(words, u: int, n: int) -> int:
    """Binary codewords (with multiplicity) at distance exactly 1 from u."""
    counts = Counter(words)
    return sum(counts[u ^ (1 << b)] for b in range(n))


def distance_profile(keys: list[int]) -> tuple[int, ...]:
    counts = [0] * 65
    for i, x in enumerate(keys):
        for y in keys[i + 1:]:
            counts[(x ^ y).bit_count()] += 1
    return tuple(counts)


def distance_partition_equitable(keys: list[int], n: int) -> bool:
    """Is the partition of H(n, 2) by distance to the set equitable?"""
    dist = [-1] * (1 << n)
    frontier = list(set(keys))
    for k in frontier:
        dist[k] = 0
    d = 0
    while frontier:
        nxt = []
        for k in frontier:
            for b in range(n):
                o = k ^ (1 << b)
                if dist[o] == -1:
                    dist[o] = d + 1
                    nxt.append(o)
        frontier = nxt
        d += 1
    rows: dict[int, tuple[int, ...]] = {}
    for v in range(1 << n):
        prof = [0] * (d + 1)
        for b in range(n):
            prof[dist[v ^ (1 << b)]] += 1
        if rows.setdefault(dist[v], tuple(prof)) != tuple(prof):
            return False
    return True


def _max_coverage_near(words, center, q: int, n: int) -> int:
    ball = binary_ball(center, n) if q == 2 else qary_ball(center, q)
    return max(coverage(words, u, q, n) for u in ball)


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------

def corrupt_duplicate(words: list, lam: int, rng: random.Random) -> list:
    """Repeat one word until its multiplicity is lam + 1."""
    w = rng.choice(words)
    extra = max(1, lam + 1 - words.count(w))
    out = words + [w] * extra
    rng.shuffle(out)
    return out


def _move(w, q: int, n: int, rng: random.Random):
    i = rng.randrange(n)
    if q == 2:
        return w ^ (1 << i)
    s = rng.choice([x for x in range(q) if x != w[i]])
    return w[:i] + (s,) + w[i + 1:]


def corrupt_move(words: list, lam: int, q: int, n: int, rng: random.Random) -> list:
    """Move one word one step so that some ball holds more than lam words."""
    for _ in range(1000):
        i = rng.randrange(len(words))
        moved = _move(words[i], q, n, rng)
        out = words[:i] + [moved] + words[i + 1:]
        if _max_coverage_near(out, moved, q, n) > lam:
            return out
    raise RuntimeError("no one-step move breaks the packing")


def corrupt_parity(keys: list[int], n: int, rng: random.Random, must_break_partition: bool) -> list[int]:
    """Flip one coordinate of one word of a constant-parity set."""
    for _ in range(1000):
        i = rng.randrange(len(keys))
        moved = keys[i] ^ (1 << rng.randrange(n))
        if moved in keys:
            continue
        out = keys[:i] + [moved] + keys[i + 1:]
        if not must_break_partition or not distance_partition_equitable(out, n):
            return out
    raise RuntimeError("no parity flip breaks the property")


def duplicate_count(words) -> int:
    return sum(1 for c in Counter(words).values() if c > 1)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# (kind, family, corruption); about a quarter of the entries are corrupted.
# The host this runs on slows every job by up to 2x for seconds at a time.
# A percentile that falls inside a cluster of equal-cost jobs then jumps
# by that factor when the slow share of a run crosses a threshold, so the
# costs around each percentile are spread out instead: the jobs between
# the 35th and 65th percentiles cost about 20-65 ms, and those between
# the 80th and 98th about 100-530 ms (2 GHz Xeon, Python 3.11), each step
# a small one.  A slower stretch of the host then moves the percentile
# about as it moves the mean.
CERTIFY_ROUND = (
    [("construct", None, None)] * 3
    + [("partition", f, None) for f in ("c0a", "c0b", "c0c")]
    + [("partition", "c0b", "parity")]
    + [("five_cell", f, None) for f in ("c4a", "c4b", "c4c")]
    + [("analyze", f, None) for f in ("L6", "D8", "L8", "L6*D4", "D4*D6", "ham3x2")]
    + [("verify", f, None) for f in ("ham3dbl", "ham3x5")]
    + [("verify", "ham3x3", "dup")]
    # about 20-35 ms
    + [("analyze", "L12", "parity")]
    + [("verify", f, None) for f in ("mds3.7", "p9a", "p9b", "p9c", "mds5.3")]
    + [("verify", "p9a", "move"), ("verify", "p9b", "dup")]
    + [("analyze", "L10", "parity"), ("analyze", "L10", "dup")]
    + [("analyze", f, None) for f in ("L10", "L10", "L12", "L12")]
    # about 50-65 ms
    + [("analyze", "c4a", "parity"), ("analyze", "c4b", "dup"), ("analyze", "c4c", "parity")]
    + [("analyze", f, None) for f in ("c4a", "c4a", "c4b", "c4c")]
    # about 80 ms-1.7 s
    + [("verify", "mds3.9", "dup"), ("verify", "mds3.10", "move")]
    + [("verify", f, None) for f in ("mds4.5", "mds4.5", "mds3.10", "mds6.3", "mds6.3", "mds4.6", "mds5.4")]
    + [("verify", "mds5.4", "move"), ("verify", "mds4.6", "dup")]
    + [("verify", "mds4.7", None)]
)


def qary_source(family: str) -> tuple[int, list[tuple[int, ...]], int]:
    """(q, words, lambda) of a q-ary family; lambda is its exact max coverage."""
    if family.startswith("mds"):
        n, q = map(int, family[3:].split("."))
        return q, mds_words(n, q), n
    if family == "ham3dbl":
        words = ternary_hamming_cosets(1)
        return 3, words + words, 2
    lam = int(family.split("x")[1])
    return 3, ternary_hamming_cosets(lam), lam


def _certify_job(kind: str, family: str | None, corruption: str | None, rng: random.Random) -> Job:
    if kind == "construct":
        spec = rng.choice(sorted(pinned()["construct"]))
        return Job("construct", spec, params={"spec": spec}, truth=pinned()["construct"][spec])
    if family.startswith(("mds", "ham")):
        q, words, lam = qary_source(family)
        n = len(words[0])
        words = qary_image(words, q, rng)
        if corruption == "move":
            words = corrupt_move(words, lam, q, n, rng)
        elif corruption == "dup":
            words = corrupt_duplicate(words, lam, rng)
        truth = {"max_coverage": lam, "duplicates": duplicate_count(words)}
        if kind == "analyze":
            truth = pinned()["analyze"][family]
        return Job(kind, family, (qary_text(words, q),), {"lam": lam, "q": q, "n": n},
                   tuple(words), truth, corruption, qary=True)

    # p9x: the length-9 puncture of an image of the 96-word cell c4x
    n, keys = binary_source("c4" + family[2:] if family.startswith("p9") else family)
    if kind == "five_cell":
        # the reconstruction expects the odd-parity copy of the cell
        keys = binary_image(keys, n, rng)
        if keys[0].bit_count() % 2 == 0:
            keys = [k ^ 1 for k in keys]
        return Job(kind, family, (binary_text(keys, n),), {}, tuple(keys),
                   {"matrix": FIVE_CELL_MATRIX, "sizes": FIVE_CELL_SIZES})
    if kind == "partition":
        # translate by a member: the GF(2) rank of a set containing zero
        # is unchanged by permutations and by translations by its members
        keys = binary_image(keys, n, rng, translate=0)
        t = rng.choice(keys)
        keys = [k ^ t for k in keys]
        if corruption == "parity":
            keys = corrupt_parity(keys, n, rng, must_break_partition=True)
        return Job(kind, family, (binary_text(keys, n),), {}, tuple(keys),
                   {"array": C0_INTERSECTION_ARRAY, "rank": C0_RANKS[family]}, corruption)
    keys = binary_image(keys, n, rng)
    lam = 2
    if family.startswith("p9"):
        keys = [k >> 1 for k in keys]
        n -= 1
    if corruption == "move":
        keys = corrupt_move(keys, lam, 2, n, rng)
    elif corruption == "dup":
        keys = corrupt_duplicate(keys, lam, rng)
    elif corruption == "parity":
        keys = corrupt_parity(keys, n, rng, must_break_partition=False)
    if kind == "analyze":
        truth = pinned()["analyze"][family]
    else:
        truth = {"max_coverage": lam, "duplicates": duplicate_count(keys)}
    return Job(kind, family, (binary_text(keys, n),), {"lam": lam, "q": 2, "n": n},
               tuple(keys), truth, corruption)


def certify_round(rng: random.Random) -> list[Job]:
    jobs = [_certify_job(kind, fam, cor, rng) for kind, fam, cor in CERTIFY_ROUND]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

IDENTIFY_CANON = ("c4a", "c4b", "c4c", "c0a", "c0b", "c0c", "L10",
                  "L8", "L8", "L8", "L6*D2", "L6*D2", "L6*D2", "K8.16", "K8.16", "K8.24b", "K8.24b",
                  "K8.28", "K8.28", "K8.32a", "K8.32b", "K8.32c")
IDENTIFY_SAME = ("L8", "L6*D2", "K8.16", "K8.24b", "K8.28", "K8.28", "K8.32b", "K8.32c", "K8.32c", "c0c")
IDENTIFY_DIFFERENT = (("K8.32a", "K8.32b"), ("K8.32b", "K8.32c"), ("K8.32b", "K8.32c"), ("K8.32b", "K8.32c"),
                      ("c0b", "c0c"), ("L8", "K8.24b"), ("c0a", "D10"))
IDENTIFY_NEAR_MISS = ("c4a", "c4b", "c4c", "c0a", "L10", "L8", "L6*D2", "K8.32a", "K8.28", "c0b") * 5
# Every canonical-form query is asked three times, every same-class pair
# twice.  The 90th percentile falls among the eight pairs of 32- and
# 28-word length-8 sets, which cost about the same; ten dearer jobs (the
# length-10 forms and pairs, K8.32a) sit above them.
IDENTIFY_REPEATS = 2 * len(IDENTIFY_CANON) + len(IDENTIFY_SAME)


def _class_image(name: str, rng: random.Random) -> tuple[int, list[int]]:
    n, keys = binary_source(name)
    return n, binary_image(keys, n, rng)


def _near_miss(keys: list[int], n: int, rng: random.Random) -> list[int]:
    """Move one word one step so that the distance profile changes."""
    base = distance_profile(keys)
    key_set = set(keys)
    for _ in range(1000):
        i = rng.randrange(len(keys))
        moved = keys[i] ^ (1 << rng.randrange(n))
        if moved in key_set:
            continue
        out = keys[:i] + [moved] + keys[i + 1:]
        if distance_profile(out) != base:
            return out
    raise RuntimeError("no near miss with a different distance profile")


def _pair_job(family: str, n: int, a: list[int], b: list[int], same: bool) -> Job:
    reject = len(a) == len(b) and distance_profile(a) != distance_profile(b)
    return Job("equiv", family, (binary_text(a, n), binary_text(b, n)),
               truth={"equivalent": same}, profile_reject=reject)


def identify_round(rng: random.Random) -> list[Job]:
    jobs = []
    for name in IDENTIFY_CANON:
        n, keys = _class_image(name, rng)
        jobs.append(Job("canon", name, (binary_text(keys, n),),
                        truth={"canonical": pinned()["sets"][name]["keys"]}))
    for name in IDENTIFY_SAME:
        n, a = _class_image(name, rng)
        _, b = _class_image(name, rng)
        jobs.append(_pair_job(name, n, a, b, True))
    for left, right in IDENTIFY_DIFFERENT:
        n, a = _class_image(left, rng)
        _, b = _class_image(right, rng)
        jobs.append(_pair_job(f"{left}|{right}", n, a, b, False))
    for name in IDENTIFY_NEAR_MISS:
        n, a = _class_image(name, rng)
        _, b = _class_image(name, rng)
        jobs.append(_pair_job(f"{name}|near", n, a, _near_miss(b, n, rng), False))
    n_canon, n_same = len(IDENTIFY_CANON), len(IDENTIFY_SAME)
    repeated = 2 * jobs[:n_canon] + jobs[n_canon:n_canon + n_same]
    rng.shuffle(jobs)
    # exact repeats of earlier inputs of the round: these hit the
    # canonical-form cache
    order = list(jobs)
    for original in repeated:
        first = next(i for i, j in enumerate(order) if j is original)
        order.insert(rng.randrange(first + 1, len(order) + 1), replace(original, repeat=True))
    return order


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

# As in certify, the job costs around each percentile are spread out, so
# that a slower stretch of the host moves the percentile smoothly: the
# median falls among jobs of about 0.7-5.5 ms (n = 7 and n = 6 two-fold
# packings, the n = 6 classifications, (4,3,1,1)), the 90th percentile among
# jobs of about 60-100 ms (max_packing_size, min8, n = 8 capped at 16).
# The three full n = 8 classifications, 1.3-2 s each, take most of a round.
EXACT_CLASSIFY = (
    (4, False, False, None), *[(4, True, False, None)] * 4,
    *[(6, False, False, None)] * 5, *[(6, True, False, None)] * 5, (6, False, True, None), (6, False, False, 8),
    (8, False, False, None), (8, True, False, None), (8, False, True, None), *[(8, False, False, 16)] * 4,
)
EXACT_MIN_SIZE = (*[4] * 8, *[6] * 7, 8)
EXACT_TWOFOLD = (5, *[6] * 5, *[7] * 5)
EXACT_MAX_PACKING = (*[(4, 2, 3, 1)] * 3, *[(3, 3, 2, 1)] * 2, *[(3, 4, 1, 1)] * 2, *[(4, 3, 1, 1)] * 4, (2, 5, 2, 1))


def classify_name(n: int, nonbipartite: bool, antipodal: bool, max_card: int | None) -> str:
    return f"n{n}" + ("-nonbip" if nonbipartite else "") + ("-antipodal" if antipodal else "") + (
        f"-max{max_card}" if max_card is not None else "")


def exact_round(rng: random.Random) -> list[Job]:
    recorded = pinned()["exact"]
    jobs = []
    for n, nonbip, antip, max_card in EXACT_CLASSIFY:
        name = classify_name(n, nonbip, antip, max_card)
        jobs.append(Job("classify", name, params={"n": n, "nonbipartite_only": nonbip,
                                                  "antipodal_only": antip, "max_cardinality": max_card},
                        truth={"cardinalities": recorded["classify"][name],
                               "classes": [pinned()["sets"][c]["keys"] for c in pinned()["classes"][str(n)]]}))
    for n in EXACT_MIN_SIZE:
        jobs.append(Job("min_size", f"n{n}", params={"n": n}, truth={"value": 1 << (n // 2)}))
    for n in EXACT_TWOFOLD:
        jobs.append(Job("max_twofold", f"n{n}", params={"n": n},
                        truth={"value": recorded["max_twofold"][str(n)]}))
    for n, q, lam, r in EXACT_MAX_PACKING:
        name = f"{n}.{q}.{lam}.{r}"
        jobs.append(Job("max_packing", name, params={"n": n, "q": q, "lam": lam, "r": r},
                        truth={"value": recorded["max_packing"][name]}))
    rng.shuffle(jobs)
    return jobs


ROUND_BUILDERS = {"certify": certify_round, "identify": identify_round, "exact": exact_round}


def make_round(workload: str, seed: int, index: int) -> list[Job]:
    """Round ``index`` of a workload; the same (seed, index) gives the same jobs."""
    return ROUND_BUILDERS[workload](random.Random(f"{workload}/{seed}/{index}"))
