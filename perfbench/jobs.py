"""Running one job against the library, and checking its answer.

``run_job`` makes the same calls as the matching ``hampack`` subcommand
(or the library entry point, for identify and exact), each inside a span
named after the layer it enters.  ``check_job`` compares the answer with
the generator's truth label; checks run outside the job span.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

from . import gen

CONSTRUCT_SPECS = {
    "p96a.c4": lambda c: c.packing96_linear()[1],
    "p96b.c0": lambda c: c.packing96_z2z4()[0],
    "p96c.c4.punct": lambda c: c.puncture_last(c.packing96_propelinear()[1]),
    "display96": lambda c: c.classified_C4_display(),
    "lstar12": lambda c: c.l_star(12),
    "diag10": lambda c: c.diagonal_unitrade(10),
    "mds4.7": lambda c: c.mds_code(4, 7),
    "ham3x5": lambda c: c.hamming_coset_union(3, 5),
    "ham5": lambda c: c.hamming_code_q(5),
    "concat.L6.D4": lambda c: c.concatenate(c.l_star(6), c.diagonal_unitrade(4)),
}


def _parse(lib, tr, text: str):
    with tr.span("core.parse_code", bytes=len(text)):
        return lib.core.parse_code(text)


def _key(word):
    """Witness word in the generator's representation."""
    if word is None:
        return None
    return word.key if isinstance(word.key, int) else tuple(word.key)


def _verify_packing(lib, tr, code, lam: int):
    layer = "analysis.verify_packing." + ("q2" if code.space.q == 2 else "qary")
    with tr.span(layer, codewords=len(code), vertices=code.space.size):
        return lib.analysis.verify_packing(code, lam, 1)


# ---------------------------------------------------------------------------
# certify: the verify | analyze | partition | construct paths
# ---------------------------------------------------------------------------

def _verify(lib, tr, job):
    code = _parse(lib, tr, job.texts[0])
    n, q, lam = code.space.n, code.space.q, job.params["lam"]
    with tr.span("bounds"):
        bound_values = [lib.bounds.sphere_packing_bound(n, q, lam, 1)]
        if q == 2:
            bound_values.append(lib.bounds.lp_bound(n, lam).value)
        elif lam == n:
            bound_values.append(lib.bounds.hamming_eigenvalue_bound(n, q, lam).value)
            bound_values.append(int(lib.bounds.mds_interval(n, q)[1]))
    rep = _verify_packing(lib, tr, code, lam)
    return {"size": len(code), "max_coverage": rep.max_coverage, "lambda_fold": rep.is_lambda_fold,
            "witness": _key(rep.witness), "duplicates": len(rep.duplicate_words), "bounds": bound_values}


def _analyze(lib, tr, job):
    a = lib.analysis
    code = _parse(lib, tr, job.texts[0])
    rep = _verify_packing(lib, tr, code, job.params["lam"])
    out = {"max_coverage": rep.max_coverage, "lambda_fold": rep.is_lambda_fold,
           "packing_witness": _key(rep.witness)}
    binary = code.space.q == 2
    with tr.span("analysis.unitrade"):
        if binary:
            try:
                ext = a.is_extended_unitrade(code)
                out["mixed_parity"] = False
            except ValueError:
                # mixed parity: report a ball witness of the larger parity class
                out["mixed_parity"] = True
                classes = ([w for w in code.words if w.parity == p] for p in (0, 1))
                part = max(classes, key=len)
                ext = a.is_extended_unitrade(lib.core.Code(code.space, part))
            out["extended"], out["witness"] = ext.ok, _key(ext.witness)
            ok = ext.ok
            if ok:
                out["antipodal"] = a.is_antipodal(code)
        else:
            plain = a.is_unitrade(code)
            out["plain"], out["witness"] = plain.ok, _key(plain.witness)
            ok = plain.ok
    if ok:
        with tr.span("analysis.structure"):
            out["bipartite"] = a.is_bipartite_unitrade(code, extended=binary).bipartite
            out["components"] = len(a.primary_components(code, extended=binary))
            if binary:
                out["reducibility"] = a.reducibility_certificate(code).kind
    with tr.span("analysis.distributions"):
        data = a.distance_data(code)
        out["B"] = [str(b) for b in data.B]
        out["dual_nonnegative"] = data.dual_nonnegative() if data.B_dual else None
        out["inner_radius"] = a.inner_radius(code)
        if binary and ok:
            profile = a.pair_profile(code.translate(code.words[0]))
            out["pair_profile"] = (profile.n, profile.total, profile.weight_counts,
                                   profile.minus, profile.star, profile.plus)
    return out


def _partition(lib, tr, job):
    code = _parse(lib, tr, job.texts[0])
    with tr.span("partitions"):
        cells = lib.partitions.distance_cells(code)
        matrix, witness = lib.partitions.is_equitable(code.space, cells)
        array = matrix.intersection_array() if matrix is not None and matrix.is_tridiagonal() else None
    with tr.span("linalg.gf2_rank"):
        rank = lib.linalg.gf2_rank(code)
    return {"equitable": matrix is not None, "array": array, "witness": _key(witness), "rank": rank}


def _five_cell(lib, tr, job):
    code = _parse(lib, tr, job.texts[0])
    with tr.span("partitions"):
        part = lib.partitions.partition_from_unitrade(code)
    if part is None:
        return {"matrix": None, "sizes": None}
    return {"matrix": part.matrix.entries, "sizes": part.cell_sizes}


def _construct(lib, tr, job):
    with tr.span("constructions.build"):
        code = CONSTRUCT_SPECS[job.params["spec"]](lib.constructions)
    with tr.span("core.format_code"):
        text = lib.core.format_code(code)
    return {"size": len(code), "sha256": hashlib.sha256(text.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# identify and exact
# ---------------------------------------------------------------------------

def _canon(lib, tr, job):
    code = _parse(lib, tr, job.texts[0])
    with tr.span("search.canonical_form"):
        form = lib.search.canonical_form(code)
    return {"canonical": [w.key for w in form.words]}


def _equiv(lib, tr, job):
    a = _parse(lib, tr, job.texts[0])
    b = _parse(lib, tr, job.texts[1])
    # whether the profile check decides the pair is the generator's label
    with tr.span("search.are_equivalent", profile_rejects=int(job.profile_reject)):
        return {"equivalent": lib.search.are_equivalent(a, b)}


def _classify(lib, tr, job):
    cfg = lib.search.SearchConfig(threads=1, **job.params)
    with tr.span("search.classify_extended_unitrades") as counts:
        classes = lib.search.classify_extended_unitrades(cfg)
        counts["classes"] = len(classes)
    return {"classes": [(c.cardinality, [w.key for w in c.representative.words], c.bipartite, c.antipodal)
                        for c in classes]}


def _min_size(lib, tr, job):
    with tr.span("search.min_extended_unitrade_size"):
        return {"value": lib.search.min_extended_unitrade_size(job.params["n"])}


def _max_twofold(lib, tr, job):
    with tr.span("search.max_packing_size"):
        return {"value": lib.search.max_twofold_packing_size(job.params["n"])}


def _max_packing(lib, tr, job):
    p = job.params
    with tr.span("search.max_packing_size"):
        return {"value": lib.search.max_packing_size(p["n"], p["q"], p["lam"], p["r"])}


RUNNERS = {
    "verify": _verify, "analyze": _analyze, "partition": _partition, "five_cell": _five_cell,
    "construct": _construct, "canon": _canon, "equiv": _equiv, "classify": _classify,
    "min_size": _min_size, "max_twofold": _max_twofold, "max_packing": _max_packing,
}


def run_job(lib: SimpleNamespace, tr, job: gen.Job) -> dict:
    return RUNNERS[job.kind](lib, tr, job)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_verify(job, ans, lib) -> bool:
    lam, q, n = job.params["lam"], job.params["q"], job.params["n"]
    if ans["witness"] is None or gen.coverage(job.words, ans["witness"], q, n) != ans["max_coverage"]:
        return False
    if job.corruption:
        return not ans["lambda_fold"] and ans["max_coverage"] > lam
    return (ans["lambda_fold"] and ans["max_coverage"] == job.truth["max_coverage"]
            and ans["duplicates"] == job.truth["duplicates"]
            and all(ans["size"] <= b for b in ans["bounds"]))


def _pair_profile_consistent(profile) -> bool:
    n, total, wc, minus, star, plus = profile
    return sum(wc) == total and all(
        2 * minus[i] + star[i] == i * wc[i]
        and star[i] + 2 * plus[i] == (n - i) * wc[i]
        and minus[i] == (plus[i - 2] if i >= 2 else 0)
        for i in range(n + 1))


def _check_analyze(job, ans, lib) -> bool:
    n = job.params["n"]
    if job.corruption:
        # rejected: the (larger constant-parity part of the) input meets a
        # ball centred at the witness in a count other than 0 or 2
        words = job.words
        if job.corruption == "parity":
            by_parity = ([k for k in words if k.bit_count() % 2 == p] for p in (0, 1))
            words = max(by_parity, key=len)
            if not ans["mixed_parity"]:
                return False
        return (not ans["extended"] and ans["witness"] is not None
                and gen.neighbour_count(words, ans["witness"], n) not in (0, 2))
    truth = job.truth
    if any(ans.get(k) != v for k, v in truth.items()):
        return False
    return job.qary or _pair_profile_consistent(ans["pair_profile"])


def _check_partition(job, ans, lib) -> bool:
    if job.corruption:
        return not ans["equitable"] and ans["witness"] is not None
    return ans["array"] == job.truth["array"] and ans["rank"] == job.truth["rank"]


def _check_five_cell(job, ans, lib) -> bool:
    return ans["matrix"] == job.truth["matrix"] and ans["sizes"] == job.truth["sizes"]


def _check_construct(job, ans, lib) -> bool:
    return ans == job.truth


def _check_canon(job, ans, lib) -> bool:
    return ans["canonical"] == job.truth["canonical"]


def _check_equiv(job, ans, lib) -> bool:
    return ans["equivalent"] is job.truth["equivalent"]


def _check_classify(job, ans, lib) -> bool:
    p = job.params
    classes = ans["classes"]
    allowed = {tuple(keys) for keys in job.truth["classes"]}
    return ([c[0] for c in classes] == job.truth["cardinalities"]
            and all(tuple(c[1]) in allowed for c in classes)
            and not (p["nonbipartite_only"] and any(c[2] for c in classes))
            and not (p["antipodal_only"] and not all(c[3] for c in classes))
            and not (p["max_cardinality"] is not None and any(c[0] > p["max_cardinality"] for c in classes)))


def _check_min_size(job, ans, lib) -> bool:
    n = job.params["n"]
    return ans["value"] == job.truth["value"] == lib.bounds.unitrade_min_cardinality(n, extended=True)


def _check_max_packing(job, ans, lib) -> bool:
    """Pinned value, and within the sphere-packing (and binary LP) bound."""
    p = job.params
    n, q, lam, r = p["n"], p.get("q", 2), p.get("lam", 2), p.get("r", 1)
    bound = lib.bounds.sphere_packing_bound(n, q, lam, r)
    if q == 2 and r == 1 and n >= 2:
        bound = min(bound, lib.bounds.lp_bound(n, lam).value)
    return ans["value"] == job.truth["value"] and ans["value"] <= bound


CHECKS = {
    "verify": _check_verify, "analyze": _check_analyze, "partition": _check_partition,
    "five_cell": _check_five_cell, "construct": _check_construct, "canon": _check_canon,
    "equiv": _check_equiv, "classify": _check_classify, "min_size": _check_min_size,
    "max_twofold": _check_max_packing, "max_packing": _check_max_packing,
}


def check_job(job: gen.Job, answer: dict, lib: SimpleNamespace) -> bool:
    return CHECKS[job.kind](job, answer, lib)
