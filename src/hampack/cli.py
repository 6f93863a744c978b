"""Command-line front end.

Subcommands: verify, analyze, bound, construct, classify, partition.
Codes travel in the text format of the core module (stdin/stdout by
default), reports are printed as plain text or JSON (``--json``), and
nothing is randomized, so every output is reproducible bit for bit.

Exit codes: 0 success, 1 verification failure (e.g. a claimed packing
is not one, or a reconstruction does not validate), 2 usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, TextIO

from . import analysis, bounds, constructions, partitions, search
from .core import Code, Space, _key_text, read_code, write_code

_WORD_LIST_LIMIT = 256


def _open_input(path: Optional[str]) -> TextIO:
    if path is None or path == "-":
        return sys.stdin
    return open(path, "r", encoding="utf-8")


def _read_input_code(path: Optional[str]) -> Code:
    stream = _open_input(path)
    try:
        return read_code(stream)
    finally:
        if stream is not sys.stdin:
            stream.close()


def _emit_code(code: Code, out: Optional[str]) -> None:
    if out is None or out == "-":
        write_code(code, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            write_code(code, fh)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _packing_payload(args: argparse.Namespace, report: analysis.PackingReport) -> dict:
    return {
        "lambda": args.lam,
        "r": args.r,
        "max_coverage": report.max_coverage,
        "witness": str(report.witness) if report.witness is not None else None,
        "is_lambda_fold": report.is_lambda_fold,
        "duplicate_words": [str(w) for w in report.duplicate_words],
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    code = _read_input_code(args.file)
    report = analysis.verify_packing(code, args.lam, args.r)
    payload = {"n": code.space.n, "q": code.space.q, "size": len(code), **_packing_payload(args, report)}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"|C|={len(code)} in H({code.space.n},{code.space.q}): "
            f"max coverage {report.max_coverage} at radius {args.r}"
            + (f", witness vertex {report.witness}" if report.witness is not None else "")
        )
        verdict = "IS" if report.is_lambda_fold else "is NOT"
        print(f"the code {verdict} a {args.lam}-fold {args.r}-packing")
        if report.duplicate_words:
            print(f"repeated words: {', '.join(str(w) for w in report.duplicate_words)}")
    return 0 if report.is_lambda_fold else 1


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args: argparse.Namespace) -> int:
    code = _read_input_code(args.file)
    report = analysis.verify_packing(code, args.lam, args.r)
    payload: dict = {
        "space": {"n": code.space.n, "q": code.space.q},
        "size": len(code),
        "packing": _packing_payload(args, report),
    }
    plain = analysis.is_unitrade(code)
    payload["unitrade"] = {
        "plain": {"ok": plain.ok, "witness": str(plain.witness) if plain.witness else None}
    }
    extended = None
    if code.space.q == 2:
        try:
            ext = analysis.is_extended_unitrade(code)
            extended = {"ok": ext.ok, "witness": str(ext.witness) if ext.witness else None}
        except ValueError:
            extended = {"ok": False, "witness": None, "note": "mixed parity"}
    payload["unitrade"]["extended"] = extended

    bipartite = None
    if extended is not None and extended["ok"]:
        bipartite = analysis.is_bipartite_unitrade(code, extended=True).bipartite
    elif plain.ok and len(code) > 0:
        bipartite = analysis.is_bipartite_unitrade(code, extended=False).bipartite
    payload["bipartite"] = bipartite
    payload["antipodal"] = analysis.is_antipodal(code) if code.space.q == 2 else None
    payload["inner_radius"] = analysis.inner_radius(code) if len(code) else None

    if len(code):
        data = analysis.distance_data(code)
        payload["distributions"] = {
            "B": [str(b) for b in data.B],
            "B_dual": [str(b) for b in data.B_dual] if data.B_dual else None,
            "dual_nonnegative": data.dual_nonnegative() if data.B_dual else None,
        }
    else:
        payload["distributions"] = None
    print(json.dumps(payload, sort_keys=True, indent=None if args.json else 2))
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _cmd_bound(args: argparse.Namespace) -> int:
    n, q, lam, r = args.n, args.q, args.lam, args.r
    rows: list[dict] = []

    def add(formula_id: str, value: int, notes: str) -> None:
        rows.append({"formula_id": formula_id, "value": value, "notes": notes})

    add("sphere_packing", bounds.sphere_packing_bound(n, q, lam, r), f"floor(lambda q^n / |B_{r}|)")
    # H(1, 2) is K2, whose eigenvalues +-1 both reach the degree: no spectral bound
    if r == 1 and (n, q) != (1, 2):
        eig = bounds.hamming_eigenvalue_bound(n, q, lam)
        add(eig.formula_id, eig.value, "; ".join(eig.assumptions) + ("; vacuous" if eig.vacuous else ""))
    lp_bound, least_n = (bounds.lp_bound_even, 3) if args.even_weight else (bounds.lp_bound, 2)
    if q == 2 and r == 1 and n >= least_n:
        lp = lp_bound(n, lam)
        add(lp.formula_id, lp.value, f"exact {lp.raw}")
    if lam == n and r == 1:
        lower, upper = bounds.mds_interval(n, q)
        add("mds_interval", int(upper), f"lower {lower} (distance-2 MDS code), upper exact {upper}")
        if q >= 2 * n:
            add("mds_optimal", lower, "q >= 2n: the MDS value is exactly optimal")
        elif q >= n:
            add("mds_conjectured", lower, "q >= n: conjectured optimal, not asserted")
    payload = {"n": n, "q": q, "lambda": lam, "r": r, "even_weight": args.even_weight, "bounds": rows}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        width = max(len(row["formula_id"]) for row in rows)
        print(f"bounds for lambda={lam} r={r} in H({n},{q})" + (" (even-weight)" if args.even_weight else ""))
        for row in rows:
            print(f"  {row['formula_id']:<{width}}  {row['value']:>12}  {row['notes']}")
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _cmd_construct(args: argparse.Namespace) -> int:
    name = args.name
    if name == "mds":
        code = constructions.mds_code(args.n, args.q)
    elif name == "hamming":
        if args.lam > 1:
            code = constructions.hamming_coset_union(args.q, args.lam)
        else:
            code = constructions.hamming_code_q(args.q)
    elif name == "lstar":
        code = constructions.l_star(args.n)
    elif name == "diag":
        code = constructions.diagonal_unitrade(args.n)
    elif name == "concat":
        left = _read_input_code(args.left)
        right = _read_input_code(args.right)
        code = constructions.concatenate(left, right)
    elif name in ("p96a", "p96b", "p96c"):
        build = {
            "p96a": constructions.packing96_linear,
            "p96b": constructions.packing96_z2z4,
            "p96c": constructions.packing96_propelinear,
        }[name]
        c0, c4 = build()
        code = c0 if args.cell == "c0" else c4
        if args.puncture:
            code = constructions.puncture_last(code)
    elif name == "display96":
        code = constructions.classified_C4_display()
        if args.puncture:
            code = constructions.puncture_last(code)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(name)
    _emit_code(code, args.out)
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = search.SearchConfig(
        n=args.n,
        nonbipartite_only=args.nonbipartite,
        antipodal_only=args.antipodal,
        max_cardinality=args.max_cardinality,
        threads=args.threads,
        checkpoint_path=args.checkpoint,
    )
    classes = search.classify_extended_unitrades(cfg)
    manifest = {
        "n": args.n,
        "filters": cfg.filter_key(),
        "class_count": len(classes),
        "cardinalities": [c.cardinality for c in classes],
        "classes": [
            {
                "index": i,
                "cardinality": c.cardinality,
                "flags": c.flags,
                "reducibility": c.reducibility_kind,
                "file": f"class_{i:03d}.code" if args.out else None,
            }
            for i, c in enumerate(classes)
        ],
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, c in enumerate(classes):
            with open(out_dir / f"class_{i:03d}.code", "w", encoding="utf-8") as fh:
                write_code(c.representative, fh)
        (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(json.dumps(manifest, sort_keys=True, indent=None if args.json else 2))
    return 0


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _cell_payload(space: Space, cell: frozenset[int]) -> dict:
    keys = sorted(cell)
    payload: dict = {"size": len(keys)}
    if len(keys) <= _WORD_LIST_LIMIT:
        payload["words"] = [_key_text(space, k) for k in keys]
    else:
        digest = hashlib.sha256("\n".join(_key_text(space, k) for k in keys).encode()).hexdigest()
        payload["sha256"] = digest
    return payload


def _partition_payload(part: partitions.Partition) -> dict:
    payload: dict = {
        "cell_sizes": list(part.cell_sizes),
        "cells": [_cell_payload(part.space, c) for c in part.cells],
        "equitable": part.equitable,
        "matrix": [list(r) for r in part.matrix.entries] if part.matrix else None,
    }
    if part.completely_regular:
        b, c = part.matrix.intersection_array()
        payload["intersection_array"] = {"b": list(b), "c": list(c)}
    return payload


def _cmd_partition(args: argparse.Namespace) -> int:
    code = _read_input_code(args.file)
    if args.from_unitrade:
        part = partitions.partition_from_unitrade(code)
        if part is None:
            print(json.dumps({"reconstructed": False}, sort_keys=True))
            return 1
        payload = {"reconstructed": True, **_partition_payload(part)}
    elif args.split:
        c4 = _read_input_code(args.split)
        part = partitions.split_distance3_cell(code, c4)
        payload = _partition_payload(part)
    else:
        part = partitions.distance_partition(code)
        payload = _partition_payload(part)
        payload["completely_regular"] = part.completely_regular
    print(json.dumps(payload, sort_keys=True, indent=None if args.json else 2))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hampack",
        description="multifold packings of radius-1 balls in Hamming graphs: "
        "verify, analyze, bound, construct, classify, partition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the lambda-fold r-packing property of a code file")
    p.add_argument("file", nargs="?", default=None, help="code file (default: stdin)")
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="full JSON report: packing, unitrade, distributions")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--lambda", dest="lam", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bound", help="print all applicable upper bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--even-weight", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("construct", help="emit a constructed code in the text format")
    sub_c = p.add_subparsers(dest="name", required=True)
    c = sub_c.add_parser("mds", help="distance-2 MDS code (zero digit sum)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c = sub_c.add_parser("hamming", help="q-ary Hamming code of length q+1, or a coset union")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--lambda", dest="lam", type=int, default=1, help="number of cosets")
    c = sub_c.add_parser("lstar", help="the irreducible non-bipartite unitrade L*(n)")
    c.add_argument("--n", type=int, required=True)
    c = sub_c.add_parser("diag", help="diagonal unitrade {(x,x)}")
    c.add_argument("--n", type=int, required=True)
    c = sub_c.add_parser("concat", help="concatenation of two unitrade files")
    c.add_argument("left")
    c.add_argument("right")
    for tag, note in (
        ("p96a", "linear 96-word unitrade (cell C4)"),
        ("p96b", "Z2Z4-linear 96-word unitrade"),
        ("p96c", "propelinear 96-word unitrade"),
    ):
        c = sub_c.add_parser(tag, help=note)
        c.add_argument("--cell", choices=("c0", "c4"), default="c4")
        c.add_argument("--puncture", action="store_true", help="drop the last coordinate")
    c = sub_c.add_parser("display96", help="the 96-word unitrade in its classification form")
    c.add_argument("--puncture", action="store_true")
    for c_name, c_parser in sub_c.choices.items():
        c_parser.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("classify", help="isomorph-free classification of extended unitrades")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nonbipartite", action="store_true")
    p.add_argument("--antipodal", action="store_true")
    p.add_argument("--max-cardinality", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--checkpoint", default=None,
                   help="journal of finished units; a rerun with the same options resumes from it")
    p.add_argument("--out", default=None, help="directory for class files and manifest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("partition", help="distance partitions and five-cell reconstructions")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--from-unitrade", action="store_true", help="rebuild the five cells from a 96-word unitrade")
    p.add_argument("--split", default=None, help="file with the distance-3 subcell to split off")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_partition)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":
    sys.exit(main())
