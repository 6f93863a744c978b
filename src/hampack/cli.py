"""Command-line front end.

Subcommands: verify, analyze, bound, construct, classify, partition.
Codes travel in the text format of the core module (stdin/stdout by
default), reports are printed as plain text or JSON (``--json``), and
nothing is randomized, so every output is reproducible bit for bit.

Exit codes: 0 success (also when the reader of stdout goes away early),
1 verification failure (e.g. a claimed packing is not one, or a
reconstruction does not validate), 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import analysis, bounds, constructions, partitions, search
from .core import Code, Space, _key_text, read_code, write_code

_WORD_LIST_LIMIT = 256


def _open(path, mode: str, std):
    """The file at ``path``, or the standard stream ``std`` for no path or ``-``; left open on exit."""
    if path is None or path == "-":
        return contextlib.nullcontext(std)
    return open(path, mode, encoding="utf-8")


def _read(path: Optional[str]) -> Code:
    with _open(path, "r", sys.stdin) as fh:
        return read_code(fh)


def _write(code: Code, path) -> None:
    with _open(path, "w", sys.stdout) as fh:
        write_code(code, fh)


def _print_json(payload: dict, compact: bool = True, file=None) -> None:
    print(json.dumps(payload, sort_keys=True, indent=None if compact else 2), file=file)


def _witness(result) -> Optional[str]:
    return str(result.witness) if result.witness is not None else None


# ---------------------------------------------------------------------------
# verify, analyze, bound
# ---------------------------------------------------------------------------

def _packing_payload(args: argparse.Namespace, report: analysis.PackingReport) -> dict:
    return {
        "lambda": args.lam,
        "r": args.r,
        "max_coverage": report.max_coverage,
        "witness": _witness(report),
        "is_lambda_fold": report.is_lambda_fold,
        "duplicate_words": [str(w) for w in report.duplicate_words],
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    code = _read(args.file)
    report = analysis.verify_packing(code, args.lam, args.r)
    if args.json:
        _print_json({"n": code.space.n, "q": code.space.q, "size": len(code), **_packing_payload(args, report)})
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    code = _read(args.file)
    binary, size = code.space.q == 2, len(code)
    packing = _packing_payload(args, analysis.verify_packing(code, args.lam, args.r))
    plain = analysis.is_unitrade(code)
    extended = None
    if binary:
        try:
            ext = analysis.is_extended_unitrade(code)
            extended = {"ok": ext.ok, "witness": _witness(ext)}
        except ValueError:
            extended = {"ok": False, "witness": None, "note": "mixed parity"}
    bipartite = None
    if extended is not None and extended["ok"]:
        bipartite = analysis.is_bipartite_unitrade(code, extended=True).bipartite
    elif plain.ok and size:
        bipartite = analysis.is_bipartite_unitrade(code, extended=False).bipartite
    distributions = None
    if size:
        data = analysis.distance_data(code)
        distributions = {
            "B": [str(b) for b in data.B],
            "B_dual": [str(b) for b in data.B_dual] if data.B_dual else None,
            "dual_nonnegative": data.dual_nonnegative() if data.B_dual else None,
        }
    _print_json({
        "space": {"n": code.space.n, "q": code.space.q},
        "size": size,
        "packing": packing,
        "unitrade": {"plain": {"ok": plain.ok, "witness": _witness(plain)}, "extended": extended},
        "bipartite": bipartite,
        "antipodal": analysis.is_antipodal(code) if binary else None,
        "inner_radius": analysis.inner_radius(code) if size else None,
        "distributions": distributions,
    }, args.json)
    return 0


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
    if args.json:
        _print_json({"n": n, "q": q, "lambda": lam, "r": r, "even_weight": args.even_weight, "bounds": rows})
    else:
        width = max(len(row["formula_id"]) for row in rows)
        print(f"bounds for lambda={lam} r={r} in H({n},{q})" + (" (even-weight)" if args.even_weight else ""))
        for row in rows:
            print(f"  {row['formula_id']:<{width}}  {row['value']:>12}  {row['notes']}")
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

_N = ("--n", {"type": int, "required": True})
_Q = ("--q", {"type": int, "required": True})
_CELL = ("--cell", {"choices": ("c0", "c4"), "default": "c4"})
_PUNCTURE = ("--puncture", {"action": "store_true", "help": "drop the last coordinate"})

# name -> (help, options, builder); a builder with --cell gives the pair (C0, C4)
_FAMILIES = {
    "mds": ("distance-2 MDS code (zero digit sum)", (_N, _Q), lambda a: constructions.mds_code(a.n, a.q)),
    "hamming": (
        "q-ary Hamming code of length q+1, or a coset union",
        (_Q, ("--lambda", {"dest": "lam", "type": int, "default": 1, "help": "number of cosets"})),
        lambda a: constructions.hamming_coset_union(a.q, a.lam) if a.lam > 1
        else constructions.hamming_code_q(a.q),
    ),
    "lstar": ("the irreducible non-bipartite unitrade L*(n)", (_N,), lambda a: constructions.l_star(a.n)),
    "diag": ("diagonal unitrade {(x,x)}", (_N,), lambda a: constructions.diagonal_unitrade(a.n)),
    "concat": ("concatenation of two unitrade files", (("left", {}), ("right", {})),
               lambda a: constructions.concatenate(_read(a.left), _read(a.right))),
    "p96a": ("linear 96-word unitrade (cell C4)", (_CELL, _PUNCTURE), lambda a: constructions.packing96_linear()),
    "p96b": ("Z2Z4-linear 96-word unitrade", (_CELL, _PUNCTURE), lambda a: constructions.packing96_z2z4()),
    "p96c": ("propelinear 96-word unitrade", (_CELL, _PUNCTURE), lambda a: constructions.packing96_propelinear()),
    "display96": ("the 96-word unitrade in its classification form", (_PUNCTURE,),
                  lambda a: constructions.classified_C4_display()),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    code = args.build(args)
    if "cell" in args:
        code = code[args.cell == "c4"]
    if getattr(args, "puncture", False):
        code = constructions.puncture_last(code)
    _write(code, args.out)
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
    files = [f"class_{i:03d}.code" if args.out else None for i in range(len(classes))]
    manifest = {
        "n": args.n,
        "filters": cfg.filter_key(),
        "class_count": len(classes),
        "cardinalities": [c.cardinality for c in classes],
        "classes": [
            {"index": i, "cardinality": c.cardinality, "flags": c.flags,
             "reducibility": c.reducibility_kind, "file": files[i]}
            for i, c in enumerate(classes)
        ],
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for c, name in zip(classes, files):
            _write(c.representative, out_dir / name)
        with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            _print_json(manifest, False, fh)
    _print_json(manifest, args.json)
    return 0


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _cell_payload(space: Space, cell: frozenset[int]) -> dict:
    words = [_key_text(space, k) for k in sorted(cell)]
    if len(words) <= _WORD_LIST_LIMIT:
        return {"size": len(words), "words": words}
    return {"size": len(words), "sha256": hashlib.sha256("\n".join(words).encode()).hexdigest()}


def _cmd_partition(args: argparse.Namespace) -> int:
    code = _read(args.file)
    if args.from_unitrade:
        part = partitions.partition_from_unitrade(code)
        if part is None:
            _print_json({"reconstructed": False})
            return 1
    elif args.split:
        part = partitions.split_distance3_cell(code, _read(args.split))
    else:
        part = partitions.distance_partition(code)
    payload: dict = {
        "cell_sizes": list(part.cell_sizes),
        "cells": [_cell_payload(part.space, c) for c in part.cells],
        "equitable": part.equitable,
        "matrix": [list(r) for r in part.matrix.entries] if part.matrix else None,
    }
    if part.completely_regular:
        b, c = part.matrix.intersection_array()
        payload["intersection_array"] = {"b": list(b), "c": list(c)}
    if args.from_unitrade:
        payload["reconstructed"] = True
    elif not args.split:
        payload["completely_regular"] = part.completely_regular
    _print_json(payload, args.json)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _command(sub, name: str, func, help: str, *, file: bool = False, lam: Optional[dict] = None,
             report: bool = True) -> argparse.ArgumentParser:
    """A subcommand with the shared options: a code ``file`` (default stdin),
    ``--lambda``/``--r`` (``lam`` holds the keywords of ``--lambda``) and ``--json``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    if file:
        p.add_argument("file", nargs="?", default=None, help="code file (default: stdin)")
    if lam is not None:
        p.add_argument("--lambda", dest="lam", type=int, **lam)
        p.add_argument("--r", type=int, default=1)
    if report:
        p.add_argument("--json", action="store_true", help="JSON report on one line")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hampack",
        description="multifold packings of radius-1 balls in Hamming graphs: "
        "verify, analyze, bound, construct, classify, partition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "verify", _cmd_verify, "check the lambda-fold r-packing property of a code file",
             file=True, lam={"default": 1})
    _command(sub, "analyze", _cmd_analyze, "full JSON report: packing, unitrade, distributions",
             file=True, lam={"default": 2})

    p = _command(sub, "bound", _cmd_bound, "print all applicable upper bounds", lam={"required": True})
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--even-weight", action="store_true")

    p = _command(sub, "construct", _cmd_construct, "emit a constructed code in the text format", report=False)
    families = p.add_subparsers(dest="name", required=True)
    for name, (note, options, build) in _FAMILIES.items():
        c = _command(families, name, _cmd_construct, note, report=False)
        c.set_defaults(build=build)
        for flag, kwargs in options:
            c.add_argument(flag, **kwargs)
        c.add_argument("--out", default=None, help="output file (default: stdout)")

    p = _command(sub, "classify", _cmd_classify, "isomorph-free classification of extended unitrades")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nonbipartite", action="store_true")
    p.add_argument("--antipodal", action="store_true")
    p.add_argument("--max-cardinality", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--checkpoint", default=None,
                   help="journal of finished units; a rerun with the same options resumes from it")
    p.add_argument("--out", default=None, help="directory for class files and manifest")

    p = _command(sub, "partition", _cmd_partition, "distance partitions and five-cell reconstructions", file=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--from-unitrade", action="store_true",
                      help="rebuild the five cells from a 96-word unitrade")
    mode.add_argument("--split", default=None, help="file with the distance-3 subcell to split off")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
