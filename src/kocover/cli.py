"""Command-line front end: catalog, constructions, verification, bounds.

Exit codes: 0 success or verified, 1 verification or construction failure
(such as a star family whose level m is past the depth cap or whose
verified level is over the cell budget), 2 usage error (the message names
the violated precondition or the missing or malformed bundle field), a
missing input flag and an input file that cannot be read as UTF-8 text
included.

A command imports only what it runs. `bounds` imports `bounds.py`,
`cuplength` only `cohomology.py` (no dataclasses either), and `complex
bary|dual`, `cover` and `product` import the cover stack (tower,
certify, cover, product). No command loads numpy when it starts: numpy comes with the first CellIndex, which the wheel builder
reads, and a certificate snap or a signature walk without a star DP on
a sized level of more than tower.ARRAY_MIN_CELLS (1,000) cells.
So `cover verify` of an arc, trivial or star bundle on a catalog complex
and `product verify` of torus-7 x s1 run without it, as every build but
the wheel's does; `cover verify` of a wheel bundle loads it.
Every exit-2 exception derives from complexes.UsageError, so a failing
command loads nothing more to report it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .complexes import Complex, ComplexError, UsageError, builtin, load_complex

USAGE_ERROR = 2
FAILURE = 1
OK = 0


def _emit(data, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        _print_human(data)


def _print_human(data, indent: str = "") -> None:
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_human(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _print_human(v, indent + "  ")
            else:
                print(f"{indent}- {v}")
    else:
        print(f"{indent}{data}")


def _required(args, dest: str, flag: str):
    """The value of a flag that this action cannot run without."""
    value = getattr(args, dest)
    if value is None:
        raise UsageError(f"{args.command} {args.action} requires {flag}")
    return value


def _load_target(args) -> Complex:
    if getattr(args, "builtin", None):
        return builtin(args.builtin)
    if getattr(args, "infile", None):
        return load_complex(args.infile)
    raise ComplexError("one of --builtin or --in is required")


def _cmd_complex(args) -> int:
    cx = _load_target(args)
    if args.action == "info":
        data = {
            "name": cx.name or "",
            "dim": cx.dim,
            "vertices": len(cx.vertices),
            "facets": len(cx.facets),
            "cells_by_dim": {str(d): len(cx.cells(d)) for d in range(cx.dim + 1)},
            "euler_characteristic": cx.euler_characteristic(),
            "connected": cx.is_connected(),
        }
        _emit(data, args)
        return OK
    if args.action == "skeleton":
        if args.m is None:
            raise ComplexError("skeleton requires --m")
        _emit(cx.skeleton(args.m).to_json(), args)
        return OK
    from .tower import SubdivisionTower, cell_encoder, dual_complex
    if args.action == "bary":
        tower = SubdivisionTower(cx)
        lv = tower.level(1)
        verts = ["+".join(cx.label_cell(c)) for c in lv.verts]
        # a level-1 cell is maximal iff it is a full flag of a base facet
        facets = [sorted(verts[v] for v in c) for f in cx.facets
                  for c in tower.chains(1, [f]) if len(c) == len(f)]
        sub = Complex(sorted(verts), sorted(facets),
                      name=(cx.name or "complex") + "-bary")
        _emit(sub.to_json(), args)
        return OK
    if args.action == "dual":
        if args.m is None:
            raise ComplexError("dual requires --m")
        tower = SubdivisionTower(cx)
        dual = dual_complex(tower, args.m)
        enc = cell_encoder(tower)
        data = {
            "empty": dual.is_empty(),
            "dim": dual.dim(),
            "cells_by_dim": {},
            "cells": sorted((enc(1, c) for c in dual.cells),
                            key=lambda x: (len(x), str(x))),
        }
        for c in dual.cells:
            d = str(len(c) - 1)
            data["cells_by_dim"][d] = data["cells_by_dim"].get(d, 0) + 1
        _emit(data, args)
        return OK
    raise ComplexError(f"unknown complex action {args.action!r}")


def _cmd_cover(args) -> int:
    from .cover import (ConstructionError, CoverBundle, CoverError, build_cover,
                        cover_parameters, is_k_cover, verify_cover_bundle)
    if args.action == "build":
        cx = _load_target(args)
        m = args.m if args.m is not None else cover_parameters(cx, args.r)
        try:
            bundle = build_cover(cx, args.r, m)
        except ConstructionError as exc:
            print(f"construction failed: {exc}", file=sys.stderr)
            return FAILURE
        _write_bundle(bundle.iter_json(), args.out,
                      f"bundle ({bundle.construction}, m={bundle.m})")
        return OK
    if args.action == "verify":
        bundle = _load_bundle(args, CoverBundle)
        report = verify_cover_bundle(bundle)
        _emit(report.to_json(), args)
        return OK if report.ok else FAILURE
    if args.action == "kcheck":
        bundle = _load_bundle(args, CoverBundle)
        ok = is_k_cover(bundle.elements, args.k, args.skeleton)
        _emit({"k": args.k, "skeleton": args.skeleton, "is_k_cover": ok}, args)
        return OK if ok else FAILURE
    raise CoverError(f"unknown cover action {args.action!r}")


def _write_bundle(pieces: Iterable[str], out: str | None, what: str) -> None:
    """Write a bundle's JSON text (its iter_json) piece by piece to the
    file out, or to stdout without one; both get the same bytes."""
    if not out:
        sys.stdout.writelines(pieces)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
    print(f"wrote {what} to {out}")


def _load_bundle(args, cls):
    with open(_required(args, "infile", "--in"), "r", encoding="utf-8") as fh:
        return cls.from_json(json.load(fh))


def _cmd_product(args) -> int:
    from .cover import ConstructionError, CoverError
    from .product import (ProductCoverBundle, assemble_product_cover,
                          verify_product_cover)
    if args.action == "build":
        x = builtin(_required(args, "x", "--x"))
        b = builtin(_required(args, "b", "--b"))
        try:
            pcb = assemble_product_cover(x, b)
        except ConstructionError as exc:
            print(f"construction failed: {exc}", file=sys.stderr)
            return FAILURE
        _write_bundle(pcb.iter_json(), args.out, f"product bundle (m={pcb.m})")
        return OK
    if args.action == "verify":
        report = verify_product_cover(_load_bundle(args, ProductCoverBundle))
        _emit(report.to_json(), args)
        return OK if report.ok else FAILURE
    raise CoverError(f"unknown product action {args.action!r}")


def _cmd_bounds(args) -> int:
    from .bounds import (BoundsError, BoundProfile, FibrationProfile, best_upper,
                         profile_from_json)
    if args.profile:
        with open(args.profile, "r", encoding="utf-8") as fh:
            profile = profile_from_json(json.load(fh))
    else:
        if args.dim is None:
            raise BoundsError("either --profile or --dim is required")
        fib = None
        if (args.base_dim is None) != (args.fiber_dim is None):
            missing = "--base-dim" if args.base_dim is None else "--fiber-dim"
            raise BoundsError(f"the fibration rule needs {missing} as well")
        if args.base_dim is not None:
            fib = FibrationProfile(args.base_dim, args.fiber_dim,
                                   fiber_simply_connected=True,
                                   base_aspherical=True)
        cd = args.cd if args.cd is not None else "unknown"
        cat_u = args.cat_u if args.cat_u is not None else "unknown"
        profile = BoundProfile(dim=args.dim, r=args.r, cd_pi=cd, cat_u=cat_u,
                               simply_connected=args.simply_connected,
                               fibration=fib)
    result = best_upper(profile)
    _emit(result.to_json(), args)
    return OK


def _cmd_cuplength(args) -> int:
    from .cohomology import cuplength_mod2
    cx = _load_target(args)
    value = cuplength_mod2(cx)
    _emit({"complex": cx.name or "", "cuplength_mod2": value}, args)
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kocover")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("complex", help="inspect complexes")
    pc.add_argument("action", choices=["info", "skeleton", "bary", "dual"])
    pc.add_argument("--builtin")
    pc.add_argument("--in", dest="infile")
    pc.add_argument("--m", type=int)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_complex)

    pv = sub.add_parser("cover", help="build and verify multiple covers")
    pv.add_argument("action", choices=["build", "verify", "kcheck"])
    pv.add_argument("--builtin")
    pv.add_argument("--in", dest="infile")
    pv.add_argument("--r", type=int, default=0)
    pv.add_argument("--m", type=int)
    pv.add_argument("--k", type=int, default=1)
    pv.add_argument("--skeleton", type=int)
    pv.add_argument("--out")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=_cmd_cover)

    pp = sub.add_parser("product", help="product covers")
    pp.add_argument("action", choices=["build", "verify"])
    pp.add_argument("--x")
    pp.add_argument("--b")
    pp.add_argument("--in", dest="infile")
    pp.add_argument("--out")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=_cmd_product)

    pb = sub.add_parser("bounds", help="category upper bounds")
    pb.add_argument("--profile")
    pb.add_argument("--dim", type=int)
    pb.add_argument("--r", type=int, default=0)
    pb.add_argument("--cd", type=int)
    pb.add_argument("--cat-u", dest="cat_u", type=int)
    pb.add_argument("--fiber-dim", dest="fiber_dim", type=int)
    pb.add_argument("--base-dim", dest="base_dim", type=int)
    pb.add_argument("--simply-connected", action="store_true")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_bounds)

    pl = sub.add_parser("cuplength", help="mod-2 cup length")
    pl.add_argument("--builtin")
    pl.add_argument("--in", dest="infile")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=_cmd_cuplength)

    return ap


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (json.JSONDecodeError, OSError, UnicodeDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
