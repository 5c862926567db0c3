"""Command-line front end.

All output is deterministic for a given invocation: trees print in
canonical form and sums with terms sorted.  Exit codes: 0 on success
or a passing verification, 1 on a failed verification, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .trees import (
    TreeError,
    _arity,
    degree,
    enumerate_trees,
    parse_tree,
    tree_to_json,
)
from .prelie import (
    check_extremal_terms,
    check_pre_lie_relation,
    compose_pl,
    degree_bounds,
    max_term,
    min_term,
    pre_lie_associator,
)
from .set_operads import SET_COMPOSE, check_axioms
from .freeness import (
    count_indecomposables,
    evaluate,
    factorize,
    find_collision,
    indecomposables,
    verify_freeness,
)
from .series import SeriesError, generator_series


def _threads_cap() -> int:
    """Parallelism cap from OPERAD_FORGE_THREADS; everything here runs within it."""
    raw = os.environ.get("OPERAD_FORGE_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise TreeError(f"OPERAD_FORGE_THREADS must be an integer, got {raw!r}")
    return _arity(cap, 1, "OPERAD_FORGE_THREADS must be at least 1")


def _input_trees(args) -> list:
    if getattr(args, "input", None):
        with open(args.input, encoding="utf-8") as fh:
            try:
                return [parse_tree(line) for line in fh if line.strip()]
            except UnicodeDecodeError as exc:
                raise TreeError(f"{args.input} is not UTF-8 text: {exc}") from None
    if not args.tree:
        raise TreeError("give a tree argument or --input FILE")
    return [parse_tree(args.tree)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="operad-forge",
        description="Compositions, factorization, and counting for labelled rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all trees of a given arity")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("degree", help="degree of a tree (sum of |a-b| over edges)")
    p.add_argument("tree", nargs="?")
    p.add_argument("--input", help="file with one tree per line")

    p = sub.add_parser("compose", help="compose two trees at a position")
    p.add_argument("--operad", choices=("pl", "max", "min", "nap"), required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("minmax", help="extremal terms and degree bounds of a composition")
    p.add_argument("-i", type=int, required=True)
    p.add_argument("outer")
    p.add_argument("inner")

    p = sub.add_parser("factorize", help="factor a tree into indecomposable generators")
    p.add_argument("tree", nargs="?")
    p.add_argument("--input", help="file with one tree per line")

    p = sub.add_parser("indecomposables", help="list or count the generators of an arity")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--count", action="store_true")

    p = sub.add_parser("hilbert", help="generator-counting series coefficients")
    p.add_argument("--order", type=int, required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("axioms")
    p.add_argument("--operad", choices=("max", "min", "nap", "pl"), required=True)
    p.add_argument("--max-arity", type=int, default=3)

    p = vsub.add_parser("freeness")
    p.add_argument("-n", type=int, required=True)

    p = vsub.add_parser("minmax")
    p.add_argument("--max-arity", type=int, default=3)

    vsub.add_parser("prelie")

    p = vsub.add_parser("collisions")
    p.add_argument("--operad", choices=("min", "nap"), required=True)
    p.add_argument("-n", type=int, required=True)

    return parser


def _run(args) -> int:
    _threads_cap()
    out = sys.stdout

    if args.command == "enumerate":
        for tree in enumerate_trees(args.n):
            out.write((tree_to_json(tree) if args.json else str(tree)) + "\n")
        return 0

    if args.command == "degree":
        for tree in _input_trees(args):
            out.write(f"{tree} {degree(tree)}\n")
        return 0

    if args.command == "compose":
        outer, inner = parse_tree(args.outer), parse_tree(args.inner)
        if args.operad == "pl":
            result = compose_pl(outer, args.i, inner)
            if args.json:
                payload = {
                    "arity": result.arity,
                    "terms": [
                        {"coeff": c, "tree": str(t)} for t, c in result.terms()
                    ],
                }
                out.write(json.dumps(payload) + "\n")
            else:
                out.write(str(result) + "\n")
        else:
            result = SET_COMPOSE[args.operad](outer, args.i, inner)
            out.write((tree_to_json(result) if args.json else str(result)) + "\n")
        return 0

    if args.command == "minmax":
        outer, inner = parse_tree(args.outer), parse_tree(args.inner)
        lo, hi = degree_bounds(outer, args.i, inner)
        out.write(f"min {min_term(outer, args.i, inner)}\n")
        out.write(f"max {max_term(outer, args.i, inner)}\n")
        out.write(f"bounds {lo} {hi}\n")
        return 0

    if args.command == "factorize":
        for tree in _input_trees(args):
            out.write(f"{factorize(tree)}\n")
        return 0

    if args.command == "indecomposables":
        if args.count:
            out.write(f"{count_indecomposables(args.n)}\n")
        else:
            for tree in indecomposables(args.n):
                out.write(str(tree) + "\n")
        return 0

    if args.command == "hilbert":
        beta = generator_series(args.order)
        for n in range(2, args.order + 1):
            out.write(f"{n}:{beta.coefficient(n)}\n")
        out.write(beta.polynomial() + "\n")
        return 0

    assert args.command == "verify"

    if args.check == "axioms":
        violations = check_axioms(args.operad, args.max_arity)
        for v in violations:
            out.write(str(v) + "\n")
        if violations:
            out.write(f"FAIL {len(violations)} violations\n")
            return 1
        out.write(f"OK {args.operad} axioms hold up to arity {args.max_arity}\n")
        return 0

    if args.check == "freeness":
        report = verify_freeness(args.n)
        if report.ok:
            out.write(f"OK {report.expected} trees, {report.constructions} constructions\n")
            return 0
        out.write(
            f"FAIL {report.constructions} constructions, {report.distinct} distinct, "
            f"expected {report.expected}\n"
        )
        return 1

    if args.check == "minmax":
        failures = check_extremal_terms(args.max_arity)
        for line in failures:
            out.write(line + "\n")
        if failures:
            out.write(f"FAIL {len(failures)} cases\n")
            return 1
        out.write(f"OK extremal terms unique and tight up to arity {args.max_arity}\n")
        return 0

    if args.check == "prelie":
        ok = check_pre_lie_relation()
        assoc = pre_lie_associator(parse_tree("1(2)"))
        out.write(f"associator {assoc}\n")
        out.write("OK pre-Lie relation holds\n" if ok else "FAIL\n")
        return 0 if ok else 1

    assert args.check == "collisions"
    pair = find_collision(args.operad, args.n)
    if pair is None:
        out.write("FAIL no collision found\n")
        return 1
    w1, w2 = pair
    out.write(f"collision {w1} = {w2} -> {evaluate(w1, SET_COMPOSE[args.operad])}\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _run(args)
    except (TreeError, SeriesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
