"""Command-line front end.

All output is deterministic for a given invocation: trees print in
canonical form and sums with terms sorted.  Exit codes: 0 on success
or a passing verification, 1 on a failed verification, 2 on usage or
parse errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .trees import (
    TreeError,
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
from .set_operads import KINDS, SET_COMPOSE, check_axioms
from .freeness import (
    count_indecomposables,
    evaluate,
    factorize,
    find_collision,
    indecomposables,
    verify_freeness,
)
from .series import SeriesError, generator_series


def _input_trees(args) -> list:
    if args.input is not None and args.tree is not None:
        raise TreeError("give a tree argument or --input FILE, not both")
    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            try:
                return [parse_tree(line) for line in fh if line.strip()]
            except UnicodeDecodeError as exc:
                raise TreeError(f"{args.input} is not UTF-8 text: {exc}") from None
    if args.tree is None:
        raise TreeError("give a tree argument or --input FILE")
    return [parse_tree(args.tree)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="operad-forge",
        description="Compositions, factorization, and counting for labelled rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tree_input = argparse.ArgumentParser(add_help=False)
    tree_input.add_argument("tree", nargs="?")
    tree_input.add_argument("--input", help="file with one tree per line")
    position = argparse.ArgumentParser(add_help=False)
    position.add_argument("-i", type=int, required=True)
    position.add_argument("outer")
    position.add_argument("inner")

    p = sub.add_parser("enumerate", help="list all trees of a given arity")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    sub.add_parser(
        "degree", parents=[tree_input], help="degree of a tree (sum of |a-b| over edges)"
    )

    p = sub.add_parser("compose", parents=[position], help="compose two trees at a position")
    p.add_argument("--operad", choices=KINDS, required=True)
    p.add_argument("--json", action="store_true")

    sub.add_parser(
        "minmax", parents=[position], help="extremal terms and degree bounds of a composition"
    )
    sub.add_parser(
        "factorize", parents=[tree_input], help="factor a tree into indecomposable generators"
    )

    p = sub.add_parser("indecomposables", help="list or count the generators of an arity")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--count", action="store_true")

    p = sub.add_parser("hilbert", help="generator-counting series coefficients")
    p.add_argument("--order", type=int, required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("axioms")
    p.add_argument("--operad", choices=KINDS, required=True)
    p.add_argument("--max-arity", type=int, default=3)

    p = vsub.add_parser("freeness")
    p.add_argument("-n", type=int, required=True)

    p = vsub.add_parser("minmax")
    p.add_argument("--max-arity", type=int, default=3)

    vsub.add_parser("prelie")

    p = vsub.add_parser("collisions")
    # max never collides: its evaluation is injective
    p.add_argument("--operad", choices=("min", "nap"), required=True)
    p.add_argument("-n", type=int, required=True)

    return parser


def _run(args) -> int:
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
        if args.operad != "pl":
            result = SET_COMPOSE[args.operad](outer, args.i, inner)
            out.write((tree_to_json(result) if args.json else str(result)) + "\n")
        elif args.json:
            result = compose_pl(outer, args.i, inner)
            terms = [{"coeff": c, "tree": text} for text, _, c in result._listing()]
            arity, result = result.arity, None  # the sum is freed before its text is built
            out.write(json.dumps({"arity": arity, "terms": terms}) + "\n")
        else:
            out.write(f"{compose_pl(outer, args.i, inner)}\n")
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
    # each check gives its detail lines, whether it passed, and its last line
    lines: list[str] = []
    if args.check == "axioms":
        lines = [str(v) for v in check_axioms(args.operad, args.max_arity)]
        ok = not lines
        last = (f"OK {args.operad} axioms hold up to arity {args.max_arity}" if ok
                else f"FAIL {len(lines)} violations")
    elif args.check == "freeness":
        r = verify_freeness(args.n)
        ok = r.ok
        last = (f"OK {r.expected} trees, {r.constructions} constructions" if ok
                else f"FAIL {r.constructions} constructions, {r.distinct} distinct, "
                f"expected {r.expected}")
    elif args.check == "minmax":
        lines = check_extremal_terms(args.max_arity)
        ok = not lines
        last = (f"OK extremal terms unique and tight up to arity {args.max_arity}" if ok
                else f"FAIL {len(lines)} cases")
    elif args.check == "prelie":
        ok = check_pre_lie_relation()
        lines = [f"associator {pre_lie_associator(parse_tree('1(2)'))}"]
        last = "OK pre-Lie relation holds" if ok else "FAIL"
    else:
        pair = find_collision(args.operad, args.n)
        ok, last = pair is not None, "FAIL no collision found"
        if ok:
            w1, w2 = pair
            last = f"collision {w1} = {w2} -> {evaluate(w1, SET_COMPOSE[args.operad])}"
    for line in [*lines, last]:
        out.write(line + "\n")
    return 0 if ok else 1


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
    except MemoryError:  # an arity or order too large for this machine
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
