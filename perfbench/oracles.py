"""Checks on the program's outputs that share no code with the program.

Trees are handled here as parent maps ``{label: parent or None}``
decoded from the canonical ``label(children,...)`` text by a parser of
our own; every expected count is derived from closed formulas or from
the generator counts published with the paper.  Each check takes the
output strings and returns True or False, so a corrupted output is
rejected without touching the program.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations

# generator counts beta_n for n = 2..9 (Bergeron–Livernet, arXiv:0811.0888)
GENERATOR_COUNTS = (2, 1, 14, 146, 1994, 32853, 630320, 13759430)

# (mu o_1 mu) - (mu o_2 mu) for mu = 1(2), worked by hand: the o_1 sum
# is 1(2,3) + 1(2(3)), the o_2 composite is 1(2(3)), and they cancel
PRELIE_ASSOCIATOR = "1*1(2,3)"


def cayley(n: int) -> int:
    """Number of labelled rooted trees on n vertices."""
    return n ** (n - 1)


# ---- trees as parent maps ------------------------------------------------


def parse_parents(text: str) -> dict[int, int | None]:
    """Parent map of a tree in canonical text; raises ValueError if malformed."""
    parent: dict[int, int | None] = {}
    stack: list[int] = []
    last = None
    for token in re.findall(r"\d+|[(),]|\S", text.strip()):
        if token.isdigit():
            label = int(token)
            if label in parent:
                raise ValueError(f"duplicate label {label}")
            parent[label] = stack[-1] if stack else None
            last = label
        elif token == "(":
            if last is None:
                raise ValueError("'(' without a label")
            stack.append(last)
            last = None
        elif token == ")":
            if not stack:
                raise ValueError("unbalanced ')'")
            stack.pop()
        elif token != ",":
            raise ValueError(f"unexpected {token!r}")
    if stack or not parent:
        raise ValueError("unbalanced or empty tree")
    if sorted(parent) != list(range(1, len(parent) + 1)):
        raise ValueError("labels are not 1..n")
    if sum(p is None for p in parent.values()) != 1:
        raise ValueError("not exactly one root")
    return parent


def render(parent: dict[int, int | None]) -> str:
    """Canonical text: children in ascending label order."""
    children: dict[int, list[int]] = {v: [] for v in parent}
    root = None
    for v in sorted(parent):
        p = parent[v]
        if p is None:
            root = v
        else:
            children[p].append(v)

    def text(v: int) -> str:
        cs = children[v]
        return f"{v}({','.join(text(c) for c in cs)})" if cs else str(v)

    return text(root)


def tree_degree(parent: dict[int, int | None]) -> int:
    return sum(abs(v - p) for v, p in parent.items() if p is not None)


def prufer_tree(seq: list[int], n: int, root: int) -> dict[int, int | None]:
    """Rooted tree from a Prüfer sequence over [n] (quadratic decode)."""
    degree = [0] + [1] * n
    for v in seq:
        degree[v] += 1
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for v in seq + [None]:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        other = v if v is not None else max(
            u for u in range(1, n + 1) if degree[u] == 1 and u != leaf
        )
        adj[leaf].append(other)
        adj[other].append(leaf)
        degree[leaf] -= 1
        degree[other] -= 1
    parent: dict[int, int | None] = {root: None}
    todo = [root]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                todo.append(w)
    return parent


def compose(kind: str, t: dict, i: int, s: dict) -> dict[int, int | None]:
    """Set composition T o_i S by the definition: S replaces vertex i.

    S's labels shift up by i-1 and T's labels above i by m-1; the root of
    S takes i's parent; each child k of i is regrafted onto S's vertex
    m or 1 (max: m below i, 1 above; min: the reverse) or S's root (nap).
    """
    m = len(s)
    s_root = next(v for v, p in s.items() if p is None)

    def shift(v: int) -> int:
        return v if v < i else v + m - 1

    def target(k: int) -> int:
        if kind == "nap":
            return s_root
        low = k < i
        return m if low == (kind == "max") else 1

    out: dict[int, int | None] = {
        v + i - 1: (None if p is None else p + i - 1) for v, p in s.items()
    }
    out[s_root + i - 1] = None if t[i] is None else shift(t[i])
    for v, p in t.items():
        if v == i:
            continue
        if p == i:
            out[shift(v)] = target(v) + i - 1
        else:
            out[shift(v)] = None if p is None else shift(p)
    return out


def degree_bounds(t: dict, i: int, s: dict) -> tuple[int, int]:
    """Exact degree range of the terms of T o_i S (gap and boundary terms)."""
    m = len(s)
    s_root = next(v for v, p in s.items() if p is None)
    straddle = sum(
        1
        for v, p in t.items()
        if p is not None and i not in (v, p) and min(v, p) < i < max(v, p)
    )
    k = t[i]
    boundary = 0 if k is None else (s_root - 1 if k < i else m - s_root)
    lo = tree_degree(t) + tree_degree(s) + straddle * (m - 1) + boundary
    fanout = sum(1 for p in t.values() if p == i)
    return lo, lo + fanout * (m - 1)


# ---- expected sizes of the exhaustive sweeps ------------------------------


def axiom_instances(max_arity: int) -> int:
    """Unit-law and associativity instances check_axioms visits."""
    sizes = {n: cayley(n) for n in range(1, max_arity + 1)}
    unit = sum(b * (1 + n) for n, b in sizes.items())
    assoc = sum(
        sizes[n] * sizes[m] * sizes[l] * (n * m + n * (n - 1) // 2)
        for n in sizes
        for m in sizes
        for l in sizes
    )
    return unit + assoc


def axiom_compositions(max_arity: int) -> int:
    """Compositions check_axioms makes with its inner composes hoisted."""
    sizes = {n: cayley(n) for n in range(1, max_arity + 1)}
    unit = sum(b * (1 + n) for n, b in sizes.items())
    # per (a, b, arity of c): n hoisted a o_i b; per c: m + n hoisted
    # composes, then two per sequential (i, j) and two per parallel pair
    assoc = sum(
        sizes[n] * sizes[m] * (n + sizes[l] * (m + n + 2 * n * m + n * (n - 1)))
        for n in sizes
        for m in sizes
        for l in sizes
    )
    return unit + assoc


def extremal_cases(max_arity: int) -> int:
    """(T, i, S) triples the extremal-term check visits."""
    sizes = [cayley(n) for n in range(1, max_arity + 1)]
    return sum(n * b for n, b in enumerate(sizes, 1)) * sum(sizes)


@lru_cache(maxsize=None)
def word_stats(n: int) -> tuple[int, int]:
    """(operation trees, generator nodes summed over them) at arity n.

    Counted over words built from GENERATOR_COUNTS alone: a word is a
    generator of arity k with k slots, each a plain input or a word of
    arity >= 2, whose arities add up to n.
    """
    if n == 1:
        return 1, 0  # a plain input: one way, no generator node
    words = nodes = 0
    for k in range(2, n + 1):
        g = GENERATOR_COUNTS[k - 2]
        for shape in _compositions(n, k):
            stats = [word_stats(p) for p in shape]
            count = 1
            for w, _ in stats:
                count *= w
            inner = sum(count // w * d for w, d in stats)
            words += g * count
            nodes += g * (count + inner)
    return words, nodes


def _compositions(total: int, parts: int):
    for cut in combinations(range(1, total), parts - 1):
        edges = (0,) + cut + (total,)
        yield tuple(b - a for a, b in zip(edges, edges[1:]))


def word_nodes(text: str) -> int:
    """Generator nodes in a printed operation tree such as ``2(1,3)[_, 1(2)]``.

    Slots are separated by ", " and tree labels by "," alone, so every
    filled slot starts with a digit right after "[" or ", ".
    """
    return 1 + len(re.findall(r"(?:\[|, )\d", text))


# ---- per-workload output checks ---------------------------------------------


def check_sweep(argv: list[str], code: int, out: str) -> bool:
    """A verification passed: exit 0 and nothing but the OK line(s)."""
    check = argv[1]
    if check == "axioms":
        expected = [f"OK {argv[3]} axioms hold up to arity {argv[5]}"]
    elif check == "minmax":
        expected = [f"OK extremal terms unique and tight up to arity {argv[3]}"]
    else:
        expected = [f"associator {PRELIE_ASSOCIATOR}", "OK pre-Lie relation holds"]
    return code == 0 and out.splitlines() == expected


_WORD = r"\d[\d(),\[\] _]*"
_COLLISION = re.compile(rf"collision ({_WORD}) = ({_WORD}) -> ([\d(),]+)")


def check_generators(argv: list[str], code: int, out: str) -> bool:
    if code != 0:
        return False
    command = argv[0] if argv[0] != "verify" else argv[1]
    if command == "indecomposables":
        return out == f"{GENERATOR_COUNTS[int(argv[2]) - 2]}\n"
    if command == "freeness":
        n = cayley(int(argv[3]))
        return out == f"OK {n} trees, {n} constructions\n"
    # collisions: two different words with one common image of arity n
    match = _COLLISION.fullmatch(out.rstrip("\n"))
    if match is None or out.count("\n") != 1:
        return False
    w1, w2, image = match.groups()
    try:
        return w1 != w2 and len(parse_parents(image)) == int(argv[5])
    except ValueError:
        return False


def check_series(out: str, order: int) -> list[int] | None:
    """Coefficients 2..order from ``hilbert`` output, or None if wrong.

    The first eight must be the published generator counts; the caller
    checks the rest against the functional equation.
    """
    lines = out.splitlines()
    if len(lines) != order:
        return None
    coeffs = []
    for n, line in enumerate(lines[:-1], 2):
        head, sep, value = line.partition(":")
        if head != str(n) or not sep or not re.fullmatch(r"-?\d+", value):
            return None
        coeffs.append(int(value))
    known = min(len(GENERATOR_COUNTS), len(coeffs))
    if tuple(coeffs[:known]) != GENERATOR_COUNTS[:known]:
        return None
    if not lines[-1].startswith("2x^2 + x^3 + 14x^4"):
        return None
    return coeffs


def check_batch_item(item: dict, out: dict) -> bool:
    """One random tree's round trip, degree, composition and extremal terms."""
    t, s, i = item["parent"], item["other_parent"], item["i"]
    if out["text"] != item["text"] or out["roundtrip"] != item["text"]:
        return False
    if out["degree"] != tree_degree(t):
        return False
    lo, hi = degree_bounds(t, i, s)
    if out["bounds"] != (lo, hi):
        return False
    try:
        low, high = parse_parents(out["min"]), parse_parents(out["max"])
    except ValueError:
        return False
    if tree_degree(low) != lo or tree_degree(high) != hi:
        return False
    if out["min"] != render(compose("min", t, i, s)):
        return False
    if out["max"] != render(compose("max", t, i, s)):
        return False
    return out["composed"] == render(compose(item["kind"], t, i, s))
