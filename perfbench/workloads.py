"""The four workloads: inputs made from a seed, one round of work, checks.

A round is one pass over a workload's fixed inputs; it returns
``(start, end, output)`` per command or tree, in ``perf_counter`` time.  The program is
always reached through its module attributes at call time, so a round
runs the traced functions when the tracer is installed.  Outputs are
kept and checked by ``oracles`` after the round, outside its timing.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import oracles

SWEEP_ARITY = 3  # verify axioms for max, min, nap and pl
EXTREMAL_ARITY = 4  # verify minmax
GENERATOR_ARITY = 6  # indecomposables and verify freeness
COLLISION_ARITY = 4  # verify collisions for min and nap
SERIES_ORDER = 70  # hilbert --order
BATCH_TREES = 660  # twenty trees of each arity 8..40
BATCH_ARITIES = range(8, 41)
BATCH_INNER_ARITIES = range(2, 7)


class CliWorkload:
    """Runs ``cli.main`` in-process on a fixed list of command lines."""

    name = ""

    def __init__(self, forge, seed: int):  # the command lines ignore the seed
        self.forge = forge
        self.commands: list[list[str]] = []
        self.items: list[int] = []  # items each command completes
        self._checked: dict[tuple, bool] = {}

    @property
    def items_per_round(self) -> int:
        return sum(self.items)

    @property
    def digest(self) -> str:
        text = "\n".join(" ".join(argv) for argv in self.commands)
        return hashlib.sha256(text.encode()).hexdigest()

    def reset(self) -> None:
        """Undo state a previous round left in the program."""

    def run_round(self, mark) -> list:
        outputs = []
        main = self.forge.cli.main
        for argv in self.commands:
            out = io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = main(argv)
            except Exception as exc:  # counted as a failed command
                code = repr(exc)
            outputs.append((t0, perf_counter(), (code, out.getvalue())))
            mark(" ".join(argv))
        return outputs

    def check(self, outputs) -> tuple[int, int]:
        """(items attempted, items failed) for one round's outputs."""
        failed = 0
        for argv, items, (code, out) in zip(self.commands, self.items, outputs):
            key = (tuple(argv), code, out)
            if key not in self._checked:
                self._checked[key] = self.check_output(argv, code, out)
            if not self._checked[key]:
                failed += items
        return self.items_per_round, failed

    def check_output(self, argv, code, out) -> bool:
        raise NotImplementedError

    def expected_counts(self) -> dict[str, dict[str, int]]:
        """Exact traced call counts per command label, derived independently."""
        return {}


class Sweep(CliWorkload):
    """Exhaustive axiom and extremal-term checks: the composition kernel."""

    name = "sweep"

    def __init__(self, forge, seed):
        super().__init__(forge, seed)
        for kind in ("max", "min", "nap", "pl"):
            self.commands.append(
                ["verify", "axioms", "--operad", kind, "--max-arity", str(SWEEP_ARITY)]
            )
            self.items.append(oracles.axiom_instances(SWEEP_ARITY))
        self.commands.append(["verify", "minmax", "--max-arity", str(EXTREMAL_ARITY)])
        self.items.append(oracles.extremal_cases(EXTREMAL_ARITY))
        self.commands.append(["verify", "prelie"])
        self.items.append(1)

    def check_output(self, argv, code, out):
        return oracles.check_sweep(argv, code, out)

    def expected_counts(self):
        compositions = oracles.axiom_compositions(SWEEP_ARITY)
        cases = oracles.extremal_cases(EXTREMAL_ARITY)
        expected = {}
        for argv in self.commands[:4]:
            kind = argv[3]
            fn = "prelie.compose_pl_linear" if kind == "pl" else f"set_operads.compose_{kind}"
            expected[" ".join(argv)] = {
                f"{fn}.calls": compositions,
                "set_operads.check_axioms.calls": 1,
            }
        expected[" ".join(self.commands[4])] = {
            f"prelie.{fn}.calls": cases for fn in ("min_term", "max_term", "degree_bounds")
        }
        return expected


class Generators(CliWorkload):
    """Generator enumeration, the freeness bijection and collision search."""

    name = "generators"

    def __init__(self, forge, seed):
        super().__init__(forge, seed)
        n, c = GENERATOR_ARITY, COLLISION_ARITY
        below = sum(oracles.cayley(k) for k in range(2, n))  # arities 2..n-1
        self.commands = [
            ["indecomposables", "-n", str(n), "--count"],
            ["verify", "freeness", "-n", str(n)],
            ["verify", "collisions", "--operad", "min", "-n", str(c)],
            ["verify", "collisions", "--operad", "nap", "-n", str(c)],
        ]
        # held here because the tracer replaces the module attribute
        self.cache = forge.freeness.indecomposables
        self.cache_clear = getattr(self.cache, "cache_clear", lambda: None)
        # trees classified, then operation trees evaluated or searched
        self.items = [
            oracles.cayley(n),
            below + oracles.cayley(n),
            oracles.cayley(c),
            oracles.cayley(c),
        ]

    def reset(self):
        # every CLI user starts with the generator cache cold
        self.cache_clear()

    def check_output(self, argv, code, out):
        return oracles.check_generators(argv, code, out)

    def expected_counts(self):
        n = GENERATOR_ARITY
        words, nodes = oracles.word_stats(n)
        below = sum(oracles.cayley(k) for k in range(2, n))
        labels = [" ".join(argv) for argv in self.commands]
        expected = {
            labels[0]: {
                "freeness.is_indecomposable.calls": oracles.cayley(n),
                "trees.enumerate_trees.yielded": oracles.cayley(n),
                "freeness.indecomposables.misses": 1,
            },
            labels[1]: {
                "freeness.is_indecomposable.calls": below,
                "trees.enumerate_trees.yielded": below,
                "freeness.indecomposables.misses": n - 2,
                "freeness.evaluate.calls": nodes,
                "set_operads.compose_max.calls": nodes - words,
                "prelie.graft_compose.calls": nodes - words,
            },
        }
        for label in labels[2:]:
            expected[label] = {
                "freeness.is_indecomposable.calls": 0,
                "freeness.indecomposables.misses": 0,
            }
        return expected


class Series(CliWorkload):
    """Generator series by compositional inversion: the series layer only."""

    name = "series"

    def __init__(self, forge, seed):
        super().__init__(forge, seed)
        self.commands = [["hilbert", "--order", str(SERIES_ORDER)]]
        self.items = [SERIES_ORDER - 1]  # coefficients 2..N

    def check_output(self, argv, code, out):
        coeffs = oracles.check_series(out, SERIES_ORDER)
        if code != 0 or coeffs is None:
            return False
        # beta(alpha(x)) + x = alpha(x) checks the rest by composition alone
        series = self.forge.series
        beta = series.PowerSeries.from_list([0, 0] + coeffs, SERIES_ORDER)
        return series.verify_functional_equation(
            series.cayley_series(SERIES_ORDER), beta, SERIES_ORDER
        )

    def expected_counts(self):
        n = SERIES_ORDER
        return {
            " ".join(self.commands[0]): {
                "series.PowerSeries.compositional_inverse.calls": 1,
                "series.PowerSeries.compose.calls": n - 1,
                "series.PowerSeries.mul.calls": (n - 1) * (n + 1),
            }
        }


class Batch:
    """Uniform random Cayley trees through the public functions, one at a time."""

    name = "batch"

    def __init__(self, forge, seed: int):
        self.forge = forge
        rng = random.Random(seed)
        # every arity equally often, so seeds differ only in the trees drawn
        arities = [BATCH_ARITIES[k % len(BATCH_ARITIES)] for k in range(BATCH_TREES)]
        rng.shuffle(arities)
        self.inputs = []
        for k, n in enumerate(arities):
            m = rng.choice(BATCH_INNER_ARITIES)
            t, s = _random_tree(rng, n), _random_tree(rng, m)
            self.inputs.append({
                "text": oracles.render(t),
                "parent": t,
                "other_text": oracles.render(s),
                "other_parent": s,
                "i": rng.randint(1, n),
                "kind": ("max", "min", "nap")[k % 3],
            })
        self.words: list[int] | None = None

    @property
    def items_per_round(self) -> int:
        return len(self.inputs)

    @property
    def digest(self) -> str:
        text = "\n".join(
            f"{x['text']} {x['i']} {x['kind']} {x['other_text']}" for x in self.inputs
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def reset(self) -> None:
        pass

    def run_round(self, mark) -> list:
        trees, prelie, freeness = self.forge.trees, self.forge.prelie, self.forge.freeness
        compose = self.forge.set_operads.SET_COMPOSE
        outputs = []
        for x in self.inputs:
            t0 = perf_counter()
            try:
                tree = trees.parse_tree(x["text"])
                other = trees.parse_tree(x["other_text"])
                out = {"degree": trees.degree(tree)}
                word = freeness.factorize(tree)
                out["roundtrip"] = str(freeness.evaluate(word))
                out["text"] = str(tree)
                out["word"] = str(word)
                i = x["i"]
                out["composed"] = str(compose[x["kind"]](tree, i, other))
                out["bounds"] = prelie.degree_bounds(tree, i, other)
                out["min"] = str(prelie.min_term(tree, i, other))
                out["max"] = str(prelie.max_term(tree, i, other))
            except Exception as exc:  # counted as a failed item
                out = {"error": repr(exc)}
            outputs.append((t0, perf_counter(), out))
        mark("round")
        return outputs

    def check(self, outputs) -> tuple[int, int]:
        failed = 0
        for x, out in zip(self.inputs, outputs):
            if "error" in out or not oracles.check_batch_item(x, out):
                failed += 1
        if self.words is None and not failed:
            self.words = [oracles.word_nodes(out["word"]) for out in outputs]
        return len(self.inputs), failed

    def expected_counts(self):
        if self.words is None:
            return {}
        m = len(self.inputs)
        splits = sum(self.words) - m
        kinds = [x["kind"] for x in self.inputs]
        counts = {
            "trees.parse_tree.calls": 2 * m,
            "freeness.evaluate.calls": sum(self.words),
            "freeness.split.calls": splits,
            "freeness.factorize.calls": 2 * splits + m,
            "freeness.decomposition_witnesses.calls": 2 * splits + m,
            "set_operads.compose_max.calls": splits + kinds.count("max"),
            "set_operads.compose_min.calls": kinds.count("min"),
            "set_operads.compose_nap.calls": kinds.count("nap"),
            "prelie.graft_compose.calls": splits + 3 * m,
        }
        for fn in ("min_term", "max_term", "degree_bounds"):
            counts[f"prelie.{fn}.calls"] = m
        return {"round": counts}


def _random_tree(rng: random.Random, n: int) -> dict:
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    return oracles.prufer_tree(seq, n, rng.randint(1, n))


WORKLOADS = {w.name: w for w in (Sweep, Generators, Batch, Series)}
