"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
from run import round_time, tail_percentile  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


# ---- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, value",
    [
        (1000, 99.0, 990),  # p99.9 would leave 1 sample beyond
        (330, 95.0, 314),  # p99 leaves 3, p95 leaves 16
        (100, 90.0, 90),  # exactly ten beyond
        (20, 50.0, 10.5),  # no ladder step has ten beyond: the median
    ],
)
def test_tail_percentile_picks_highest_step_with_ten_beyond(n, pct, value):
    samples = list(range(n, 0, -1))  # order must not matter
    assert tail_percentile(samples) == (pct, value)


def test_tail_percentile_leaves_at_least_ten_beyond():
    for n in range(1, 400):
        pct, value = tail_percentile(range(1, n + 1))
        if pct > 50:
            assert sum(1 for x in range(1, n + 1) if x > value) >= 10


def test_round_time_sums_each_units_median_over_rounds():
    rounds = [
        [(1.0, None), (10.0, None)],
        [(3.0, None), (11.0, None)],
        [(2.0, None), (30.0, None)],
    ]
    assert round_time(rounds) == 2.0 + 11.0


# ---- rescaling by the reference loop ----------------------------------------------


def _probe(samples):
    """A finished SpeedProbe from (start, end) reference-loop samples."""
    probe = SpeedProbe()
    for start, end in samples:
        probe.starts.append(start)
        probe.ends.append(end)
    probe.finish()
    return probe


def test_scaled_time_at_reference_speed_is_wall_time_minus_the_loops():
    r = speed.REFERENCE_S
    probe = _probe([(k * 10.0, k * 10.0 + r) for k in range(5)])
    assert probe.scaled(0.0, 40.0 + r) == pytest.approx(40.0 - 4 * r)
    assert probe.scaled(12.0, 18.0) == pytest.approx(6.0)
    assert probe.scaled(-3.0, 0.0) == pytest.approx(3.0)  # before the first sample
    assert probe.scaled(50.0, 55.0) == pytest.approx(5.0)  # after the last


def test_scaled_time_on_a_machine_twice_as_slow_is_halved():
    r = 2 * speed.REFERENCE_S
    probe = _probe([(k * 10.0, k * 10.0 + r) for k in range(20)])
    assert probe.scaled(31.0, 39.0) == pytest.approx(4.0)


def test_scaled_time_follows_a_change_of_speed():
    r = speed.REFERENCE_S
    # loops of r for samples 0..9, then 3r: the running median switches at 10
    samples = [(k * 1.0, k * 1.0 + (r if k < 10 else 3 * r)) for k in range(20)]
    probe = _probe(samples)
    assert probe.scaled(2.5, 3.0) == pytest.approx(0.5)
    assert probe.scaled(15.5, 16.0) == pytest.approx(0.5 / 3)


# ---- self time ------------------------------------------------------------------


def _spans(rows):
    starts, ends, parents, ids = (list(col) for col in zip(*rows))
    return starts, ends, parents, ids


def test_self_time_subtracts_direct_children_only():
    # A[0,10] > B[1,4] > C[2,3];  A > B[5,7];  a second root A[20,21]
    rows = [
        (0.0, 10.0, -1, 0),
        (1.0, 4.0, 0, 1),
        (2.0, 3.0, 1, 2),
        (5.0, 7.0, 0, 1),
        (20.0, 21.0, -1, 0),
    ]
    calls, self_s = self_times(*_spans(rows), n_names=3)
    assert calls == [2, 2, 1]
    assert self_s == pytest.approx([10 - 3 - 2 + 1, (3 - 1) + 2, 1])


def test_self_time_of_a_slice_ignores_parents_before_it():
    rows = [(0.0, 10.0, -1, 0), (1.0, 4.0, 0, 1), (2.0, 3.0, 1, 2)]
    calls, self_s = self_times(*_spans(rows), n_names=3, lo=1)
    assert calls == [0, 1, 1]
    assert self_s == pytest.approx([0, 2, 1])


# ---- tracer bindings ------------------------------------------------------------


def test_tracer_counts_calls_through_every_binding():
    import operad_forge
    from operad_forge import cli, freeness, set_operads

    original = freeness.compose_max
    tracer = Tracer(operad_forge)
    tracer.install()
    try:
        assert cli.main(["verify", "freeness", "-n", "4"]) == 0
    finally:
        tracer.uninstall()
    calls, _ = tracer.stats()
    count = dict(zip(tracer.names, calls))
    words, nodes = oracles.word_stats(4)
    # evaluate reaches compose_max only through its default argument
    assert count["set_operads.compose_max"] == nodes - words
    assert count["freeness.evaluate"] == nodes
    assert freeness.compose_max is original
    assert set_operads.SET_COMPOSE["max"] is original
    assert freeness.evaluate.__defaults__ == (original,)


def test_tracer_reports_a_missing_function_as_unused(monkeypatch):
    import operad_forge
    from operad_forge import cli, set_operads

    monkeypatch.delattr(set_operads, "compose_nap")
    tracer = Tracer(operad_forge)
    tracer.install()
    try:
        assert cli.main(["verify", "collisions", "--operad", "nap", "-n", "3"]) == 0
    finally:
        tracer.uninstall()
    calls, _ = tracer.stats()
    count = dict(zip(tracer.names, calls))
    assert count["set_operads.compose_nap"] == 0
    assert count["prelie.graft_compose"] > 0


# ---- oracles reject corrupted output --------------------------------------------


@pytest.mark.parametrize(
    "argv, good, bad",
    [
        (
            ["verify", "axioms", "--operad", "pl", "--max-arity", "3"],
            "OK pl axioms hold up to arity 3\n",
            "axiom=seq a=1 b=1 c=1 i=1 j=1 lhs=x rhs=y\nOK pl axioms hold up to arity 3\n",
        ),
        (
            ["verify", "minmax", "--max-arity", "4"],
            "OK extremal terms unique and tight up to arity 4\n",
            "OK extremal terms unique and tight up to arity 3\n",
        ),
        (
            ["verify", "prelie"],
            "associator 1*1(2,3)\nOK pre-Lie relation holds\n",
            "associator 1*1(2(3))\nOK pre-Lie relation holds\n",
        ),
    ],
)
def test_sweep_oracle(argv, good, bad):
    assert oracles.check_sweep(argv, 0, good)
    assert not oracles.check_sweep(argv, 0, bad)
    assert not oracles.check_sweep(argv, 1, good)


@pytest.mark.parametrize(
    "argv, good, bad",
    [
        (["indecomposables", "-n", "6", "--count"], "1994\n", "1993\n"),
        (
            ["verify", "freeness", "-n", "6"],
            "OK 7776 trees, 7776 constructions\n",
            "OK 7776 trees, 7775 constructions\n",
        ),
        (
            ["verify", "collisions", "--operad", "min", "-n", "4"],
            "collision 1(2)[_, 1(2)[_, 1(2)]] = 1(2)[_, 1(2)[1(2), _]] -> 1(2(3(4)))\n",
            "collision 1(2)[_, 1(2)[_, 1(2)]] = 1(2)[_, 1(2)[_, 1(2)]] -> 1(2(3(4)))\n",
        ),
        (
            ["verify", "collisions", "--operad", "nap", "-n", "4"],
            "collision 1(2)[_, 1(2)[2(1), _]] = 1(2)[_, 2(1)[_, 1(2)]] -> 1(3(2,4))\n",
            "collision 1(2)[_, 1(2)[2(1), _]] = 1(2)[_, 2(1)[_, 1(2)]] -> 1(3(2))\n",
        ),
    ],
)
def test_generators_oracle(argv, good, bad):
    assert oracles.check_generators(argv, 0, good)
    assert not oracles.check_generators(argv, 0, bad)


def _hilbert_output(order):
    from operad_forge.cli import main
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["hilbert", "--order", str(order)]) == 0
    return out.getvalue()


def test_series_oracle_rejects_a_published_coefficient():
    good = _hilbert_output(9)
    assert oracles.check_series(good, 9) == list(oracles.GENERATOR_COUNTS)
    assert oracles.check_series(good.replace("7:32853", "7:32854"), 9) is None
    assert oracles.check_series(good.replace("9:13759430\n", ""), 9) is None


def test_series_oracle_rejects_a_coefficient_past_the_table():
    import operad_forge
    from workloads import SERIES_ORDER, Series

    workload = Series(operad_forge, seed=0)
    good = _hilbert_output(SERIES_ORDER)
    line = good.splitlines()[40]  # coefficient 42, far past the published table
    n, value = line.split(":")
    bad = good.replace(line, f"{n}:{int(value) + 1}")
    assert workload.check_output(["hilbert"], 0, good)
    assert not workload.check_output(["hilbert"], 0, bad)


def _batch_item():
    t = oracles.parse_parents("3(1,2(4))")
    s = oracles.parse_parents("2(1)")
    item = {
        "text": "3(1,2(4))", "parent": t, "other_text": "2(1)",
        "other_parent": s, "i": 2, "kind": "nap",
    }
    out = {
        "text": "3(1,2(4))",
        "roundtrip": "3(1,2(4))",
        "degree": 5,
        "word": "2(1,3)[_, 1(2), _]",
        "composed": oracles.render(oracles.compose("nap", t, 2, s)),
        "bounds": oracles.degree_bounds(t, 2, s),
        "min": oracles.render(oracles.compose("min", t, 2, s)),
        "max": oracles.render(oracles.compose("max", t, 2, s)),
    }
    return item, out


def test_batch_oracle_accepts_the_program_output():
    import operad_forge as of

    item, out = _batch_item()
    tree, other = of.parse_tree(item["text"]), of.parse_tree(item["other_text"])
    assert out["composed"] == str(of.compose_nap(tree, 2, other))
    assert out["min"] == str(of.min_term(tree, 2, other))
    assert out["max"] == str(of.max_term(tree, 2, other))
    assert out["bounds"] == of.degree_bounds(tree, 2, other)
    assert oracles.check_batch_item(item, out)


@pytest.mark.parametrize(
    "field, corrupt",
    [
        ("text", "3(1,2,4)"),
        ("roundtrip", "3(2(4),1)"),
        ("degree", 4),
        ("composed", "4(1,2(3),5)"),
        ("bounds", (3, 5)),
        ("min", "1(2,3,4,5)"),
        ("max", "2(1(3"),
    ],
)
def test_batch_oracle_rejects_each_corrupted_field(field, corrupt):
    item, out = _batch_item()
    out[field] = corrupt
    assert not oracles.check_batch_item(item, out)


def test_prufer_decode_gives_every_rooted_tree_once():
    from itertools import product

    n = 4
    seen = {
        oracles.render(oracles.prufer_tree(list(seq), n, root))
        for seq in product(range(1, n + 1), repeat=n - 2)
        for root in range(1, n + 1)
    }
    assert len(seen) == oracles.cayley(n)
