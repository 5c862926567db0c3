"""The sweep helper behind the exhaustive checks: its OPERAD_FORGE_THREADS
setting, and the same results on one worker as on two, with no child
process left behind."""

import os
import threading

import pytest

from operad_forge import cli, prelie
from operad_forge.trees import TreeError, enumerate_trees
from operad_forge.prelie import check_extremal_terms
from operad_forge.set_operads import KINDS, SET_COMPOSE, check_axioms, compose_max
from operad_forge.freeness import indecomposables, is_indecomposable
from operad_forge.sweep import _sweep, _workers


def two_cpus(monkeypatch):
    # two usable CPUs, so two workers fork on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture(params=["1", "2"])
def threads(request, monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", request.param)
    two_cpus(monkeypatch)
    return int(request.param)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "x", "", " 2", "+2", "1e3"])
def test_rejects_a_setting_that_is_not_an_int_of_at_least_one(monkeypatch, value):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", value)
    with pytest.raises(TreeError, match="OPERAD_FORGE_THREADS must be an integer of at least 1"):
        _workers(10)


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "x", ""])
def test_cli_exits_2_with_one_error_line_on_a_bad_setting(monkeypatch, capsys, value):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", value)
    assert cli.main(["verify", "axioms", "--operad", "max", "--max-arity", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: OPERAD_FORGE_THREADS must be")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "value, cpus, items, workers",
    [
        (None, 8, 100, 1),  # unset: the serial loop
        ("1", 8, 100, 1),
        ("2", 8, 100, 2),
        ("64", 2, 100, 2),  # capped by the usable CPUs
        ("99999999", 2, 10**6, 2),
        ("2", 1, 100, 1),
        ("4", 8, 3, 3),  # capped by the items
        ("2", 8, 0, 0),
    ],
)
def test_worker_count_is_the_setting_capped(monkeypatch, value, cpus, items, workers):
    # computes the count only: no process starts here
    if value is None:
        monkeypatch.delenv("OPERAD_FORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPERAD_FORGE_THREADS", value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert _workers(items) == workers


def test_stays_serial_beside_another_thread(monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "2")
    two_cpus(monkeypatch)
    assert _workers(10) == 2
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(10,))
    other.start()
    try:
        assert _workers(10) == 1
    finally:
        done.set()
        other.join(10)
    assert not other.is_alive()


def test_sweep_merges_results_in_item_order(threads):
    results = _sweep(range(11), lambda x: (x * x, os.getpid()))
    assert [r for r, _ in results] == [x * x for x in range(11)]
    # dealt round-robin: item k ran in worker k % threads
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == threads
    assert pids == [pids[k % threads] for k in range(11)]
    assert _sweep([], lambda x: x) == []
    assert_no_child_left()


@pytest.mark.parametrize("kind", KINDS)
def test_axioms_hold_on_every_worker_count(threads, kind):
    assert check_axioms(kind, 3) == []
    assert_no_child_left()


def test_extremal_terms_hold_on_every_worker_count(threads):
    assert check_extremal_terms(4) == []
    assert_no_child_left()


def test_indecomposables_on_every_worker_count(threads):
    indecomposables.cache_clear()
    try:
        found = [indecomposables(n) for n in range(2, 7)]
    finally:
        indecomposables.cache_clear()
    assert [len(g) for g in found] == [2, 1, 14, 146, 1994]
    for n, generators in enumerate(found, 2):
        # the literal definition: every tree of arity n without a witness
        literal = [t for t in enumerate_trees(n) if is_indecomposable(t)]
        assert generators == tuple(sorted(literal, key=str))
    assert_no_child_left()


def test_an_error_in_a_workers_share_reaches_the_caller(monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "2")
    two_cpus(monkeypatch)
    parent = os.getpid()

    def compose(tree, i, inserted):
        if os.getpid() != parent:
            raise TreeError("composition failed in a worker")
        return compose_max(tree, i, inserted)

    monkeypatch.setitem(SET_COMPOSE, "max", compose)
    with pytest.raises(TreeError, match="composition failed in a worker"):
        check_axioms("max", 3)
    assert_no_child_left()


def test_an_error_in_the_callers_share_stops_every_worker(monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "2")
    two_cpus(monkeypatch)
    parent, bounds = os.getpid(), prelie.degree_bounds

    def degree_bounds(tree, i, inserted):
        if os.getpid() == parent:
            raise TreeError("bounds failed in the caller")
        return bounds(tree, i, inserted)

    monkeypatch.setattr(prelie, "degree_bounds", degree_bounds)
    with pytest.raises(TreeError, match="bounds failed in the caller"):
        check_extremal_terms(4)
    assert_no_child_left()


def test_a_worker_that_ends_without_a_result_is_an_error(monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "2")
    two_cpus(monkeypatch)
    parent = os.getpid()

    def work(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(ChildProcessError, match="ended without a result"):
        _sweep(range(4), work)
    assert_no_child_left()
