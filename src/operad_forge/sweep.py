"""The two helpers behind every exhaustive check: size it, then deal its items over processes.

``OPERAD_FORGE_THREADS`` (default 1) is the number of worker processes,
capped by the usable CPUs and by the item count, and 1 in a process
that runs other threads.  The calling process works one share itself
and forks one child per other share, so at 1 worker it works every
item and forks nothing, and every child inherits the tables and the
compositions the caller set up.  Results come back in item order
whatever the worker count.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Sequence

from .trees import TreeError

# bytes per entry, CPython 3.11, 64-bit. An axiom table's composition, by kind: tracemalloc at
# arity 4, keys and lists included (a pl sum grows with its arity, so beyond 4 it is a floor).
# A word of verify freeness -n 8 and a generator of indecomposables -n 8: the CLI's peak RSS over
# its count, serial. A term: the larger peak RSS per term of compose --operad pl at 8^7 terms,
# with --json (579) and without (482). A (T, i) case of verify minmax: tracemalloc at max_arity 7
# of the case list, the basis and the sweep's per-case results (the case list alone is 80).
_ENTRY_BYTES = {"max": 145, "min": 145, "nap": 145, "pl": 853, "word": 362, "term": 579,
                "generator": 307, "case": 160}


def _check_table_size(sizes: Iterable[int], entry_bytes: int, what: Callable[[int], str]) -> None:
    # the one memory rule: sizes yields a request's table size as it reaches each arity, and the
    # first whose entries outgrow the physical memory raises before anything is built or summed
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for size in sizes:
        if (need := size * entry_bytes) > memory:
            raise TreeError(
                f"{what(size)}, about {need / 1e9:.1f} GB, more than the "
                f"{memory / 1e9:.1f} GB of memory here"
            )


def _workers(count: int) -> int:
    """Worker processes for a sweep of count items: the setting, capped."""
    value = os.environ.get("OPERAD_FORGE_THREADS", "1")
    if not (value.isascii() and value.isdigit()) or int(value) < 1:
        raise TreeError(f"OPERAD_FORGE_THREADS must be an integer of at least 1, got {value!r}")
    if threading.active_count() > 1:
        return 1  # a fork copies only the calling thread, so beside others stay serial
    # the usable CPUs; where the OS cannot tell them, a sweep stays serial
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(int(value), cpus, count)


def _sweep(items: Sequence, work: Callable) -> list:
    """``[work(x) for x in items]``, with items dealt round-robin over workers.

    Worker k works ``items[k::workers]``; a worker's exception reaches
    the caller, and every child is reaped before this returns or raises.
    """
    workers = _workers(len(items)) or 1  # an empty sweep still slices with step 1
    # imported here, so that the CLI's startup pays for neither
    import pickle
    import signal

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                try:
                    try:
                        payload = True, [work(x) for x in items[k::workers]]
                    except Exception as exc:
                        payload = False, exc
                    with open(w, "wb") as pipe:
                        pipe.write(pickle.dumps(payload))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        shares = [[work(x) for x in items[::workers]]]
        for pid, r in children:
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"sweep worker {pid} ended without a result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            shares.append(payload)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    results = [None] * len(items)
    for k, share in enumerate(shares):
        results[k::workers] = share
    return results
