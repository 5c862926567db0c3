"""The one helper behind every exhaustive check: deal its items over processes.

``OPERAD_FORGE_THREADS`` (default 1) is the number of worker processes,
capped by the usable CPUs and by the item count, and 1 in a process
that runs other threads.  At 1 the sweep is a plain loop.  Above it the
calling process works one share itself and forks one child per other
share, so every worker inherits the tables and the compositions the
caller set up.  Results come back in item order whatever the worker
count.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

from .trees import TreeError


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
    workers = _workers(len(items))
    if workers <= 1:
        return [work(x) for x in items]
    # imported here, so that the serial path and the CLI's startup pay for neither
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
