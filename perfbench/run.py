#!/usr/bin/env python3
"""operad-forge benchmark.

    python3 perfbench/run.py --workload {sweep,generators,batch,series} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` and from nowhere else.  One run is one fresh interpreter.  It
repeats rounds of the workload for about S seconds, checks every output
against an oracle, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are wall
times rescaled to a fixed machine speed sampled during the run (see
``speed.py``).  The line
before it records the environment and the details behind the metrics.
With ``--trace 1`` the metrics are per-layer costs instead of
end-to-end ones; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9  # fresh interpreters timed for setup_s
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)  # OPERAD_FORGE_THREADS for every run
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def load_program():
    """Import operad_forge from this checkout's src/, or exit non-zero."""
    if not (SRC / "operad_forge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'operad_forge'}")
    os.environ["OPERAD_FORGE_THREADS"] = str(THREADS)
    sys.path.insert(0, str(SRC))
    import operad_forge
    import operad_forge.cli

    if Path(operad_forge.__file__).resolve().parent != SRC / "operad_forge":
        sys.exit(f"perfbench: imported operad_forge from {operad_forge.__file__}")
    return operad_forge


def tail_percentile(samples, min_beyond: int = 10):
    """(percentile, value): the highest of TAIL_LADDER, nearest rank, with
    at least ``min_beyond`` samples above its rank; the median when no
    ladder step has that many."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, -(-n * round(pct * 10) // 1000))  # nearest rank, 1-based
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def run_rounds(workload, until: float, mark=lambda label: None) -> list[list]:
    """Rounds, each a list of (start, end, output) per unit; at least one,
    and another only while it would end less than half a round past
    ``until``."""
    rounds = []
    while True:
        workload.reset()
        mark("start")
        t0 = perf_counter()
        rounds.append(workload.run_round(mark))
        now = perf_counter()
        if now + (now - t0) / 2 >= until:
            return rounds


def rescale(rounds, probe) -> list[list]:
    """Each unit's (start, end, output) as (seconds at reference speed, output)."""
    return [[(probe.scaled(t0, t1), out) for t0, t1, out in r] for r in rounds]


def unit_medians(rounds) -> list[float]:
    """Each unit's median time over the rounds."""
    return [statistics.median(ts) for ts in zip(*([t for t, _ in r] for r in rounds))]


def round_time(rounds) -> float:
    """Time of one round: the sum over its units of their median over rounds,
    so a spell of contention in one round moves it little."""
    return sum(unit_medians(rounds))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time, rescaled and raw, of fresh interpreters that import and
    make inputs.  Each is rescaled by the reference loop timed just before
    and just after it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.loop_time()
        t0 = perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
        loop = (before + speed.loop_time()) / 2
        raw.append(elapsed)
        scaled.append(elapsed * speed.REFERENCE_S / loop)
    return statistics.median(scaled), statistics.median(raw)


def check_rounds(workload, rounds) -> tuple[int, int]:
    attempted = failed = 0
    for outputs in rounds:
        a, f = workload.check([out for *_, out in outputs])
        attempted += a
        failed += f
    return attempted, failed


def latency_samples(workload, rounds) -> list[float]:
    """Per-item milliseconds: each batch tree's median over rounds, or for
    the CLI workloads each round's time divided by its items."""
    if workload.name == "batch":
        return [t * 1e3 for t in unit_medians(rounds)]
    return [sum(t for t, _ in r) * 1e3 / workload.items_per_round for r in rounds]


def end_to_end(workload, seconds: float, setup: tuple[float, float]):
    with speed.SpeedProbe() as probe:
        timed = run_rounds(workload, perf_counter() + seconds)
    attempted, failed = check_rounds(workload, timed)
    rounds = rescale(timed, probe)
    wall = round_time(rounds)
    setup_s, setup_raw_s = setup
    samples = latency_samples(workload, rounds)
    tail_pct, tail = tail_percentile(samples)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (workload.items_per_round / wall, "1/s"),
        "item_p50_ms": (statistics.median(samples), "ms"),
        "item_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    details = {
        "rounds": len(rounds),
        "items_per_round": workload.items_per_round,
        "round_s": [sum(t for t, _ in r) for r in rounds],
        "raw_round_s": [sum(t1 - t0 for t0, t1, _ in r) for r in timed],
        "raw_setup_s": setup_raw_s,
        "speed_samples": probe.samples,
        "median_loop_s": probe.median_loop(),
        "tail_percentile": tail_pct,
        "latency_samples": len(samples),
        "failed_ratio": failed / attempted,
    }
    return metrics, details, attempted, failed


def traced(workload, seconds: float, package):
    """Untraced rounds for a third of the time, then traced rounds."""
    from tracer import Tracer

    start = perf_counter()
    with speed.SpeedProbe() as plain_probe:
        plain = run_rounds(workload, start + seconds / 3)
    attempted, failed = check_rounds(workload, plain)
    cache_info = getattr(package.freeness.indecomposables, "cache_info", None)
    tracer = Tracer(package)
    marks: list[tuple[str, int, dict]] = []

    def mark(label: str) -> None:
        counters = dict(tracer.counters)
        counters["freeness.indecomposables.misses"] = cache_info().misses if cache_info else 0
        marks.append((label, tracer.span_count, counters))

    tracer.install()
    try:
        with speed.SpeedProbe() as probe:
            rounds = run_rounds(workload, start + seconds, mark)
    finally:
        tracer.uninstall()
    tracer.retime(probe.clock)  # self times at the reference speed too
    a, f = check_rounds(workload, rounds)
    attempted, failed = attempted + a, failed + f

    # per command (or per round) deltas, checked against exact counts
    expected = workload.expected_counts()
    mismatches = []
    per_round: list[dict[str, float]] = []
    for (label, lo, before), (next_label, hi, after) in zip(marks, marks[1:]):
        if label != "start" and next_label == "start":
            continue
        if label == "start":
            per_round.append({})
        calls, self_s = tracer.stats(lo, hi)
        got = {}
        for name_id, name in enumerate(tracer.names):
            got[f"{name}.calls"] = calls[name_id]
            got[f"{name}.self_s"] = self_s[name_id]
        # generators count starts and items, not next() spans
        got.update({k: after[k] - before.get(k, 0) for k in after})
        for key, want in expected.get(next_label, {}).items():
            if got.get(key) != want:
                mismatches.append(f"{next_label}: {key} = {got.get(key)}, expected {want}")
        for key, value in got.items():
            per_round[-1][key] = per_round[-1].get(key, 0) + value
        per_round[-1]["trace.spans"] = per_round[-1].get("trace.spans", 0) + hi - lo

    metrics = {}
    for key in per_round[0]:
        value = statistics.median(r[key] for r in per_round)
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (value, unit)
    tested = sum(r["freeness.is_indecomposable.calls"] for r in per_round)
    found = sum(r["freeness.is_indecomposable.true"] for r in per_round)
    del metrics["freeness.is_indecomposable.true"]
    metrics["freeness.indecomposable_ratio"] = (found / tested if tested else 0.0, "ratio")
    untraced_wall = round_time(rescale(plain, plain_probe))
    traced_wall = round_time(rescale(rounds, probe))
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.workers"] = (len(tracer.threads), "count")
    metrics["trace.self_check_mismatches"] = (len(mismatches), "count")
    span_file = SPAN_DIR / f"spans-{workload.name}.bin"
    tracer.write(span_file)
    details = {
        "untraced_rounds": len(plain),
        "traced_rounds": len(rounds),
        "self_check_mismatches": mismatches,
        "spans_file": str(span_file.relative_to(ROOT)),
    }
    for line in mismatches:
        print(f"perfbench: trace self-check failed: {line}", file=sys.stderr)
    return metrics, details, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = load_program()
    from workloads import WORKLOADS


    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](package, args.seed)
        return 0

    if args.trace:
        workload = WORKLOADS[args.workload](package, args.seed)
        metrics, details, attempted, failed = traced(
            workload, args.seconds, package
        )
    else:
        setup = measure_setup(args.workload, args.seed)
        workload = WORKLOADS[args.workload](package, args.seed)
        metrics, details, attempted, failed = end_to_end(
            workload, args.seconds, setup
        )
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": NPROC,
        "operad_forge_threads": THREADS,
        "python": platform.python_version(),
        "inputs_sha256": workload.digest,
        **details,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
