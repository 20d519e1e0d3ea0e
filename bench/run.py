"""The qhflag benchmark: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload products-D4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

``--workload all`` runs every workload, one after the other, each in its
own interpreter.  Run from anywhere; the library is imported from the
``src`` directory next to ``bench``.

A run repeats rounds of its workload while at least half of the next
round fits in ``--seconds`` (always at least one round).  A round builds fresh long-lived
inputs (the set-up), draws its operations from the seeded generator, runs
them (the timed phase) and checks every output against
``bench/reference.json``.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median time of a fresh-interpreter ``import qhflag`` plus
  the median time of the workload's set-up;
* ``wall_s``: median time of the timed phase over the rounds;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run makes one untraced and one traced round and
reports the per-layer metrics of ``tracing.py``; the spans are written to
``bench/out/``.  The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOAD_NAMES = ("products-D4", "keylemma-F4", "qhp-B4")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 9

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import qhflag; "
                 "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    """Import qhflag from this checkout's ``src``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "qhflag", "__init__.py")):
        raise BenchError(f"no qhflag sources under {SRC}")
    sys.path.insert(0, SRC)
    import qhflag
    if os.path.dirname(os.path.dirname(os.path.abspath(qhflag.__file__))) != SRC:
        raise BenchError(f"imported qhflag from {qhflag.__file__}, not {SRC}")
    return qhflag


def import_seconds() -> float:
    """Median time of ``import qhflag`` in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                              capture_output=True, text=True, timeout=60,
                              check=False)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def one_round(workload, rng, tracer=None):
    """Set up, draw and run one round, then check it.

    Returns (set-up seconds, timed-phase seconds, attempted, failed).  With
    a tracer, its wrappers are installed for the set-up and the timed phase.
    """
    if tracer is not None:
        tracer.install()
    try:
        begin = time.perf_counter()
        state = workload.setup()
        setup = time.perf_counter() - begin
        inputs = workload.draw(rng)
        begin = time.perf_counter()
        outputs = workload.run(state, inputs, tracer)
        wall = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = workload.check(state, inputs, outputs)
    return setup, wall, attempted, failed


def run_rounds(workload, rng, seconds: float):
    """Untraced rounds while at least half of the next fits in ``seconds``."""
    setups, walls = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        setup, wall, a, f = one_round(workload, rng)
        gc.collect()
        setups.append(setup)
        walls.append(wall)
        attempted, failed = attempted + a, failed + f
        now = time.perf_counter()
        if now - start + (now - begin) / 2 > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)
        gc.collect()
    return setups, walls, attempted, failed


def run_traced(workload, rng, name: str, seed: int):
    """One untraced and one traced round; per-layer metrics of the latter."""
    from tracing import METRICS, Tracer

    _, untraced, attempted, failed = one_round(workload, rng)
    gc.collect()
    tracer = Tracer()
    _, traced, a, f = one_round(workload, rng, tracer)
    values = tracer.metrics()
    values["trace.overhead_s"] = traced - untraced
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.csv.gz"))
    metrics = {m: _metric(values[m], unit) for m, unit in METRICS}
    return metrics, attempted + a, failed + f, untraced, traced


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_library()
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[name](load_reference())
    rng = random.Random(seed)
    if trace:
        metrics, attempted, failed, untraced, traced = run_traced(
            workload, rng, name, seed)
        print(f"{name} seed={seed} traced round {traced:.4f} s, "
              f"untraced round {untraced:.4f} s")
        for metric, m in metrics.items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
    else:
        imp = import_seconds()
        setups, walls, attempted, failed = run_rounds(workload, rng, seconds)
        setup, wall = statistics.median(setups), statistics.median(walls)
        rss = peak_rss_mb()
        metrics = {
            "setup_s": _metric(imp + setup, "s"),
            "wall_s": _metric(wall, "s"),
            "peak_rss_mb": _metric(rss, "MB"),
        }
        print(f"{name} seed={seed}: {len(walls)} rounds")
        print(f"  setup_s      {imp + setup:.4f} s  (import {imp:.4f} s, median "
              f"of {IMPORT_SAMPLES}; set-up {setup:.4f} s, median of {len(setups)})")
        print(f"  wall_s       {wall:.4f} s  (median of {len(walls)} rounds; "
              f"min {min(walls):.4f}, max {max(walls):.4f})")
        print(f"  peak_rss_mb  {rss:.1f} MB")
    print(f"  failed_ops   {failed} of {attempted}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own interpreter, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
