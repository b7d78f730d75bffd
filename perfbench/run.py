#!/usr/bin/env python3
"""Benchmark of the mzi_sensitivity package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {figures,phi_scan,alpha_scan,oracle_check}
                             --seed N --seconds S --trace {0,1}

Each workload runs in its own process with ``MZI_OPT_THREADS=1`` (the sweep
thread pool buys nothing under the interpreter lock and only adds scheduler
noise) and ``OPENBLAS_NUM_THREADS=1`` (the oracle's small eigen-solves and
products gain nothing from BLAS threads, which made its timings spread).
Set-up runs ``SETUP_SAMPLES`` times, each in a fresh process, and the
median is reported.

``--trace 0`` runs whole blocks of requests until ``--seconds`` have passed
(a ``figures`` block is all 28 presets, about half a minute) and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of blocks untraced
and then traced, and reports the per-layer metrics, each with the
end-to-end metric it should move; spans go to ``perfbench/_out/``.
``BENCHMARK.json`` names the workloads, the metrics and their units.

Every request's output is checked: ``figures`` against the golden manifest,
the seeded sweeps against the Cramer-Rao bound and the CSV schema, and the
oracle configurations against the closed forms.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
# the workload definition pins the sweep pool and the BLAS pool to one
# thread: the NAME=value words of the command, applied again here so that a
# direct ``python3 perfbench/run.py`` is pinned too
ENV = dict(word.split("=", 1) for word in BENCH["command"] if "=" in word)
SETUP_SAMPLES = 5
BUDGET_S = 170.0
TAIL_BEYOND = 10  # samples above the reported tail percentile


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least
    ``TAIL_BEYOND`` samples above it; the maximum if there are too few."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _worker(args, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, **ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mzi_sensitivity", "__init__.py")):
        print(f"no mzi_sensitivity package under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        # a traced run reports no set-up time, so it takes no extra samples
        samples = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_worker(args, deadline, True)["setup_s"] for _ in range(samples)]
        result = _worker(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    attempted = result["attempted"]
    failed = len(result["failed"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests in {result['blocks']} block(s), {result['rows']} rows, "
          f"{result['request_s']:.3f} s in requests")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for label, problems in result["failed"]:
        print(f"  FAILED {label}: " + "; ".join(problems))
    for label, problem in result["rejected"]:
        print(f"  rejected (documented error) {label}: {problem}")

    if args.trace:
        values = result["per_layer"]
        print(f"  the two passes made {attempted} requests; rows and metrics are the traced pass's")
        print(f"  spans written to {os.path.relpath(result['spans'], ROOT)}")
        listed = BENCH["per_layer"]
    else:
        latencies_ms = [1000.0 * t for t in result["latencies_s"]]
        tail_ms, percentile = tail(latencies_ms)
        values = {
            "rows_per_s": result["rows"] / result["request_s"],
            "request_ms_p50": statistics.median(latencies_ms),
            "request_ms_tail": tail_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"  request_ms_tail is p{percentile:.1f} of {len(latencies_ms)} requests")
        print(f"  setup_s is the median of {len(setups)} processes: "
              + ", ".join(f"{s:.3f}" for s in setups))
        listed = BENCH["end_to_end"]
    for m in listed:
        note = f"  (moves {layers.moves(m['name'])})" if args.trace else ""
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
