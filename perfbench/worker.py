"""One workload in one process: set-up, then a timed or a traced run.

Started by ``run.py``; prints one JSON object on its last stdout line.
The set-up clock starts before the package is imported, so ``setup_s``
covers the import, building the workload inputs, loading the golden
manifest and one warm-up request.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import golden  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mzi_sensitivity import fock_oracle  # noqa: E402

# a traced run repeats a fixed amount of work, so its counts repeat exactly
TRACE_BLOCKS = {"figures": 1, "phi_scan": 1, "alpha_scan": 1, "oracle_check": 8}


class Run:
    """Requests of one pass, their latencies, rows and failures."""

    def __init__(self, out_dir, reference=None):
        self.out_dir = out_dir
        self.reference = reference  # golden manifest, for the figures workload
        self.latencies = []
        self.rows = 0
        self.failed = []  # (label, problems)
        self.rejected = []  # (label, documented error)
        self.empty_fields = 0
        self.csv_bytes = 0

    def request(self, req) -> None:
        start = time.perf_counter()
        try:
            result = workloads.call_request(req, self.out_dir)
        except Exception as exc:  # the request boundary: record and go on
            self.latencies.append(time.perf_counter() - start)
            problem = f"{type(exc).__name__}: {exc}"
            if workloads.documented(exc):
                self.rejected.append((req.label, problem))
            else:
                self.failed.append((req.label, [f"undocumented exception {problem}"]))
            return
        self.latencies.append(time.perf_counter() - start)

        if req.oracle is not None:
            self.rows += 1
            problems = workloads.check_oracle(result)
        else:
            header, rows, size = workloads.read_csv(result["output_path"])
            # every request writes a new file: renaming over an existing one
            # makes ext4 flush it to disk first, which buries the compute time
            # under tens of milliseconds of disk latency
            os.remove(result["output_path"])
            self.rows += len(rows)
            self.empty_fields += workloads.count_empty(rows)
            self.csv_bytes += size
            if self.reference is None:
                problems = workloads.check_sweep(req.scenario, result, header, rows)
            elif req.label not in self.reference:
                problems = ["no golden entry"]
            else:
                actual = golden.entry(result, header, rows, self.out_dir)
                problems = golden.compare(self.reference[req.label], actual)
        if problems:
            self.failed.append((req.label, problems))

    def run_blocks(self, blocks) -> None:
        for block in blocks:
            for req in block:
                self.request(req)

    def report(self, blocks: int) -> dict:
        return {
            "blocks": blocks,
            "attempted": len(self.latencies),
            "rows": self.rows,
            "request_s": sum(self.latencies),
            "latencies_s": self.latencies,
            "failed": self.failed,
            "rejected": self.rejected,
        }


def timed(source, out_dir, reference, seconds) -> dict:
    """Whole blocks until ``seconds`` have passed; at least one block."""
    run = Run(out_dir, reference)
    deadline = time.perf_counter() + seconds
    blocks = 0
    for block in source:
        run.run_blocks([block])
        blocks += 1
        if time.perf_counter() >= deadline:
            break
    return run.report(blocks)


def traced(source, out_dir, reference, workload, spans_path) -> dict:
    """The same fixed blocks untraced, then traced: per-layer metrics and
    the tracing overhead.  Each pass starts from an empty oracle block cache."""
    work = list(itertools.islice(source, TRACE_BLOCKS[workload]))
    plain = Run(out_dir, reference)
    fock_oracle._block_unitary.cache_clear()
    plain.run_blocks(work)

    run = Run(out_dir, reference)
    fock_oracle._block_unitary.cache_clear()
    with tracer.Tracer() as tr:
        for block in work:
            for req in block:
                tr.request = req.label
                run.request(req)
    cache = fock_oracle._block_unitary.cache_info()

    out = run.report(len(work))
    out["failed"] += plain.failed
    out["rejected"] += plain.rejected
    out["attempted"] += len(plain.latencies)
    overhead_s = sum(run.latencies) - sum(plain.latencies)
    out["per_layer"] = layers.metrics(tr, run, cache, overhead_s)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tr.spans:
            handle.write(json.dumps(span.record()) + "\n")
    out["spans"] = spans_path
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for CSV files and spans")
    args = parser.parse_args(argv)

    reference = golden.load() if args.workload == "figures" else None
    source = (workloads.block(args.workload, args.seed, i) for i in itertools.count())
    source = itertools.chain([next(source)], source)
    out_dir = os.path.join(args.out, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        warm = Run(out_dir)
        warm.request(workloads.warmup_request(args.workload))
        if warm.failed or warm.rejected:
            raise RuntimeError(f"warm-up request failed: {warm.failed or warm.rejected}")
        setup_s = time.perf_counter() - _T0

        if args.setup_only:
            out = {}
        elif args.trace:
            spans = os.path.join(args.out, f"spans-{args.workload}-{args.seed}.jsonl")
            out = traced(source, out_dir, reference, args.workload, spans)
        else:
            out = timed(source, out_dir, reference, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
