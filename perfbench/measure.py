"""Measuring process of the genneg benchmark (started by run.py, one per run).

It sets up (imports genneg, builds the program for the workload's qubit
count, spawns the worker pool if the workload uses one), prints ``READY`` so
that the parent can time set-up from a fresh interpreter, and then runs passes
of the workload.  The last line it prints is ``RESULT <json>``.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/measure.py --workload NAME --setup-only
"""

from __future__ import annotations

import argparse
import json
import random
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import bench  # imports genneg: part of the timed set-up

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"measure: unknown workload {args.workload!r} "
              f"(known: {', '.join(bench.WORKLOADS)})", file=sys.stderr)
        return 2
    setup_info = bench.setup(workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = bench.load_reference()
    rng = random.Random(args.seed)
    workers = setup_info["workers"]
    result = {"host": bench.host_info(), "setup": setup_info, "passes": []}

    def record_pass(wall, outcomes, traced):
        attempted, failed, problems = bench.check_pass(workload, outcomes, reference)
        result["passes"].append({
            "wall": wall, "traced": traced, "attempted": attempted, "failed": failed,
            "problems": problems[:5],
            "items": [{k: v for k, v in out.items() if k in ("key", "elapsed", "iterations")}
                      for _, out in outcomes]})

    if args.trace:
        # a pooled workload first makes one untraced pass with its workers, the
        # base of analysis.pool_eff; the traced pass runs in-process
        pool_wall = None
        if workload.pooled:
            pool_wall, outcomes = bench.run_pass(workload, bench.shuffled(workload.items, rng),
                                                 workers)
            record_pass(pool_wall, outcomes, False)
        traced_wall, outcomes, spans = bench.traced_pass(
            workload, bench.shuffled(workload.items, rng))
        record_pass(traced_wall, outcomes, True)
        metrics = bench.layer_metrics(spans, setup_info, traced_wall, pool_wall, workers,
                                      bench.per_span_cost())
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        result["spans"] = len(spans)
        result["spans_path"] = str(bench.write_spans(spans, workload, args.seed))
    else:
        # whole passes while the next one is expected to end within the budget
        elapsed = 0.0
        while True:
            wall, outcomes = bench.run_pass(workload, bench.shuffled(workload.items, rng),
                                            workers)
            record_pass(wall, outcomes, False)
            elapsed += wall
            if elapsed + wall > args.seconds:
                break
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
