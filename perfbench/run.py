"""The genneg benchmark: one command, every metric by name and unit, outputs checked.

    python3 perfbench/run.py --workload solve-n4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it prints the
end-to-end metrics (set-up time, points per second, per-call latency, peak
RSS); with ``--trace 1`` it prints the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the host, the per-pass details and any failed checks.

This process imports neither numpy nor genneg: it starts the measuring
process (``measure.py``) and a few set-up probes, times each from a fresh
interpreter to ``READY``, and takes the peak RSS of all of them and of their
pool workers from ``RUSAGE_CHILDREN`` once they have exited.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2      # set-up samples besides the measuring process's own
CHILD_TIMEOUT = 170   # seconds; a run must end within 180


def _start(args: list) -> tuple:
    """Start measure.py and wait for READY; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "measure.py")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - t0
    proc.wait()
    raise RuntimeError(f"measuring process exited with code {proc.returncode} before set-up ended")


def _finish(proc):
    """Read the rest of a child's output and wait for it; returns its RESULT record, if any."""
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process failed with code {proc.returncode}")
    return result


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _end_to_end(result: dict, setup_samples: list) -> dict:
    """End-to-end metrics from each item's mean call time over the run's passes.

    Every pass runs every item once, so the sum of these means is the time of
    an average pass.
    """
    passes = result["passes"]
    times = {}
    for p in passes:
        for item in p["items"]:
            times.setdefault(item["key"], []).append(item["elapsed"])
    calls = [statistics.fmean(v) for v in times.values()]
    ok_points = sum(p["attempted"] - p["failed"] for p in passes) / len(passes)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "points_per_s": {"value": ok_points / sum(calls), "unit": "1/s"},
        "call_s_p50": {"value": statistics.median(calls), "unit": "s"},
        "call_s_max": {"value": max(calls), "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="genneg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "genneg" / "__init__.py").is_file():
        print(f"run: no genneg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                # each probe exits, shutting its pool down, before the next starts
                proc, seconds = _start(["--workload", args.workload, "--setup-only"])
                _finish(proc)
                setup_samples.append(seconds)
        proc, seconds = _start(["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)])
        setup_samples.append(seconds)
        result = _finish(proc)
        if result is None:
            raise RuntimeError("measuring process printed no RESULT")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = result["layers"] if args.trace else _end_to_end(result, setup_samples)
    info = {"workload": args.workload, "seed": args.seed, "host": result["host"],
            "setup": result["setup"], "setup_samples_s": setup_samples,
            "fail_frac": failed / attempted if attempted else 1.0,
            "passes": passes}
    if args.trace:
        info.update(spans=result["spans"], spans_path=result["spans_path"])
    print("info " + json.dumps(info))
    for p in passes:
        for problem in p["problems"]:
            print(f"FAILED CHECK: {problem}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
