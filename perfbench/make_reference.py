"""Record the reference E values that the benchmark checks its outputs against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every item of the named workloads (default: all) once, untraced, and
writes what each produced to ``reference.json``, keeping entries of other
workloads.  The file in the repository was recorded from the commit that
introduced the benchmark; re-record only when a change of the program is
meant to change these values, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import bench


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(bench.WORKLOADS)
    try:
        reference = bench.load_reference()
    except FileNotFoundError:
        reference = {}
    for name in names:
        workload = bench.WORKLOADS[name]
        workers = bench.setup(workload)["workers"]
        wall, outcomes = bench.run_pass(workload, workload.items, workers)
        for item, out in outcomes:
            if out.get("rc", 0) != 0 or not out.get("ok", True):
                print(f"{item.key}: failed, not recorded: {out}", file=sys.stderr)
                return 1
            reference[item.key] = item.record(out)
        print(f"{name}: {len(outcomes)} items in {wall:.1f} s")
    with open(bench.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
