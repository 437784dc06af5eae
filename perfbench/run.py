"""The repo benchmark: one command per workload, end-to-end or traced.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics.  Both check
the program's outputs.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every output check passed, 1 when one failed, 2 on a usage or
environment error.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from util import ROOT, WORK, provenance

SRC = ROOT / "src"
WORKLOADS = ("paper-dense", "sparse-small", "service-mixed")


def _module(workload: str):
    if workload == "service-mixed":
        import svc
        return svc
    import offline
    return offline


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = _module(args.workload)

    if args.setup_only:
        started = time.perf_counter()
        module.setup(args.workload, args.seed, Path(args.work))
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = module.measure(args.workload, args.seed, args.seconds,
                                work, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = result["problems"]
    for line in result["lines"]:
        print(line)
    print(f"output checks: {len(problems)} of {result['attempted']} "
          f"attempted operations failed")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": len(problems),
        "metrics": result["metrics"],
    }
    record = dict(out, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  provenance=provenance(), **result.get("record", {}))
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
