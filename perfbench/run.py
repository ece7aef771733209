"""The repository benchmark: one workload, one time budget, one JSON line.

    python3 perfbench/run.py --workload fig3-ds1 --seed 2013 --seconds 35 --trace 0

Run from the repository root.  Workloads: ``fig3-ds1``, ``fig6-ds3``,
``serve-ds3`` (see ``perfbench/README.md``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is the result object; the lines before it
give the run context, reference numbers and a readable table.  Exits 2
without a result when the ``repro`` sources are not beside ``perfbench/``.
"""

import os

# Pinned before NumPy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = bench.execute(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace),
    )
    result, ctx = report["result"], report["context"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{ctx['passes']} untraced + {ctx['traced_passes']} traced passes, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for op, reason in report["failures"].items():
        print(f"FAILED {op}: {reason}", file=sys.stderr)
    print("context " + json.dumps(ctx))
    print("reference " + json.dumps(report["reference"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
