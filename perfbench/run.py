"""End-to-end serving benchmark: closed-loop clients through ``ServingFrontend``.

Run from the repository root::

    python3 perfbench/run.py                                   # every workload, untraced
    python3 perfbench/run.py --workload cold_mixed --seed 3
    python3 perfbench/run.py --workload hot_reads --trace 1    # per-layer metrics

An untraced run prints the workload's settings, what it measured, every
end-to-end metric by name and unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A traced run prints
the per-layer metrics instead and writes its spans to
``perfbench/out/spans-<workload>.npz``.  The exit code is non-zero when
any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print("== {}".format(name), flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = _arguments(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SOURCE / "repro").is_dir():
        print("no program source at {}; run from a full checkout".format(SOURCE),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    if args.workload == "all":
        return _run_all(args)

    from harness import run_traced, run_untraced
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    print("workload {} seed {} seconds {:g} trace {}".format(
        workload.name, args.seed, args.seconds, args.trace), flush=True)
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        report = run_traced(workload, args.seed, args.seconds,
                            spans_path=out / "spans-{}.npz".format(workload.name))
    else:
        report = run_untraced(workload, args.seed, args.seconds)
    for line in report.lines:
        print(line)
    print(json.dumps(report.result()), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
