"""Benchmark entry point.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload qr-service --seed 1 --seconds 20 --trace 0

The process pins itself to one CPU of its affinity set before NumPy or
the program is imported, so BLAS threads, the daemon's threads and every
forked worker share that CPU with the reference loop. The program is
imported from ``src/`` of the checkout and nowhere else: without it the
benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

T_PROCESS = time.perf_counter()
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from perfbench.workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro", file=sys.stderr)
        return 2
    affinity = sorted(os.sched_getaffinity(0))
    cpu = affinity[-1]
    os.sched_setaffinity(0, {cpu})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if sys.path and pathlib.Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)
    sys.path[:0] = [str(ROOT), str(src)]

    import repro
    from perfbench import bench

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    return bench.main(args, ROOT, affinity, cpu, T_PROCESS)


if __name__ == "__main__":
    sys.exit(main())
