"""qibg benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; the library is
imported from the checkout's ``src`` and nowhere else.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The lines before it give the run's metadata
and a readable table.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # fresh interpreters timed for setup_s, besides this one


def _import_qibg() -> float:
    """Import the checkout's qibg on one thread; returns the seconds the
    import took."""
    # One client, one thread: no campaign thread pool, no BLAS threads.
    # The set-up probes inherit this environment.
    os.environ.pop("QIBG_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    try:
        import qibg
    except ImportError as e:
        sys.exit(f"cannot import qibg from {SRC}: {e}")
    import_s = perf_counter() - t0
    if not Path(qibg.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"qibg was imported from {qibg.__file__}, not from {SRC}")
    return import_s


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args) -> dict:
    import numpy  # already loaded by qibg; importing it earlier would hide it from setup_s

    sources = hashlib.sha256()
    for path in sorted((SRC / "qibg").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": sources.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    args = parser.parse_args(argv)

    # set-up time is rescaled by reference samples taken before and after it
    speed_before = reference.samples(reference.SPAN)
    import_s = _import_qibg()
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        _, setup_s = bench.setup_workload(args.workload, args.seed)
        speed = speed_before + reference.samples(reference.SPAN)
        print((import_s + setup_s) * reference.scale(speed))
        return 0

    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                import_s=import_s, speed_before=speed_before,
                                setup_probes=SETUP_PROBES)
    print(json.dumps({"meta": _metadata(args)}, sort_keys=True))
    for name, (value, unit) in {**result.metrics, **result.extra}.items():
        note = "  (not in BENCHMARK.json)" if name in result.extra else ""
        print(f"{name:48s} {value:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
