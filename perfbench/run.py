"""Benchmark entry point.

    python3 perfbench/run.py --workload tiny-train --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. `--workload all` runs every workload, each
in its own process. The last line of standard output is one JSON object:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Generated inputs, the cached evaluation checkpoint and trace files go to
`.bench_build/perfbench/` in the checkout.
"""

from __future__ import annotations

import ctypes
import os

# One BLAS thread, pinned before numpy loads: a closed loop on one core, with
# the machine's other core left to everything else.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc hands freed memory at the top of the heap back to the kernel, so
# whether a temporary array is faulted in afresh on every call depends on
# where earlier allocations happened to land: tiny-train evaluation ran
# either ~150k or ~200k frames/s depending on the seed. Fixed thresholds keep
# arrays under 32 MiB on a heap that is never trimmed.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PINNED = False
try:
    _libc = ctypes.CDLL(None)
    MALLOC_PINNED = bool(_libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) and _libc.mallopt(M_TRIM_THRESHOLD, 1 << 30))
except (OSError, AttributeError):
    pass

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("tiny-train", "paper-train", "paper-eval")


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={BLAS_THREADS} malloc_pinned={int(MALLOC_PINNED)}")


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        print(f"{name}: {lines[-1]}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [SRC, ROOT]
    try:
        import rmnlab
    except ImportError as exc:
        print(f"cannot import rmnlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(rmnlab.__file__)) != os.path.join(SRC, "rmnlab"):
        print(f"rmnlab resolved to {rmnlab.__file__}, not to this checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)

    from perfbench import workloads

    workdir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(workdir, exist_ok=True)
    print(environment())
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
