"""One pass of one workload in a fresh interpreter; started by run.py.

The process imports axionkit from the checkout's ``src`` directory,
makes the workload's inputs from the seed, notes the monotonic time of
its first timed operation, runs every operation once with its check,
and writes one JSON result.  With ``--trace 1`` it first wraps the
traced layers and also writes the spans, once, at the end.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_axionkit():
    sys.path.insert(0, str(ROOT / "src"))
    import axionkit

    if not Path(axionkit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"axionkit imported from {axionkit.__file__}, not {ROOT / 'src'}")


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def run_ops(ops, state) -> list:
    records = []
    for name, run, check in ops:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result, problems = run(state), None
        except Exception as exc:  # an exception in axionkit is a failed operation
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if problems is None:
            try:
                problems = check(state, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        del result
        records.append({"op": name, "wall_s": wall, "cpu_s": cpu, "problems": problems})
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    _import_axionkit()
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    import workloads

    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True)
    os.chdir(workdir)  # the CLI writes under relative --out directories
    setup, make_ops = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, args.size, workdir)
    ops = make_ops(state)

    ready = time.monotonic()
    records = run_ops(ops, state)
    state.clear()
    result = {
        "ready": ready,
        "ops": records,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if args.workload == "figures":
        result["digests"] = workloads.artifact_digests(workdir)
    if tracer is not None:
        tracer.dump(workdir / "spans.json")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
