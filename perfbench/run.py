#!/usr/bin/env python3
"""axionkit benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every metric of every workload
    python3 perfbench/run.py --smoke            # tiny sizes, asserts every metric

Load is a closed loop: one fresh interpreter per pass (perfbench/child.py),
one pass at a time, until ``--seconds`` have passed and at least
MIN_PASSES passes ran.  Each pass process imports axionkit from ``src``,
makes its inputs from the seed and runs the workload's operations once.
BLAS threads are capped at the number of usable cores.

With ``--trace 0`` the metrics are the medians over passes of set-up
time, pass wall and CPU time and the pass process's peak RSS.  With
``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics (medians over passes) and the difference of the
two wall-time medians is ``trace.overhead_s``.

The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with the environment
block, goes to perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("figures", "year-search", "carrier-scan")
DEADLINE_S = 165.0  # a run must end within 180 s
MIN_PASSES = 3  # untraced passes per --trace 0 run
MIN_PAIRS = 2  # untraced/traced pairs per --trace 1 run

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(usable_cores())
    return env


def run_pass(workload: str, seed: int, size: str, trace: int, deadline: float) -> dict:
    """Run one pass in a fresh process and collect what it measured."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    result_path = workdir.with_suffix(".json")
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", str(trace), "--workdir", str(workdir), "--result", str(result_path),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - spawned),
        )
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise BenchError(f"{workload} pass exited {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        if trace:
            result["spans"] = json.loads((workdir / "spans.json").read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish before the run deadline") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
    ops = result["ops"]
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = sum(op["wall_s"] for op in ops)
    result["cpu_s"] = sum(op["cpu_s"] for op in ops)
    return result


def tail_percentile(values) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11], "n": n}


def layer_metrics(spans) -> dict:
    from tracer import ALLOC_LAYERS, COUNTERS, LAYERS, layer_stats

    stats = layer_stats(spans)
    empty = {"self_s": 0.0, "calls": 0, "alloc_mb": 0.0, "counts": {}}
    metrics = {}
    for layer in LAYERS:
        entry = stats.get(layer, empty)
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
        if layer in ALLOC_LAYERS:
            metrics[f"{layer}.alloc_mb"] = entry["alloc_mb"]
        for count in COUNTERS.get(layer, {}):
            metrics[f"{layer}.{count}"] = entry["counts"].get(count, 0)
    metrics["timeseries.csv.rows"] = metrics.pop("timeseries.to_csv.rows") + metrics.pop(
        "timeseries.from_csv.rows"
    )
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
            min_passes: int | None = None) -> dict:
    """Run passes until ``seconds`` have passed; return the full record."""
    if min_passes is None:
        min_passes = MIN_PAIRS if trace else MIN_PASSES
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    while True:
        plain.append(run_pass(workload, seed, size, 0, deadline))
        if trace:
            traced.append(run_pass(workload, seed, size, 1, deadline))
        now = time.monotonic()
        per_round = (now - start) / len(plain)
        # start another round only if it is expected to end within the
        # measuring time, so a run lasts about --seconds whatever the pass length
        if len(plain) >= min_passes and now + per_round > start + seconds:
            break
        if now + per_round > deadline:
            raise BenchError(f"{workload}: passes too slow to finish within {DEADLINE_S} s")

    ops = [op for p in plain + traced for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    walls = [p["wall_s"] for p in plain]
    median = statistics.median
    metrics = {
        "setup_s": median(p["setup_s"] for p in plain),
        "wall_s": median(walls),
        "cpu_s": median(p["cpu_s"] for p in plain),
        "peak_rss_mb": median(p["maxrss_mb"] for p in plain),
        "failed_frac": len(failed) / len(ops),
    }
    units = dict(E2E_UNITS)
    if trace:
        per_pass = [layer_metrics(p["spans"]) for p in traced]
        for name in per_pass[0]:
            units[name] = layer_unit(name)
            # counts repeat exactly; median_low keeps them whole numbers
            pick = statistics.median_low if units[name] == "count" else median
            metrics[name] = pick(m[name] for m in per_pass)
        metrics["trace.overhead_s"] = median(p["wall_s"] for p in traced) - metrics["wall_s"]
        units["trace.overhead_s"] = "s"

    op_names = [op["op"] for op in plain[0]["ops"]]
    record = {
        "workload": workload,
        "size": size,
        "trace": trace,
        "environment": environment(seed, plain[0]["versions"]),
        "attempted": len(ops),
        "failed": len(failed),
        "problems": sorted({f"{op['op']}: {msg}" for op in failed for msg in op["problems"]}),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "wall_s_tail": tail_percentile(walls),
        "samples": {
            "passes": len(plain),
            "traced_passes": len(traced),
            "setup_s": [p["setup_s"] for p in plain],
            "wall_s": walls,
            "cpu_s": [p["cpu_s"] for p in plain],
            "peak_rss_mb": [p["maxrss_mb"] for p in plain],
        },
        "op_wall_s": {
            name: median(p["ops"][i]["wall_s"] for p in plain) for i, name in enumerate(op_names)
        },
    }
    if workload == "figures":
        digests = [p["digests"] for p in plain + traced]
        record["artifact_sha256"] = digests[0]
        record["artifacts_identical_across_passes"] = all(d == digests[0] for d in digests)
    if trace:
        record["spans_last_traced_pass"] = traced[-1]["spans"]
    return record


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int, versions: dict) -> dict:
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": usable_cores(),
        "ram_mb": int(mem.split()[0]) // 1024 if mem else None,
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        **versions,
        "blas_thread_cap": usable_cores(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def save(record: dict, seed: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{record['workload']}-seed{seed}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def result_line(record: dict, names) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: record["metrics"][name] for name in names},
        }
    )


def print_table(record: dict, out=sys.stdout) -> None:
    print(f"== {record['workload']} (trace {record['trace']}, "
          f"{record['samples']['passes']} passes, {record['attempted']} operations)", file=out)
    for name, metric in record["metrics"].items():
        print(f"  {name:45s} {metric['value']:>14.6g} {metric['unit']}", file=out)
    tail = record["wall_s_tail"]
    if tail is None:
        print("  wall_s tail: fewer than 11 passes, none reported", file=out)
    else:
        print(f"  wall_s p{tail['percentile']:.0f}: {tail['value']:.6g} s (n={tail['n']})", file=out)
    for problem in record["problems"]:
        print(f"  FAILED {problem}", file=out)


def smoke(spec: dict) -> int:
    """Every workload at a tiny size: each metric is emitted with its unit."""
    from tracer import LAYERS

    errors = []
    called = set()
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record = measure(workload, 1, 0.0, trace, size="tiny", min_passes=1)
            print_table(record, out=sys.stderr)
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            wanted["failed_frac"] = E2E_UNITS["failed_frac"]
            for name, unit in wanted.items():
                got = record["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    errors.append(f"{workload} trace {trace}: {name} [{unit}] missing, got {got}")
            if record["failed"]:
                errors.append(f"{workload} trace {trace}: {record['problems']}")
            called |= {
                layer for layer in LAYERS if record["metrics"].get(f"{layer}.calls", {}).get("value")
            }
    errors += [f"layer {layer} never ran on any workload" for layer in LAYERS if layer not in called]
    for error in errors:
        print(f"smoke: {error}", file=sys.stderr)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check every metric")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "axionkit" / "__init__.py").is_file():
        print(f"run.py: no axionkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(HERE))
    try:
        if args.smoke:
            return smoke(spec)
        if args.workload == "all":
            failed = 0
            for workload in WORKLOADS:
                for trace in (0, 1):
                    record = measure(workload, args.seed, seconds, trace)
                    save(record, args.seed)
                    print_table(record)
                    failed += record["failed"]
            return 1 if failed else 0
        record = measure(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    path = save(record, args.seed)
    print_table(record, out=sys.stderr)
    print(f"full record: {path.relative_to(ROOT)}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    print(result_line(record, [m["name"] for m in spec[section]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
