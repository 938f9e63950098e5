"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import tail_percentile  # noqa: E402
from tracer import layer_stats  # noqa: E402


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": -1, "alloc_mb": None, "counts": {}},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "alloc_mb": 2.0, "counts": {"n": 5}},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1, "alloc_mb": None, "counts": {}},
        {"name": "b", "start": 5.0, "end": 6.0, "parent": 0, "alloc_mb": 3.0, "counts": {"n": 7}},
    ]
    stats = layer_stats(spans)
    assert stats["a"]["self_s"] == 6.0
    assert stats["b"]["self_s"] == 3.0
    assert stats["b"]["calls"] == 2
    assert stats["b"]["alloc_mb"] == 3.0
    assert stats["b"]["counts"] == {"n": 12}
    assert stats["c"]["self_s"] == 1.0


def test_tail_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(10))) is None
    tail = tail_percentile(list(range(20)))
    assert tail == {"percentile": 50.0, "value": 9, "n": 20}
