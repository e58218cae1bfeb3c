import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_boundary():
    # perfbench/layers.py wraps named ans2d functions (det._drift,
    # sde._run_batched, _Stepper.drift, ...) and raises when one is missing
    # or keeps an unwrapped import site; install rebinds module attributes,
    # so it runs in its own process, as the benchmark's child does
    script = ("import sys; sys.path.insert(0, 'perfbench'); "
              "import ans2d, ans2d.cli, layers; layers.install(layers.Tracer())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
