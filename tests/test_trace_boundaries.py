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


def test_engine_record_is_the_trajectory_the_tracer_reads():
    # the sde.engine span counts steps and path-steps off _run_batched's
    # record (layers._engine_counts reads len(t) and final.shape[0]): pin
    # that record here, and run_sde as its column 0, bit for bit
    import importlib.util

    import numpy as np

    from ans2d.det import Trajectory
    from ans2d.noise import make_model
    from ans2d.sde import DIAG_NAMES, SdeConfig, _run_batched, draw_increments, run_sde
    from ans2d.spectral import TorusGrid, random_solenoidal_field

    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    grid = TorusGrid(16, 16)
    u0 = random_solenoidal_field(grid, band=3, amplitude=1.0, rng=np.random.default_rng(4))
    model = make_model(["0.05*cos(0,1)"], ["0.05*cos(1,0)"], "tanh")
    cfg = SdeConfig(dt=2e-3, t_end=0.01, galerkin_n=9, seed=5)
    run = _run_batched(u0.coeffs, grid, model, cfg, draw_increments(model, cfg, range(3)))
    assert isinstance(run, Trajectory) and run.config is cfg
    assert len(run.t) == cfg.n_steps + 1
    assert run.final.shape == (3, 9)
    assert set(run.diag) == set(DIAG_NAMES)
    assert all(col.shape == (cfg.n_steps + 1, 3) for col in run.diag.values())
    assert layers._engine_counts((), {}, run) == {"steps": cfg.n_steps,
                                                  "path_steps": 3 * cfg.n_steps}
    one = run_sde(u0, model, cfg)
    assert isinstance(one, Trajectory)
    assert one.final.tobytes() == run.final[0].tobytes()
    for name, col in run.diag.items():
        assert one.diag[name].tobytes() == col[:, 0].tobytes(), name
