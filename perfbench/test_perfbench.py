"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench

Every benchmark run happens in subprocesses, so the tracer's rebinding never
touches the ans2d modules of the test process.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """Run run.py once per distinct argument set; returns (code, last line, record)."""
    cache: dict[tuple, tuple] = {}

    def run(workload: str, seed: int, trace: int, tiny: bool = True):
        key = (workload, seed, trace, tiny)
        if key not in cache:
            out = tmp_path_factory.mktemp("rec") / "record.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                   "--out", str(out)] + (["--tiny"] if tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            record = json.loads(out.read_text()) if out.exists() else None
            cache[key] = (proc, last, record)
        return cache[key]

    return run


def test_benchmark_json_matches_workloads():
    assert NAMES == list(workloads.WORKLOADS)
    ref = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    assert sorted(ref["workloads"]) == sorted(NAMES)
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for row in ref["predictions"]:
        assert set(row["layer_metrics"]) <= per_layer
        assert set(row["end_to_end"]) <= end_to_end
        assert set(row["moves_on"] + row["flat_on"]) <= set(NAMES)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_smoke_run(bench_run, workload):
    proc, last, record = bench_run(workload, workloads.DEFAULT_SEED, 0)
    assert proc.returncode == 0, proc.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    # each repetition is a fresh process: the same seed gives identical numbers
    numbers = record["numbers"]
    assert len(numbers) >= 3 and numbers[0] and all(n == numbers[0] for n in numbers)
    assert set(record["facts"]) >= {"nproc", "cpu_model", "python", "numpy", "scipy",
                                     "numba", "blas", "OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS"}


@pytest.mark.parametrize("workload", ["ens16_add", "ens16_tanh"])
def test_other_seed_changes_c_hat_and_still_passes(bench_run, workload):
    _, _, base = bench_run(workload, workloads.DEFAULT_SEED, 0)
    proc, last, other = bench_run(workload, workloads.DEFAULT_SEED + 1, 0)
    assert proc.returncode == 0 and last["correct"], proc.stderr
    for level in ("8", "16", "32"):
        assert other["numbers"][0][f"c_hat.{level}"] != base["numbers"][0][f"c_hat.{level}"]


def test_full_size_default_seed_matches_reference(bench_run):
    proc, last, record = bench_run("mode_law", workloads.DEFAULT_SEED, 0, tiny=False)
    assert proc.returncode == 0 and last["correct"], proc.stdout + proc.stderr
    ref = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    for key, want in ref["workloads"]["mode_law"]["reference"].items():
        assert record["numbers"][0][key] == pytest.approx(want, rel=ref["rel_tol"])


def _layers(bench_run, workload):
    proc, last, _ = bench_run(workload, workloads.DEFAULT_SEED, 1)
    assert proc.returncode == 0 and last["correct"], proc.stderr
    assert list(last["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    return {name: m["value"] for name, m in last["metrics"].items()}


@pytest.mark.parametrize("workload", ["det64", "ens16_add", "ens16_tanh"])
def test_two_advections_per_step(bench_run, workload):
    assert _layers(bench_run, workload)["spectral.advection.per_step"] == 2.0


def test_det64_counts(bench_run):
    m = _layers(bench_run, "det64")
    steps = 20
    assert m["det.run.calls"] == 1
    assert m["det.drift.calls"] == steps  # second IF-RK2 stage
    assert m["spectral.advection.calls"] == 2 * steps + 1
    assert m["cli.csv.calls"] == 1 and m["cli.csv.bytes"] > 0
    assert m["snapshots.write.calls"] == 1
    assert m["snapshots.write.bytes"] == 20 + 2 * 64 * 64 * 8
    for name in ("sde.engine.calls", "noise.sigma.calls", "noise.wiener.calls",
                 "basis.galerkin.calls", "ensemble.level.calls"):
        assert m[name] == 0, name


@pytest.mark.parametrize("workload", ["ens16_add", "ens16_tanh"])
def test_ensemble_counts(bench_run, workload):
    m = _layers(bench_run, workload)
    levels, paths, steps = 3, 2, 10
    assert m["ensemble.level.calls"] == levels
    assert m["sde.engine.calls"] == levels
    assert m["sde.engine.path_steps"] == levels * paths * steps
    assert m["noise.wiener.calls"] == levels * paths
    assert m["noise.wiener.draws"] == levels * paths * steps * 2  # two channels
    assert m["sde.drift.calls"] == m["sde.noise_increment.calls"] == levels * steps
    assert m["sde.diag_row.calls"] == m["sde.hs_sq.calls"] == levels * (steps + 1)
    assert m["sde.weighted_series.calls"] == levels * paths
    assert m["basis.enumerate_pairs.calls"] == m["basis.galerkin.calls"] > 0
    assert m["cli.csv.calls"] == 1 and m["snapshots.write.calls"] == 0
    assert m["det.run.calls"] == 0
    assert 0.0 < m["sde.diag_share"] < 1.0


def test_sigma_synthesized_per_step_only_for_multiplicative_noise(bench_run):
    # additive noise runs _sigma_raw once per engine run, to precompute the
    # channels, and never inside a step
    m = _layers(bench_run, "mode_law")
    assert m["noise.sigma.calls"] == m["sde.engine.calls"] == 2
    m = _layers(bench_run, "ens16_add")
    assert m["noise.sigma.calls"] == m["sde.engine.calls"] == 3
    m = _layers(bench_run, "ens16_tanh")
    levels, steps = 3, 10
    # one sigma per noise increment, one per channel (two) per hs_sq
    assert m["noise.sigma.calls"] == levels * (steps + 2 * (steps + 1))


def test_mode_law_counts(bench_run):
    m = _layers(bench_run, "mode_law")
    paths, steps = 20, 50
    assert m["spectral.advection.calls"] == 0
    assert m["spectral.advection.per_step"] == 0.0
    assert m["sde.engine.calls"] == 2
    assert m["sde.engine.path_steps"] == 2 * paths * steps
    assert m["noise.wiener.calls"] == 2 * paths
    assert m["sde.diag_row.calls"] == m["sde.hs_sq.calls"] == 0
    assert m["sde.diag_share"] == 0.0
    assert m["cli.csv.calls"] == 0


def test_install_rebinds_every_import_site(tmp_path):
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import ans2d, ans2d.cli, layers\n"
        "print(json.dumps(layers.install(layers.Tracer())))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    sites = json.loads(proc.stdout)
    expected = {
        "spectral.leray": ["ans2d.spectral._leray_raw", "ans2d.basis._leray_raw"],
        "basis.galerkin": ["ans2d.basis.galerkin_project_raw", "ans2d.sde.galerkin_project_raw"],
        "noise.wiener": ["ans2d.noise.sample_wiener_increment",
                         "ans2d.sde.sample_wiener_increment",
                         "ans2d.ensemble.sample_wiener_increment"],
        "sde.engine": ["ans2d.sde._run_batched", "ans2d.ensemble._run_batched"],
        "sde.weighted_series": ["ans2d.sde.weighted_h01_series",
                                "ans2d.ensemble.weighted_h01_series"],
        "snapshots.write": ["ans2d.snapshots.write_snapshot", "ans2d.cli.write_snapshot"],
        "sde.hs_sq": ["ans2d.sde._Stepper.hs_sq"],
        "config.load": ["ans2d.config.load_config", "ans2d.cli.load_config"],
    }
    for span, names in expected.items():
        assert set(names) <= set(sites[span]), span
    assert all(sites[span] for span in sites)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "det64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_runs_passes_through_the_window():
    import refkernel

    sampler = refkernel.Sampler()
    start = time.perf_counter()
    with sampler:
        while time.perf_counter() - start < 0.55:
            sum(range(1000))
    assert len(sampler.passes) >= 4
    assert sum(sampler.passes) <= sampler.spent_s < time.perf_counter() - start


def test_compare_refuses_differing_facts(bench_run):
    _, _, record = bench_run("mode_law", workloads.DEFAULT_SEED, 0)
    code, lines = compare.compare([record], [record], BENCH)
    assert code == 0 and any("within bound" in line for line in lines)
    for key, value in (("facts", None), ("seconds", record["seconds"] + 1),
                       ("tiny", not record["tiny"])):
        other = json.loads(json.dumps(record))
        if key == "facts":
            other["facts"]["OPENBLAS_NUM_THREADS"] = "2"
        else:
            other[key] = value
        code, lines = compare.compare([record], [other], BENCH)
        assert code == 2 and lines[0].startswith("refused"), key


def test_compare_spread_is_the_run_summary_spread():
    values = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 2.0]
    s = run.summarize(values)
    assert compare._spread(values) == (s["q3"] - s["q1"]) / s["median"]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["q3"]) == (q1, q3)
