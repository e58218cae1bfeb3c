"""The benchmark workloads: their configs, how each runs, what each checks.

Shapes follow the acceptance criteria they come from; the benchmark only
sizes path counts and run length (t_end).  Every workload is driven through
the same config loader the CLI uses, so config loading is part of each
run's set-up.

This module imports nothing heavy: the child process times the imports of
numpy, scipy and ans2d itself.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# seed at which verdict numbers are compared with reference.json
DEFAULT_SEED = 1

# criterion 10 grid, init, levels and batch; n_paths is one full batch
ENSEMBLE_SHAPE = """\
grid.n1 = 16
grid.n2 = 16
init.kind = random
init.band = 1
sde.dt = 2e-3
sde.galerkin_n = 8
ensemble.levels = 8,16,32
ensemble.batch = 250
ensemble.n_paths = 250
"""

WORKLOADS: dict[str, dict] = {
    # criterion 03/04 config
    "det64": {
        "command": "run-det",
        "config": """\
grid.n1 = 64
grid.n2 = 64
init.kind = random
init.band = 4
det.dt = 1e-3
det.t_end = 1.0
det.integrator = if-rk2
""",
        "tiny": "det.t_end = 0.02\n",
    },
    # criterion 10: one full batch of 250 paths per level; the run length
    # (t_end) is cut from 0.5 so that a repetition takes a few seconds
    "ens16_add": {
        "command": "ensemble",
        "config": ENSEMBLE_SHAPE + """\
noise.b_recipes = 0.1*cos(1,0); 0.05*sin(0,1)
noise.g = one
sde.t_end = 0.04
""",
        "tiny": "ensemble.n_paths = 2\nsde.t_end = 0.02\n",
    },
    # criterion 10 shape with criterion 09 noise; band-1 init keeps the
    # level-8 uniformity verdict.  sigma(u) costs about twice the additive
    # step, so the run length is half of ens16_add's
    "ens16_tanh": {
        "command": "ensemble",
        "config": ENSEMBLE_SHAPE + """\
noise.c_recipes = 0.05*cos(0,1)
noise.b_recipes = 0.05*cos(1,0); 0.02*sin(1,1)
noise.g = tanh
sde.t_end = 0.02
""",
        "tiny": "ensemble.n_paths = 2\nsde.t_end = 0.02\n",
    },
    # criterion 08: library calls, no CLI; n_paths per validation
    "mode_law": {
        "command": None,
        "config": """\
sde.dt = 1e-3
sde.t_end = 2.0
sde.galerkin_n = 4
sde.drop_nonlinearity = true
""",
        "tiny": "sde.t_end = 0.05\n",
        "n_paths": 500,
        "tiny_n_paths": 20,
    },
}

ENSEMBLE_CSV_COLUMNS = (
    "level", "n_paths", "est_sup_l2_sq", "se_sup_l2_sq", "est_int_h10_sq",
    "se_int_h10_sq", "est_sup_l2_4th", "se_sup_l2_4th", "est_sup_weighted_h01",
    "se_sup_weighted_h01", "est_int_weighted_h11", "se_int_weighted_h11", "c_hat",
    "existence_gate", "uniqueness_gate",
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def config_text(name: str, seed: int, tiny: bool) -> str:
    """Config file for one run; later lines override earlier ones."""
    spec = WORKLOADS[name]
    text = spec["config"]
    if spec["command"] is None:
        text += f"sde.seed = {seed}\n"
    if tiny:
        text += spec["tiny"]
    return text


def run(name: str, ans2d_cli, cfg: dict, config_path: Path, out: Path,
        seed: int, tiny: bool) -> dict:
    """Execute the workload; this call is the timed window.

    Returns the raw outcome: the exit code and, for library workloads, the
    reports themselves (CLI workloads leave theirs in manifest.json).
    """
    spec = WORKLOADS[name]
    if spec["command"] is not None:
        code = ans2d_cli.main([spec["command"], "--config", str(config_path),
                               "--out", str(out), "--seed", str(seed)])
        return {"exit_code": code}
    from ans2d.sde import SdeConfig, ou_mode_validation, undamped_mode_validation

    scfg = SdeConfig(dt=cfg["sde.dt"], t_end=cfg["sde.t_end"],
                     galerkin_n=cfg["sde.galerkin_n"], seed=cfg["sde.seed"],
                     drop_nonlinearity=cfg["sde.drop_nonlinearity"])
    n_paths = spec["tiny_n_paths"] if tiny else spec["n_paths"]
    damped = ou_mode_validation((1, 0), s=1.0, m0=0.04, n_paths=n_paths, cfg=scfg)
    undamped = undamped_mode_validation((0, 1), s=1.0, n_paths=n_paths, cfg=scfg)
    return {"exit_code": 0, "reports": {"damped": damped, "undamped": undamped}}


def n_steps(name: str, cfg: dict) -> int:
    from ans2d.det import DetConfig
    from ans2d.sde import SdeConfig

    if WORKLOADS[name]["command"] == "run-det":
        return DetConfig(dt=cfg["det.dt"], t_end=cfg["det.t_end"]).n_steps
    return SdeConfig(dt=cfg["sde.dt"], t_end=cfg["sde.t_end"]).n_steps


def path_steps(name: str, cfg: dict, tiny: bool) -> int:
    """Paths x steps summed over levels and tests; det64 counts as one path."""
    spec = WORKLOADS[name]
    steps = n_steps(name, cfg)
    if spec["command"] == "run-det":
        return steps
    if spec["command"] == "ensemble":
        return cfg["ensemble.n_paths"] * len(cfg["ensemble.levels"]) * steps
    n_paths = spec["tiny_n_paths"] if tiny else spec["n_paths"]
    return 2 * n_paths * steps


# ---------------------------------------------------------------------------
# correctness checks


def verdict_numbers(name: str, outcome: dict, out: Path) -> tuple[dict, dict]:
    """(boolean verdicts, key numbers) of one run."""
    if "reports" in outcome:
        reps = outcome["reports"]
        flags = {f"{k}.passed": bool(r.passed) for k, r in reps.items()}
        numbers = {f"{k}.second_moment": float(r.second_moment) for k, r in reps.items()}
        return flags, numbers
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    verdicts = manifest["verdicts"]
    flags = {k: v for k, v in verdicts.items() if isinstance(v, bool)}
    flags["manifest.exit_code_zero"] = manifest["exit_code"] == 0
    if WORKLOADS[name]["command"] == "run-det":
        numbers = {k: verdicts[k] for k in ("energy_rel_residual", "c_emp_sup")}
    else:
        numbers = {f"c_hat.{lvl}": v for lvl, v in verdicts["c_hat"].items()}
    return flags, numbers


def check(name: str, outcome: dict, cfg: dict, out: Path, seed: int,
          tiny: bool) -> tuple[list[list], dict]:
    """Run every correctness check; returns ([name, ok, detail] rows, numbers)."""
    rows: list[list] = []

    def add(label: str, ok: bool, detail: str = "") -> None:
        rows.append([label, bool(ok), detail])

    add("exit_code", outcome["exit_code"] == 0, f"exit code {outcome['exit_code']}")
    if outcome["exit_code"] != 0:
        return rows, {}
    flags, numbers = verdict_numbers(name, outcome, out)
    for label, ok in flags.items():
        add(f"verdict.{label}", ok)

    command = WORKLOADS[name]["command"]
    if command == "run-det":
        from ans2d.cli import DET_CSV_COLUMNS
        from ans2d.snapshots import read_snapshot

        steps = n_steps(name, cfg)
        _check_csv(add, out / "det_series.csv", DET_CSV_COLUMNS, steps + 1)
        field, t = read_snapshot(out / "final_state.ans2")
        add("snapshot", (field.grid.n1, field.grid.n2) == (cfg["grid.n1"], cfg["grid.n2"])
            and math.isclose(t, steps * cfg["det.dt"], rel_tol=1e-12),
            f"grid {field.grid.n1}x{field.grid.n2}, t={t!r}")
    elif command == "ensemble":
        _check_csv(add, out / "ensemble_moments.csv", ENSEMBLE_CSV_COLUMNS,
                   len(cfg["ensemble.levels"]))

    if seed == DEFAULT_SEED and not tiny:
        ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        tol = ref["rel_tol"]
        for key, want in ref["workloads"][name]["reference"].items():
            got = numbers.get(key)
            ok = got is not None and math.isclose(got, want, rel_tol=tol, abs_tol=0.0)
            add(f"reference.{key}", ok, f"got {got!r}, want {want!r} (rel tol {tol})")
    return rows, numbers


def _check_csv(add, path: Path, columns, n_rows: int) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    header = table[0] if table else []
    add("csv_header", header == list(columns), f"{path.name}: {header}")
    add("csv_rows", len(table) - 1 == n_rows, f"{path.name}: {len(table) - 1} rows, want {n_rows}")
