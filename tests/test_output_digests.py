"""Byte-identity gate: the outputs of a fixed list of small runs against a recorded table.

Each case runs one CLI subcommand in process (or, for the single-mode
law, its two library calls) and compares the SHA-256 digest of every
output file with the table output_digests.json beside this file.  The cases are
the three CLI benchmark workload configs cut to a tiny t_end at seeds 1
and 2, a tanh and an additive run-sde (the additive one at an odd level),
det and sde uniqueness, a 24x16 if-rk4 run-det, and the repr of the
single-mode law's two second moments at its tiny size at seeds 1 and 2.

Bytes depend on the numpy and scipy builds (their FFTs and random
streams), so the table records the versions it was made with.  With other
versions installed the digests are not compared: each file's summary
numbers (per CSV column the sum of |x| and the last row; a snapshot's
time, sums and sums of squares) are compared at REL_TOL instead, and the
test says so in a warning.  A change that moves bits states it and
regenerates the table:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from ans2d.cli import main
from ans2d.sde import SdeConfig, ou_mode_validation, undamped_mode_validation
from ans2d.snapshots import read_snapshot

TABLE = Path(__file__).with_name("output_digests.json")
REL_TOL = 1e-6  # of the summary numbers, compared only when the versions differ

DET64 = """\
grid.n1 = 64
grid.n2 = 64
init.kind = random
init.band = 4
det.dt = 1e-3
det.t_end = 0.02
det.integrator = if-rk2
"""
ENSEMBLE = """\
grid.n1 = 16
grid.n2 = 16
init.kind = random
init.band = 1
sde.dt = 2e-3
sde.t_end = 0.02
sde.galerkin_n = 8
ensemble.levels = 8,16,32
ensemble.batch = 250
ensemble.n_paths = 250
"""
SMALL = """\
grid.n1 = 16
grid.n2 = 16
init.kind = random
init.band = 3
det.dt = 2e-3
det.t_end = 0.02
sde.dt = 2e-3
sde.t_end = 0.02
sde.galerkin_n = 16
"""
TANH = """\
noise.c_recipes = 0.05*cos(0,1)
noise.b_recipes = 0.05*cos(1,0); 0.02*sin(1,1)
noise.g = tanh
"""
ADDITIVE = """\
noise.b_recipes = 0.1*cos(1,0); 0.05*sin(0,1)
noise.g = one
"""
RK4 = """\
grid.n1 = 24
grid.n2 = 16
init.kind = random
init.band = 4
det.dt = 2e-3
det.t_end = 0.02
det.integrator = if-rk4
"""

# name -> (subcommand, config text, --seed)
CLI_CASES = {
    **{f"det64-seed{s}": ("run-det", DET64, s) for s in (1, 2)},
    **{f"ens16_add-seed{s}": ("ensemble", ENSEMBLE + ADDITIVE, s) for s in (1, 2)},
    **{f"ens16_tanh-seed{s}": ("ensemble", ENSEMBLE + TANH, s) for s in (1, 2)},
    "run_sde-tanh": ("run-sde", SMALL + TANH, 1),
    "run_sde-additive-odd": ("run-sde", SMALL + ADDITIVE + "sde.galerkin_n = 15\n", 1),
    "uniqueness-det": ("uniqueness", SMALL + "uniqueness.kind = det\n", 1),
    "uniqueness-sde": ("uniqueness", SMALL + TANH + "uniqueness.kind = sde\n"
                       "sde.galerkin_n = 12\n", 1),
    "run_det-rk4-24x16": ("run-det", RK4, 1),
}
MODE_LAW_SEEDS = {f"mode_law-seed{s}": s for s in (1, 2)}
CASES = tuple(CLI_CASES) + tuple(MODE_LAW_SEEDS)


def _summary(path: Path) -> list[float]:
    """Numbers that stand for a file when its bytes cannot be compared."""
    if path.suffix == ".ans2":
        field, t = read_snapshot(path)
        s = field.samples
        return [t, *np.sum(np.abs(s), axis=(1, 2)).tolist(), *np.sum(s * s, axis=(1, 2)).tolist()]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    words = {"true": 1.0, "false": 0.0}
    cols = np.array([[words[v] if v in words else float(v) for v in row]
                     for row in rows])
    return [*np.sum(np.abs(cols), axis=0).tolist(), *cols[-1].tolist()]


def _run_case(name: str, tmp: Path) -> dict[str, tuple[bytes, list[float]]]:
    """{output name: (its bytes, its summary numbers)} of one case."""
    if name in MODE_LAW_SEEDS:
        cfg = SdeConfig(dt=1e-3, t_end=0.05, galerkin_n=4, seed=MODE_LAW_SEEDS[name],
                        drop_nonlinearity=True)
        moments = [ou_mode_validation((1, 0), s=1.0, m0=0.04, n_paths=20, cfg=cfg).second_moment,
                   undamped_mode_validation((0, 1), s=1.0, n_paths=20, cfg=cfg).second_moment]
        return {"second_moments": (repr(moments).encode(), moments)}
    command, text, seed = CLI_CASES[name]
    config, out = tmp / "config.txt", tmp / "out"
    config.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(out), "--seed", str(seed)])
    assert code == 0, f"{name}: exit code {code}"
    outputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    return {f: ((out / f).read_bytes(), _summary(out / f)) for f in outputs}


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_recorded_table(name, table, tmp_path):
    want = table["cases"][name]
    got = _run_case(name, tmp_path)
    assert sorted(got) == sorted(want), name
    versions = _versions()
    if versions == table["versions"]:
        for f, (data, _) in got.items():
            assert hashlib.sha256(data).hexdigest() == want[f]["sha256"], f"{name}: {f} moved"
        return
    warnings.warn(f"{name}: digests not compared (table made with {table['versions']}, "
                  f"installed {versions}); summary numbers compared at rel_tol {REL_TOL}")
    for f, (_, numbers) in got.items():
        assert len(numbers) == len(want[f]["summary"]), f"{name}: {f}"
        for g, w in zip(numbers, want[f]["summary"]):
            assert math.isclose(g, w, rel_tol=REL_TOL), f"{name}: {f}: {g!r} against {w!r}"


def test_other_versions_compare_numbers_and_say_so(table, tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "_versions", lambda: {"numpy": "0", "scipy": "0"})
    with pytest.warns(UserWarning, match="digests not compared"):
        test_outputs_match_the_recorded_table("run_det-rk4-24x16", table, tmp_path)


def _write_table(tmp: Path) -> None:
    cases = {}
    for name in CASES:
        case_dir = tmp / name
        case_dir.mkdir()
        cases[name] = {f: {"sha256": hashlib.sha256(data).hexdigest(), "summary": numbers}
                       for f, (data, numbers) in _run_case(name, case_dir).items()}
    table = {"regenerate": "PYTHONPATH=src python tests/test_output_digests.py",
             "versions": _versions(), "cases": cases}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE} ({len(cases)} cases, numpy {np.__version__}, "
          f"scipy {scipy.__version__})")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_table(Path(tmp))
