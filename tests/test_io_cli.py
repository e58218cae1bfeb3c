import csv
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fullgrid
from ans2d.cli import main
from ans2d.config import default_config, echo_config, load_config, parse_config
from ans2d.det import DetConfig
from ans2d.ensemble import EnsembleConfig
from ans2d.errors import ConfigError, SnapshotFormatError
from ans2d.sde import SdeConfig
from ans2d.snapshots import read_snapshot, write_snapshot
from ans2d.spectral import PhysicalField, TorusGrid


def _physical(u):
    """Samples of the field u, by full-grid inverse transform."""
    return PhysicalField(u.grid, fullgrid.samples(u.coeffs, u.grid))


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip(tmp_path, grid16, make_field):
    f = _physical(make_field(grid16, band=4, seed=1))
    path = tmp_path / "state.ans2"
    write_snapshot(path, f, 1.25)
    g, t = read_snapshot(path)
    assert t == 1.25
    assert g.grid.n1 == 16 and g.grid.n2 == 16
    np.testing.assert_array_equal(g.samples, f.samples)


def test_snapshot_short_file(tmp_path):
    path = tmp_path / "short.ans2"
    path.write_bytes(b"ANS2\x10")
    with pytest.raises(SnapshotFormatError) as info:
        read_snapshot(path)
    assert info.value.byte_offset == 5


def test_snapshot_bad_magic(tmp_path, grid16, make_field):
    f = _physical(make_field(grid16, band=3, seed=2))
    path = tmp_path / "state.ans2"
    write_snapshot(path, f, 0.0)
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError) as info:
        read_snapshot(path)
    assert info.value.byte_offset == 0


def test_snapshot_size_mismatch(tmp_path, grid16, make_field):
    f = _physical(make_field(grid16, band=3, seed=3))
    path = tmp_path / "state.ans2"
    write_snapshot(path, f, 0.0)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(SnapshotFormatError) as info:
        read_snapshot(path)
    assert info.value.byte_offset == len(data) - 8


def test_snapshot_bad_grid_header(tmp_path):
    import struct

    payload = struct.pack("<4sIId", b"ANS2", 5, 16, 0.0)
    path = tmp_path / "odd.ans2"
    path.write_bytes(payload)
    with pytest.raises(SnapshotFormatError) as info:
        read_snapshot(path)
    assert info.value.byte_offset == 4


def test_snapshot_nan_offset(tmp_path, grid16, make_field):
    f = _physical(make_field(grid16, band=3, seed=4))
    idx = (1, 2, 3)  # component 1, row 2, column 3
    f.samples[idx] = np.nan
    path = tmp_path / "state.ans2"
    write_snapshot(path, f, 0.0)
    with pytest.raises(SnapshotFormatError) as info:
        read_snapshot(path)
    flat = np.ravel_multi_index(idx, (2, 16, 16))
    assert info.value.byte_offset == 20 + 8 * flat


# ---------------------------------------------------------------------------
# config


def test_config_defaults_and_parse():
    cfg = parse_config("""
    # comment line
    grid.n1 = 24  # trailing comment
    det.dt = 5e-4
    noise.g = tanh
    ensemble.levels = 4, 8,16
    sde.drop_nonlinearity = yes
    """)
    assert cfg["grid.n1"] == 24
    assert cfg["grid.n2"] == default_config()["grid.n2"]
    assert cfg["det.dt"] == 5e-4
    assert cfg["ensemble.levels"] == (4, 8, 16)
    assert cfg["sde.drop_nonlinearity"] is True


@pytest.mark.parametrize("line,fragment", [
    ("grid.nx = 3", "unknown key"),
    ("grid.n1 = abc", "bad value"),
    ("grid.n1: 3", "expected"),
    ("det.integrator = rk9", "one of"),
    ("ensemble.levels = ", "bad value"),
    ("sde.drop_nonlinearity = maybe", "bad value"),
    # the gap slack and the Young weight have one source each, det.GAP_TOL and norms.YOUNG_WEIGHT
    ("uniqueness.tol = 0.5", "unknown key"),
    ("sde.alpha_tilde = 0.4", "unknown key"),
])
def test_config_rejects(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line)


def test_config_echo_round_trip():
    text = "grid.n1 = 24\ndet.dt = 0.00025\nnoise.c_recipes = 0.1*cos(0,1) ; 0.05\n"
    cfg = parse_config(text)
    echoed = echo_config(cfg)
    assert parse_config(echoed) == cfg
    # echo lists every key exactly once
    keys = [ln.split("=")[0].strip() for ln in echoed.splitlines() if "=" in ln]
    assert len(keys) == len(set(keys)) == len(default_config())


@pytest.mark.parametrize("prefix,cls", [("det", DetConfig), ("sde", SdeConfig),
                                        ("ensemble", EnsembleConfig)],
                         ids=["det", "sde", "ensemble"])
def test_config_section_keys_are_dataclass_fields(prefix, cls):
    # a section's keys build its dataclass by field name, so each names a
    # field and takes that field's default
    defaults = {f.name: f.default for f in fields(cls)}
    keys = {name.split(".", 1)[1]: value for name, value in default_config().items()
            if name.split(".", 1)[0] == prefix}
    assert keys and keys.keys() <= defaults.keys()
    assert keys == {name: defaults[name] for name in keys}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.cfg"))
    assert load_config(None) == default_config()


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, extra=""):
    text = """
grid.n1 = 16
grid.n2 = 16
init.kind = random
init.band = 3
init.seed = 5
det.dt = 2e-3
det.t_end = 0.05
sde.dt = 2e-3
sde.t_end = 0.05
sde.galerkin_n = 8
noise.c_recipes = 0.05*cos(0,1)
noise.b_recipes = 0.05*cos(1,0) ; 0.02*sin(1,1)
noise.g = tanh
ensemble.n_paths = 6
ensemble.levels = 8,12
ensemble.batch = 4
verify.n_fields = 4
verify.band = 4
""" + extra
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def _manifest(out):
    with open(out / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _assert_final_samples(state, traj):
    # the snapshot holds the final state's samples on the configured grid
    grid = traj.frame.grid
    assert state.grid == grid
    expected = fullgrid.samples(traj.frame.lift(traj.final), grid)
    assert np.max(np.abs(state.samples - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_cli_run_det(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "det"
    assert main(["run-det", "--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    assert man["command"] == "run-det"
    assert man["verdicts"]["energy_certificate"] is True
    assert man["verdicts"]["energy_rel_residual"] <= man["verdicts"]["energy_rel_tol"] == 1e-4
    assert set(man["outputs"]) == {"det_series.csv", "final_state.ans2"}
    with open(out / "det_series.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "l2_sq", "d1_sq", "d2_sq", "d1d2_sq", "int_d1_sq",
                      "int_d1d2_sq", "energy_residual", "c_emp", "weighted_h01"]
    state, t = read_snapshot(out / "final_state.ans2")
    assert t == pytest.approx(0.05)
    from ans2d.cli import _initial_field, _section
    from ans2d.det import run_det

    conf = load_config(cfg)
    traj = run_det(_initial_field(state.grid, conf), _section(conf, DetConfig, "det"))
    _assert_final_samples(state, traj)


def test_cli_run_sde(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "sde"
    assert main(["run-sde", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sde_series.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "l2_sq", "d1_sq", "d2_sq", "d1d2_sq", "int_d1_sq",
                      "int_d1d2_sq", "h_t", "weighted_h01", "noise_work",
                      "hs_norm_sq"]
    from ans2d.cli import _initial_field, _noise_model, _section
    from ans2d.sde import run_sde

    state, t = read_snapshot(out / "final_state.ans2")
    assert t == pytest.approx(0.05)
    conf = load_config(cfg)
    traj = run_sde(_initial_field(state.grid, conf), _noise_model(conf, state.grid),
                   _section(conf, SdeConfig, "sde"))
    _assert_final_samples(state, traj)


def test_cli_seed_override_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["run-sde", "--config", cfg, "--out", str(out1)])
    main(["run-sde", "--config", cfg, "--out", str(out2), "--seed", "99"])
    main(["run-sde", "--config", cfg, "--out", str(out3), "--seed", "99"])
    csv1 = (out1 / "sde_series.csv").read_bytes()
    csv2 = (out2 / "sde_series.csv").read_bytes()
    csv3 = (out3 / "sde_series.csv").read_bytes()
    assert csv1 != csv2
    assert csv2 == csv3  # byte-identical rerun
    assert _manifest(out2)["seeds"]["sde.seed"] == 99


def test_cli_verify_and_oracle(tmp_path):
    cfg = _write_cfg(tmp_path)
    for cmd, name in (("verify", "verify_report.csv"), ("oracle-check", "oracle_check.csv")):
        out = tmp_path / cmd
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
        man = _manifest(out)
        assert man["outputs"] == [name]
        assert man["verdicts"]["all_passed"] is True
    # the four fields cycle through the 16x16 ladder, one level each
    with open(tmp_path / "oracle-check" / "oracle_check.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["field", "level", "rel_err", "pass"]
    assert [row[1] for row in rows[1:]] == ["8", "16", "120", "8"]


def test_cli_uniqueness(tmp_path):
    cfg = _write_cfg(tmp_path, "uniqueness.kind = det\nuniqueness.perturbation = 1e-8\n")
    out = tmp_path / "uniq"
    assert main(["uniqueness", "--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    assert man["verdicts"]["passed"] is True and man["verdicts"]["kind"] == "det"


def test_cli_uniqueness_det_series_layout(tmp_path):
    # both kinds write (t, w_l2_sq, q, growth); the det exponent E(t) is q
    from ans2d.cli import _initial_field, _parse_mode, _section
    from ans2d.det import uniqueness_experiment
    from ans2d.spectral import SpectralField

    cfg = _write_cfg(tmp_path, "uniqueness.kind = det\n")
    out = tmp_path / "uniq"
    assert main(["uniqueness", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "uniqueness_series.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["t", "w_l2_sq", "q", "growth"]
    conf = load_config(cfg)
    grid = TorusGrid(conf["grid.n1"], conf["grid.n2"])
    u0 = _initial_field(grid, conf)
    pert = fullgrid.basis_element(grid, _parse_mode(conf["uniqueness.pert_mode"]))
    v0 = SpectralField(grid, u0.coeffs + conf["uniqueness.perturbation"] * pert.coeffs)
    rep = uniqueness_experiment(u0, v0, _section(conf, DetConfig, "det"))
    np.testing.assert_array_equal([float(r["q"]) for r in rows], rep.q)
    assert np.all(rep.q[1:] > 0.0)
    assert all(float(r["growth"]) == 0.0 for r in rows)


def test_cli_uniqueness_sde(tmp_path):
    cfg = _write_cfg(tmp_path, "uniqueness.kind = sde\n")
    out = tmp_path / "uniq-sde"
    assert main(["uniqueness", "--config", cfg, "--out", str(out)]) == 0
    assert _manifest(out)["verdicts"]["kind"] == "sde"


@pytest.mark.parametrize("kind,mode,level", [("sde", "3,0", 8), ("det", "6,0", 120)])
def test_cli_uniqueness_pert_mode_outside_the_frame_is_config_error(tmp_path, kind, mode,
                                                                   level):
    # P_8 drops the (3,0) element: perturbed along it, the sde pair would
    # stay identical and its audit would check nothing.  (6,0) lies outside
    # the 16x16 band, whose 120 elements the det run steps
    cfg = _write_cfg(tmp_path, f"uniqueness.kind = {kind}\nuniqueness.pert_mode = {mode}\n")
    out = tmp_path / "uniq"
    assert main(["uniqueness", "--config", cfg, "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "ConfigError"
    assert f"outside the first {level} elements" in man["error"]["message"]


def test_sde_commands_build_no_max_level_frame(tmp_path, monkeypatch):
    # an SDE level works in its own frame and its quadrature frame: neither
    # the ensemble's ||u0||^2 nor the uniqueness perturbation builds the
    # frame of all 120 elements of the 16x16 grid
    from ans2d import basis

    monkeypatch.setattr(basis, "_FRAMES", {})  # frames are cached: start from none
    for command, extra in (("ensemble", ""), ("uniqueness", "uniqueness.kind = sde\n")):
        out = tmp_path / command
        assert main([command, "--config", _write_cfg(tmp_path, extra), "--out", str(out)]) in (0, 1)
    grid = TorusGrid(16, 16)
    assert {n for g, n in basis._FRAMES if g == grid} == {8, 12}
    assert (grid, basis.max_level(grid)) not in basis._FRAMES


def test_cli_ensemble(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "ens"
    code = main(["ensemble", "--config", cfg, "--out", str(out)])
    man = _manifest(out)
    assert code in (0, 1)
    assert man["verdicts"]["uniform_ok"] == (code == 0)
    with open(out / "ensemble_moments.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["level"] for r in rows] == ["8", "12"]


def test_cli_gate_violation_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path).replace("run.cfg", "loud.cfg")
    with open(cfg.replace("loud.cfg", "run.cfg")) as fh:
        text = fh.read().replace("0.05*cos(0,1)", "2.0*cos(0,1)")
    with open(cfg, "w") as fh:
        fh.write(text)
    out = tmp_path / "gated"
    assert main(["run-sde", "--config", cfg, "--out", str(out)]) == 1
    assert main(["run-sde", "--config", cfg, "--out", str(out), "--force"]) == 0
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 1


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.n1 = seven\n")
    assert main(["run-det", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["run-det", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "y")]) == 2
    assert main(["no-such-command"]) == 2


def test_cli_plot_data_is_an_unknown_subcommand(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["plot-data", "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "UsageError"
    assert "plot-data" in man["error"]["message"]
    assert "invalid choice" in capsys.readouterr().err


def test_cli_blowup_exit_code(tmp_path):
    cfg = tmp_path / "blow.cfg"
    cfg.write_text("""
grid.n1 = 16
grid.n2 = 16
init.kind = random
init.band = 3
init.amplitude = 1e8
det.dt = 0.5
det.t_end = 5.0
det.integrator = if-euler
""")
    assert main(["run-det", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 3


def test_cli_manifest_reproducibility_fields(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "man"
    main(["run-det", "--config", cfg, "--out", str(out)])
    man = _manifest(out)
    assert {"command", "timestamp", "wall_time_s", "seeds", "config", "outputs",
            "certificates", "verdicts", "exit_code"} <= set(man)
    # the echoed config parses back to the effective configuration
    from ans2d.config import parse_config

    effective = parse_config(man["config"])
    assert effective["grid.n1"] == 16
    assert effective["init.seed"] == 5


@pytest.mark.parametrize("command", ["run-det", "ensemble"])
def test_cli_manifest_digests_match_the_outputs(tmp_path, command):
    import hashlib

    out = tmp_path / command
    assert main([command, "--config", _write_cfg(tmp_path), "--out", str(out)]) in (0, 1)
    man = _manifest(out)
    # one entry per listed output, the manifest itself not among them
    assert man["outputs"] and list(man["output_digests"]) == man["outputs"]
    assert "manifest.json" not in man["output_digests"]
    for name, digest in man["output_digests"].items():
        data = (out / name).read_bytes()
        assert digest == {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    # a run that ends in an error lists no output and no digest
    bad = _write_cfg(tmp_path, "grid.n1 = 0\n")
    assert main([command, "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    man = _manifest(tmp_path / "bad")
    assert man["outputs"] == [] and man["output_digests"] == {}


def test_cli_gates_honour_noise_eta(tmp_path):
    # K2 = (1 + eta) M1 with M1 = 0.1296: below 2/11 at eta = 0.1, above at 0.9
    cfg = _write_cfg(tmp_path, "noise.c_recipes = 0.18*cos(0,1)\nnoise.b_recipes = \n")
    assert main(["run-sde", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    cfg = _write_cfg(tmp_path, "noise.c_recipes = 0.18*cos(0,1)\nnoise.b_recipes = \n"
                               "noise.eta = 0.9\n")
    assert main(["run-sde", "--config", cfg, "--out", str(tmp_path / "sde")]) == 1
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "ens")]) == 1


@pytest.mark.parametrize("recipe", ["0.1*cos(9,0)", "0.1*cos(11,0)"])
@pytest.mark.parametrize("command", ["run-sde", "ensemble"])
def test_cli_out_of_band_recipe_is_config_error(tmp_path, recipe, command):
    # 16x16 resolves |k| <= 5: mode 9 would project to no noise, mode 11
    # samples as mode 5, while the gates read the budget of the recipe as written
    cfg = _write_cfg(tmp_path, f"noise.c_recipes = \nnoise.b_recipes = {recipe}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "ConfigError"
    assert "alias-free band" in man["error"]["message"]


def test_cli_ensemble_evaluates_the_noise_gates_once(tmp_path, monkeypatch):
    from ans2d import cli
    from ans2d.noise import condition_c_gate

    calls = []

    def counting(constants):
        calls.append(1)
        return condition_c_gate(constants)

    monkeypatch.setattr(cli, "condition_c_gate", counting)
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", _write_cfg(tmp_path), "--out", str(out)]) in (0, 1)
    assert len(calls) == 1
    with open(out / "ensemble_moments.csv", newline="") as fh:
        assert {r["existence_gate"] for r in csv.DictReader(fh)} == {"true"}


def test_cli_ensemble_paths_follow_sde_seed(tmp_path):
    # sde.seed keys the ensemble's paths: a second seed key would leave it unread
    outs = []
    for seed in (2, 3):
        out = tmp_path / f"ens{seed}"
        assert main(["ensemble", "--config", _write_cfg(tmp_path, f"sde.seed = {seed}\n"),
                     "--out", str(out)]) in (0, 1)
        outs.append((out / "ensemble_moments.csv").read_bytes())
    assert outs[0] != outs[1]
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("ensemble.base_seed = 3")
    out = tmp_path / "base"
    assert main(["ensemble", "--config", _write_cfg(tmp_path, "ensemble.base_seed = 3\n"),
                 "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "ConfigError"
    assert "unknown key" in man["error"]["message"]


@pytest.mark.parametrize("command,line", [("run-det", "det.dt = 1e-300"),
                                          ("run-sde", "sde.t_end = 1e300")])
def test_cli_step_count_beyond_max_steps_is_config_error(tmp_path, command, line):
    # 1e300 steps would exceed numpy's largest array before a step is taken
    out = tmp_path / "out"
    assert main([command, "--config", _write_cfg(tmp_path, line + "\n"),
                 "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "ConfigError"
    assert "steps" in man["error"]["message"]


# the config table: every numeric key of config.SCHEMA at each edge value,
# run by the cheapest command that reads its section (8^2 grid, 2 steps; the
# base config passes every command)
_TABLE_COMMAND = {"grid": "run-det", "init": "run-det", "det": "run-det", "sde": "run-sde",
                  "noise": "run-sde", "ensemble": "ensemble", "uniqueness": "uniqueness",
                  "verify": "verify"}
_TABLE_VALUES = ("0", "-1", "nan", "inf", "1e300", str(10 ** 23), "1e-300")
_TABLE_BASE = """\
grid.n1 = 8
grid.n2 = 8
init.kind = random
init.band = 2
det.dt = 1e-3
det.t_end = 2e-3
sde.dt = 1e-3
sde.t_end = 2e-3
sde.galerkin_n = 8
noise.c_recipes = 0.05*cos(0,1)
noise.b_recipes = 0.05*cos(1,0)
noise.g = tanh
ensemble.n_paths = 2
ensemble.levels = 16,24
ensemble.batch = 2
verify.n_fields = 3
verify.band = 2
"""
# rows with a fixed exit code: a run of no step, a square or a noise budget
# that overflows, an infinite amplitude, an initial state whose squared norm
# overflows and an oversize battery are config errors, while a finite
# amplitude that drives the flow past the guard blows up; a value may carry
# a second line, which overrides a key of the base
_TABLE_EXPECT = {
    ("run-det", "det.dt", "1e300"): 2,
    ("run-det", "det.dt", str(10 ** 23)): 2,
    ("run-det", "det.t_end", "1e-300"): 2,
    ("run-det", "det.eps_v", "1e300"): 2,
    ("run-sde", "sde.dt", "1e300"): 2,
    ("ensemble", "sde.dt", "1e300"): 2,
    ("run-sde", "noise.b_recipes", "1e300*cos(1,0)"): 2,
    ("run-sde", "noise.c_recipes", "1e200*cos(0,1)"): 2,
    ("run-sde", "noise.b_recipes", "1e400*cos(1,0)"): 2,
    ("run-sde", "noise.b_recipes", "1e154*cos(1,0)"): 3,
    ("run-det", "init.amplitude", "1e300"): 2,
    ("run-sde", "init.amplitude", "1e300"): 2,
    ("ensemble", "init.amplitude", "1e300"): 2,
    ("run-det", "init.amplitude", "1e154\ninit.kind = taylor-green"): 2,  # 2 pi^2 1e308
    ("run-det", "init.amplitude", str(10 ** 23)): 3,
    ("uniqueness", "uniqueness.perturbation", "1e300"): 2,
    ("verify", "verify.n_fields", str(10 ** 23)): 2,
    ("oracle-check", "verify.n_fields", str(10 ** 23)): 2,
}
# the child runs every case in-process; an exception main does not catch
# is recorded as the interpreter would end on it: exit 1 and no manifest
_TABLE_CHILD = """\
import json, resource, sys
from pathlib import Path
resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
src, root, base, cases = sys.argv[1], Path(sys.argv[2]), sys.argv[3], json.loads(sys.argv[4])
sys.path.insert(0, src)
from ans2d.cli import main
results = []
for i, (command, key, value) in enumerate(cases):
    cfg, out = root / f"{i}.cfg", root / str(i)
    cfg.write_text(base + f"{key} = {value}\\n")
    try:
        code = main([command, "--config", str(cfg), "--out", str(out), "--force"])
    except Exception as exc:
        code = f"1 ({type(exc).__name__}: {exc})"
    manifest = out / "manifest.json"
    results.append((code, json.loads(manifest.read_text())["exit_code"]
                    if manifest.exists() else None))
(root / "results.json").write_text(json.dumps(results))
"""


def test_cli_config_table_exits_with_documented_codes(tmp_path):
    # every case ends in a documented exit code (0-3), which its manifest
    # records; one child, capped at 2 GiB of address space, runs them all
    import ans2d
    from ans2d.config import SCHEMA

    numeric = [key.name for key in SCHEMA if not isinstance(key.default, (str, bool))]
    cases = [(_TABLE_COMMAND[name.split(".")[0]], name, value)
             for name in numeric for value in _TABLE_VALUES]
    cases += [case for case in _TABLE_EXPECT if case not in cases]
    src = str(Path(ans2d.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _TABLE_CHILD, src, str(tmp_path), _TABLE_BASE,
                           json.dumps(cases)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert len(numeric) == 20 and len(results) == len(cases)
    bad = [f"{command} {key} = {value}: exit {code}, manifest {recorded}"
           for (command, key, value), (code, recorded) in zip(cases, results)
           if code not in (0, 1, 2, 3) or code != recorded
           or _TABLE_EXPECT.get((command, key, value), code) != code]
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("command,lines", [
    ("run-det", "grid.n1 = 100000\ngrid.n2 = 100000\n"),  # 74.5 GiB per real field
    ("ensemble", "ensemble.n_paths = 1000000000000\nsde.t_end = 0.004\n"  # 7.28 TiB
                 "noise.c_recipes =\nnoise.b_recipes = 0.05*cos(1,0)\nnoise.g = one\n"),
    # 2 GiB of coefficients pass the per-array check; the run would hold about 9 GiB
    ("run-det", "grid.n1 = 8192\ngrid.n2 = 8192\n"),
    # the SDE commands are sized as a whole too, before the initial field is made
    ("run-sde", "grid.n1 = 8192\ngrid.n2 = 8192\ninit.band = 2\nsde.t_end = 0.02\n"),
    ("ensemble", "grid.n1 = 8192\ngrid.n2 = 8192\ninit.band = 2\nsde.t_end = 0.02\n"),
], ids=["grid", "paths", "run", "sde-run", "ensemble-run"])
def test_cli_oversize_arrays_are_config_errors(tmp_path, command, lines):
    # checked from the config before any array is made; in a child capped
    # at 2 GiB of address space, an allocation would raise MemoryError
    import ans2d

    src = str(Path(ans2d.__file__).resolve().parents[1])
    out = tmp_path / "out"
    args = [command, "--config", _write_cfg(tmp_path, lines), "--out", str(out)]
    script = (f"import resource, sys; sys.path.insert(0, {src!r}); "
              "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31)); "
              f"from ans2d.cli import main; sys.exit(main({args!r}))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "ConfigError"
    assert "GiB" in man["error"]["message"]


def _peak_growth(tmp_path, command, lines):
    """(exit code, peak-RSS growth after imports, det.run_bytes of its check) of a child run.

    The child reads its peak RSS as VmHWM, that of its own address space:
    its ru_maxrss would start from this test process's peak, which an exec
    carries over.  The budget is the value the command's own size check
    computed.
    """
    import ans2d

    src = str(Path(ans2d.__file__).resolve().parents[1])
    args = [command, "--config", _write_cfg(tmp_path, lines), "--out", str(tmp_path / "out")]
    script = (f"import re, sys; from pathlib import Path; sys.path.insert(0, {src!r}); "
              "from ans2d import det; from ans2d.cli import main; seen = []; "
              "run_bytes = det.run_bytes; "
              "det.run_bytes = lambda *a: seen.append(run_bytes(*a)) or seen[-1]; "
              "peak = lambda: int(re.search(r'VmHWM:\\s*(\\d+) kB', "
              "Path('/proc/self/status').read_text()).group(1)); "
              f"before = peak(); code = main({args!r}); "
              "print(code, 1024 * (peak() - before), *seen)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.splitlines()[-1].split()))


_AT_512 = "grid.n1 = 512\ngrid.n2 = 512\ninit.band = 4\n"
_ADDITIVE = "noise.c_recipes =\nnoise.g = one\n"


def test_run_bytes_bounds_a_run_det(tmp_path):
    # the exit-2 check of run-det rests on it: a 2-step 512^2 run gains at
    # most det.run_bytes of peak memory after imports
    code, growth, budget = _peak_growth(tmp_path, "run-det",
                                        _AT_512 + "det.dt = 1e-3\ndet.t_end = 2e-3\n")
    assert code == 0
    # the run holds at least its initial field's coefficients
    assert 32 * 512 * 512 < growth <= budget


@pytest.mark.parametrize("command,lines", [
    ("run-sde", _ADDITIVE),
    ("ensemble", _ADDITIVE + "ensemble.levels = 8,16\nensemble.batch = 4\n"),
    ("uniqueness", _ADDITIVE + "uniqueness.kind = sde\n"),
    ("uniqueness", "uniqueness.kind = sde\n"),
], ids=["run-sde-additive", "ensemble-additive", "uniqueness-additive", "uniqueness-tanh"])
def test_run_bytes_bounds_an_sde_run(tmp_path, command, lines):
    # the same bound for the SDE commands, which size their levels alone:
    # 2-step 512^2 runs
    code, growth, budget = _peak_growth(tmp_path, command,
                                        _AT_512 + lines + "sde.t_end = 4e-3\n")
    assert code in (0, 1)
    assert 8 * 2 ** 20 < growth <= budget


def test_cli_galerkin_level_above_max_is_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, "grid.n1 = 8\ngrid.n2 = 8\ninit.band = 2\n"
                               "sde.galerkin_n = 200\n")
    assert main(["run-sde", "--config", cfg, "--out", str(tmp_path / "sde")]) == 2
    cfg = _write_cfg(tmp_path, "grid.n1 = 8\ngrid.n2 = 8\ninit.band = 2\n"
                               "ensemble.levels = 4,200\n")
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "ens")]) == 2


def test_cli_repeated_ensemble_level_is_config_error(tmp_path):
    # a repeated level would be stepped twice and written as two identical rows
    cfg = _write_cfg(tmp_path, "ensemble.n_paths = 10\nensemble.levels = 8,16,8\n")
    out = tmp_path / "ens"
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "ConfigError"
    assert "repeat a level" in man["error"]["message"] and man["outputs"] == []


def test_cli_level_beyond_alias_free_band_is_config_error(tmp_path):
    # 12x12 holds 48 alias-free elements (band 3); level 60 needs band 4
    cfg = _write_cfg(tmp_path, "grid.n1 = 12\ngrid.n2 = 12\ninit.band = 2\n"
                               "sde.galerkin_n = 60\n")
    assert main(["run-sde", "--config", cfg, "--out", str(tmp_path / "sde")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_float_is_config_error(tmp_path, value):
    with pytest.raises(ConfigError, match="finite"):
        parse_config(f"det.dt = {value}")
    cfg = _write_cfg(tmp_path, f"det.dt = {value}\n")
    assert main(["run-det", "--config", cfg, "--out", str(tmp_path / "det")]) == 2


@pytest.mark.parametrize("key", ["det.snapshot_every", "sde.snapshot_every"])
def test_cli_negative_snapshot_every_is_config_error(tmp_path, key):
    # both keys are gone: no output read them, so they are unknown keys now
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"{key} = 1")
    cfg = _write_cfg(tmp_path, f"{key} = -3\n")
    command = "run-det" if key.startswith("det") else "run-sde"
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key", ["init.seed", "sde.seed", "verify.seed"])
def test_cli_negative_seed_is_config_error(tmp_path, key):
    with pytest.raises(ConfigError, match=">= 0"):
        parse_config(f"{key} = -5")
    out = tmp_path / "out"
    assert main(["run-det", "--config", _write_cfg(tmp_path, f"{key} = -5\n"),
                 "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "ConfigError"
    assert key in man["error"]["message"]


def test_cli_negative_seed_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run-det", "--config", _write_cfg(tmp_path), "--seed", "-1",
                 "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["error"]["class"] == "UsageError"
    assert ">= 0" in man["error"]["message"]
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("line,commands", [
    ("verify.n_fields = 0", ("verify", "oracle-check")),
    ("verify.band = 0", ("verify", "oracle-check")),
    ("init.band = -1", ("run-det",)),
])
def test_cli_vacuous_check_settings_are_config_errors(tmp_path, line, commands):
    # no checks, or checks on identically zero fields, would pass vacuously
    with pytest.raises(ConfigError, match=">= 1"):
        parse_config(line)
    cfg = _write_cfg(tmp_path, "grid.n1 = 8\ngrid.n2 = 8\n" + line + "\n")
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert _manifest(out)["error"]["class"] == "ConfigError"


def test_cli_oracle_check_gives_every_level_a_field(tmp_path):
    # the 8x8 ladder is 8/16/24: two fields would leave the top level unchecked
    for n_fields, code in ((2, 2), (3, 0)):
        cfg = _write_cfg(tmp_path, f"grid.n1 = 8\ngrid.n2 = 8\nverify.n_fields = {n_fields}\n")
        out = tmp_path / f"oracle{n_fields}"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == code
    assert "(8, 16, 24)" in _manifest(tmp_path / "oracle2")["error"]["message"]


def test_cli_manifest_on_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, "grid.n1 = 8\ngrid.n2 = 8\ninit.band = 2\n"
                               "sde.galerkin_n = 200\n")
    out = tmp_path / "sde"
    assert main(["run-sde", "--config", cfg, "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["exit_code"] == 2 and man["outputs"] == [] and man["verdicts"] == {}
    assert man["certificates"] == []
    assert man["error"]["class"] == "ConfigError"
    assert "galerkin_n=200" in man["error"]["message"]
    assert parse_config(man["config"])["sde.galerkin_n"] == 200
    # a config that cannot be loaded leaves a manifest without config and seeds
    out = tmp_path / "absent"
    assert main(["run-det", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)]) == 2
    man = _manifest(out)
    assert man["config"] is None and man["seeds"] is None
    assert man["error"]["class"] == "ConfigError"


def test_cli_manifest_on_usage_error(tmp_path, capsys, monkeypatch):
    # --out is found before parsing, so a bad command line still leaves a manifest
    for argv, out in ((["no-such-command", "--out", str(tmp_path / "a")], "a"),
                      (["run-det", "--bogus", f"--out={tmp_path / 'b'}"], "b")):
        assert main(argv) == 2
        man = _manifest(tmp_path / out)
        assert man["exit_code"] == 2 and man["command"] is None
        assert man["config"] is None and man["outputs"] == []
        assert man["error"]["class"] == "UsageError"
    assert "unrecognized arguments: --bogus" in man["error"]["message"]
    assert "usage:" in capsys.readouterr().err
    # without --out nothing is written, not even to the default directory
    monkeypatch.chdir(tmp_path)
    assert main(["no-such-command"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


def test_cli_manifest_on_gate_error(tmp_path):
    # every command that needs a gate refuses the same way: GateError, exit 1
    cfg = _write_cfg(tmp_path, "noise.c_recipes = 2.0*cos(0,1)\nuniqueness.kind = sde\n")
    for command, gate in (("ensemble", "existence"), ("run-sde", "existence"),
                          ("uniqueness", "uniqueness")):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        man = _manifest(out)
        assert man["exit_code"] == 1 and man["error"]["class"] == "GateError"
        assert man["error"]["message"].startswith(f"{gate} gate violated")
        assert man["outputs"] == [] and man["certificates"] == [] and man["verdicts"] == {}
        assert "last_finite_time" not in man["error"]


def test_cli_exit_follows_the_failed_record(tmp_path, monkeypatch):
    # one failing certificate gives exit 1 and changes nothing else: its
    # record fails at the first violating step, the other records and every
    # output byte stay as they were
    from ans2d import det

    cfg = _write_cfg(tmp_path)
    base, tight = tmp_path / "base", tmp_path / "tight"
    assert main(["run-det", "--config", cfg, "--out", str(base)]) == 0
    held = _manifest(base)["certificates"]
    assert [r["name"] for r in held] == ["energy_certificate", "h01_monotone", "h01_bound"]
    assert all(r["passed"] and r["t_first"] is None for r in held)
    tol = held[0]["measured"] / 2
    monkeypatch.setattr(det, "ENERGY_REL_TOL", tol)
    assert main(["run-det", "--config", cfg, "--out", str(tight)]) == 1
    man = _manifest(tight)
    with open(base / "det_series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    scale = float(rows[0]["l2_sq"])
    t_first = next(float(r["t"]) for r in rows if abs(float(r["energy_residual"])) / scale > tol)
    assert 0.0 < t_first < float(rows[-1]["t"])
    assert man["exit_code"] == 1 and man["verdicts"]["energy_certificate"] is False
    assert man["certificates"] == [{**held[0], "bound": tol, "passed": False,
                                    "t_first": t_first}] + held[1:]
    for name in ("det_series.csv", "final_state.ans2"):
        assert (tight / name).read_bytes() == (base / name).read_bytes()


def test_cli_manifest_on_blowup(tmp_path):
    # v = u + 1e-8 e_(1,0) with a band-5, amplitude-200 u: both runs blow up
    cfg = _write_cfg(tmp_path, "init.band = 5\ninit.amplitude = 200\ndet.dt = 0.2\n"
                               "det.t_end = 4\nuniqueness.kind = det\n")
    out = tmp_path / "uniq"
    assert main(["uniqueness", "--config", cfg, "--out", str(out)]) == 3
    man = _manifest(out)
    assert man["exit_code"] == 3 and man["outputs"] == []
    assert man["error"]["class"] == "BlowUpError"
    assert 0.0 <= man["error"]["last_finite_time"] < 4.0
    assert f"t={man['error']['last_finite_time']:.6g}" in man["error"]["message"]


def test_cli_import_loads_no_scipy():
    # scipy.signal alone takes over a second to import, and scipy.fft about
    # 0.3 s, more than twice a benchmark run's whole set-up; the transforms
    # run on numpy.fft, and only the oracle (kernels, imported on first
    # use) may load scipy.  Nor does the import load numpy.random (about
    # 12 ms): the Wiener sampler builds its generator on first use
    # (noise._philox), so that cost stays with the first draw
    import ans2d

    src = str(Path(ans2d.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); import ans2d, ans2d.cli; "
              "print([m for m in sys.modules if m.split('.')[0] == 'scipy']); "
              "print([m for m in sys.modules if m.startswith('numpy.random')])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    scipy_modules, random_modules = proc.stdout.splitlines()
    assert "scipy.fft" not in scipy_modules and "scipy.signal" not in scipy_modules
    assert scipy_modules == "[]"
    assert random_modules == "[]"


def test_csv_columns_keep_the_bytes_of_formatting_each_value(tmp_path):
    # _write_csv hands the csv writer Python values, which writes a float
    # with repr: the bytes of formatting every value on its own (repr of
    # the float, true/false for a bool, str otherwise)
    from ans2d.cli import _write_csv

    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    floats = np.array([-0.0, 1e-320, np.inf, -np.inf, np.nan, 0.1 + 0.2, 1e300, 5e-324])
    columns = [floats, list(floats), [np.float64(v) for v in -floats], np.arange(8) - 3,
               [2 ** 40, 0, -1, 7, 8, 9, 10, 11], np.arange(8) % 3 == 0,
               [np.bool_(k % 2) for k in range(8)], [k > 4 for k in range(8)], list("abcdefgh")]
    header = [f"c{k}" for k in range(len(columns))]
    _write_csv(tmp_path / "columns.csv", header, columns)
    with open(tmp_path / "values.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([fmt(v) for v in row])
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()
