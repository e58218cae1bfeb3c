"""Command line front end.

Every subcommand reads a flat config file, writes its artifacts into an
output directory, and finishes with a manifest.json describing the run.
CSV floats are written with repr so reruns are byte-identical; wall-clock
data lives only in the manifest.

Exit codes: 0 every certificate held, 1 a certificate record failed or a
noise gate refused the run, 2 usage or configuration error, 3 the solution
blew up.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from . import det as det_mod
from . import norms as norms_mod
from . import sde as sde_mod
from .basis import GalerkinFrame, max_level
from .config import _parse_count, echo_config, load_config
from .ensemble import EnsembleConfig, moment_bound_report, run_ensemble
from .errors import BlowUpError, ConfigError, GateError, UsageError
from .noise import (
    GateResult,
    NoiseModel,
    _samples_state,
    condition_c_bounds,
    condition_c_gate,
    make_model,
)
from .norms import MEASURE, Verdict, cumulative_trapezoid, verdict
from .snapshots import write_snapshot
from .spectral import (
    ORACLE_MAX_POINTS,
    PhysicalField,
    SpectralField,
    TorusGrid,
    check_array_bytes,
    random_solenoidal_field,
    shear_field,
    taylor_green,
    zeros_spectral,
)

_LEADING_COLUMNS = ("t", "l2_sq", "d1_sq", "d2_sq", "d1d2_sq", "int_d1_sq", "int_d1d2_sq")
DET_CSV_COLUMNS = _LEADING_COLUMNS + ("energy_residual", "c_emp", "weighted_h01")
SDE_CSV_COLUMNS = _LEADING_COLUMNS + ("h_t", "weighted_h01", "noise_work", "hs_norm_sq")


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@contextmanager
def _config_value(prefix: str = ""):
    """Raise a ValueError of the block as the ConfigError it is."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _grid(cfg: dict[str, Any]) -> TorusGrid:
    with _config_value():
        return TorusGrid(cfg["grid.n1"], cfg["grid.n2"])


def _finite_norm(u: SpectralField, cfg: dict[str, Any], key: str) -> SpectralField:
    """u, or a ConfigError naming key when ||u||^2 overflows: a blow-up guard
    comparing states with an infinite norm could only report a blow-up."""
    if not np.isfinite(MEASURE * np.vdot(u.coeffs, u.coeffs).real):  # builds no array
        raise ConfigError(f"{key} = {cfg[key]!r}: the initial state's squared L2 norm overflows")
    return u


def _initial_field(grid: TorusGrid, cfg: dict[str, Any]) -> SpectralField:
    kind = cfg["init.kind"]
    amp = cfg["init.amplitude"]
    if kind == "taylor-green":
        u0 = taylor_green(grid, amplitude=amp)
    elif kind == "shear-x1":
        u0 = shear_field(grid, axis=1, amplitude=amp)
    elif kind == "shear-x2":
        u0 = shear_field(grid, axis=2, amplitude=amp)
    elif kind == "zero":
        u0 = zeros_spectral(grid)
    else:
        rng = np.random.default_rng(cfg["init.seed"])
        with _config_value():
            u0 = random_solenoidal_field(grid, band=cfg["init.band"], amplitude=amp, rng=rng)
    return _finite_norm(u0, cfg, "init.amplitude")


def _samples(frame: GalerkinFrame, a: np.ndarray) -> PhysicalField:
    """Grid samples of coordinates a in frame: synth's u1 + i u2, split."""
    z = frame.synth(a)
    return PhysicalField(frame.grid, np.stack((z.real, z.imag)))


def _leading_columns(traj: det_mod.Trajectory) -> list[np.ndarray]:
    """The _LEADING_COLUMNS of a run-det or run-sde record; integrals use the clock's dt."""
    d, dt = traj.diag, traj.config.dt
    return [traj.t, d["l2_sq"], d["d1_sq"], d["d2_sq"], d["d1d2_sq"],
            cumulative_trapezoid(d["d1_sq"], dt), cumulative_trapezoid(d["d1d2_sq"], dt)]


def _split_recipes(text: str) -> list[str]:
    return [part.strip() for part in text.split(";") if part.strip()]


def _noise_model(cfg: dict[str, Any], grid: TorusGrid) -> NoiseModel:
    c = _split_recipes(cfg["noise.c_recipes"])
    b = _split_recipes(cfg["noise.b_recipes"])
    if not c and not b:
        return NoiseModel()
    with _config_value("bad noise recipes: "):
        model = make_model(c, b, cfg["noise.g"])
        model.check_band(grid)
    return model


def _section(cfg: dict[str, Any], cls: type, prefix: str):
    """The dataclass cls built from the config keys prefix.<field> of its fields."""
    keys = {f.name: f"{prefix}.{f.name}" for f in fields(cls)}
    with _config_value():
        return cls(**{name: cfg[key] for name, key in keys.items() if key in cfg})


def _check_run_bytes(grid: TorusGrid, batch: int = 1, levels: Sequence[int] = (),
                     model: NoiseModel = NoiseModel()) -> None:
    """ConfigError when det.run_bytes of the run would exceed spectral.MAX_ARRAY_BYTES."""
    nbytes = det_mod.run_bytes(grid, batch, levels, _samples_state(model))
    with _config_value():
        check_array_bytes(f"a run of {batch} state(s) on the {grid.n1}x{grid.n2} grid", nbytes,
                          scope="a run may hold at once")


def _sde_setup(cfg: dict[str, Any], grid: TorusGrid, batch: int, key: str,
               levels: Sequence[int]) -> tuple[sde_mod.SdeConfig, NoiseModel]:
    """The SdeConfig and noise model of an SDE run of batch paths at levels, checked.

    A ConfigError names key for a level outside [1, max_level(grid)], and
    reports a batch whose step-major arrays, its Wiener increments
    (n_steps, batch, n_modes) and each diagnostic column (n_steps + 1,
    batch), or whose run (_check_run_bytes) would exceed
    spectral.MAX_ARRAY_BYTES.
    """
    scfg = _section(cfg, sde_mod.SdeConfig, "sde")
    model = _noise_model(cfg, grid)
    for n in levels:
        if not 1 <= n <= max_level(grid):
            raise ConfigError(f"{key}={n} must lie in [1, {max_level(grid)}], the basis "
                              f"elements of the {grid.n1}x{grid.n2} grid")
    with _config_value():
        check_array_bytes(f"the step-major arrays of {batch} paths over {scfg.n_steps} steps",
                          8 * (scfg.n_steps + 1) * batch * max(model.n_modes, 1))
    _check_run_bytes(grid, batch, levels, model)
    return scfg, model


# ---------------------------------------------------------------------------
# subcommands; each returns (outputs, certificate records, other verdict entries)

CmdResult = tuple[list[str], list[Verdict], dict[str, Any]]


def _gate(cfg: dict[str, Any], args: argparse.Namespace, model: NoiseModel,
          needed: str) -> GateResult:
    """The noise gates of model at noise.eta.

    The one way a command refuses a run: a failed `needed` gate
    ("existence" or "uniqueness") raises GateError unless --force is given.
    """
    gate = condition_c_gate(condition_c_bounds(model, eta=cfg["noise.eta"]))
    if not getattr(gate, f"{needed}_ok") and not args.force:
        raise GateError(f"{needed} gate violated: {gate.describe()}")
    return gate


def _cmd_run_det(cfg: dict[str, Any], out: Path, args: argparse.Namespace) -> CmdResult:
    grid = _grid(cfg)
    _check_run_bytes(grid)
    u0 = _initial_field(grid, cfg)
    traj = det_mod.run_det(u0, _section(cfg, det_mod.DetConfig, "det"))
    energy = det_mod.energy_certificate(traj)
    h01 = det_mod.h01_certificate(traj)
    rows = zip(*_leading_columns(traj), energy.residual, h01.c_emp, h01.weighted)
    _write_csv(out / "det_series.csv", DET_CSV_COLUMNS, list(rows))
    write_snapshot(out / "final_state.ans2", _samples(traj.frame, traj.final_coords), traj.t[-1])
    extra = {"energy_rel_residual": energy.verdict.measured,
             "energy_rel_tol": energy.verdict.bound, "c_emp_sup": h01.c_sup}
    return ["det_series.csv", "final_state.ans2"], [energy.verdict, h01.monotone, h01.bound], extra


def _cmd_run_sde(cfg: dict[str, Any], out: Path, args: argparse.Namespace) -> CmdResult:
    grid = _grid(cfg)
    scfg, model = _sde_setup(cfg, grid, 1, "sde.galerkin_n", (cfg["sde.galerkin_n"],))
    u0 = _initial_field(grid, cfg)
    gate = _gate(cfg, args, model, "existence")
    traj = sde_mod.run_sde(u0, model, scfg)
    weighted = sde_mod.weighted_h01_series(traj.t, traj.diag)
    rows = zip(*_leading_columns(traj), weighted.h, weighted.weighted_h01,
               traj.diag["noise_work"], traj.diag["hs_sq"])
    _write_csv(out / "sde_series.csv", SDE_CSV_COLUMNS, list(rows))
    write_snapshot(out / "final_state.ans2", _samples(traj.frame, traj.final_coords), traj.t[-1])
    extra = {
        "existence_gate": gate.existence_ok,
        "gate": gate.describe() if model.n_modes else "no noise",
        "c_emp_sup": weighted.c_emp_sup,
        "final_l2_sq": float(traj.diag["l2_sq"][-1]),
    }
    return ["sde_series.csv", "final_state.ans2"], [], extra


def _cmd_ensemble(cfg: dict[str, Any], out: Path, args: argparse.Namespace) -> CmdResult:
    grid = _grid(cfg)
    ens = _section(cfg, EnsembleConfig, "ensemble")
    scfg, model = _sde_setup(cfg, grid, min(ens.batch, ens.n_paths), "ensemble.levels",
                             ens.levels)
    u0 = _initial_field(grid, cfg)
    gate = _gate(cfg, args, model, "existence")
    report = run_ensemble(u0, model, scfg, ens)
    rows = moment_bound_report(report, gate)
    header = list(rows[0].keys())
    _write_csv(out / "ensemble_moments.csv", header,
               [[row[k] for k in header] for row in rows])
    extra = {
        "existence_gate": gate.existence_ok,
        "uniqueness_gate": gate.uniqueness_ok,
        "spread": report.uniform.measured,
        "c_hat": {str(lv.level): lv.c_hat for lv in report.levels},
    }
    return ["ensemble_moments.csv"], [report.uniform], extra


def _random_fields(cfg: dict[str, Any], grid: TorusGrid, rows: int) -> Iterator[SpectralField]:
    """The verify.n_fields random fields of verify and oracle-check, from verify.seed.

    Each adds rows report rows of under 256 bytes (a verify row takes about
    165), whose total is checked before a field is drawn.
    """
    n = cfg["verify.n_fields"]
    with _config_value("verify.n_fields: "):
        check_array_bytes(f"the report rows of {n} fields", 256 * rows * n, "a report may take")
    rng = np.random.default_rng(cfg["verify.seed"])
    band = min(cfg["verify.band"], grid.band1, grid.band2)
    return (random_solenoidal_field(grid, band=band, amplitude=1.0, rng=rng) for _ in range(n))


def _cmd_verify(cfg: dict[str, Any], out: Path, args: argparse.Namespace) -> CmdResult:
    grid = _grid(cfg)
    report = norms_mod.NormReport()
    frame = GalerkinFrame(grid, max_level(grid))  # each field lies in its span
    # per field: 4 embedding rows per component, 2 Minkowski rows
    for u in _random_fields(cfg, grid, rows=10):
        samples = _samples(frame, frame.coords(u.coeffs)).samples
        for comp in range(2):
            norms_mod.check_anisotropic_embedding(grid, samples[comp], report)
        norms_mod.check_minkowski(grid, samples[0], p=4.0, q=2.0, report=report)
        norms_mod.check_minkowski(grid, samples[1], p=6.0, q=3.0, report=report)
    _write_csv(out / "verify_report.csv", ("check", "lhs", "rhs", "constant", "pass"),
               report.rows)
    n_failed = len(report.failures())
    return (["verify_report.csv"], [verdict("all_passed", n_failed, 0)],
            {"checks": len(report.rows), "failed": n_failed})


def _cmd_oracle_check(cfg: dict[str, Any], out: Path, args: argparse.Namespace) -> CmdResult:
    grid = _grid(cfg)
    if grid.n_points > ORACLE_MAX_POINTS:
        raise ConfigError(f"direct convolution oracle is limited to n1*n2 <= "
                          f"{ORACLE_MAX_POINTS}, got {grid.n1}x{grid.n2}")
    tol = sde_mod.ORACLE_TOL
    levels = sde_mod.oracle_levels(grid)
    if cfg["verify.n_fields"] < len(levels):  # a level with no field would pass vacuously
        raise ConfigError(f"verify.n_fields={cfg['verify.n_fields']} must be >= {len(levels)}: "
                          f"oracle-check gives one field to each of the levels {levels}")
    rows = []
    for i, u in enumerate(_random_fields(cfg, grid, rows=1)):
        level = levels[i % len(levels)]  # one oracle call per field
        rel = sde_mod.drift_oracle_error(u, level)
        rows.append((i, level, rel, rel <= tol))
    _write_csv(out / "oracle_check.csv", ("field", "level", "rel_err", "pass"), rows)
    check = verdict("all_passed", [row[2] for row in rows], tol)
    return ["oracle_check.csv"], [check], {"max_rel_err": check.measured, "tolerance": tol}


def _parse_mode(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip().lstrip("+-").isdigit() for p in parts):
        raise ValueError(f"must be 'k1,k2', got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_uniqueness(cfg: dict[str, Any], out: Path, args: argparse.Namespace) -> CmdResult:
    grid = _grid(cfg)
    if cfg["uniqueness.kind"] == "det":  # the pair marches as a batch of 2
        _check_run_bytes(grid, 2)
        frame = GalerkinFrame(grid, max_level(grid))
    else:
        scfg, model = _sde_setup(cfg, grid, 2, "sde.galerkin_n", (cfg["sde.galerkin_n"],))
        if not model.n_modes:
            raise ConfigError("sde uniqueness needs a noise model "
                              "(noise.c_recipes / noise.b_recipes)")
        frame = GalerkinFrame(grid, scfg.galerkin_n)
    unit = np.zeros(frame.n)
    # the perturbation is an element of the run's own frame: P_n would drop any other
    with _config_value("uniqueness.pert_mode: "):
        unit[frame.column(_parse_mode(cfg["uniqueness.pert_mode"]))] = 1.0
    u0 = _initial_field(grid, cfg)
    v0 = _finite_norm(SpectralField(grid, u0.coeffs + cfg["uniqueness.perturbation"]
                                    * frame.lift(unit)), cfg, "uniqueness.perturbation")

    extra = {"kind": cfg["uniqueness.kind"]}
    if cfg["uniqueness.kind"] == "det":
        rep = det_mod.uniqueness_experiment(u0, v0, _section(cfg, det_mod.DetConfig, "det"))
    else:
        extra["uniqueness_gate"] = _gate(cfg, args, model, "uniqueness").uniqueness_ok
        rep = sde_mod.pathwise_uniqueness_experiment(u0, v0, model, scfg, eta=cfg["noise.eta"])
    # one layout for both kinds: the det growth G(t) is 0, its exponent E(t) is q
    rows = zip(rep.t, rep.w_l2_sq, rep.q, rep.growth)
    _write_csv(out / "uniqueness_series.csv", ("t", "w_l2_sq", "q", "growth"), list(rows))
    extra.update(c1=rep.c1, bitwise_zero=rep.bitwise_zero, max_ratio=rep.max_ratio)
    return ["uniqueness_series.csv"], [rep.verdict], extra


# name -> (subcommand, help text)
_COMMANDS = {
    "run-det": (_cmd_run_det, "deterministic run with energy and vertical-decay certificates"),
    "run-sde": (_cmd_run_sde, "single stochastic trajectory with diagnostics"),
    "ensemble": (_cmd_ensemble, "moment estimates across Galerkin levels"),
    "verify": (_cmd_verify, "random-field battery for the norm inequalities"),
    "oracle-check": (_cmd_oracle_check, "solver drift at a ladder of levels vs direct convolution"),
    "uniqueness": (_cmd_uniqueness, "two-solution gap audit (det or sde)"),
}


_SEED_KEYS = ("init.seed", "sde.seed", "verify.seed")


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as UsageError; subparsers share the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError(message)


def _seed_arg(text: str) -> int:
    """--seed value, under the rule of the config's seed keys."""
    try:
        return _parse_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ans2d",
        description="Simulation and estimate-verification harness for 2D "
                    "incompressible flow with horizontal-only viscosity.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a flat key=value config file")
        p.add_argument("--out", default="ans2d-out", help="output directory (created if missing)")
        p.add_argument("--seed", type=_seed_arg, default=None, metavar="SEED",
                       help="override " + ", ".join(_SEED_KEYS))
        p.add_argument("--force", action="store_true",
                       help="run even when a noise gate fails")
    return parser


def _out_arg(argv: Sequence[str]) -> str | None:
    """The last --out X or --out=X in argv, found without parsing it."""
    out = None
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            out = argv[i + 1]
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
    return out


def _write_manifest(out: Path, manifest: dict[str, Any], started: float) -> None:
    manifest["wall_time_s"] = time.monotonic() - started
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# exit code and stderr prefix of each error that ends a run
_ERRORS = {ConfigError: (2, "error"), GateError: (1, "gate violation"),
           BlowUpError: (3, "blow-up")}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.monotonic()
    # every outcome leaves this manifest; config and seeds stay null when
    # the config itself could not be loaded
    manifest: dict[str, Any] = {
        "command": None, "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": None, "seeds": None, "config": None, "outputs": [],
        "certificates": [], "verdicts": {}, "exit_code": 2}
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        # already reported on stderr; the manifest needs --out to name a directory
        out = _out_arg(argv)
        if out is not None:
            manifest["error"] = {"class": "UsageError", "message": str(exc)}
            _write_manifest(Path(out), manifest, started)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest["command"] = args.command
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            for key in _SEED_KEYS:
                cfg[key] = args.seed
        manifest.update(seeds={key: cfg[key] for key in _SEED_KEYS}, config=echo_config(cfg))
        outputs, records, extra = _COMMANDS[args.command][0](cfg, out, args)
        # the one exit rule: 1 exactly when a certificate record fails
        code = 0 if all(r.passed for r in records) else 1
        manifest.update(outputs=outputs, certificates=[asdict(r) for r in records],
                        verdicts={**{r.name: r.passed for r in records}, **extra})
    except tuple(_ERRORS) as exc:
        code, prefix = _ERRORS[type(exc)]
        print(f"{prefix}: {exc}", file=sys.stderr)
        manifest["error"] = {"class": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BlowUpError):
            manifest["error"]["last_finite_time"] = exc.last_finite_time
    manifest["exit_code"] = code
    _write_manifest(out, manifest, started)
    for name, value in manifest["verdicts"].items():
        print(f"{args.command}: {name} = {value}")
    return code


if __name__ == "__main__":
    sys.exit(main())
