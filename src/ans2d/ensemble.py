"""Path ensembles across Galerkin levels with moment-growth verdicts.

Trajectories are advanced in fixed-size batches of the stacked engine.
Every level replays the same paths, so each batch's increments are drawn
once and stepped at every level in turn.  Path j is the stream
(SdeConfig.seed, j) of the SDE engine, and per-path functionals are reduced
in path-index order, so the seed and n_paths fix the output bytes, for
every batch size.
The headline quantity per level n is

    c_hat(n) = ( E sup_t ||u||^2 + E int_0^T ||u||_{H^{1,0}}^2 dt )
               / (1 + ||u0||^2),

whose spread across levels certifies the uniform-in-n moment bound: the
ensemble verdict holds max/min <= SPREAD_BOUND.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .noise import GateResult, NoiseModel
from .norms import Verdict, cumulative_trapezoid, norm_rows, verdict
from .sde import SdeConfig, _run_batched, draw_increments, weighted_h01_series
from .spectral import SpectralField, check_array_bytes

SPREAD_BOUND = 2.0  # largest max/min c_hat across levels the uniform verdict allows


@dataclass
class EnsembleConfig:
    n_paths: int = 100
    levels: tuple[int, ...] = (8, 16, 32)
    batch: int = 500

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("ensemble needs at least 2 paths")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not self.levels:
            raise ValueError("at least one Galerkin level required")
        check_array_bytes(f"a per-path sample array of {self.n_paths} paths", 8 * self.n_paths)


# moment name -> (its per-path sample from a batch's diagnostic columns d,
# its weighted series ws and the step dt; whether it enters c_hat)
MOMENTS = {
    "sup_l2_sq": (lambda d, ws, dt: d["l2_sq"].max(axis=0), True),
    "int_h10_sq": (lambda d, ws, dt: cumulative_trapezoid(d["l2_sq"] + d["d1_sq"], dt)[-1],
                   True),
    "sup_l2_4th": (lambda d, ws, dt: (d["l2_sq"] ** 2).max(axis=0), False),
    "sup_weighted_h01": (lambda d, ws, dt: ws.weighted_h01.max(axis=0), False),
    "int_weighted_h11": (lambda d, ws, dt: ws.int_weighted_h11[-1], False),
}


@dataclass
class MomentEstimates:
    """Per-level sample means (est) with standard errors (se), keyed by
    MOMENTS name."""

    level: int
    n_paths: int
    est: dict[str, float]
    se: dict[str, float]
    c_hat: float


@dataclass
class EnsembleReport:
    """uniform holds the spread max/min c_hat across levels to at most SPREAD_BOUND."""

    levels: list[MomentEstimates]
    uniform: Verdict


def _level_estimates(u0: SpectralField, model: NoiseModel, cfg_n: SdeConfig,
                     increments: np.ndarray) -> dict[str, np.ndarray]:
    """Per-path MOMENTS samples of one batch of increments at the level of cfg_n."""
    # the moments read no Hilbert-Schmidt column
    run = _run_batched(u0.coeffs, u0.grid, model, cfg_n, increments, with_hs=False)
    ws = weighted_h01_series(run.t, run.diag)
    return {name: sample(run.diag, ws, cfg_n.dt) for name, (sample, _) in MOMENTS.items()}


def _moment_estimates(level: int, n_paths: int, samples: dict[str, np.ndarray],
                      u0_l2: float) -> MomentEstimates:
    est = {name: float(np.mean(x)) for name, x in samples.items()}
    se = {name: float(np.std(x, ddof=1) / np.sqrt(len(x))) for name, x in samples.items()}
    c_hat = sum(est[name] for name, (_, in_c_hat) in MOMENTS.items() if in_c_hat)
    return MomentEstimates(level=level, n_paths=n_paths, est=est, se=se,
                           c_hat=c_hat / (1.0 + u0_l2))


def run_ensemble(u0: SpectralField, model: NoiseModel, cfg: SdeConfig,
                 ens: EnsembleConfig) -> EnsembleReport:
    """Moment estimates at each Galerkin level plus the uniformity verdict.

    The paths are those of cfg.seed.  The noise gates are the caller's to
    evaluate and enforce.  A blow-up on any path aborts the whole ensemble.
    ||u0||^2 in c_hat is the norm of u0 itself: that of its projection onto
    all basis elements for a u0 in their span, as every CLI initial field
    is, and larger by the part outside it for any other u0.
    """
    u0_l2 = float(norm_rows(u0.coeffs, u0.grid)["l2_sq"])
    samples = {lvl: {name: np.zeros(ens.n_paths) for name in MOMENTS} for lvl in ens.levels}
    for done in range(0, ens.n_paths, ens.batch):
        paths = range(done, min(done + ens.batch, ens.n_paths))
        increments = draw_increments(model, cfg, paths)  # one draw serves every level
        for lvl in ens.levels:
            batch_samples = _level_estimates(u0, model, replace(cfg, galerkin_n=lvl), increments)
            for name, x in batch_samples.items():
                samples[lvl][name][done:paths.stop] = x
    levels = [_moment_estimates(lvl, ens.n_paths, samples[lvl], u0_l2) for lvl in ens.levels]
    c_hats = [lv.c_hat for lv in levels]
    spread = float(max(c_hats) / min(c_hats)) if min(c_hats) > 0 else float("inf")
    return EnsembleReport(levels=levels, uniform=verdict("uniform_ok", spread, SPREAD_BOUND))


def moment_bound_report(report: EnsembleReport, gate: GateResult) -> list[dict[str, object]]:
    """Flat rows (one per level) ready for CSV emission, with the run's noise gates."""
    rows = []
    for lv in report.levels:
        row = {"level": lv.level, "n_paths": lv.n_paths}
        for name in MOMENTS:
            row[f"est_{name}"] = lv.est[name]
            row[f"se_{name}"] = lv.se[name]
        row.update(c_hat=lv.c_hat, existence_gate=gate.existence_ok,
                   uniqueness_gate=gate.uniqueness_ok)
        rows.append(row)
    return rows
