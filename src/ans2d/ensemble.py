"""Path ensembles across Galerkin levels with moment-growth verdicts.

Trajectories are advanced in fixed-size batches of the stacked engine;
per-path functionals are reduced in path-index order, so a given
(seed, n_paths, batch) triple always produces identical output bytes.
The headline quantity per level n is

    c_hat(n) = ( E sup_t ||u||^2 + E int_0^T ||u||_{H^{1,0}}^2 dt )
               / (1 + ||u0||^2),

whose spread across levels certifies the uniform-in-n moment bound: the
ensemble verdict is max/min <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import GalerkinFrame, max_level
from .errors import GateError
from .noise import (
    DEFAULT_ETA,
    GateResult,
    NoiseModel,
    condition_c_bounds,
    condition_c_gate,
)
from .norms import cumulative_trapezoid
from .sde import SdeConfig, _run_batched, weighted_h01_series
from .spectral import SpectralField


@dataclass
class EnsembleConfig:
    n_paths: int = 100
    base_seed: int = 0
    levels: tuple[int, ...] = (8, 16, 32)
    batch: int = 500
    require_gates: bool = True
    eta: float = DEFAULT_ETA  # Peter-Paul split of the gate constants

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("ensemble needs at least 2 paths")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not self.levels:
            raise ValueError("at least one Galerkin level required")


@dataclass
class MomentEstimates:
    """Per-level sample means with standard errors."""

    level: int
    n_paths: int
    sup_l2_sq: float
    sup_l2_sq_se: float
    int_h10_sq: float
    int_h10_sq_se: float
    sup_l2_4th: float
    sup_l2_4th_se: float
    sup_weighted_h01: float
    sup_weighted_h01_se: float
    int_weighted_h11: float
    int_weighted_h11_se: float
    c_hat: float


@dataclass
class EnsembleReport:
    levels: list[MomentEstimates]
    gate: GateResult
    u0_l2_sq: float
    spread: float
    uniform_ok: bool


def _level_estimates(u0: SpectralField, u0_l2: float, model: NoiseModel | None,
                     cfg: SdeConfig, ens: EnsembleConfig, level: int) -> MomentEstimates:
    cfg_n = replace(cfg, galerkin_n=level, seed=ens.base_seed)
    dt = cfg_n.dt

    samples = {name: np.zeros(ens.n_paths) for name in
               ("sup_l2", "int_h10", "sup_l2_4", "sup_wh01", "int_wh11")}
    for done in range(0, ens.n_paths, ens.batch):
        paths = range(done, min(done + ens.batch, ens.n_paths))
        # the moments read no Hilbert-Schmidt column
        run = _run_batched(u0.coeffs, u0.grid, model, cfg_n, paths, with_diag=True,
                           with_hs=False)
        d = run.diag
        sl = slice(done, paths.stop)
        samples["sup_l2"][sl] = d["l2_sq"].max(axis=0)
        samples["int_h10"][sl] = cumulative_trapezoid(d["l2_sq"] + d["d1_sq"], dt)[-1]
        samples["sup_l2_4"][sl] = (d["l2_sq"] ** 2).max(axis=0)
        ws = weighted_h01_series(run.t, d["d1_sq"], d["d1d2_sq"], d["d2_sq"], d["cross"],
                                 d["h01_sq"], d["h11_sq"], cfg_n.alpha_tilde)
        samples["sup_wh01"][sl] = ws.weighted_h01.max(axis=0)
        samples["int_wh11"][sl] = ws.int_weighted_h11[-1]

    def stat(name: str) -> tuple[float, float]:
        x = samples[name]
        return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(len(x)))

    sup_l2, sup_l2_se = stat("sup_l2")
    int_h10, int_h10_se = stat("int_h10")
    sup4, sup4_se = stat("sup_l2_4")
    swh, swh_se = stat("sup_wh01")
    iwh, iwh_se = stat("int_wh11")
    c_hat = (sup_l2 + int_h10) / (1.0 + u0_l2)
    return MomentEstimates(level=level, n_paths=ens.n_paths,
                           sup_l2_sq=sup_l2, sup_l2_sq_se=sup_l2_se,
                           int_h10_sq=int_h10, int_h10_sq_se=int_h10_se,
                           sup_l2_4th=sup4, sup_l2_4th_se=sup4_se,
                           sup_weighted_h01=swh, sup_weighted_h01_se=swh_se,
                           int_weighted_h11=iwh, int_weighted_h11_se=iwh_se,
                           c_hat=c_hat)


def run_ensemble(u0: SpectralField, model: NoiseModel | None, cfg: SdeConfig,
                 ens: EnsembleConfig) -> EnsembleReport:
    """Moment estimates at each Galerkin level plus the uniformity verdict.

    Raises GateError when the noise constants violate the existence gate and
    require_gates is set; a blow-up on any path aborts the whole ensemble.
    """
    empty = NoiseModel(c=(), b=(), g_kind="zero", m1=0.0, m2=0.0, cg=0.0)
    gate = condition_c_gate(condition_c_bounds(empty if model is None else model, eta=ens.eta))
    if ens.require_gates and not gate.existence_ok:
        raise GateError(f"existence gate violated: {gate.describe()}")

    # ||u0||^2 of the projection of u0 onto all basis elements of the grid
    u0_l2 = float(np.sum(GalerkinFrame(u0.grid, max_level(u0.grid)).coords(u0.coeffs) ** 2))
    levels = [_level_estimates(u0, u0_l2, model, cfg, ens, lvl) for lvl in ens.levels]
    c_hats = [lv.c_hat for lv in levels]
    spread = float(max(c_hats) / min(c_hats)) if min(c_hats) > 0 else float("inf")
    return EnsembleReport(levels=levels, gate=gate, u0_l2_sq=u0_l2,
                          spread=spread, uniform_ok=bool(spread <= 2.0))


def moment_bound_report(report: EnsembleReport) -> list[dict[str, object]]:
    """Flat rows (one per level) ready for CSV emission."""
    rows = []
    for lv in report.levels:
        rows.append({
            "level": lv.level,
            "n_paths": lv.n_paths,
            "est_sup_l2_sq": lv.sup_l2_sq,
            "se_sup_l2_sq": lv.sup_l2_sq_se,
            "est_int_h10_sq": lv.int_h10_sq,
            "se_int_h10_sq": lv.int_h10_sq_se,
            "est_sup_l2_4th": lv.sup_l2_4th,
            "se_sup_l2_4th": lv.sup_l2_4th_se,
            "est_sup_weighted_h01": lv.sup_weighted_h01,
            "se_sup_weighted_h01": lv.sup_weighted_h01_se,
            "est_int_weighted_h11": lv.int_weighted_h11,
            "se_int_weighted_h11": lv.int_weighted_h11_se,
            "c_hat": lv.c_hat,
            "existence_gate": report.gate.existence_ok,
            "uniqueness_gate": report.gate.uniqueness_ok,
        })
    return rows
