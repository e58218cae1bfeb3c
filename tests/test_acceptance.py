"""End-to-end acceptance battery.

Each test prints one `[criterion NN] PASS/FAIL` line with the measured
quantity and asserts the stated tolerance, including the wall-clock budget.
"""

import time

import numpy as np
import pytest

import fullgrid
from conftest import record_verdict

from ans2d.basis import (
    GalerkinFrame,
    galerkin_project_raw,
    max_level,
)
from ans2d.det import (
    ENERGY_REL_TOL,
    H01_SLACK,
    DetConfig,
    energy_certificate,
    eps_sweep,
    h01_certificate,
    run_det,
    time_profile,
    weak_form_residual,
)
from ans2d.ensemble import SPREAD_BOUND, EnsembleConfig, run_ensemble
from ans2d.noise import (
    ConditionCConstants,
    condition_c_bounds,
    condition_c_gate,
    make_model,
)
from ans2d.norms import (
    MEASURE,
    NormReport,
    check_anisotropic_embedding,
    cumulative_trapezoid,
    norm_rows,
)
from ans2d.sde import (
    ORACLE_TOL,
    SdeConfig,
    drift_oracle_error,
    oracle_levels,
    ou_mode_validation,
    pathwise_uniqueness_experiment,
    undamped_mode_validation,
)
from ans2d.spectral import (
    SpectralField,
    TorusGrid,
    nonlinear_term_oracle,
    random_solenoidal_field,
    shear_field,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print("\n" + record_verdict(num, ok, detail))
    assert ok, f"criterion {num:02d}: {detail}"


def _field(grid: TorusGrid, band: int, seed: int, amplitude: float = 1.0) -> SpectralField:
    return random_solenoidal_field(grid, band=band, amplitude=amplitude,
                                   rng=np.random.default_rng(seed))


def test_criterion_01_shear_decay():
    # this process's CPU time: the run is sub-second, so on a shared host
    # the wall clock would mostly time the neighbours
    start = time.process_time()
    grid = TorusGrid(32, 32)
    u0 = shear_field(grid, axis=1, amplitude=1.0)
    traj = run_det(u0, DetConfig(dt=1e-3, t_end=1.0, integrator="if-rk2"))
    l2_0 = float(norm_rows(u0.coeffs, grid)["l2_sq"])
    exact = l2_0 * np.exp(-2.0 * traj.t)
    err = float(np.max(np.abs(traj.diag["l2_sq"] - exact)) / l2_0)
    final = traj.frame.lift(traj.final_coords)
    state_err = float(np.max(np.abs(final - np.exp(-1.0) * u0.coeffs)))
    elapsed = time.process_time() - start
    ok = err <= 1e-10 and state_err <= 1e-10 and elapsed < 1.0
    _verdict(1, ok, f"rel_energy_err={err:.3e} state_err={state_err:.3e} "
                    f"elapsed={elapsed:.2f}s (budget 1s)")


def test_criterion_02_advection_oracle():
    # the solvers' own drift at each level of the ladder, one oracle call per field
    grid = TorusGrid(8, 8)
    levels = oracle_levels(grid)
    nonlinear_term_oracle(_field(grid, 2, 0))  # warm any jit cache
    start = time.monotonic()
    worst = dict.fromkeys(levels, 0.0)
    for seed in range(50):
        level = levels[seed % len(levels)]
        worst[level] = max(worst[level], drift_oracle_error(_field(grid, 2, seed), level))
    elapsed = time.monotonic() - start
    ok = max(worst.values()) <= ORACLE_TOL and elapsed < 1.0
    per_level = " ".join(f"{level}:{err:.3e}" for level, err in worst.items())
    _verdict(2, ok, f"max_rel_err per level {per_level} (<= {ORACLE_TOL:.0e}) over 50 fields, "
                    f"elapsed={elapsed:.2f}s (budget 1s)")


def test_criterion_03_energy_identity_second_order():
    start = time.monotonic()
    grid = TorusGrid(64, 64)
    # moderate band: the residual is trapezoid-limited and scales with the
    # square of the fastest horizontal decay rate present in the data
    u0 = _field(grid, 4, 1)
    rels = []
    for dt in (2e-3, 1e-3):
        traj = run_det(u0, DetConfig(dt=dt, t_end=1.0, integrator="if-rk2"))
        rels.append(energy_certificate(traj).verdict.measured)
    ratio = rels[0] / rels[1]
    elapsed = time.monotonic() - start
    ok = 3.5 <= ratio <= 4.5 and rels[1] <= ENERGY_REL_TOL and elapsed < 30.0
    _verdict(3, ok, f"rel_residuals={rels[0]:.3e}/{rels[1]:.3e} ratio={ratio:.2f} "
                    f"elapsed={elapsed:.1f}s (budget 30s)")


def test_criterion_04_vertical_gradient_certificate():
    # same data and fine step as the energy-identity run
    grid = TorusGrid(64, 64)
    u0 = _field(grid, 4, 1)
    traj = run_det(u0, DetConfig(dt=1e-3, t_end=1.0, integrator="if-rk2"))
    report = h01_certificate(traj)
    int_d1d2 = float(cumulative_trapezoid(traj.diag["d1d2_sq"], traj.config.dt)[-1])
    ok = report.monotone.passed and report.bound.passed and np.isfinite(int_d1d2)
    _verdict(4, ok, f"max_step_increase={report.monotone.measured:.3e} "
                    f"(allowed {H01_SLACK * report.weighted[0]:.3e}) c_sup={report.c_sup:.3f} "
                    f"int_d1d2={int_d1d2:.3e}")


def test_criterion_05_anisotropic_embedding_battery():
    start = time.monotonic()
    grid = TorusGrid(32, 32)
    report = NormReport()
    rng = np.random.default_rng(3)
    for _ in range(500):
        u = random_solenoidal_field(grid, band=8, amplitude=1.0, rng=rng)
        samples = fullgrid.samples(u.coeffs, grid)
        check_anisotropic_embedding(grid, samples[0], report)
        check_anisotropic_embedding(grid, samples[1], report)
    elapsed = time.monotonic() - start
    n_embed = sum(1 for name, *_ in report.rows if name.startswith("embedding"))
    ok = not report.failures() and n_embed == 2000 and elapsed < 10.0
    _verdict(5, ok, f"{n_embed} embedding rows (1000 fields, both orientations), "
                    f"failures={len(report.failures())}, elapsed={elapsed:.1f}s (budget 10s)")


def test_criterion_06_basis_gram_and_projection_equivalence():
    # inner products as Parseval sums over the coefficients: (a, b) with
    # weight 1, and (a, b) + (d2 a, d2 b) with weight 1 + k2^2
    grid = TorusGrid(16, 16)
    h01_weight = 1.0 + grid.k2.astype(np.float64) ** 2

    def inner(a, b, w=1.0):
        return float(MEASURE * np.sum(w * a * np.conj(b)).real)

    n = 32
    ks = GalerkinFrame(grid, n).wavevectors.tolist()
    elems = [fullgrid.basis_element(grid, k).coeffs for k in ks]
    worst_gram = 0.0
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            g_l2 = inner(a, b)
            g_h01 = inner(a, b, h01_weight)
            if i == j:
                k2 = ks[i][1]
                worst_gram = max(worst_gram, abs(g_l2 - 1.0),
                                 abs(g_h01 - (1.0 + k2 ** 2)))
            else:
                worst_gram = max(worst_gram, abs(g_l2), abs(g_h01))
    worst_proj = 0.0
    for seed in range(50):
        u = _field(grid, 5, 100 + seed).coeffs
        for level in (9, 12):
            p = galerkin_project_raw(u, grid, level)
            via_h01 = np.zeros_like(u)
            for k in GalerkinFrame(grid, level).wavevectors.tolist():
                e = fullgrid.basis_element(grid, k).coeffs
                via_h01 += (inner(u, e, h01_weight) / (1.0 + k[1] ** 2)) * e
            worst_proj = max(worst_proj, float(np.max(np.abs(p - via_h01))))
    ok = worst_gram <= 1e-12 and worst_proj <= 1e-12
    _verdict(6, ok, f"gram_defect={worst_gram:.3e} projection_gap={worst_proj:.3e} "
                    f"(32 elements, 50 fields)")


def test_criterion_07_noise_gates_strict():
    def gate(k2, kt2, l2):
        return condition_c_gate(ConditionCConstants(
            k0p=0, k1p=0, k0=0, k1=0, k2=k2, kt0=0, kt1=0, kt2=kt2,
            l1=0, l2=l2, eta=0.1))

    good = gate(0.18, 0.39, 0.39)
    bad_exist = gate(0.19, 0.39, 0.39)
    bad_unique = gate(0.18, 0.39, 0.40)
    at_limit = gate(2.0 / 11.0, 2.0 / 5.0, 2.0 / 5.0)
    ok = (good.existence_ok and good.uniqueness_ok
          and not bad_exist.existence_ok and not bad_exist.uniqueness_ok
          and bad_unique.existence_ok and not bad_unique.uniqueness_ok
          and not at_limit.existence_ok and not at_limit.uniqueness_ok)
    _verdict(7, ok, f"(0.18,0.39,0.39)->({good.existence_ok},{good.uniqueness_ok}) "
                    f"K2=0.19->exist={bad_exist.existence_ok} "
                    f"L2=0.40->unique={bad_unique.uniqueness_ok} boundary rejected")


def test_criterion_08_single_mode_law():
    start = time.monotonic()
    cfg = SdeConfig(dt=1e-3, t_end=2.0, galerkin_n=4, seed=21, drop_nonlinearity=True)
    damped = ou_mode_validation((1, 0), s=1.0, m0=0.04, n_paths=10_000, cfg=cfg)
    undamped = undamped_mode_validation((0, 1), s=1.0, n_paths=10_000, cfg=cfg)
    elapsed = time.monotonic() - start
    ok = damped.passed and undamped.passed and elapsed < 120.0
    _verdict(8, ok, f"damped |{damped.second_moment:.5f}-{damped.exact:.5f}|"
                    f"<= {damped.allowance:.5f}; undamped |{undamped.second_moment:.5f}"
                    f"-{undamped.exact:.5f}| <= {undamped.allowance:.5f}; "
                    f"elapsed={elapsed:.0f}s (budget 120s)")


def test_criterion_09_pathwise_uniqueness():
    start = time.monotonic()
    grid = TorusGrid(16, 16)
    u0 = _field(grid, 3, 4)
    model = make_model(["0.05*cos(0,1)"], ["0.05*cos(1,0)", "0.02*sin(1,1)"], "tanh")
    cfg = SdeConfig(dt=1e-3, t_end=1.0, galerkin_n=12, seed=6)
    same = pathwise_uniqueness_experiment(u0, u0.copy(), model, cfg)
    pert = SpectralField(grid, u0.coeffs + 1e-8 * _field(grid, 3, 5).coeffs)
    close = pathwise_uniqueness_experiment(u0, pert, model, cfg)
    elapsed = time.monotonic() - start
    ok = (same.bitwise_zero and same.verdict.passed and np.all(same.w_l2_sq == 0.0)
          and not close.bitwise_zero and close.verdict.passed and elapsed < 60.0)
    _verdict(9, ok, f"identical: bitwise over {len(same.t) - 1} steps; perturbed: "
                    f"max_ratio={close.max_ratio:.3f} (<=1 required), "
                    f"elapsed={elapsed:.0f}s (budget 60s)")


def test_criterion_10_moment_uniformity_across_levels():
    start = time.monotonic()
    grid = TorusGrid(16, 16)
    u0 = _field(grid, 1, 7)
    model = make_model([], ["0.1*cos(1,0)", "0.05*sin(0,1)"], "one")
    cfg = SdeConfig(dt=2e-3, t_end=0.5, galerkin_n=8, seed=17)
    ens = EnsembleConfig(n_paths=500, levels=(8, 16, 32), batch=250)
    report = run_ensemble(u0, model, cfg, ens)
    elapsed = time.monotonic() - start
    gate = condition_c_gate(condition_c_bounds(model))
    ok = report.uniform.passed and gate.existence_ok and elapsed < 300.0
    c_hats = {lv.level: round(lv.c_hat, 4) for lv in report.levels}
    _verdict(10, ok, f"c_hat per level {c_hats} spread={report.uniform.measured:.3f} "
                     f"(<={SPREAD_BOUND:g}), "
                     f"500 paths, elapsed={elapsed:.0f}s (budget 300s)")


def test_criterion_11_regularization_convergence():
    start = time.monotonic()
    grid = TorusGrid(32, 32)
    u0 = _field(grid, 4, 8)
    dists = eps_sweep(u0, DetConfig(dt=2e-3, t_end=1.0, integrator="if-rk2"),
                      [0.1, 0.05, 0.025])
    elapsed = time.monotonic() - start
    ok = dists[0] > dists[1] > dists[2] > 0.0 and elapsed < 60.0
    _verdict(11, ok, f"L2-in-time distances {[f'{d:.3e}' for d in dists]} strictly "
                     f"decreasing, elapsed={elapsed:.0f}s (budget 60s)")


def test_criterion_12_weak_form_residual_order():
    # shear-decay run; the (1,0) pair's sine element (-1,0) is the one the
    # data (0, sin x1) excites, the canonical cosine element pairs to zero
    grid = TorusGrid(16, 16)
    u0 = shear_field(grid, axis=1, amplitude=1.0)
    orders = []
    for profile in ("cos", "quadratic"):
        res = []
        for dt in (4e-3, 2e-3):
            res.append(abs(weak_form_residual(u0, DetConfig(dt=dt, t_end=0.25), (-1, 0),
                                              time_profile(profile))))
        orders.append(float(np.log2(res[0] / res[1])))
    ok = all(o >= 1.9 for o in orders)
    _verdict(12, ok, f"orders under dt halving: {[f'{o:.2f}' for o in orders]} "
                     f"(shear run, (1,0) sine element, cos/quadratic profiles)")
