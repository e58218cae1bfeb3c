import numpy as np
import pytest

import fullgrid
from ans2d.basis import GalerkinFrame, max_level, quadrature_grid
from ans2d.det import DetConfig, run_det
from ans2d.noise import NoiseModel, make_model, sample_wiener_increment
from ans2d.norms import norm_rows
from ans2d.sde import (
    SdeConfig,
    draw_increments,
    ito_isometry_audit,
    ou_mode_validation,
    pathwise_uniqueness_experiment,
    run_sde,
    single_mode_noise,
    undamped_mode_validation,
    weighted_h01_series,
)
from ans2d.spectral import SpectralField, TorusGrid


def _model_small():
    return make_model(["0.05*cos(0,1)"], ["0.05*cos(1,0)", "0.02*sin(1,1)"], "tanh")


def test_config_validation():
    with pytest.raises(ValueError):
        SdeConfig(alpha_tilde=1.0)
    with pytest.raises(ValueError):
        SdeConfig(galerkin_n=0)
    assert SdeConfig(dt=1e-3, t_end=0.5).n_steps == 500


def test_run_is_deterministic(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=1)
    cfg = SdeConfig(dt=2e-3, t_end=0.05, galerkin_n=10, seed=9)
    a = run_sde(u0, _model_small(), cfg)
    b = run_sde(u0, _model_small(), cfg)
    assert np.array_equal(a.final.coeffs, b.final.coeffs)
    for name in a.diag:
        assert np.array_equal(a.diag[name], b.diag[name])
    c = run_sde(u0, _model_small(), SdeConfig(dt=2e-3, t_end=0.05, galerkin_n=10, seed=10))
    assert not np.array_equal(a.final.coeffs, c.final.coeffs)


def test_zero_noise_reduces_to_deterministic_euler(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=2)
    dt, t_end = 2e-3, 0.1
    sde = run_sde(u0, NoiseModel(), SdeConfig(dt=dt, t_end=t_end, galerkin_n=max_level(grid16)))
    det = run_det(u0, DetConfig(dt=dt, t_end=t_end, integrator="if-euler", eps_v=0.0))
    final_det = det.final
    scale = float(np.max(np.abs(final_det.coeffs)))
    assert np.max(np.abs(sde.final.coeffs - final_det.coeffs)) <= 1e-12 * scale
    np.testing.assert_allclose(sde.diag["l2_sq"], det.l2_sq, rtol=1e-12)


def test_galerkin_projection_is_invariant(grid16, make_field):
    # the state never leaves the span: projecting the final state is a no-op
    u0 = make_field(grid16, band=4, seed=3)
    cfg = SdeConfig(dt=2e-3, t_end=0.05, galerkin_n=6, seed=1)
    traj = run_sde(u0, _model_small(), cfg)
    again = fullgrid.project(traj.final.coeffs, grid16, 6)
    np.testing.assert_allclose(traj.final.coeffs, again, atol=1e-14)


def _manual_noise(u0, model, n, dw):
    # P_n sigma(u0) dW, zero without a channel
    if not model.n_modes:
        return np.zeros_like(u0.coeffs)
    return fullgrid.sigma(model, u0.coeffs, u0.grid, dw, n)


def _manual_sde_step(u0, model, dt, n, dw):
    # u1 = exp(-k1^2 dt) (u0 - dt P_n(u0.grad u0) + P_n sigma(u0) dW), from full-grid
    # transforms, the level's mask and a Leray projection (tests/fullgrid.py)
    ef = np.exp(-dt * fullgrid.wavenumbers(u0.grid)[0] ** 2)
    adv = fullgrid.advection(u0.coeffs, u0.grid, n)
    return ef * (u0.coeffs - dt * adv + _manual_noise(u0, model, n, dw))


def test_step_sde_matches_manual_update(grid16, make_field):
    # one step of the SDE engine; odd n splits a pair
    from ans2d.sde import _run_batched

    n = 9
    u0 = make_field(grid16, band=3, seed=15)
    u0 = SpectralField(grid16, fullgrid.project(u0.coeffs, grid16, n))
    model = _model_small()
    cfg = SdeConfig(dt=1e-3, t_end=1e-3, galerkin_n=n, seed=3)
    incs = sample_wiener_increment(model.n_modes, 1, cfg.dt, cfg.seed, 0)
    run = _run_batched(u0.coeffs, grid16, model, cfg, draw_increments(model, cfg, (0,)))
    assert run.final.shape == (1, n)
    expected = _manual_sde_step(u0, model, cfg.dt, n, incs[0])
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(run.frame.lift(run.final[0]) - expected)) <= 1e-13 * scale


def test_batched_engine_one_step_matches_step_sde(grid16, make_field):
    # a batch of distinct paths: each row takes its own one-step update
    from ans2d.sde import _run_batched

    n = 8
    model = _model_small()
    cfg = SdeConfig(dt=1e-3, t_end=1e-3, galerkin_n=n, seed=4)
    u0s = [make_field(grid16, band=3, seed=20 + j) for j in range(3)]
    u0s = [SpectralField(grid16, fullgrid.project(u.coeffs, grid16, n)) for u in u0s]
    incs = np.stack([sample_wiener_increment(model.n_modes, 1, cfg.dt, cfg.seed, j)
                     for j in range(3)])
    run = _run_batched(np.stack([u.coeffs for u in u0s]), grid16, model, cfg,
                       draw_increments(model, cfg, range(3)))
    for j, u0 in enumerate(u0s):
        expected = _manual_sde_step(u0, model, cfg.dt, n, incs[j, 0])
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(run.frame.lift(run.final[j]) - expected)) <= 1e-13 * scale


def _manual_diag_row(u, model, n, work):
    # one diagnostic row of state u on its own grid, from the full-grid references
    grid = u.grid
    row = {name: float(v) for name, v in norm_rows(u.coeffs, grid).items()}
    adv = fullgrid.advection(u.coeffs, grid, n)
    d2adv, d2u = (fullgrid.deriv(c, grid, 2) for c in (adv, u.coeffs))
    chans = fullgrid.channels(model, u.coeffs, grid, n)
    row.update(h01_sq=row["l2_sq"] + row["d2_sq"],
               cross=fullgrid.inner(d2adv, d2u, grid),  # (d2 P_n(u.grad u), d2 u)
               noise_work=work,
               hs_sq=sum(fullgrid.inner(c, c, grid) for c in chans))
    return row


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("model", [
    make_model([], ["0.1*cos(1,0) + 0.05*cos(0,1)", "0.07*sin(1,1)"], "one"),
    NoiseModel(),
], ids=["additive", "no-noise"])
def test_quadrature_grid_run_matches_manual_steps(grid16, make_field, model, n):
    # the engine advects on the level's smaller quadrature grid; repeated
    # manual steps on the configured grid give the same coordinates and rows
    from ans2d.sde import _run_batched, _Stepper

    cfg = SdeConfig(dt=2e-3, t_end=0.01, galerkin_n=n, seed=8)
    assert _Stepper(grid16, model, cfg).qgrid == quadrature_grid(grid16, n) != grid16
    n_modes = model.n_modes
    u0 = make_field(grid16, band=3, seed=21)
    run = _run_batched(u0.coeffs, grid16, model, cfg, draw_increments(model, cfg, (0, 1)))
    for path in (0, 1):
        incs = sample_wiener_increment(n_modes, cfg.n_steps, cfg.dt, cfg.seed, path)
        u = SpectralField(grid16, fullgrid.project(u0.coeffs, grid16, n))
        rows = [_manual_diag_row(u, model, n, 0.0)]
        for dw in incs:
            work = fullgrid.inner(_manual_noise(u, model, n, dw), u.coeffs, grid16)
            u = SpectralField(grid16, _manual_sde_step(u, model, cfg.dt, n, dw))
            rows.append(_manual_diag_row(u, model, n, work))
        expected = u.coeffs
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(run.frame.lift(run.final[path]) - expected)) <= 1e-13 * scale
        for name in run.diag:
            col = np.array([row[name] for row in rows])
            scale = max(float(np.max(np.abs(col))), 1e-300)
            assert np.max(np.abs(run.diag[name][:, path] - col)) <= 1e-13 * scale, name


def test_multiplicative_noise_keeps_configured_grid(grid16):
    # sigma(u) is not band-limited: its samples come from the configured grid
    from ans2d.sde import _Stepper

    for n in (8, 32):
        assert _Stepper(grid16, _model_small(), SdeConfig(galerkin_n=n)).qgrid == grid16


def test_additive_fast_path_matches_channels(grid16):
    model = make_model([], ["0.1*cos(1,0)", "0.05*sin(0,1)"], "one")
    assert model.is_additive
    cfg = SdeConfig(dt=1e-3, t_end=1e-3, galerkin_n=8)
    dw = np.array([0.3, -0.2])
    from ans2d.sde import _Stepper

    st = _Stepper(grid16, model, cfg)
    # additive noise reads no samples of the state
    fast = st.frame.lift(st.noise_increment(np.stack([dw, 2.0 * dw, -dw]), None))
    chans = fullgrid.channels(model, np.zeros((2, 16, 16)), grid16, 8)
    expected = dw[0] * chans[0] + dw[1] * chans[1]
    np.testing.assert_allclose(fast[0], expected, atol=1e-15)
    np.testing.assert_allclose(fast[1], 2.0 * expected, atol=1e-15)
    np.testing.assert_allclose(fast[2], -expected, atol=1e-15)
    assert st.noise_increment(dw[None, :], None).shape == (1, 8)


@pytest.mark.parametrize("model, drop", [
    (make_model([], ["0.1*cos(1,0) + 0.05*cos(0,1)", "0.07*cos(1,0) - 0.04*cos(0,1)"], "one"),
     False),
    (_model_small(), False),
    (single_mode_noise(TorusGrid(16, 16), (1, 0), 1.0), True),
], ids=["additive", "tanh", "single-mode"])
def test_additive_paths_replay_across_batch_layout(grid16, make_field, model, drop):
    # two noise channels sharing modes, additive or multiplicative, and the
    # single-mode law's shape (one channel, no nonlinearity); one batch of 9
    # paths against batches of 4, 2, 1 and 2, with and without diagnostics
    from ans2d.sde import _run_batched

    cfg = SdeConfig(dt=2e-3, t_end=0.02, galerkin_n=8, seed=5, drop_nonlinearity=drop)
    u0 = make_field(grid16, band=3, seed=16).coeffs
    whole = _run_batched(u0, grid16, model, cfg, draw_increments(model, cfg, range(9)))
    lean = _run_batched(u0, grid16, model, cfg, draw_increments(model, cfg, range(9)),
                        with_diag=False)
    np.testing.assert_array_equal(lean.final, whole.final)
    for rows in (range(0, 4), range(4, 6), range(6, 7), range(7, 9)):
        part = _run_batched(u0, grid16, model, cfg, draw_increments(model, cfg, rows))
        sl = slice(rows.start, rows.stop)
        np.testing.assert_array_equal(part.final, whole.final[sl])
        for name in part.diag:
            np.testing.assert_array_equal(part.diag[name], whole.diag[name][:, sl])


def test_draw_increments_are_step_major_per_path_streams():
    model = make_model([], ["0.1*cos(1,0)", "0.05*sin(0,1)"], "one")
    cfg = SdeConfig(dt=2e-3, t_end=0.02, seed=5)
    incs = draw_increments(model, cfg, (3, 0, 3))
    assert incs.shape == (cfg.n_steps, 3, model.n_modes)
    for col, path in enumerate((3, 0, 3)):
        np.testing.assert_array_equal(
            incs[:, col], sample_wiener_increment(model.n_modes, cfg.n_steps, cfg.dt, 5, path))
    # no noise, or a zero model: nothing is drawn
    zero = make_model([], ["0.0*cos(1,0)"], "one")
    for quiet in (NoiseModel(), zero):
        assert draw_increments(quiet, cfg, range(4)).shape == (cfg.n_steps, 4, 0)


@pytest.mark.parametrize("model", [NoiseModel(), _model_small()], ids=["no-noise", "tanh"])
def test_nan_initial_state_blows_up_at_first_step(grid16, make_field, model):
    # the per-path norm must not drop NaNs: the first step already fails
    from ans2d.errors import BlowUpError
    from ans2d.sde import _run_batched

    cfg = SdeConfig(dt=2e-3, t_end=0.02, galerkin_n=8, seed=5)
    frame = GalerkinFrame(grid16, 8)
    a0 = frame.coords(make_field(grid16, band=3, seed=16).coeffs)
    a0[3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError) as err:
        _run_batched(frame.lift(a0), grid16, model, cfg, draw_increments(model, cfg, range(2)),
                     with_diag=False)
    assert err.value.last_finite_time == 0.0


def test_out_of_band_recipe_is_refused_where_recipes_are_sampled():
    # on 16 points cos(9, 0) samples as cos(7, 0), outside the band: a run
    # would step silent zero noise (hs_sq ~ 1e-32) instead of refusing it
    from ans2d.ensemble import EnsembleConfig, run_ensemble
    from ans2d.noise import condition_c_empirical_check
    from ans2d.spectral import taylor_green

    u0 = taylor_green(TorusGrid(16, 16))
    model = make_model([], ["0.1*cos(9,0)"])
    cfg = SdeConfig(dt=1e-3, t_end=0.01, galerkin_n=8)
    for run in (lambda: run_sde(u0, model, cfg),
                lambda: run_ensemble(u0, model, cfg, EnsembleConfig(n_paths=2, levels=(8,))),
                lambda: condition_c_empirical_check(model, [u0])):
        with pytest.raises(ValueError, match="outside the alias-free band"):
            run()


def test_weighted_series_recomputation(grid16, make_field):
    u0 = make_field(grid16, band=4, seed=6)
    cfg = SdeConfig(dt=2e-3, t_end=0.1, galerkin_n=12, seed=2, alpha_tilde=0.4)
    traj = run_sde(u0, _model_small(), cfg)
    w = traj.weighted
    # rebuild h from the recorded d1 column
    d1 = traj.diag["d1_sq"]
    h = np.zeros_like(d1)
    h[1:] = np.cumsum(0.5 * np.diff(traj.t) * (d1[:-1] + d1[1:])) * 2.0 * w.big_c
    np.testing.assert_allclose(w.h, h, atol=1e-15)
    np.testing.assert_allclose(w.weighted_h01, np.exp(-h) * traj.diag["h01_sq"], rtol=1e-13)
    assert w.big_c == pytest.approx(w.c_emp_sup ** 2 / (4.0 * cfg.alpha_tilde))
    assert np.all(np.diff(w.int_weighted_h11) >= 0.0)
    ws = weighted_h01_series(traj.t, d1, traj.diag["d1d2_sq"], traj.diag["d2_sq"],
                             traj.diag["cross"], traj.diag["h01_sq"],
                             traj.diag["h11_sq"], cfg.alpha_tilde)
    np.testing.assert_allclose(ws.weighted_h01, w.weighted_h01, atol=0.0)


def test_ito_energy_balance_audit(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=7, amplitude=0.5)
    cfg = SdeConfig(dt=2e-3, t_end=0.1, galerkin_n=10, seed=5)
    report = ito_isometry_audit(u0, _model_small(), cfg, n_paths=60)
    assert report.passed
    assert report.quad_mean > 0.0


def test_pathwise_uniqueness_bitwise(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=8)
    cfg = SdeConfig(dt=2e-3, t_end=0.1, galerkin_n=10, seed=3)
    report = pathwise_uniqueness_experiment(u0, u0.copy(), _model_small(), cfg)
    assert report.bitwise_zero and report.verdict.passed
    assert np.all(report.w_l2_sq == 0.0)


def test_pathwise_uniqueness_perturbed(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=9)
    pert = make_field(grid16, band=3, seed=10)
    v0 = SpectralField(grid16, u0.coeffs + 1e-7 * pert.coeffs)
    cfg = SdeConfig(dt=2e-3, t_end=0.2, galerkin_n=10, seed=4)
    report = pathwise_uniqueness_experiment(u0, v0, _model_small(), cfg, tol=0.05)
    assert not report.bitwise_zero
    assert report.verdict.passed
    assert report.max_ratio <= 1.0
    assert report.growth[-1] > 0.0


def test_single_mode_noise_guard(grid16):
    with pytest.raises(ValueError, match="k1 != k2"):
        single_mode_noise(grid16, (1, 1), 0.1)
    model = single_mode_noise(grid16, (1, 0), 0.1)
    from ans2d.norms import MEASURE
    from ans2d.sde import _Stepper

    # the channel the engine adds, at the top level of the grid
    st = _Stepper(grid16, model, SdeConfig(galerkin_n=max_level(grid16)))
    chans = st.frame.lift(st.additive)
    # projected channel is exactly s * e_mode
    np.testing.assert_allclose(chans[0], 0.1 * fullgrid.element(grid16, (1, 0)), atol=1e-15)
    assert MEASURE * np.sum(np.abs(chans[0]) ** 2) == pytest.approx(0.01, rel=1e-12)


def test_ou_validation_small():
    cfg = SdeConfig(dt=1e-3, t_end=0.5, galerkin_n=4, seed=11, drop_nonlinearity=True)
    report = ou_mode_validation((1, 0), s=0.3, m0=0.04, n_paths=400, cfg=cfg)
    assert report.passed
    assert report.exact == pytest.approx(
        np.exp(-2.0 * 0.5) * 0.04 + 0.09 * (1.0 - np.exp(-2.0 * 0.5)) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        ou_mode_validation((0, 1), s=0.3, m0=0.0, n_paths=10, cfg=cfg)
    with pytest.raises(ValueError, match="outside the first 4"):
        ou_mode_validation((2, 0), s=0.3, m0=0.0, n_paths=10, cfg=cfg)
    live = SdeConfig(dt=1e-3, t_end=0.1, galerkin_n=4, seed=1)
    with pytest.raises(ValueError, match="drop_nonlinearity"):
        ou_mode_validation((1, 0), s=0.3, m0=0.0, n_paths=10, cfg=live)


def test_ou_validation_non_canonical_mode():
    # (-1, 0) names the sine element of the (1, 0) pair; the law is read on
    # the cosine element its noise drives, and the run must start there too
    cfg = SdeConfig(dt=1e-3, t_end=0.5, galerkin_n=4, seed=11, drop_nonlinearity=True)
    report = ou_mode_validation((-1, 0), s=0.3, m0=0.5, n_paths=2000, cfg=cfg)
    assert report.passed
    assert report.exact == pytest.approx(
        np.exp(-1.0) * 0.5 + 0.09 * (1.0 - np.exp(-1.0)) / 2.0, rel=1e-12)


def test_undamped_validation_small():
    cfg = SdeConfig(dt=1e-3, t_end=0.5, galerkin_n=4, seed=12, drop_nonlinearity=True)
    report = undamped_mode_validation((0, 1), s=0.2, n_paths=400, cfg=cfg)
    assert report.passed
    assert report.exact == pytest.approx(0.04 * 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        undamped_mode_validation((1, 0), s=0.2, n_paths=10, cfg=cfg)


def test_blowup_guard_in_batched_run(grid16, make_field):
    u0 = SpectralField(grid16, make_field(grid16, band=3, seed=13).coeffs * 1e4)
    cfg = SdeConfig(dt=0.5, t_end=5.0, galerkin_n=max_level(grid16), blowup_factor=10.0)
    from ans2d.errors import BlowUpError

    with pytest.raises(BlowUpError):
        run_sde(u0, NoiseModel(), cfg)


def _batch_run(grid, make_field, with_hs, n_paths=3, t_end=0.02):
    from ans2d.sde import _run_batched

    u0 = make_field(grid, band=3, seed=14)
    model = _model_small()
    cfg = SdeConfig(dt=2e-3, t_end=t_end, galerkin_n=9, seed=6)
    return _run_batched(u0.coeffs, grid, model, cfg, draw_increments(model, cfg, range(n_paths)),
                        with_hs=with_hs)


def test_hs_column_is_the_only_one_with_hs_changes(grid16, make_field):
    lean = _batch_run(grid16, make_field, with_hs=False)
    full = _batch_run(grid16, make_field, with_hs=True)
    np.testing.assert_array_equal(lean.final, full.final)
    for name in lean.diag:
        if name != "hs_sq":
            np.testing.assert_array_equal(lean.diag[name], full.diag[name])
    assert np.all(lean.diag["hs_sq"] == 0.0)
    assert np.all(full.diag["hs_sq"] > 0.0)


def test_batched_hs_matches_channel_norms(grid16, make_field):
    # all channels in one sigma evaluation agree with the channel norms per state
    full = _batch_run(grid16, make_field, with_hs=True, n_paths=2)
    u = full.frame.lift(full.final[1])
    chans = fullgrid.channels(_model_small(), u, grid16, 9)
    expected = sum(fullgrid.inner(c, c, grid16) for c in chans)
    assert full.diag["hs_sq"][-1, 1] == pytest.approx(expected, rel=1e-12)


def _count_step_loop(grid, make_field, monkeypatch, model):
    """Layer calls of a 3-path run, and the real fields each _phys call synthesized."""
    from ans2d import basis, noise, spectral
    from ans2d.sde import _run_batched

    calls = {"phys": 0, "adv": 0, "sigma": 0, "pairs": 0}
    fields = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "phys":  # real fields, two per packed row
                assert out.dtype == np.complex128
                fields.append(out.view(np.float64).size // args[1])
            return out
        return wrapped

    monkeypatch.setattr(spectral, "_phys", counting("phys", spectral._phys))
    monkeypatch.setattr(spectral, "_advection_raw", counting("adv", spectral._advection_raw))
    monkeypatch.setattr(noise, "_sigma_raw", counting("sigma", noise._sigma_raw))
    monkeypatch.setattr(basis, "enumerate_pairs", counting("pairs", basis.enumerate_pairs))
    monkeypatch.setattr(basis, "_FRAMES", {})  # frames are cached: start from none
    cfg = SdeConfig(dt=2e-3, t_end=0.02, galerkin_n=9, seed=6)
    run = _run_batched(make_field(grid, band=3, seed=14).coeffs, grid, model, cfg,
                       draw_increments(model, cfg, range(3)), with_hs=False)
    return calls, fields, len(run.t) - 1


def test_step_loop_shares_one_synthesis_per_state(grid16, make_field, monkeypatch):
    # per state: one _phys call, one advection, one sigma(u); the c-channel
    # reads d1 u, so each of the 3 paths synthesizes (u1, u2, d1 u1, d1 u2)
    # in 2 packed rows
    calls, fields, n_steps = _count_step_loop(grid16, make_field, monkeypatch, _model_small())
    assert calls == {"phys": n_steps + 1, "adv": n_steps + 1, "sigma": n_steps, "pairs": 1}
    assert fields == [4 * 3] * (n_steps + 1)


@pytest.mark.parametrize("g_kind", ["tanh", "one"])
def test_step_loop_synthesizes_two_rows_without_c_channels(grid16, make_field, monkeypatch,
                                                          g_kind):
    # with b-channels only (multiplicative tanh, or additive) nothing reads
    # d1 u: each of the 3 paths synthesizes (u1, u2), 1 packed row, per state
    model = make_model([], ["0.05*cos(1,0)", "0.02*sin(1,1)"], g_kind)
    calls, fields, n_steps = _count_step_loop(grid16, make_field, monkeypatch, model)
    assert calls["phys"] == calls["adv"] == n_steps + 1
    assert fields == [2 * 3] * (n_steps + 1)


def test_weighted_series_batch_matches_per_path(grid16, make_field):
    run = _batch_run(grid16, make_field, with_hs=False, n_paths=5, t_end=0.04)
    d = run.diag
    cols = ("d1_sq", "d1d2_sq", "d2_sq", "cross", "h01_sq", "h11_sq")
    batch = weighted_h01_series(run.t, *(d[name] for name in cols), 0.4)
    assert batch.c_emp_sup.shape == (5,)
    for j in range(5):
        one = weighted_h01_series(run.t, *(d[name][:, j] for name in cols), 0.4)
        assert batch.c_emp_sup[j] == one.c_emp_sup
        assert batch.big_c[j] == one.big_c
        for field in ("h", "weighted_h01", "int_weighted_h11"):
            np.testing.assert_array_equal(getattr(batch, field)[:, j], getattr(one, field))
