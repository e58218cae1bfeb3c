import numpy as np
import pytest

import fullgrid
from ans2d.basis import GalerkinFrame, max_level, quadrature_grid
from ans2d.det import DIAG_NAMES, DetConfig, run_det
from ans2d.noise import NoiseModel, make_model, sample_wiener_increment
from ans2d.norms import YOUNG_WEIGHT, norm_rows
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
        SdeConfig(galerkin_n=0)
    assert SdeConfig(dt=1e-3, t_end=0.5).n_steps == 500


def test_run_is_deterministic(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=1)
    cfg = SdeConfig(dt=2e-3, t_end=0.05, galerkin_n=10, seed=9)
    a = run_sde(u0, _model_small(), cfg)
    b = run_sde(u0, _model_small(), cfg)
    assert np.array_equal(a.final_coords, b.final_coords)
    for name in a.diag:
        assert np.array_equal(a.diag[name], b.diag[name])
    c = run_sde(u0, _model_small(), SdeConfig(dt=2e-3, t_end=0.05, galerkin_n=10, seed=10))
    assert not np.array_equal(a.final_coords, c.final_coords)


def test_zero_noise_reduces_to_deterministic_euler(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=2)
    dt, t_end = 2e-3, 0.1
    sde = run_sde(u0, NoiseModel(), SdeConfig(dt=dt, t_end=t_end, galerkin_n=max_level(grid16)))
    det = run_det(u0, DetConfig(dt=dt, t_end=t_end, integrator="if-euler", eps_v=0.0))
    # one march steps both: on a square grid the top level's quadrature grid
    # is the configured one, so every bit agrees
    np.testing.assert_array_equal(sde.final_coords, det.final_coords)
    for name in det.diag:
        np.testing.assert_array_equal(sde.diag[name], det.diag[name], err_msg=name)


def test_galerkin_projection_is_invariant(grid16, make_field):
    # the state never leaves the span: projecting the final state is a no-op
    u0 = make_field(grid16, band=4, seed=3)
    cfg = SdeConfig(dt=2e-3, t_end=0.05, galerkin_n=6, seed=1)
    traj = run_sde(u0, _model_small(), cfg)
    final = traj.frame.lift(traj.final_coords)
    np.testing.assert_allclose(final, fullgrid.project(final, grid16, 6), atol=1e-14)


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
    row.update(cross=fullgrid.inner(d2adv, d2u, grid),  # (d2 P_n(u.grad u), d2 u)
               noise_work=work,
               hs_sq=sum(fullgrid.inner(c, c, grid) for c in chans))
    return row


# sigma(u) whose b g(u) does not depend on u: transport channels alone, with
# g = zero, and beside constant b channels (g = one)
_C_ONLY = make_model(["0.05*cos(1,0)", "0.03*sin(1,-1) + 0.02"], [], "one")
_C_G_ZERO = make_model(["0.05*sin(2,1)"], ["0.05*cos(1,0)"], "zero")
_C_CONSTANT_B = make_model(["0.05*cos(0,1)", "0.02*sin(-1,2)"],
                           ["0.1*cos(1,0)", "0.07*sin(1,1) - 0.03"], "one")


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("model", [
    make_model([], ["0.1*cos(1,0) + 0.05*cos(0,1)", "0.07*sin(1,1)"], "one"),
    NoiseModel(),
    _C_ONLY,
    _C_G_ZERO,
    _C_CONSTANT_B,
], ids=["additive", "no-noise", "c-only", "c-g-zero", "c-constant-b"])
def test_quadrature_grid_run_matches_manual_steps(grid16, make_field, model, n):
    # the engine advects on the level's smaller quadrature grid; repeated
    # manual steps on the configured grid give the same coordinates and
    # rows.  A sigma whose b g(u) does not depend on u runs there too: its
    # c-channels act on the coordinates
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


@pytest.mark.parametrize("model", [_C_ONLY, _C_G_ZERO, _C_CONSTANT_B,
                                   make_model(["0.05*cos(0,1)"], ["0.0*cos(1,0)"], "tanh")],
                         ids=["c-only", "c-g-zero", "c-constant-b", "c-zero-b-tanh"])
def test_sigma_without_state_dependent_b_samples_nothing(grid16, make_field, monkeypatch, model):
    # no b g(u) that depends on u: the step loop synthesizes the state once
    # per step on the quadrature grid, for the advection alone, and never
    # samples sigma; the pairs are enumerated for the level's frame on the
    # configured grid and on the quadrature grid
    from ans2d.sde import _Stepper

    assert _Stepper(grid16, model, SdeConfig(galerkin_n=9)).qgrid == quadrature_grid(grid16, 9)
    calls, fields, n_steps = _count_step_loop(grid16, make_field, monkeypatch, model)
    assert calls == {"phys": n_steps + 1, "adv": n_steps + 1, "sigma": 0, "pairs": 2}
    assert fields == [2 * 3] * (n_steps + 1)


def test_additive_fast_path_matches_channels(grid16):
    model = make_model([], ["0.1*cos(1,0)", "0.05*sin(0,1)"], "one")
    cfg = SdeConfig(dt=1e-3, t_end=1e-3, galerkin_n=8)
    dw = np.array([0.3, -0.2])
    from ans2d.sde import _Stepper

    st = _Stepper(grid16, model, cfg)
    assert st.additive is not None  # the stepper classifies the model as additive
    # additive noise reads no samples of the state; its increment covers st.span
    dense = np.zeros((3, 8))
    dense[:, st.span] = st.noise_increment(np.stack([dw, 2.0 * dw, -dw]), None)
    fast = st.frame.lift(dense)
    chans = fullgrid.channels(model, np.zeros((2, 16, 16)), grid16, 8)
    expected = dw[0] * chans[0] + dw[1] * chans[1]
    np.testing.assert_allclose(fast[0], expected, atol=1e-15)
    np.testing.assert_allclose(fast[1], 2.0 * expected, atol=1e-15)
    np.testing.assert_allclose(fast[2], -expected, atol=1e-15)
    assert st.noise_increment(dw[None, :], None).shape == (1, 2)  # columns 1-2 of 8


def _band_recipes(grid, seed):
    """An additive model of 3 channels with random cos and sin terms across the whole band.

    Its terms include a constant, wavevectors m and -m alike, terms outside
    low levels, and a channel with no term.
    """
    from ans2d.noise import ScalarRecipe

    rng = np.random.default_rng(seed)
    band = [(m1, m2) for m1 in range(-grid.band1, grid.band1 + 1)
            for m2 in range(-grid.band2, grid.band2 + 1)]
    b = tuple(ScalarRecipe(tuple((float(rng.standard_normal()), m1, m2, phase)
                                 for m1, m2 in band for phase in ("cos", "sin")
                                 if rng.random() < 0.6)) for _ in range(2)) + (ScalarRecipe(),)
    return NoiseModel(c=(ScalarRecipe(),) * 3, b=b)


_SINGLE_MODES = ((1, 0), (0, 1), (2, -1), (-1, 2), (3, 1))


@pytest.mark.parametrize("grid", [TorusGrid(16, 16), TorusGrid(24, 16)]
                         + [TorusGrid(side, side) for side in (4, 8, 12)],
                         ids=lambda g: f"{g.n1}x{g.n2}")
def test_additive_coords_match_the_quadrature_route(grid):
    # the channel coordinates read off the recipes against sigma at u = 0
    # sampled on the grid and analysed, the route they replace; 4, 8 and
    # 12 are the single-mode law's grids of _SINGLE_MODES, and each grid
    # takes the single-mode models its band holds
    from ans2d.noise import _sigma_raw
    from ans2d.sde import _Stepper

    models = [_band_recipes(grid, grid.n1 + grid.n2)]
    models += [single_mode_noise(m, 0.7) for m in _SINGLE_MODES
               if max(abs(m[0]), abs(m[1])) <= min(grid.band1, grid.band2)]
    top = max_level(grid)

    def quadrature(model, frame):
        zero = np.zeros((1, grid.n1, grid.n2), dtype=complex)  # phys of u = 0
        raw = _sigma_raw(model, zero, np.eye(model.n_modes), model.b_fields(grid))
        return frame.analyse(raw, frame.field_weights)

    for model in models:
        # the model's largest coordinate: a level without its modes reads
        # exact zeros, against the transforms' rounding on the quadrature route
        scale = np.max(np.abs(quadrature(model, GalerkinFrame(grid, top))))
        assert scale > 0.0
        for n in sorted({min(n, top) for n in (1, 4, 7, 8, 16, 33, top)}):
            ref = quadrature(model, GalerkinFrame(grid, n))
            got = _Stepper(grid, model, SdeConfig(galerkin_n=n)).additive
            assert got is not None  # the stepper classifies the model as additive
            assert got.shape == ref.shape == (model.n_modes, n)
            assert np.max(np.abs(got - ref)) <= 1e-14 * scale, (n, model)


# criterion 10's additive model, whose channels touch columns 1 and 2 at every level
_CRITERION_10 = make_model([], ["0.1*cos(1,0)", "0.05*sin(0,1)"], "one")
# three additive channels touching columns 0, 3 and 5 of level 8: a span with gaps
_GAPPED = make_model([], ["0.1*cos(0,1)", "0.07*cos(1,1) - 0.02*sin(1,-1)", "0.05*sin(1,0)"],
                     "one")


@pytest.mark.parametrize("grid, model", [
    (TorusGrid(16, 16), _band_recipes(TorusGrid(16, 16), 32)),
    (TorusGrid(16, 16), _CRITERION_10),
    (TorusGrid(16, 16), _GAPPED),
    (TorusGrid(4, 4), single_mode_noise((1, 0), 1.0)),
    (TorusGrid(4, 4), single_mode_noise((0, 1), 1.0)),
], ids=["band", "criterion-10", "gapped", "damped-mode", "undamped-mode"])
def test_additive_span_holds_every_touched_column(grid, model):
    # span runs from the first to the last column a channel touches (none
    # at level 1 for most: an empty span), the dense channels are exact
    # zeros outside it, and span_channels are the dense ones restricted to
    # it; the single-mode laws touch one column
    from ans2d.sde import _Stepper

    top = max_level(grid)
    for n in sorted({min(n, top) for n in (1, 4, 8, 16, 32, top)}):
        st = _Stepper(grid, model, SdeConfig(galerkin_n=n))
        cols = range(n)[st.span]
        touched = np.flatnonzero(np.any(st.additive != 0.0, axis=0))
        assert cols == (range(touched[0], touched[-1] + 1) if len(touched) else range(0))
        assert np.all(st.additive[:, np.setdiff1d(range(n), cols)] == 0.0)
        np.testing.assert_array_equal(st.span_channels, st.additive[:, st.span])
        if model is _CRITERION_10 and n >= 4:
            assert cols == range(1, 3)
        if model.n_modes == 1 and len(touched):
            assert len(cols) == 1
    if model is _GAPPED:
        assert list(np.flatnonzero(np.any(_Stepper(grid, model, SdeConfig()).additive, axis=0))
                    ) == [0, 3, 5]


@pytest.mark.parametrize("model", [_CRITERION_10, _GAPPED,
                                   single_mode_noise((1, 0), 1.0)],
                         ids=["criterion-10", "gapped", "single-mode"])
def test_one_step_adds_noise_only_inside_the_span(grid16, make_field, model):
    # every coordinate outside the span is stepped as a + dt drift, bit for bit
    from ans2d.sde import _run_batched, _Stepper

    cfg = SdeConfig(dt=2e-3, t_end=2e-3, galerkin_n=16, seed=3)
    st = _Stepper(grid16, model, cfg)
    u0 = make_field(grid16, band=3, seed=4)
    a = np.tile(st.frame.coords(u0.coeffs), (3, 1))
    noiseless = (a + cfg.dt * st.drift(a)) * st.ef
    final = _run_batched(u0.coeffs, grid16, model, cfg, draw_increments(model, cfg, range(3)),
                         with_diag=False).final
    outside = np.setdiff1d(range(st.frame.n), range(st.frame.n)[st.span])
    assert len(outside)
    np.testing.assert_array_equal(final[:, outside], noiseless[:, outside])
    assert np.all(final[:, st.span] != noiseless[:, st.span], axis=0).any()


def test_zero_model_has_an_empty_span_and_draws_nothing(grid16):
    from ans2d.sde import _Stepper

    cfg = SdeConfig(dt=2e-3, t_end=0.02, galerkin_n=8)
    for model in (NoiseModel(), make_model([], ["0.0*cos(1,0)"], "one")):
        st = _Stepper(grid16, model, cfg)
        assert len(range(8)[st.span]) == 0
        assert draw_increments(model, cfg, range(4)).shape == (cfg.n_steps, 4, 0)
        assert st.noise_increment(np.zeros((4, 0)), None).shape == (4, 0)


@pytest.mark.parametrize("model, drop", [
    (make_model([], ["0.1*cos(1,0) + 0.05*cos(0,1)", "0.07*cos(1,0) - 0.04*cos(0,1)"], "one"),
     False),
    (_GAPPED, False),
    (_model_small(), False),
    (single_mode_noise((1, 0), 1.0), True),
    (_C_ONLY, False),
], ids=["additive", "additive-gapped", "tanh", "single-mode", "c-only"])
def test_additive_paths_replay_across_batch_layout(grid16, make_field, model, drop):
    # two noise channels sharing modes, additive or multiplicative, three
    # additive channels on a span with untouched columns inside it, the
    # single-mode law's shape (one channel, no nonlinearity), and two
    # transport channels acting on the coordinates alone; one batch of 9
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


# budgets of 1-2 paths of 7 steps and 2 modes (112 bytes each) and of 1-3 steps
# of 5 paths on 2 columns (80 bytes each); 100 bytes is less than one path
_SMALL_BUDGETS = [80, 100, 160, 240]


@pytest.mark.parametrize("budget", _SMALL_BUDGETS)
def test_draw_increments_keep_every_bit_across_path_blocks(monkeypatch, budget):
    from ans2d import sde

    model = _CRITERION_10
    cfg = SdeConfig(dt=2e-3, t_end=7 * 2e-3, seed=5)
    assert cfg.n_steps == 7
    paths = (3, 0, 3, 1, 2)
    calls = []
    monkeypatch.setattr(sde, "BLOCK_BYTES", budget)
    monkeypatch.setattr(sde, "sample_wiener_increment",
                        lambda *args, **kw: calls.append(args[4]) or sample_wiener_increment(
                            *args, **kw))
    incs = draw_increments(model, cfg, paths)
    assert sorted(calls) == [0, 1, 2, 3]  # each distinct path drawn once
    for col, path in enumerate(paths):
        assert incs[:, col].tobytes() == sample_wiener_increment(
            model.n_modes, cfg.n_steps, cfg.dt, 5, path).tobytes()


@pytest.mark.parametrize("model, drop", [
    (_CRITERION_10, False),
    (make_model([], ["0.0*cos(1,0)"], "one"), False),
    (_CRITERION_10, True),
], ids=["criterion-10", "zero-model", "drop-nonlinearity"])
def test_run_keeps_every_bit_across_noise_blocks(grid16, make_field, monkeypatch, model, drop):
    # step slabs of 1, 1, 2 and 3 of 7 steps, and path blocks of 1 or 2 of 5
    # paths, against the default budget, which holds every path and step at once
    from ans2d import sde

    cfg = SdeConfig(dt=2e-3, t_end=7 * 2e-3, galerkin_n=8, seed=5, drop_nonlinearity=drop)
    u0 = make_field(grid16, band=3, seed=16).coeffs
    whole = sde._run_batched(u0, grid16, model, cfg, draw_increments(model, cfg, range(5)))
    calls = []
    increment = sde._Stepper.noise_increment
    monkeypatch.setattr(sde._Stepper, "noise_increment",
                        lambda self, dw, *rest: calls.append(len(dw)) or increment(self, dw, *rest))
    for budget in _SMALL_BUDGETS:
        monkeypatch.setattr(sde, "BLOCK_BYTES", budget)
        calls.clear()
        run = sde._run_batched(u0, grid16, model, cfg, draw_increments(model, cfg, range(5)))
        if not model.is_zero:
            slab = budget // 80
            assert calls == [slab] * (7 // slab) + [7 % slab] * bool(7 % slab)
        assert run.final.tobytes() == whole.final.tobytes()
        for name in sde.DIAG_NAMES:
            assert run.diag[name].tobytes() == whole.diag[name].tobytes(), name


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
    cfg = SdeConfig(dt=2e-3, t_end=0.1, galerkin_n=12, seed=2)
    traj = run_sde(u0, _model_small(), cfg)
    w = weighted_h01_series(traj.t, traj.diag)
    # rebuild h from the recorded d1 column
    d1 = traj.diag["d1_sq"]
    h = np.zeros_like(d1)
    h[1:] = np.cumsum(0.5 * np.diff(traj.t) * (d1[:-1] + d1[1:])) * 2.0 * w.big_c
    np.testing.assert_allclose(w.h, h, atol=1e-15)
    h01 = traj.diag["l2_sq"] + traj.diag["d2_sq"]
    np.testing.assert_allclose(w.weighted_h01, np.exp(-h) * h01, rtol=1e-13)
    assert w.big_c == pytest.approx(w.c_emp_sup ** 2 / (4.0 * YOUNG_WEIGHT))
    assert np.all(np.diff(w.int_weighted_h11) >= 0.0)
    # the H^{1,1} norm, weight (1 + k1^2)(1 + k2^2), is the sum of the four recorded norms
    h11 = sum(traj.diag[name] for name in ("l2_sq", "d1_sq", "d2_sq", "d1d2_sq"))
    k1sq, k2sq = traj.frame.k1sq, traj.frame.k2sq
    assert h11[-1] == pytest.approx(np.sum((1.0 + k1sq) * (1.0 + k2sq) * traj.final_coords ** 2),
                                    rel=1e-13)
    integrand = np.exp(-h) * h11
    int_h11 = np.zeros_like(h)
    int_h11[1:] = np.cumsum(0.5 * np.diff(traj.t) * (integrand[:-1] + integrand[1:]))
    np.testing.assert_allclose(w.int_weighted_h11, int_h11, rtol=1e-13)
    # the det columns alone give the same series: it reads no noise column
    ws = weighted_h01_series(traj.t, {name: traj.diag[name] for name in DIAG_NAMES})
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
    report = pathwise_uniqueness_experiment(u0, v0, _model_small(), cfg)
    assert not report.bitwise_zero
    assert report.verdict.passed
    assert report.max_ratio <= 1.0
    assert report.growth[-1] > 0.0


def test_single_mode_noise_guard(grid16):
    with pytest.raises(ValueError, match="k1 != k2"):
        single_mode_noise((1, 1), 0.1)
    model = single_mode_noise((1, 0), 0.1)
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


def test_blowup_guard_in_batched_run(grid16, make_field, monkeypatch):
    u0 = SpectralField(grid16, make_field(grid16, band=3, seed=13).coeffs * 1e4)
    cfg = SdeConfig(dt=0.5, t_end=5.0, galerkin_n=max_level(grid16))
    from ans2d import spectral
    from ans2d.errors import BlowUpError

    monkeypatch.setattr(spectral, "BLOWUP_GUARD", 10.0)

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


def test_marched_states_are_not_the_workspace(grid16, make_field):
    # the step writes its samples, products and sigma(u) into one workspace
    # per run; the states the march yields must be the run's own arrays, so
    # those kept as handed over equal copies taken in a second run
    from ans2d.sde import _Stepper

    model = _model_small()  # tanh b-channels and a transport channel
    cfg = SdeConfig(dt=2e-3, t_end=0.02, galerkin_n=9, seed=6)
    u0 = make_field(grid16, band=3, seed=14).coeffs
    kept, copied = [], []
    for states, keep in ((kept, lambda a: a), (copied, np.copy)):
        march = _Stepper(grid16, model, cfg, 3).march(u0, draw_increments(model, cfg, range(3)))
        for _, a, _, _ in march:
            states.append(keep(a))
    assert len(kept) == cfg.n_steps + 1
    for a, b in zip(kept, copied):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model, drop", [
    (_model_small(), False),
    (_model_small(), True),
    (make_model([], ["0.1*cos(1,0)", "0.05*sin(0,1)"], "one"), False),
], ids=["tanh", "tanh-no-advection", "additive"])
def test_workspace_runs_match_runs_that_allocate(grid16, make_field, monkeypatch, model, drop):
    # runs of 5 and then 3 paths, each with its own workspace, against the
    # same runs by a stepper built without a batch, which allocates every
    # array it writes: the workspace changes where the step writes, not a bit
    from ans2d import sde

    cfg = SdeConfig(dt=2e-3, t_end=0.02, galerkin_n=9, seed=6, drop_nonlinearity=drop)
    u0 = make_field(grid16, band=3, seed=14).coeffs

    def runs():
        return [sde._run_batched(u0, grid16, model, cfg, draw_increments(model, cfg, range(b)))
                for b in (5, 3)]

    spaced = runs()

    class Allocating(sde._Stepper):
        def __init__(self, grid, model, cfg, batch=None):
            super().__init__(grid, model, cfg)

    monkeypatch.setattr(sde, "_Stepper", Allocating)
    for got, ref in zip(spaced, runs()):
        assert got.final.tobytes() == ref.final.tobytes()
        for name in sde.DIAG_NAMES:
            assert got.diag[name].tobytes() == ref.diag[name].tobytes(), name


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
    # acts on the coordinates, so each of the 3 paths synthesizes (u1, u2),
    # 1 packed row, which the advection and g(u) share
    calls, fields, n_steps = _count_step_loop(grid16, make_field, monkeypatch, _model_small())
    assert calls == {"phys": n_steps + 1, "adv": n_steps + 1, "sigma": n_steps, "pairs": 1}
    assert fields == [2 * 3] * (n_steps + 1)


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
    batch = weighted_h01_series(run.t, run.diag)
    assert batch.c_emp_sup.shape == (5,)
    for j in range(5):
        one = weighted_h01_series(run.t, {name: col[:, j] for name, col in run.diag.items()})
        assert batch.c_emp_sup[j] == one.c_emp_sup
        assert batch.big_c[j] == one.big_c
        for field in ("h", "weighted_h01", "int_weighted_h11"):
            np.testing.assert_array_equal(getattr(batch, field)[:, j], getattr(one, field))
