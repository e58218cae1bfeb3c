import dataclasses

import numpy as np
import pytest

import fullgrid
from ans2d.basis import GalerkinFrame, max_level
from ans2d.noise import (
    EXISTENCE_K2_LIMIT,
    EXISTENCE_KT2_LIMIT,
    G_FUNCS,
    UNIQUENESS_L2_LIMIT,
    ConditionCConstants,
    NoiseModel,
    ScalarRecipe,
    condition_c_bounds,
    condition_c_empirical_check,
    condition_c_gate,
    make_model,
    required_budgets,
    _channel_sum,
    _field_sigma_coords,
    _sigma_parts,
    _sigma_raw,
    _transport_table,
    sample_wiener_increment,
    sigma_coords,
)
from ans2d.sde import SdeConfig, _Stepper, draw_increments
from ans2d.spectral import PhysicalField, TorusGrid, forward_transform


# ---------------------------------------------------------------------------
# recipes


def test_recipe_parse():
    r = ScalarRecipe.parse("0.3*cos(1,2) + 0.1*sin(2,0) - 0.5")
    assert r.terms == ((0.3, 1, 2, "cos"), (0.1, 2, 0, "sin"), (-0.5, 0, 0, "cos"))
    assert ScalarRecipe.parse("0.3*cos(1,2)+0.1*sin(2,0)-0.5") == r  # spaces are optional
    assert ScalarRecipe.parse("").is_zero
    assert ScalarRecipe.parse("0").is_zero


@pytest.mark.parametrize("bad", ["cos(1,2)", "0.3*cosh(1,2)", "0.3*cos(1)", "x+1"])
def test_recipe_rejects_garbage(bad):
    with pytest.raises(ValueError):
        ScalarRecipe.parse(bad)


def test_recipe_sup_bounds():
    r = ScalarRecipe.parse("0.3*cos(1,2) + 0.1*sin(2,0)")
    assert r.sup_bound() == pytest.approx(0.4)
    assert r.sup_bound_d(1) == pytest.approx(0.3 * 1 + 0.1 * 2)
    assert r.sup_bound_d(2) == pytest.approx(0.3 * 2)


def test_recipe_evaluate(grid16):
    r = ScalarRecipe.parse("2.0*sin(1,1)")
    x1 = grid16.x1[:, None]
    x2 = grid16.x2[None, :]
    np.testing.assert_allclose(r.evaluate(grid16), 2.0 * np.sin(x1 + x2), atol=1e-14)


# ---------------------------------------------------------------------------
# model budgets


def test_budget_validation():
    c = (ScalarRecipe.parse("0.5*cos(0,1)"),)
    b = (ScalarRecipe.parse("0.2"),)
    # M1 = (0.5 + 0 + 0.5)^2 = 1, M2 = 0.04
    model = NoiseModel(c=c, b=b)
    assert (model.m1, model.m2) == (1.0, pytest.approx(0.04))
    with pytest.raises(ValueError, match="channels"):
        NoiseModel(c=c, b=())
    with pytest.raises(ValueError, match="unknown g kind"):
        NoiseModel(c=c, b=b, g_kind="cosh")


def test_make_model_budgets_tight():
    model = make_model(["0.5*cos(0,1)"], ["0.2"], "one")
    assert model.m1 == pytest.approx(1.0)
    assert model.m2 == pytest.approx(0.04)
    assert model.n_modes == 1
    # the stepper reads sigma's structure from its parts: a transport part is not additive
    assert _Stepper(TorusGrid(16, 16), model, SdeConfig()).additive is None
    additive = make_model([], ["0.2*cos(1,0)"], "one")
    assert not additive.is_zero
    assert _Stepper(TorusGrid(16, 16), additive, SdeConfig()).additive is not None
    assert make_model([], [], "zero").is_zero


def test_make_model_budgets_are_the_required_ones():
    c_text, b_text = ["0.1*cos(1,0)", "0.05"], ["0.2*sin(0,1)", "0.1*cos(1,1)"]
    model = make_model(c_text, b_text, "sin")
    assert (model.m1, model.m2) == required_budgets(model.c, model.b)


@pytest.mark.parametrize("g_kind", sorted(G_FUNCS))
def test_model_budgets_are_those_of_its_recipes_and_g(g_kind):
    # a model is its recipes and g: no budget is declared beside them
    assert [f.name for f in dataclasses.fields(NoiseModel) if f.init] == ["c", "b", "g_kind"]
    model = make_model(["0.1*cos(1,0)", "0.05"], ["0.2*sin(0,1)", "0.1*cos(1,1)"], g_kind)
    assert (model.m1, model.m2) == required_budgets(model.c, model.b)
    _, g_sup, g_lip = G_FUNCS[g_kind]
    assert model.cg == max(g_sup, g_lip)
    if g_kind == "zero":  # Cg = 0 zeroes every constant that reads M2 Cg^2
        cc = condition_c_bounds(model)
        assert model.cg == cc.k0 == cc.k1 == cc.l1 == 0.0


def test_model_below_its_required_m2_is_rejected():
    # the d2 bound dominates: sup|b| = 0.3, sup|d2 b| = 0.6
    b = (ScalarRecipe.parse("0.3*cos(0,2)"),)
    c = (ScalarRecipe(()),)
    m1, m2 = required_budgets(c, b)
    assert (m1, m2) == (0.0, pytest.approx(0.36))
    model = NoiseModel(c=c, b=b)  # a model holds what its recipes need, so none is below it
    assert (model.m1, model.m2) == (m1, m2)


@pytest.mark.parametrize("c_text,b_text,budget", [
    ([], ["1e300*cos(1,0)"], "M2"),   # sup|b|^2 overflows
    (["1e200*cos(0,1)"], [], "M1"),   # (sup|c| + sup|d2 c|)^2 overflows
    ([], ["1e400*cos(1,0)"], "M2"),   # the amplitude parses to inf
])
def test_budget_that_is_not_finite_is_refused(c_text, b_text, budget):
    # float ** raises OverflowError where the budget should be refused, and an
    # infinite amplitude left M2 = inf, which the gates (they read M1) let pass
    with pytest.raises(ValueError, match=f"need {budget} = inf"):
        make_model(c_text, b_text)
    model = make_model([], ["1e154*cos(1,0)"])  # its square is finite
    assert model.m2 == pytest.approx(1e308)


# ---------------------------------------------------------------------------
# sigma action: the SDE engine's sigma against full-grid references


def _engine_sigma(model, u, ys):
    """P sigma(u) y for each row of ys, as the SDE engine forms it at the top
    level of u's grid, lifted to (len(ys), 2, n1, n2) coefficients.  The
    engine's increment covers the columns st.span; the rest are zeros, and
    the samples it reads are those the state's drift kept."""
    st = _Stepper(u.grid, model, SdeConfig(galerkin_n=max_level(u.grid)))
    a = np.tile(st.frame.coords(u.coeffs), (len(ys), 1))
    dense = np.zeros_like(a)
    st.drift(a)
    dense[:, st.span] = st.noise_increment(np.asarray(ys, dtype=np.float64), a)
    return st.frame.lift(dense)


def test_transport_channel_is_exact_derivative(grid16, make_field):
    # c = 1, b = 0: sigma(u) y = y * d1 u, already solenoidal and dealiased
    model = make_model(["1.0"], [], "one")
    u = make_field(grid16, band=4, seed=1)
    out = _engine_sigma(model, u, [[2.0]])[0]
    expected = fullgrid.deriv(u.coeffs, grid16, 1)
    np.testing.assert_allclose(out, 2.0 * expected, atol=1e-14)


def test_additive_channel_closed_form(grid16):
    # b = 0.5 cos x2 acting on g = 1: Leray of 0.5 cos x2 (1,1) keeps (1,0)
    model = make_model([], ["0.5*cos(0,1)"], "one")
    u = forward_transform(PhysicalField(grid16, np.zeros((2, 16, 16))))
    out = _engine_sigma(model, u, [[1.0]])[0]
    x2 = grid16.x2[None, :]
    expected = forward_transform(PhysicalField(grid16, np.stack([
        0.5 * np.cos(x2) * np.ones((16, 1)),
        np.zeros((16, 16)),
    ])))
    np.testing.assert_allclose(out, expected.coeffs, atol=1e-14)


def test_sigma_output_is_projected(grid16, make_field):
    model = make_model(["0.1*cos(1,0)"], ["0.2*sin(0,1)"], "tanh")
    u = make_field(grid16, band=4, seed=2)
    out = _engine_sigma(model, u, [[0.7]])[0]
    k1, k2 = fullgrid.wavenumbers(grid16)
    assert np.max(np.abs(k1 * out[0] + k2 * out[1])) <= 1e-13  # solenoidal
    assert np.all(out[:, 0, 0] == 0.0)  # mean-free
    expected = fullgrid.sigma(model, u.coeffs, grid16, [0.7], max_level(grid16))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_sigma_channels_match_apply(grid16, make_field):
    model = make_model(["0.1*cos(1,0)", "0.05"], ["0.2*sin(0,1)", "0.1*cos(1,1)"], "sin")
    u = make_field(grid16, band=4, seed=3)
    chans = _engine_sigma(model, u, np.eye(2))
    assert chans.shape == (2, 2, 16, 16)
    np.testing.assert_allclose(chans, fullgrid.channels(model, u.coeffs, grid16, max_level(grid16)),
                               atol=1e-13)
    y = np.array([0.3, -1.2])
    combo = y[0] * chans[0] + y[1] * chans[1]
    out = _engine_sigma(model, u, [y])[0]
    np.testing.assert_allclose(out, combo, atol=1e-13)


CRITERION_09 = (["0.05*cos(0,1)"], ["0.05*cos(1,0)", "0.02*sin(1,1)"], "tanh")


def _zero_buffer_sigma(model, u_phys, y, b_fields):
    """The b g(u) part of sigma(u) y summed into a zeroed buffer."""
    lead = np.broadcast_shapes(u_phys.shape[:-2], y.shape[:-1])
    out = np.zeros(lead + u_phys.shape[-2:], dtype=np.complex128)
    if len(b_fields[0]):
        g = model.g_eval(u_phys.view(np.float64)).view(np.complex128)
        out += _channel_sum(y, b_fields[1], b_fields[0]) * g
    return out


@pytest.mark.parametrize("g_kind", ["tanh", "sin", "one"])
@pytest.mark.parametrize("c, b", [
    (["0.05*cos(0,1)", "0.03*sin(1,0) + 0.02"], []),
    ([], ["0.05*cos(1,0)", "0.02*sin(1,1)"]),
    CRITERION_09[:2],
    (["0.0"], ["0.0*cos(1,0)"]),
    ([], []),
], ids=["c-only", "b-only", "both", "zero-channel", "no-channel"])
def test_sigma_raw_keeps_the_zero_buffer_bits(grid16, c, b, g_kind):
    # the buffer-free b g(u) sum against the zeroed one, for a batch of
    # states with a y per row and with the channel axis that hs_sq and
    # condition_c_empirical_check pass (y = eye, broadcast against the
    # rows); the c-channels act on coordinates, so a c-only model has no
    # b-channel here and sums to zeros
    model = make_model(c, b, g_kind)
    frame = GalerkinFrame(grid16, 16)
    phys = frame.synth(np.random.default_rng(5).standard_normal((3, frame.n)))
    b_fields = model.b_fields(grid16)
    y = np.random.default_rng(6).standard_normal((3, model.n_modes))
    for u, ys in ((phys, y), (phys[:, None], np.eye(model.n_modes))):
        got = _sigma_raw(model, u, ys, b_fields)
        np.testing.assert_array_equal(got, _zero_buffer_sigma(model, u, ys, b_fields))
        assert got.shape == np.broadcast_shapes(u.shape[:-2], ys.shape[:-1]) + u.shape[-2:]


@pytest.mark.parametrize("g_kind", ["tanh", "sin"])
@pytest.mark.parametrize("c, b", [
    ([], ["0.05*cos(1,0)", "0.02*sin(1,1)"]),
    CRITERION_09[:2],
], ids=["b-only", "both"])
def test_sigma_raw_writes_over_a_used_workspace(grid16, c, b, g_kind):
    # the engine's workspace holds the last step's g(u) and b-channel sums:
    # written over NaN, the b g(u) samples keep the bits of new arrays
    model = make_model(c, b, g_kind)
    frame = GalerkinFrame(grid16, 16)
    phys = frame.synth(np.random.default_rng(5).standard_normal((3, frame.n)))
    b_fields = model.b_fields(grid16)
    y = np.random.default_rng(6).standard_normal((3, model.n_modes))
    out = np.full(phys.shape, complex(np.nan, np.nan))
    sums = (np.full(phys.shape, np.nan), np.full(phys.shape, np.nan))
    got = _sigma_raw(model, phys, y, b_fields, out, sums)
    assert got is out
    assert got.tobytes() == _sigma_raw(model, phys, y, b_fields).tobytes()


def _channel_error(model, u):
    """Largest error of the frame's sigma channel coordinates at u against
    full-grid references, relative to the largest reference coefficient."""
    a, frame = _field_sigma_coords(model, u, np.eye(model.n_modes))
    ref = fullgrid.channels(model, u.coeffs, u.grid, max_level(u.grid))
    return float(np.max(np.abs(frame.lift(a) - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [8, 16])
def test_sigma_coords_match_full_grid_channels(make_field, n):
    # the criterion-09 tanh model on packed samples u1 + i u2: g acts on
    # each real component
    grid = TorusGrid(n, n)
    u = make_field(grid, band=2, seed=n, amplitude=2.0)
    assert _channel_error(make_model(*CRITERION_09), u) <= 1e-13


def test_sigma_coords_catch_g_applied_to_the_packed_value(make_field, monkeypatch):
    # tanh(u1 + i u2) is not tanh(u1) + i tanh(u2): a sigma that applies g
    # to the complex value, not componentwise, must fail the same check
    model = make_model(*CRITERION_09)
    u = make_field(TorusGrid(16, 16), band=2, seed=16, amplitude=2.0)
    monkeypatch.setattr(NoiseModel, "g_eval",
                        lambda self, x: np.tanh(x.view(np.complex128)).view(np.float64))
    assert _channel_error(model, u) > 1e-3


# transport recipes: a bare constant, cos and sin terms with negative
# components, several terms in one recipe, and a term that vanishes
_TRANSPORT = {
    "constant": ["0.3"],
    "negative-components": ["0.2*cos(-1,2)", "0.15*sin(2,-1)", "0.1*sin(-1,-1)"],
    "several-terms": ["0.1*cos(1,0) - 0.05*sin(0,1) + 0.02 + 0.07*cos(1,-1) - 0.1*sin(0,0)"],
}


@pytest.mark.parametrize("grid, n", [
    (TorusGrid(16, 16), 8), (TorusGrid(16, 16), 9), (TorusGrid(16, 16), 16),
    (TorusGrid(16, 16), 32), (TorusGrid(16, 16), max_level(TorusGrid(16, 16))),
    (TorusGrid(24, 16), 17), (TorusGrid(24, 16), max_level(TorusGrid(24, 16))),
], ids=lambda v: f"{v.n1}x{v.n2}" if isinstance(v, TorusGrid) else str(v))
@pytest.mark.parametrize("recipes", list(_TRANSPORT.values()), ids=list(_TRANSPORT))
def test_transport_table_matches_the_quadrature_route(grid, n, recipes):
    # P_n (c_k d1 u) through the table against the route it replaces (d1 u
    # synthesized, multiplied by the samples of c_k, analysed) and against
    # the full-grid sigma; within 1e-13 of the largest coordinate.  A
    # channel whose map is zero at the level (sin(-1,-1) at level 8) has no
    # table and reads exact zeros
    model = make_model(recipes, [], "one")
    frame = GalerkinFrame(grid, n)
    a = np.random.default_rng(n).standard_normal((3, n))
    got = sigma_coords(model, frame, a[:, None, :], None, np.eye(model.n_modes),
                       _sigma_parts(model, frame))
    coeffs = frame.lift(a)
    d1u = fullgrid.samples(fullgrid.deriv(coeffs, grid, 1), grid)
    packed = d1u[:, 0] + 1j * d1u[:, 1]
    quadrature = np.stack([frame.analyse(r.evaluate(grid)[None] * packed, frame.field_weights)
                           for r in model.c], axis=1)
    full = np.stack([frame.coords(fullgrid.channels(model, c, grid, n)) for c in coeffs])
    scale = np.max(np.abs(full))
    assert scale > 0.0 and got.shape == full.shape == quadrature.shape == (3, model.n_modes, n)
    for ref in (quadrature, full):
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    # each target column reads at most two source columns per term
    channels, src, weight = _transport_table(model, frame)
    nonzero = np.flatnonzero(np.max(np.abs(full), axis=(0, 2)) > 1e-13 * scale)
    assert channels.tolist() == nonzero.tolist()
    assert np.all(got[:, np.setdiff1d(range(model.n_modes), channels)] == 0.0)
    assert src.shape == weight.shape and src.shape[-1] == n
    assert src.shape[1] <= 2 * max(len(r.terms) for r in model.c)


def test_sigma_adds_only_non_zero_channel_fields(grid16):
    # make_model pads the c-channels with an empty recipe; the b recipes
    # are sampled once, and only channels that do not sample to zero are
    # kept.  The c recipes act on coordinates: an empty or vanishing c
    # recipe gives no channel of the transport table
    model = make_model(*CRITERION_09)
    assert [len(r.terms) for r in model.c] == [1, 0]
    b_idx, b_arr = model.b_fields(grid16)
    assert b_idx.tolist() == [0, 1] and b_arr.shape == (2, 16, 16)
    assert _transport_table(model, GalerkinFrame(grid16, 16))[0].tolist() == [0]
    vanishing = make_model(["0.1*sin(0,0)"], ["0.1*cos(1,0)"], "tanh")
    assert len(_transport_table(vanishing, GalerkinFrame(grid16, 16))[0]) == 0


def test_hs_norm_options(grid16, make_field):
    # the audit's channel coordinates (every element of the grid); the first
    # n of them are those of P_n sigma(u) psi_j
    model = make_model(["0.1*cos(1,0)"], ["0.2*sin(0,1)"], "tanh")
    u = make_field(grid16, band=4, seed=4)
    a, _ = _field_sigma_coords(model, u, np.eye(model.n_modes))
    full = float(np.sum(a ** 2))
    assert full > 0.0
    truncated = float(np.sum(a[:, :4] ** 2))
    assert truncated <= full * (1.0 + 1e-12)
    for n, value in ((max_level(grid16), full), (4, truncated)):
        chans = fullgrid.channels(model, u.coeffs, grid16, n)
        assert value == pytest.approx(sum(fullgrid.inner(c, c, grid16) for c in chans), rel=1e-12)
    none, _ = _field_sigma_coords(make_model([], [], "one"), u, np.eye(0))
    assert float(np.sum(none ** 2)) == 0.0  # no channels


# ---------------------------------------------------------------------------
# increments


def test_wiener_increments_reproducible():
    a = sample_wiener_increment(3, 50, 1e-3, base_seed=7, traj_index=2)
    b = sample_wiener_increment(3, 50, 1e-3, base_seed=7, traj_index=2)
    assert np.array_equal(a, b)
    c = sample_wiener_increment(3, 50, 1e-3, base_seed=7, traj_index=3)
    assert not np.array_equal(a, c)
    assert a.shape == (50, 3)


@pytest.mark.parametrize("seed,index", [(0, 0), (7, 5), (3, 123456789),
                                        (2 ** 64 - 1, 2 ** 63 + 5)])
def test_wiener_streams_are_fresh_philox_streams(seed, index):
    # the one re-keyed generator draws each (seed, index) stream bit for bit,
    # also right after a call that left its buffer part-used
    sample_wiener_increment(3, 1, 1e-3, base_seed=seed + 1, traj_index=index)
    got = sample_wiener_increment(2, 25, 1e-3, base_seed=seed, traj_index=index)
    sample_wiener_increment(1, 3, 1e-3, base_seed=11, traj_index=0)
    again = sample_wiener_increment(2, 25, 1e-3, base_seed=seed, traj_index=index)
    key = np.array([seed, index], dtype=np.uint64)
    fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal((25, 2))
    assert got.tobytes() == again.tobytes() == (fresh * np.sqrt(1e-3)).tobytes()


def test_wiener_draws_scale_straight_into_a_strided_column():
    # out= is drawn into and scaled in place, so it must be a C-contiguous
    # float64 (n_steps, n_modes) array: a strided column of a (n_steps, B,
    # n_modes) array, or another dtype, is refused before anything is drawn
    for out in (np.full((40, 3, 2), np.nan)[:, 1], np.full((40, 2), np.nan, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            sample_wiener_increment(2, 40, 1e-3, base_seed=7, traj_index=4, out=out)
        assert np.all(np.isnan(out))


def test_wiener_draws_are_the_same_bits_in_a_row_and_a_column():
    # a contiguous row of an array of paths is drawn into in place and
    # returned, draw_increments draws the same bits into the path's row of
    # its path-major array, and the step's column of that array, the view
    # the engine reads, holds each path's draw of the step
    block = np.full((3, 40, 2), np.nan)
    row = block[1]
    assert sample_wiener_increment(2, 40, 1e-3, base_seed=7, traj_index=4, out=row) is row
    fresh = sample_wiener_increment(2, 40, 1e-3, 7, 4)
    model = make_model([], ["0.1*cos(1,0)", "0.05*sin(0,1)"], "one")
    incs = draw_increments(model, SdeConfig(dt=1e-3, t_end=40e-3, seed=7), (5, 4, 6))
    assert row.tobytes() == incs[1].tobytes() == fresh.tobytes()
    assert np.all(np.isnan(block[::2]))
    step = np.stack([sample_wiener_increment(2, 40, 1e-3, 7, j)[9] for j in (5, 4, 6)])
    assert np.ascontiguousarray(incs[:, 9]).tobytes() == step.tobytes()


def test_wiener_increment_variance():
    dt = 1e-3
    draws = sample_wiener_increment(1, 200_000, dt, base_seed=0)
    assert np.var(draws) == pytest.approx(dt, rel=0.02)


# ---------------------------------------------------------------------------
# derived constants and gates


def test_condition_c_derived_values():
    # constant recipes: M1 = 0.5^2 = 0.25 and M2 = 0.2^2 = 0.04
    model = make_model(["0.5"], ["0.2"], "tanh")
    assert (model.m1, model.m2, model.cg) == (0.25, pytest.approx(0.04), 1.0)
    m1, m2 = 0.25, 0.04
    cc = condition_c_bounds(model, eta=0.1)
    pp = 1.0 + 1.0 / 0.1
    assert cc.k2 == pytest.approx(1.1 * m1)
    assert cc.kt2 == pytest.approx(2.0 * 1.1 * m1)
    assert cc.l2 == pytest.approx(1.1 * m1)
    assert cc.k1 == pytest.approx(2.0 * pp * m2)
    assert cc.k0 == pytest.approx(16.0 * np.pi ** 2 * pp * m2)
    assert cc.kt1 == pytest.approx(16.0 * pp * m2)
    assert cc.kt0 == pytest.approx(128.0 * np.pi ** 2 * pp * m2)
    assert cc.l1 == pytest.approx(pp * m2)
    assert cc.k1p == pytest.approx(6.0 * m1 + 4.0 * m2)
    assert cc.k0p == pytest.approx(32.0 * np.pi ** 2 * m2)
    assert {f.name for f in dataclasses.fields(cc)} == {"k0p", "k1p", "k0", "k1", "k2",
                                                       "kt0", "kt1", "kt2", "l1", "l2", "eta"}
    with pytest.raises(ValueError):
        condition_c_bounds(model, eta=0.0)


def _constants(k2, kt2, l2):
    return ConditionCConstants(k0p=0, k1p=0, k0=0, k1=0, k2=k2, kt0=0, kt1=0,
                               kt2=kt2, l1=0, l2=l2, eta=0.1)


def test_gate_thresholds_strict():
    assert EXISTENCE_K2_LIMIT == pytest.approx(2.0 / 11.0)
    assert EXISTENCE_KT2_LIMIT == pytest.approx(2.0 / 5.0)
    assert UNIQUENESS_L2_LIMIT == pytest.approx(2.0 / 5.0)
    ok = condition_c_gate(_constants(0.18, 0.39, 0.39))
    assert ok.existence_ok and ok.uniqueness_ok
    no_exist = condition_c_gate(_constants(0.19, 0.39, 0.39))
    assert not no_exist.existence_ok and not no_exist.uniqueness_ok
    no_unique = condition_c_gate(_constants(0.18, 0.39, 0.4))
    assert no_unique.existence_ok and not no_unique.uniqueness_ok
    # boundary values are rejected: the comparisons are strict
    at_limit = condition_c_gate(_constants(2.0 / 11.0, 0.39, 0.39))
    assert not at_limit.existence_ok
    assert "K2=" in ok.describe()


def test_empirical_growth_and_lipschitz_rows(grid16, make_field):
    model = make_model(["0.05*cos(0,1)"], ["0.05*cos(1,0)", "0.02*sin(1,1)"], "tanh")
    fields = [make_field(grid16, band=4, seed=s, amplitude=a)
              for s, a in [(1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0)]]
    report = condition_c_empirical_check(model, fields)
    assert not report.failures()
    names = [r[0] for r in report.rows]
    assert any(n.startswith("growth_hminus1") for n in names)
    assert any(n.startswith("growth_l2") for n in names)
    assert any(n.startswith("growth_h01") for n in names)
    assert any(n.startswith("lipschitz") for n in names)


@pytest.mark.parametrize("n", [16, 18])
def test_condition_c_rows_weight_channel_coordinates(make_field, n):
    # coordinate weights of the frame against weighted sums over full-grid
    # reference channels (tests/fullgrid.py)
    grid = TorusGrid(n, n)
    model = make_model(["0.05*cos(0,1)"], ["0.05*cos(1,0)", "0.02*sin(1,1)"], "tanh")
    fields = [make_field(grid, band=4, seed=s, amplitude=a) for s, a in [(1, 0.5), (2, 2.0)]]
    rows = {name: lhs for name, lhs, *_ in condition_c_empirical_check(model, fields).rows}
    chans = [fullgrid.channels(model, u.coeffs, grid, max_level(grid)) for u in fields]
    k1, k2 = fullgrid.wavenumbers(grid)

    def weighted(c, w):
        return float(fullgrid.MEASURE * np.sum(w * np.abs(c) ** 2))

    expected = {"lipschitz[0]": weighted(chans[0] - chans[1], 1.0)}
    for idx, c in enumerate(chans):
        expected[f"growth_hminus1[{idx}]"] = weighted(c, 1.0 / (1.0 + k1 ** 2 + k2 ** 2))
        expected[f"growth_l2[{idx}]"] = weighted(c, 1.0)
        expected[f"growth_h01[{idx}]"] = weighted(c, 1.0 + k2 ** 2)
    assert rows.keys() == expected.keys()
    for name, value in expected.items():
        assert value > 0.0
        assert rows[name] == pytest.approx(value, rel=1e-13, abs=0.0)
