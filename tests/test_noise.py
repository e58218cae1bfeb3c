import dataclasses

import numpy as np
import pytest

import fullgrid
from ans2d.basis import max_level
from ans2d.noise import (
    EXISTENCE_K2_LIMIT,
    EXISTENCE_KT2_LIMIT,
    UNIQUENESS_L2_LIMIT,
    ConditionCConstants,
    NoiseModel,
    ScalarRecipe,
    condition_c_bounds,
    condition_c_empirical_check,
    condition_c_gate,
    make_model,
    required_budgets,
    _field_sigma_coords,
    sample_wiener_increment,
)
from ans2d.sde import SdeConfig, _Stepper
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
    # required M1 = (0.5 + 0 + 0.5)^2 = 1, M2 = 0.04
    NoiseModel(c=c, b=b, g_kind="one", m1=1.0, m2=0.04, cg=1.0)
    with pytest.raises(ValueError, match="M1"):
        NoiseModel(c=c, b=b, g_kind="one", m1=0.9, m2=0.04, cg=1.0)
    with pytest.raises(ValueError, match="M2"):
        NoiseModel(c=c, b=b, g_kind="one", m1=1.0, m2=0.03, cg=1.0)
    with pytest.raises(ValueError, match="Cg"):
        NoiseModel(c=c, b=b, g_kind="tanh", m1=1.0, m2=0.04, cg=0.5)
    with pytest.raises(ValueError, match="channels"):
        NoiseModel(c=c, b=(), g_kind="one", m1=1.0, m2=0.0, cg=1.0)


def test_make_model_budgets_tight():
    model = make_model(["0.5*cos(0,1)"], ["0.2"], "one")
    assert model.m1 == pytest.approx(1.0)
    assert model.m2 == pytest.approx(0.04)
    assert model.n_modes == 1
    assert not model.is_additive  # transport part present
    additive = make_model([], ["0.2*cos(1,0)"], "one")
    assert additive.is_additive and not additive.is_zero
    assert make_model([], [], "zero").is_zero


def test_make_model_budgets_are_the_required_ones():
    c_text, b_text = ["0.1*cos(1,0)", "0.05"], ["0.2*sin(0,1)", "0.1*cos(1,1)"]
    model = make_model(c_text, b_text, "sin")
    assert (model.m1, model.m2) == required_budgets(model.c, model.b)
    scaled = make_model(c_text, b_text, "sin", margin=2.0)
    assert (scaled.m1, scaled.m2) == (2.0 * model.m1, 2.0 * model.m2)


def test_model_below_its_required_m2_is_rejected():
    # the d2 bound dominates: sup|b| = 0.3, sup|d2 b| = 0.6
    b = (ScalarRecipe.parse("0.3*cos(0,2)"),)
    c = (ScalarRecipe(()),)
    m1, m2 = required_budgets(c, b)
    assert (m1, m2) == (0.0, pytest.approx(0.36))
    NoiseModel(c=c, b=b, m1=m1, m2=m2)
    with pytest.raises(ValueError, match="M2"):
        NoiseModel(c=c, b=b, m1=m1, m2=0.09)


# ---------------------------------------------------------------------------
# sigma action: the SDE engine's sigma against full-grid references


def _engine_sigma(model, u, ys):
    """P sigma(u) y for each row of ys, as the SDE engine forms it at the top
    level of u's grid, lifted to (len(ys), 2, n1, n2) coefficients."""
    st = _Stepper(u.grid, model, SdeConfig(galerkin_n=max_level(u.grid)))
    a = np.tile(st.frame.coords(u.coeffs), (len(ys), 1))
    return st.frame.lift(st.noise_increment(np.asarray(ys, dtype=np.float64), st.synth(a)))


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


def test_sigma_adds_only_non_zero_channel_fields(grid16):
    # make_model pads the c-channels with an empty recipe: it is dropped
    # once, when the recipes are sampled, and so are recipes that sample
    # to zero on the grid
    model = make_model(*CRITERION_09)
    assert [len(r.terms) for r in model.c] == [1, 0]
    (c_idx, c_arr), (b_idx, b_arr) = model.coefficient_fields(grid16)
    assert c_idx.tolist() == [0] and c_arr.shape == (1, 16, 16)
    assert b_idx.tolist() == [0, 1] and b_arr.shape == (2, 16, 16)
    np.testing.assert_array_equal(c_arr[0], model.c[0].evaluate(grid16))
    vanishing = make_model(["0.1*sin(0,0)"], ["0.1*cos(1,0)"], "tanh")
    assert len(vanishing.coefficient_fields(grid16)[0][0]) == 0


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


def test_wiener_increment_variance():
    dt = 1e-3
    draws = sample_wiener_increment(1, 200_000, dt, base_seed=0)
    assert np.var(draws) == pytest.approx(dt, rel=0.02)


# ---------------------------------------------------------------------------
# derived constants and gates


def test_condition_c_derived_values():
    model = NoiseModel(c=(), b=(), g_kind="one", m1=0.1, m2=0.2, cg=1.0)
    cc = condition_c_bounds(model, eta=0.1)
    pp = 1.0 + 1.0 / 0.1
    assert cc.k2 == pytest.approx(1.1 * 0.1)
    assert cc.kt2 == pytest.approx(2.0 * 1.1 * 0.1)
    assert cc.l2 == pytest.approx(1.1 * 0.1)
    assert cc.k1 == pytest.approx(2.0 * pp * 0.2)
    assert cc.k0 == pytest.approx(16.0 * np.pi ** 2 * pp * 0.2)
    assert cc.kt1 == pytest.approx(16.0 * pp * 0.2)
    assert cc.kt0 == pytest.approx(128.0 * np.pi ** 2 * pp * 0.2)
    assert cc.l1 == pytest.approx(pp * 0.2)
    assert cc.k1p == pytest.approx(6.0 * 0.1 + 4.0 * 0.2)
    assert cc.k0p == pytest.approx(32.0 * np.pi ** 2 * 0.2)
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
