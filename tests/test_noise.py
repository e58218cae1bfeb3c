import numpy as np
import pytest

from ans2d.noise import (
    EXISTENCE_K2_LIMIT,
    EXISTENCE_KT2_LIMIT,
    UNIQUENESS_L2_LIMIT,
    ConditionCConstants,
    NoiseModel,
    ScalarRecipe,
    apply_sigma,
    condition_c_bounds,
    condition_c_empirical_check,
    condition_c_gate,
    hs_norm_sq,
    make_model,
    required_budgets,
    sample_wiener_increment,
    sigma_channels,
)
from ans2d.norms import weighted_coeff_sum_sq
from ans2d.spectral import (
    PhysicalField,
    TorusGrid,
    derivative,
    divergence_defect,
    forward_transform,
)


# ---------------------------------------------------------------------------
# recipes


def test_recipe_parse_and_format():
    r = ScalarRecipe.parse("0.3*cos(1,2) + 0.1*sin(2,0) - 0.5")
    assert r.terms == ((0.3, 1, 2, "cos"), (0.1, 2, 0, "sin"), (-0.5, 0, 0, "cos"))
    back = ScalarRecipe.parse(r.format())
    assert back == r
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
# sigma action


def test_transport_channel_is_exact_derivative(grid16, make_field):
    # c = 1, b = 0: sigma(u) y = y * d1 u, already solenoidal and dealiased
    model = make_model(["1.0"], [], "one")
    u = make_field(grid16, band=4, seed=1)
    out = apply_sigma(model, u, np.array([2.0]))
    expected = derivative(u, axis=1)
    np.testing.assert_allclose(out.coeffs, 2.0 * expected.coeffs, atol=1e-14)


def test_additive_channel_closed_form(grid16):
    # b = 0.5 cos x2 acting on g = 1: Leray of 0.5 cos x2 (1,1) keeps (1,0)
    model = make_model([], ["0.5*cos(0,1)"], "one")
    u = make_field_zero = forward_transform(PhysicalField(grid16, np.zeros((2, 16, 16))))
    out = apply_sigma(model, u, np.array([1.0]))
    x2 = grid16.x2[None, :]
    expected = forward_transform(PhysicalField(grid16, np.stack([
        0.5 * np.cos(x2) * np.ones((16, 1)),
        np.zeros((16, 16)),
    ])))
    np.testing.assert_allclose(out.coeffs, expected.coeffs, atol=1e-14)


def test_sigma_output_is_projected(grid16, make_field):
    model = make_model(["0.1*cos(1,0)"], ["0.2*sin(0,1)"], "tanh")
    u = make_field(grid16, band=4, seed=2)
    out = apply_sigma(model, u, np.array([0.7]))
    assert divergence_defect(out) <= 1e-13
    assert np.all(out.mean_mode() == 0.0)
    with pytest.raises(ValueError):
        apply_sigma(model, u, np.array([0.7, 0.1]))


def test_sigma_channels_match_apply(grid16, make_field):
    model = make_model(["0.1*cos(1,0)", "0.05"], ["0.2*sin(0,1)", "0.1*cos(1,1)"], "sin")
    u = make_field(grid16, band=4, seed=3)
    chans = sigma_channels(model, u)
    assert chans.shape == (2, 2, 16, 16)
    y = np.array([0.3, -1.2])
    combo = y[0] * chans[0] + y[1] * chans[1]
    out = apply_sigma(model, u, y)
    np.testing.assert_allclose(out.coeffs, combo, atol=1e-13)


def test_hs_norm_options(grid16, make_field):
    model = make_model(["0.1*cos(1,0)"], ["0.2*sin(0,1)"], "tanh")
    u = make_field(grid16, band=4, seed=4)
    full = hs_norm_sq(model, u)
    assert full > 0.0
    truncated = hs_norm_sq(model, u, galerkin_n=4)
    assert truncated <= full * (1.0 + 1e-12)
    assert hs_norm_sq(make_model([], [], "one"), u) == 0.0  # no channels


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
    assert set(cc.as_dict()) == {"K0_prime", "K1_prime", "K0", "K1", "K2",
                                 "Kt0", "Kt1", "Kt2", "L1", "L2", "eta"}
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
    assert report.all_passed
    names = [r[0] for r in report.rows]
    assert any(n.startswith("growth_hminus1") for n in names)
    assert any(n.startswith("growth_l2") for n in names)
    assert any(n.startswith("growth_h01") for n in names)
    assert any(n.startswith("lipschitz") for n in names)


@pytest.mark.parametrize("n", [16, 18])
def test_condition_c_rows_weight_channel_coordinates(make_field, n):
    # coordinate weights of the frame against weighted sums over the lifted channels
    grid = TorusGrid(n, n)
    model = make_model(["0.05*cos(0,1)"], ["0.05*cos(1,0)", "0.02*sin(1,1)"], "tanh")
    fields = [make_field(grid, band=4, seed=s, amplitude=a) for s, a in [(1, 0.5), (2, 2.0)]]
    rows = {name: lhs for name, lhs, *_ in condition_c_empirical_check(model, fields).rows}
    chans = [sigma_channels(model, u) for u in fields]
    k2sq = grid.k2.astype(np.float64) ** 2
    expected = {"lipschitz[0]": weighted_coeff_sum_sq(chans[0] - chans[1], 1.0)}
    for idx, c in enumerate(chans):
        expected[f"growth_hminus1[{idx}]"] = weighted_coeff_sum_sq(c, 1.0 / (1.0 + grid.ksq))
        expected[f"growth_l2[{idx}]"] = weighted_coeff_sum_sq(c, 1.0)
        expected[f"growth_h01[{idx}]"] = weighted_coeff_sum_sq(c, 1.0 + k2sq)
    assert rows.keys() == expected.keys()
    for name, value in expected.items():
        assert value > 0.0
        assert rows[name] == pytest.approx(value, rel=1e-13, abs=0.0)
