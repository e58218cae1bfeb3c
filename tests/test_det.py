import numpy as np
import pytest

from ans2d import det as det_mod
from ans2d.det import (
    DetConfig,
    _det_march,
    energy_certificate,
    eps_sweep,
    h01_certificate,
    mollify,
    run_det,
    time_profile,
    uniqueness_experiment,
    weak_form_residual,
)
from ans2d.errors import BlowUpError
from ans2d.sde import SdeConfig
from ans2d.norms import MEASURE, norm_rows
from ans2d.spectral import (
    SpectralField,
    TorusGrid,
    shear_field,
    zeros_spectral,
)


def test_config_validation():
    with pytest.raises(ValueError):
        DetConfig(dt=-1.0)
    with pytest.raises(ValueError):
        DetConfig(integrator="euler")
    with pytest.raises(ValueError):
        DetConfig(eps_v=-0.1)
    with pytest.raises(ValueError, match="finite square"):  # eps_v ** 2 would overflow
        DetConfig(eps_v=1e300)
    assert DetConfig(dt=1e-3, t_end=1.0).n_steps == 1000


@pytest.mark.parametrize("cls", [DetConfig, SdeConfig])
@pytest.mark.parametrize("dt,t_end", [(1e-300, 1.0), (1e-3, 1e300), (1e-3, float("nan")),
                                      (1e300, 1.0), (1e23, 2.0), (1e-3, 1e-300)])
def test_clock_bounds_the_step_count(cls, dt, t_end):
    # t_end / dt = 1e300 would size the run's arrays past numpy's limit, and
    # 1e300 / 1e-3 overflows to inf: both are refused before int() sees them.
    # A ratio below 1e-12 gives 0 steps: run-det's certificates would index
    # an empty series, and an SDE command would exit 0 having stepped nothing
    with pytest.raises(ValueError, match="steps"):
        cls(dt=dt, t_end=t_end)
    assert cls(dt=0.25, t_end=det_mod.MAX_STEPS * 0.25).n_steps == det_mod.MAX_STEPS
    np.testing.assert_array_equal(cls(dt=0.25, t_end=1.0).times, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("integrator", ["if-euler", "if-rk2", "if-rk4"])
def test_horizontal_shear_decays_exactly(grid16, integrator):
    """(0, sin x1) is advection-free, so the run is pure heat flow in x1 and
    the integrating factor reproduces exp(-t) to round-off."""
    u0 = shear_field(grid16, axis=1)
    cfg = DetConfig(dt=1e-2, t_end=0.5, integrator=integrator)
    traj = run_det(u0, cfg)
    l2_0 = float(norm_rows(u0.coeffs, grid16)["l2_sq"])
    exact = l2_0 * np.exp(-2.0 * traj.t)
    assert np.max(np.abs(traj.diag["l2_sq"] - exact)) <= 1e-10 * l2_0


def test_vertical_shear_is_steady_without_vertical_viscosity(grid16):
    u0 = shear_field(grid16, axis=2)
    traj = run_det(u0, DetConfig(dt=1e-2, t_end=0.3, eps_v=0.0))
    l2 = traj.diag["l2_sq"]
    assert np.max(np.abs(l2 - l2[0])) <= 1e-12
    np.testing.assert_allclose(traj.frame.lift(traj.final_coords), u0.coeffs, atol=1e-13)


def test_vertical_shear_decays_with_regularization(grid16):
    eps = 0.5
    u0 = shear_field(grid16, axis=2)
    traj = run_det(u0, DetConfig(dt=1e-2, t_end=0.3, eps_v=eps))
    l2_0 = float(norm_rows(u0.coeffs, grid16)["l2_sq"])
    exact = l2_0 * np.exp(-2.0 * eps ** 2 * traj.t)
    assert np.max(np.abs(traj.diag["l2_sq"] - exact)) <= 1e-10 * l2_0


def test_energy_certificate_and_dt_order(grid32, make_field):
    u0 = make_field(grid32, band=4, seed=5)
    rels = []
    for dt in (2e-3, 1e-3):
        traj = run_det(u0, DetConfig(dt=dt, t_end=0.25, integrator="if-rk2"))
        report = energy_certificate(traj).verdict
        assert report.passed
        rels.append(report.measured)
    assert 3.5 <= rels[0] / rels[1] <= 4.5  # second-order residual


# observed orders must lie within ORDER_TOL * p of p: 0.1, 0.2 and 0.4 for
# p = 1, 2 and 4, each well short of the next order up or down
ORDER_TOL = 0.1


def test_integrator_orders(grid32, make_field):
    # the final state at dt = 2e-2 .. 2.5e-3 against if-rk4 at dt = 0.5 / 1600;
    # an amplitude-8 field makes the advection, not the exact linear part, set the error
    u0 = make_field(grid32, band=4, amplitude=8.0, seed=9)
    ref = run_det(u0, DetConfig(dt=0.5 / 1600, t_end=0.5, integrator="if-rk4")).final_coords
    for integrator, p in (("if-euler", 1), ("if-rk2", 2), ("if-rk4", 4)):
        errs = [np.linalg.norm(run_det(u0, DetConfig(dt=dt, t_end=0.5, integrator=integrator))
                               .final_coords - ref) for dt in (2e-2, 1e-2, 5e-3, 2.5e-3)]
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(np.abs(orders - p) <= ORDER_TOL * p), (integrator, orders)


def test_h01_certificate(grid32, make_field):
    u0 = make_field(grid32, band=4, seed=6)
    traj = run_det(u0, DetConfig(dt=1e-3, t_end=0.25))
    report = h01_certificate(traj)
    assert report.monotone.passed and report.bound.passed
    assert report.c_sup > 0.0
    assert np.all(np.diff(report.weighted) <= 1e-6 * report.weighted[0] + 1e-300)


@pytest.mark.parametrize("profile,mode", [("one", (1, 1)), ("cos", (-1, 0)),
                                          ("quadratic", (0, 2))])
def test_weak_form_residual_order(grid16, make_field, profile, mode):
    u0 = make_field(grid16, band=3, seed=7)
    chi = time_profile(profile)
    res = []
    for dt in (4e-3, 2e-3):
        res.append(abs(weak_form_residual(u0, DetConfig(dt=dt, t_end=0.2), mode, chi)))
    order = np.log2(res[0] / res[1])
    assert order >= 1.9


def test_weak_form_needs_dense_states(grid16, make_field):
    with pytest.raises(ValueError):
        time_profile("step")


def test_weak_form_rejects_modes_without_an_element(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=8)
    for mode in ((0, 0), (grid16.band1 + 1, 0)):
        with pytest.raises(ValueError):
            weak_form_residual(u0, DetConfig(dt=1e-2, t_end=0.05), mode, time_profile("one"))


def test_trajectory_final_lifts_last_stored_coordinates(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=16)
    traj = run_det(u0, DetConfig(dt=1e-2, t_end=0.05))
    assert traj.final_coords.shape == (traj.frame.n,)
    # the final coordinates are those of the last state of the march
    for _, last, _, _ in _det_march(traj.frame.coords(u0.coeffs), traj.frame, traj.config):
        pass
    np.testing.assert_array_equal(traj.final_coords, last)
    assert traj.frame.grid == grid16


def test_each_det_audit_evaluates_one_drift_per_state_and_stage(grid16, make_field,
                                                                 monkeypatch):
    # one drift per state, shared with the first IF-RK2 stage, plus the
    # second stage of every step: 2 n + 1 evaluations for n steps
    calls = []
    drift = det_mod._drift
    monkeypatch.setattr(det_mod, "_drift", lambda a, frame: calls.append(1) or drift(a, frame))
    u0 = make_field(grid16, band=3, seed=17)
    v0 = make_field(grid16, band=3, seed=18)
    cfg = DetConfig(dt=1e-2, t_end=0.1, integrator="if-rk2")
    audits = {
        "run_det": lambda: run_det(u0, cfg),
        "uniqueness_experiment": lambda: uniqueness_experiment(u0, v0, cfg),
        "weak_form_residual": lambda: weak_form_residual(u0, cfg, (1, 0), time_profile("one")),
    }
    # the gap audit adds the drift of w at every state: n + 1 more
    extra = {"uniqueness_experiment": cfg.n_steps + 1}
    for name, audit in audits.items():
        calls.clear()
        audit()
        assert len(calls) == 2 * cfg.n_steps + 1 + extra.get(name, 0), name


def test_gap_row_synthesizes_once_per_state(grid16, make_field, monkeypatch):
    # a gap row synthesizes w once, for its drift, beside the 2 n + 1
    # drifts of an n-step IF-RK2 run
    from ans2d import spectral

    calls = []  # real fields synthesized per call, two per packed row
    phys = spectral._phys

    def counting(*args):
        out = phys(*args)
        assert out.dtype == np.complex128
        calls.append(out.view(np.float64).size // args[1])
        return out

    monkeypatch.setattr(spectral, "_phys", counting)
    u0 = make_field(grid16, band=3, seed=17)
    v0 = make_field(grid16, band=3, seed=18)
    cfg = DetConfig(dt=1e-2, t_end=0.1, integrator="if-rk2")
    uniqueness_experiment(u0, v0, cfg)
    # the pair's drifts synthesize (u1, u2) of 2 states, w's of 1
    assert sorted(set(calls)) == [2, 4]
    assert calls.count(4) == 2 * cfg.n_steps + 1
    assert calls.count(2) == cfg.n_steps + 1


@pytest.mark.parametrize("n", [12, 16, 32])
@pytest.mark.parametrize("level", [None, 16])
def test_gap_pairing_matches_physical_quadrature(n, level, full_samples):
    # the gap row reads |(w.grad b, w)| = |(w.grad w, b)| from the drift of
    # w; the reference is the physical-space quadrature of (w.grad b) . w,
    # sampled by full-spectrum transforms
    from ans2d.basis import GalerkinFrame, max_level

    grid = TorusGrid(n, n)
    frame = GalerkinFrame(grid, max_level(grid) if level is None else level)
    pair = np.random.default_rng(n).standard_normal((2, frame.n))
    audit = det_mod._GapAudit(frame, DetConfig(dt=1e-3, t_end=1e-3), base=1)
    audit.record(0, pair)
    wp = full_samples(frame.lift(pair[0] - pair[1]), grid)[0]
    _, d1b, d2b = full_samples(frame.lift(pair[1]), grid)
    ref = abs(float(np.sum((wp[0:1] * d1b + wp[1:2] * d2b) * wp) * MEASURE / grid.n_points))
    assert ref > 0.0
    assert abs(audit.tri[0] - ref) <= 1e-13 * ref


def test_uniqueness_identical_inputs_bitwise(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=9)
    report = uniqueness_experiment(u0, u0.copy(), DetConfig(dt=2e-3, t_end=0.1))
    assert report.bitwise_zero
    assert report.verdict.passed and report.max_ratio == 0.0
    assert np.all(report.w_l2_sq == 0.0)


def test_uniqueness_against_zero_solution(grid16, make_field):
    # v = 0 solves the system; the gap is u itself and must obey the bound
    u0 = make_field(grid16, band=3, seed=10)
    report = uniqueness_experiment(u0, zeros_spectral(grid16), DetConfig(dt=2e-3, t_end=0.2))
    assert not report.bitwise_zero
    assert report.verdict.passed
    assert np.all(report.q == 0.0)  # zero solution has no dissipation terms


def test_uniqueness_perturbed_initial_data(grid32, make_field):
    u0 = make_field(grid32, band=4, seed=11)
    pert = make_field(grid32, band=4, seed=12)
    v0 = SpectralField(grid32, u0.coeffs + 1e-6 * pert.coeffs)
    report = uniqueness_experiment(u0, v0, DetConfig(dt=2e-3, t_end=0.2))
    assert not report.bitwise_zero
    assert report.verdict.passed
    assert report.c1 > 0.0 and report.max_ratio <= 1.0


def test_uniqueness_guards_both_solutions(grid16, make_field):
    # only v blows up: u = 0 stays finite, so a guard on u alone never fires
    v0 = make_field(grid16, band=5, amplitude=200.0, seed=1)
    with pytest.raises(BlowUpError) as info:
        uniqueness_experiment(zeros_spectral(grid16), v0, DetConfig(dt=0.2, t_end=4.0))
    assert 0.0 <= info.value.last_finite_time < 4.0


def test_mollify_damping(grid16, make_field):
    u = make_field(grid16, band=5, seed=13)
    eps = 0.3
    m = mollify(u, eps)
    expected = u.coeffs * np.exp(-eps ** 2 * grid16.ksq)
    np.testing.assert_allclose(m.coeffs, expected, atol=1e-16)
    assert np.array_equal(mollify(u, 0.0).coeffs, u.coeffs)
    with pytest.raises(ValueError):
        mollify(u, -1.0)


def test_eps_sweep_strictly_decreasing(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=14)
    dists = eps_sweep(u0, DetConfig(dt=5e-3, t_end=0.1), [0.2, 0.1, 0.05])
    assert dists[0] > dists[1] > dists[2] > 0.0


def test_eps_sweep_at_zero_eps_is_exactly_zero(grid16, make_field):
    # eps = 0 replays the base run's arithmetic, so every difference is 0
    u0 = make_field(grid16, band=3, seed=14)
    assert eps_sweep(u0, DetConfig(dt=5e-3, t_end=0.1), [0.0]) == [0.0]


def test_blowup_detection(grid16, make_field, monkeypatch):
    # negative-viscosity analogue: reversing time on the heat factor grows
    # modes; a huge horizontal shear with tiny dt is stable, so instead feed
    # a state scaled enormously to trip the guard quickly
    from ans2d import spectral

    u0 = make_field(grid16, band=3, seed=15)
    monkeypatch.setattr(spectral, "BLOWUP_GUARD", 10.0)
    cfg = DetConfig(dt=0.5, t_end=5.0, integrator="if-euler")
    big = SpectralField(grid16, u0.coeffs * 1e4)
    with pytest.raises(BlowUpError) as info:
        run_det(big, cfg)
    assert info.value.last_finite_time >= 0.0
