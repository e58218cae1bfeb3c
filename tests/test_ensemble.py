import numpy as np
import pytest

from ans2d.ensemble import SPREAD_BOUND, EnsembleConfig, moment_bound_report, run_ensemble
from ans2d.noise import NoiseModel, condition_c_bounds, condition_c_gate, make_model
from ans2d.sde import SdeConfig


def _cfg(seed=0):
    return SdeConfig(dt=5e-3, t_end=0.05, galerkin_n=4, seed=seed)


def _admissible():
    return make_model(["0.05*cos(0,1)"], ["0.05*cos(1,0)"], "tanh")


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n_paths=1)
    with pytest.raises(ValueError):
        EnsembleConfig(levels=())
    with pytest.raises(ValueError):
        EnsembleConfig(batch=0)


def test_ensemble_runs_and_reports(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=1)
    ens = EnsembleConfig(n_paths=10, levels=(8, 12), batch=4)
    report = run_ensemble(u0, _admissible(), _cfg(seed=3), ens)
    assert len(report.levels) == 2
    gate = condition_c_gate(condition_c_bounds(_admissible()))
    assert gate.existence_ok
    assert report.uniform.measured >= 1.0 and report.uniform.bound == SPREAD_BOUND
    assert report.uniform.passed == (report.uniform.measured <= SPREAD_BOUND)
    for lv in report.levels:
        assert lv.n_paths == 10
        # the sup is often pinned at t=0 for decaying paths, so its SE may be 0
        assert lv.est["sup_l2_sq"] > 0.0 and lv.se["sup_l2_sq"] >= 0.0
        assert lv.se["int_weighted_h11"] > 0.0  # noise does move the integrals
        assert lv.c_hat > 0.0
    rows = moment_bound_report(report, gate)
    assert [row["level"] for row in rows] == [8, 12]
    assert set(rows[0]) >= {"level", "n_paths", "est_sup_l2_sq", "se_sup_l2_sq",
                            "c_hat", "existence_gate", "uniqueness_gate"}


def test_ensemble_deterministic_across_batch_layout(grid16, make_field):
    """Chunking must not change the estimates: the increment stream is keyed
    per path, not per batch."""
    u0 = make_field(grid16, band=3, seed=2)
    a = run_ensemble(u0, _admissible(), _cfg(seed=7),
                     EnsembleConfig(n_paths=9, levels=(8,), batch=9))
    b = run_ensemble(u0, _admissible(), _cfg(seed=7),
                     EnsembleConfig(n_paths=9, levels=(8,), batch=2))
    assert a.levels[0] == b.levels[0]  # every est, se and c_hat, exactly


def test_levels_share_draws_yet_match_levels_run_alone(grid16, make_field):
    # each batch is drawn once for every level; a level's estimates must be
    # those of the level run on its own, over several batches
    u0 = make_field(grid16, band=3, seed=2)
    both = run_ensemble(u0, _admissible(), _cfg(seed=7),
                        EnsembleConfig(n_paths=7, levels=(8, 12), batch=3))
    for lv in both.levels:
        alone = run_ensemble(u0, _admissible(), _cfg(seed=7),
                             EnsembleConfig(n_paths=7, levels=(lv.level,), batch=3))
        assert alone.levels[0] == lv  # every est, se and c_hat, exactly


def test_gate_error_and_force(grid16, make_field):
    # the library reports a failed gate; refusing the run (GateError unless
    # --force) is the CLI's, see test_cli_manifest_on_gate_error
    u0 = make_field(grid16, band=3, seed=3)
    loud = make_model(["2.0*cos(0,1)"], [], "one")
    ens = EnsembleConfig(n_paths=4, levels=(6,), batch=4)
    run_ensemble(u0, loud, _cfg(seed=0), ens)
    assert not condition_c_gate(condition_c_bounds(loud)).existence_ok


def test_zero_noise_ensemble(grid16, make_field):
    u0 = make_field(grid16, band=3, seed=4)
    ens = EnsembleConfig(n_paths=4, levels=(8,), batch=4)
    report = run_ensemble(u0, NoiseModel(), _cfg(seed=1), ens)
    lv = report.levels[0]
    # all paths identical without noise: zero standard errors
    assert lv.se["sup_l2_sq"] == 0.0
    assert lv.se["int_h10_sq"] == 0.0
    assert condition_c_gate(condition_c_bounds(NoiseModel())).existence_ok  # passes trivially
