import numpy as np
import pytest

from ans2d.sde import ORACLE_TOL, _Stepper, drift_oracle_error, oracle_levels
from ans2d.spectral import TorusGrid, nonlinear_term_oracle


def test_oracle_matches_pseudospectral(make_field):
    # the solvers' drift at every level of the ladder, on 8x8 at 4x4 / 8x8 / 8x8
    grid = TorusGrid(8, 8)
    assert oracle_levels(grid) == (8, 16, 24)
    for seed in range(10):
        u = make_field(grid, band=2, seed=seed)
        for level in oracle_levels(grid):
            assert drift_oracle_error(u, level) <= ORACLE_TOL


def test_oracle_ladder_is_clipped_to_the_top_level():
    assert oracle_levels(TorusGrid(4, 4)) == (8,)
    assert oracle_levels(TorusGrid(6, 8)) == (8, 14)
    assert oracle_levels(TorusGrid(32, 32)) == (8, 16, 440)


def test_zero_reference_reads_as_a_failure(make_field):
    # level 4 of 8x8 holds two pairs whose products leave its span: no check
    u = make_field(TorusGrid(8, 8), band=2, seed=0)
    assert drift_oracle_error(u, 4) == np.inf


@pytest.mark.parametrize("subject", ["det", "sde"])
def test_oracle_catches_a_wrong_solver_drift(monkeypatch, make_field, subject):
    # a drift off by one part in 1e9 fails at exactly the levels that run it
    import ans2d.det

    if subject == "det":
        drift = ans2d.det._drift
        monkeypatch.setattr(ans2d.det, "_drift", lambda a, frame: drift(a, frame) * (1 + 1e-9))
    else:
        drift = _Stepper.drift
        monkeypatch.setattr(_Stepper, "drift",
                            lambda self, a, phys: drift(self, a, phys) * (1 + 1e-9))
    grid = TorusGrid(8, 8)
    u = make_field(grid, band=2, seed=1)
    failed = {level: drift_oracle_error(u, level) > ORACLE_TOL for level in oracle_levels(grid)}
    top = (subject == "det")
    assert failed == {8: not top, 16: not top, 24: top}


def test_oracle_size_guard(make_field):
    grid = TorusGrid(64, 64)
    u = make_field(grid, band=2, seed=0)
    with pytest.raises(ValueError, match="1024"):
        nonlinear_term_oracle(u)
