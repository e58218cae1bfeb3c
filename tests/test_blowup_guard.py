"""The blow-up guard both engines share (spectral.check_rows), run in each engine.

Every run steps rows of coordinates in the level-4 frame of an 8x8 grid,
where element 0, cos(0,1), is undamped and element 2, cos(1,0), is the one
the runs push: per step, kicks[i, b] is added to that coordinate of row b
before the integrating factor.  The SDE engine gets the kicks as Wiener
increments of a one-channel additive model on (1,0); the deterministic
march gets them through its drift, replaced by the prescribed forcing.
"""

import numpy as np
import pytest

from ans2d import det as det_mod
from ans2d import spectral
from ans2d.basis import GalerkinFrame
from ans2d.errors import BlowUpError
from ans2d.sde import SdeConfig, _run_batched, single_mode_noise
from ans2d.spectral import TorusGrid, check_rows

GRID = TorusGrid(8, 8)
DT = 0.1
N_STEPS = 5
FRAME = GalerkinFrame(GRID, 4)
PUSHED = FRAME.column((1, 0))


def _run_sde(a0, kicks, factor, monkeypatch):
    model = single_mode_noise((1, 0), 1.0)  # its projected channel is e_PUSHED
    cfg = SdeConfig(dt=DT, t_end=N_STEPS * DT, galerkin_n=4, drop_nonlinearity=True)
    monkeypatch.setattr(spectral, "BLOWUP_GUARD", factor)
    return _run_batched(FRAME.lift(a0), GRID, model, cfg, kicks[..., None],
                        with_diag=False).final


def _run_det(a0, kicks, factor, monkeypatch):
    # if-euler: a <- ef (a + dt drift), one drift per state (the last one unused)
    forcing = iter(np.concatenate((kicks, np.zeros((1, len(a0))))) / DT)

    def drift(a, frame):
        out = np.zeros_like(a)
        out[:, PUSHED] = next(forcing)
        return out

    monkeypatch.setattr(det_mod, "_drift", drift)
    monkeypatch.setattr(spectral, "BLOWUP_GUARD", factor)
    cfg = det_mod.DetConfig(dt=DT, t_end=N_STEPS * DT, integrator="if-euler")
    for _, a, _, _ in det_mod._det_march(a0, FRAME, cfg):
        pass
    return a


ENGINES = pytest.mark.parametrize("run", [_run_sde, _run_det], ids=["sde", "det"])


def _rows(b, norm=1.0):
    a0 = np.zeros((b, FRAME.n))
    a0[:, 0] = norm  # undamped: each row keeps its squared norm norm^2
    return a0


@ENGINES
def test_total_over_the_bound_with_no_row_over_it_passes(run, monkeypatch):
    # 4 rows of squared norm 1 total 4, above 1.5^2 = 2.25 times the largest row
    a0 = _rows(4)
    final = run(a0, np.zeros((N_STEPS, 4)), 1.5, monkeypatch)
    np.testing.assert_array_equal(final, a0)


@ENGINES
def test_one_row_over_the_bound_raises(run, monkeypatch):
    kicks = np.zeros((N_STEPS, 4))
    kicks[2, 1] = 3.0  # row 1 reaches 1 + (3 exp(-dt))^2 > 2.25 after step 2
    with pytest.raises(BlowUpError, match="exceeded") as err:
        run(_rows(4), kicks, 1.5, monkeypatch)
    assert err.value.last_finite_time == pytest.approx(2 * DT)


@ENGINES
def test_one_nan_row_raises_at_the_first_step(run, monkeypatch):
    kicks = np.zeros((N_STEPS, 4))
    kicks[0, 3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError, match="non-finite") as err:
        run(_rows(4), kicks, 1e6, monkeypatch)
    assert err.value.last_finite_time == 0.0


@ENGINES
def test_zero_initial_norm_checks_finiteness_only(run, monkeypatch):
    kicks = np.zeros((N_STEPS, 2))
    kicks[:, 0] = 1e150  # any growth from 0 is allowed while it stays finite
    final = run(_rows(2, 0.0), kicks, 1.5, monkeypatch)
    assert np.all(np.isfinite(final)) and final[0, PUSHED] > 1e150
    kicks[3, 1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError, match="non-finite") as err:
        run(_rows(2, 0.0), kicks, 1.5, monkeypatch)
    assert err.value.last_finite_time == pytest.approx(3 * DT)


def test_check_rows_reads_rows_not_the_total(monkeypatch):
    monkeypatch.setattr(spectral, "BLOWUP_GUARD", 1.01)
    rows = np.ones((100, 3))  # each row 3, the total 300
    check_rows(rows, 3.0, t_last=0.0)
    check_rows(rows[0], 3.0, t_last=0.0)  # one unbatched row
    rows[7, 1] = 2.0
    with pytest.raises(BlowUpError, match="exceeded") as err:
        check_rows(rows, 3.0, t_last=0.5)
    assert err.value.last_finite_time == 0.5
    # every row finite, but their squares overflow the total: not a blow-up
    check_rows(np.full((4, 1), 1e154), 0.0, t_last=0.0)
    with pytest.raises(BlowUpError, match="non-finite"):
        check_rows(np.full((4, 1), 1e155), 0.0, t_last=0.0)
