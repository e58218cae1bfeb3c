import numpy as np
import pytest

from ans2d.kernels import direct_advection
from ans2d.sde import ORACLE_TOL, _Stepper, drift_oracle_error, oracle_levels
from ans2d.spectral import ORACLE_MAX_POINTS, TorusGrid, nonlinear_term_oracle


def test_oracle_matches_pseudospectral(make_field):
    # the solvers' drift at every level of the ladder: on 8x8 at 4x4 / 8x8 /
    # 8x8, and where the axes differ, on 8x12 and 12x8, whose top level 34
    # reaches |k2| = 3 (or |k1| = 3) on one axis only
    for n1, n2, top in ((8, 8, 24), (8, 12, 34), (12, 8, 34)):
        grid = TorusGrid(n1, n2)
        assert oracle_levels(grid) == (8, 16, top)
        for seed in range(10):
            u = make_field(grid, band=2, seed=seed)
            for level in oracle_levels(grid):
                assert drift_oracle_error(u, level) <= ORACLE_TOL


def _uncropped_advection(coeffs):
    # the truncated convolution over the whole n1 x n2 window, as in the
    # module docstring, with no cropping to the support
    from scipy.signal import convolve2d

    n1, n2 = coeffs.shape[-2:]
    shift = (n1 // 2 - 1, n2 // 2 - 1)
    u = np.roll(coeffs, shift, axis=(-2, -1))
    d1 = u * (1j * (np.arange(n1) - shift[0]))[None, :, None]
    d2 = u * (1j * (np.arange(n2) - shift[1]))[None, None, :]
    out = np.zeros_like(u)
    for m in range(2):
        full = convolve2d(u[0], d1[m]) + convolve2d(u[1], d2[m])
        out[m] = full[shift[0]:shift[0] + n1, shift[1]:shift[1] + n2]
    return np.roll(out, (-shift[0], -shift[1]), axis=(-2, -1))


@pytest.mark.parametrize("n1,n2,band", [(8, 8, 2), (32, 32, 5), (16, 24, 5), (12, 12, 3)])
def test_cropped_oracle_matches_uncropped_convolution(make_field, n1, n2, band):
    grid = TorusGrid(n1, n2)
    fields = [make_field(grid, band=band, seed=seed).coeffs for seed in range(3)]
    # a support up to the Nyquist row and column, and one off centre
    rng = np.random.default_rng(n1 + n2)
    fields.append(rng.standard_normal((2, n1, n2)) + 1j * rng.standard_normal((2, n1, n2)))
    corner = np.zeros((2, n1, n2), dtype=np.complex128)
    corner[:, 1:3, 2:4] = rng.standard_normal((2, 2, 2))
    fields.append(corner)
    for c in fields:
        ref = _uncropped_advection(c)
        assert np.max(np.abs(direct_advection(c) - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert not np.any(direct_advection(np.zeros((2, n1, n2))))


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


def test_oracle_catches_an_analysis_reading_one_side_of_the_pair(monkeypatch, make_field):
    # analyse reads two real fields packed as w = P + i Q, so P^(kc) needs
    # W(kc) and conj W(-kc); an analysis that reads W(kc) alone, as it would
    # for a single real field, takes Q for part of P and must fail at every
    # level of the ladder
    from ans2d import spectral
    from ans2d.basis import GalerkinFrame

    def one_sided(self, samples, weights):
        spec = spectral._spec(samples, self.grid.n_points, self.reach2)
        flat = spec.reshape(spec.shape[:-2] + (self.spec_src.size,))
        at = np.take(flat, self.pair_at[:len(self.dirs[0])], axis=-1)  # W(kc) alone
        return self._from_pairs(at * (weights[0] + weights[1]))  # c+ + c- = w0

    grid = TorusGrid(8, 8)
    u = make_field(grid, band=2, seed=1)
    assert all(drift_oracle_error(u, level) <= ORACLE_TOL for level in oracle_levels(grid))
    monkeypatch.setattr(GalerkinFrame, "analyse", one_sided)
    for level in oracle_levels(grid):
        assert drift_oracle_error(u, level) > ORACLE_TOL, level
    u16 = make_field(TorusGrid(16, 16), band=4, seed=2)
    assert drift_oracle_error(u16, 8) > ORACLE_TOL
    assert drift_oracle_error(u16, 16) > ORACLE_TOL


def test_oracle_size_guard(make_field):
    grid = TorusGrid(64, 64)
    assert grid.n_points > ORACLE_MAX_POINTS == 1024
    u = make_field(grid, band=2, seed=0)
    with pytest.raises(ValueError, match="1024"):
        nonlinear_term_oracle(u)
