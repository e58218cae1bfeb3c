import numpy as np
import pytest

import fullgrid
from ans2d.errors import BlowUpError
from ans2d.norms import MEASURE, norm_rows
from ans2d.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    alias_free_band,
    check_finite,
    forward_transform,
    hermitian_defect,
    inverse_transform,
    leray_project,
    nonlinear_term_oracle,
    random_solenoidal_field,
    shear_field,
    taylor_green,
    zero_mean,
    zeros_spectral,
)


def _divergence(u):
    """Largest |k . u_hat(k)|: zero for a solenoidal field."""
    k1, k2 = fullgrid.wavenumbers(u.grid)
    return float(np.max(np.abs(k1 * u.coeffs[0] + k2 * u.coeffs[1])))


def test_wavenumber_layout():
    grid = TorusGrid(8, 8)
    assert sorted(grid.k1.ravel().tolist()) == [-3, -2, -1, 0, 1, 2, 3, 4]
    assert grid.k1.ravel()[4] == 4  # Nyquist carries the positive label
    assert grid.k1.shape == (8, 1) and grid.k2.shape == (1, 8)


@pytest.mark.parametrize("n1,n2", [(3, 8), (8, 7), (2, 8)])
def test_grid_rejects_bad_sizes(n1, n2):
    with pytest.raises(ValueError):
        TorusGrid(n1, n2)


def test_single_mode_coefficients(grid16):
    # FFT layout: mode (k1, k2) at index (k1 mod n1, k2 mod n2)
    u = shear_field(grid16, axis=2)  # (sin x2, 0)
    np.testing.assert_allclose(u.coeffs[:, 0, 1], [-0.5j, 0.0], atol=1e-15)
    np.testing.assert_allclose(u.coeffs[:, 0, -1], [0.5j, 0.0], atol=1e-15)
    # cos x1 in component 1
    x1 = grid16.x1[:, None]
    samples = np.stack([np.zeros((16, 16)), np.cos(x1) * np.ones((1, 16))])
    c = forward_transform(PhysicalField(grid16, samples))
    np.testing.assert_allclose(c.coeffs[:, 1, 0], [0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(c.coeffs[:, -1, 0], [0.0, 0.5], atol=1e-15)


def test_round_trip(grid16, make_field):
    u = make_field(grid16, band=5, seed=1)
    back = forward_transform(inverse_transform(u))
    np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-14)
    f = inverse_transform(u)
    again = inverse_transform(forward_transform(f))
    np.testing.assert_allclose(again.samples, f.samples, atol=1e-13)


def test_parseval(grid16, make_field):
    u = make_field(grid16, band=5, seed=2)
    samples = inverse_transform(u).samples
    physical = float(np.sum(samples ** 2)) * MEASURE / grid16.n_points
    assert abs(physical - float(norm_rows(u.coeffs, grid16)["l2_sq"])) <= 1e-12 * max(1.0, physical)


def test_norm_of_sine_is_two_pi_squared(grid16):
    for u in (shear_field(grid16, axis=2), taylor_green(grid16)):
        assert norm_rows(u.coeffs, grid16)["l2_sq"] == pytest.approx(2.0 * np.pi ** 2, rel=1e-14)


def test_inverse_rejects_broken_symmetry(grid16):
    u = shear_field(grid16, axis=2)
    u.coeffs[0, 0, grid16.index_of((0, 1))[1]] += 1e-6
    assert hermitian_defect(u.coeffs) > 1e-7
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        inverse_transform(u)


def test_alias_free_band_of_the_top_frame():
    # keep |k_i| <= (n_i - 1) // 3 = 3 on 12x12: mode 2 * 4 would alias to 8 - 12 = -4
    from ans2d.basis import GalerkinFrame, max_level

    grid = TorusGrid(12, 12)
    assert alias_free_band(12) == grid.band1 == grid.band2 == 3
    # the top level holds every nonzero wavevector of the band square once
    # (a pair's cosine at kc, its sine at -kc) and none outside it
    k = GalerkinFrame(grid, max_level(grid)).wavevectors
    band = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    assert sorted(map(tuple, k.tolist())) == band


@pytest.mark.parametrize("n", [6, 12, 18])
def test_drift_matches_oracle_when_3_divides_n(n):
    # a field filling the alias-free band of the grid: products must not alias
    from ans2d.basis import GalerkinFrame, max_level
    from ans2d.sde import ORACLE_TOL, drift_oracle_error

    grid = TorusGrid(n, n)
    frame = GalerkinFrame(grid, max_level(grid))
    a = np.random.default_rng(n).standard_normal(frame.n)
    assert drift_oracle_error(SpectralField(grid, frame.lift(a)), frame.n) <= ORACLE_TOL


def test_leray_single_mode(grid16):
    u = zeros_spectral(grid16)
    i, j = grid16.index_of((1, 1))
    im, jm = grid16.index_of((-1, -1))
    u.coeffs[0, i, j] = 1.0
    u.coeffs[0, im, jm] = 1.0
    p = leray_project(u)
    # u - k (k.u)/|k|^2 at k=(1,1) with u=(1,0): (1/2, -1/2)
    np.testing.assert_allclose(p.coeffs[:, 1, 1], [0.5, -0.5], atol=1e-15)
    assert _divergence(p) <= 1e-15
    np.testing.assert_allclose(leray_project(p).coeffs, p.coeffs, atol=1e-15)


def test_leray_keeps_mean_mode(grid16):
    u = zeros_spectral(grid16)
    u.coeffs[:, 0, 0] = [2.0, -1.0]
    p = leray_project(u)
    np.testing.assert_array_equal(p.coeffs[:, 0, 0], [2.0, -1.0])
    assert np.all(zero_mean(p).coeffs[:, 0, 0] == 0.0)


def test_advection_two_mode_closed_form(grid16):
    # u = (a cos x2, b cos x1) gives u.grad u = (-ab cos x1 sin x2, -ab sin x1 cos x2)
    a, b = 0.7, -1.3
    x1 = grid16.x1[:, None]
    x2 = grid16.x2[None, :]
    u = forward_transform(PhysicalField(grid16, np.stack([
        a * np.cos(x2) * np.ones_like(x1),
        b * np.cos(x1) * np.ones_like(x2),
    ])))
    expected = forward_transform(PhysicalField(grid16, np.stack([
        -a * b * np.cos(x1) * np.sin(x2),
        -a * b * np.sin(x1) * np.cos(x2),
    ])))
    adv = nonlinear_term_oracle(u)
    np.testing.assert_allclose(adv.coeffs, expected.coeffs, atol=1e-14)


def test_advection_vanishes_for_pure_shear(grid16):
    for axis in (1, 2):
        adv = nonlinear_term_oracle(shear_field(grid16, axis=axis))
        assert np.max(np.abs(adv.coeffs)) <= 1e-15


def test_check_finite_raises():
    # a NaN or inf coordinate reaches the guard through the norm
    for bad in (np.nan, np.inf):
        with pytest.raises(BlowUpError, match="non-finite") as info:
            check_finite(bad, 1.0, t_last=0.25)
        assert info.value.last_finite_time == 0.25
    with pytest.raises(BlowUpError, match="exceeded"):
        check_finite(1e20, 1.0, t_last=0.5, guard=1e6)
    check_finite(1e11, 1.0, t_last=0.5, guard=1e6)  # within the guard


def test_shear_field_orientation(grid16):
    f1 = inverse_transform(shear_field(grid16, axis=1, amplitude=2.0)).samples
    x1 = grid16.x1[:, None]
    np.testing.assert_allclose(f1[1], 2.0 * np.sin(x1) * np.ones((1, 16)), atol=1e-14)
    assert np.max(np.abs(f1[0])) <= 1e-14
    f2 = inverse_transform(shear_field(grid16, axis=2, amplitude=0.5)).samples
    x2 = grid16.x2[None, :]
    np.testing.assert_allclose(f2[0], 0.5 * np.sin(x2) * np.ones((16, 1)), atol=1e-14)
    assert np.max(np.abs(f2[1])) <= 1e-14


def test_random_solenoidal_properties(grid32):
    rng = np.random.default_rng(11)
    u = random_solenoidal_field(grid32, band=4, amplitude=2.5, rng=rng)
    assert _divergence(u) <= 1e-13
    assert np.all(u.coeffs[:, 0, 0] == 0.0)
    outside = (np.abs(grid32.k1) > 4) | (np.abs(grid32.k2) > 4)
    assert np.max(np.abs(u.coeffs[:, outside])) == 0.0
    assert norm_rows(u.coeffs, grid32)["l2_sq"] == pytest.approx(2.5 ** 2, rel=1e-12)


def test_random_solenoidal_band_guard(grid16):
    with pytest.raises(ValueError):
        random_solenoidal_field(grid16, band=6, amplitude=1.0,
                                rng=np.random.default_rng(0))


def _cols(z, k2):
    """(..., m, n1) layout of (..., n1, n2) coefficients z: rows k2 = 0 .. k2, then -k2 .. -1."""
    return np.concatenate((z[..., :k2 + 1], z[..., z.shape[-1] - k2:]), axis=-1).swapaxes(-1, -2)


def _packed(c, k2):
    """Packed spectrum c[..., 0] + i c[..., 1] of (..., 2, n1, n2) coefficients, as _cols."""
    return _cols(c[..., 0, :, :] + 1j * c[..., 1, :, :], k2)


PACKED_GRIDS = pytest.mark.parametrize("n1,n2", [(4, 4), (8, 8), (10, 10), (16, 16), (16, 24),
                                                 (32, 32), (64, 64)])


@PACKED_GRIDS
def test_packed_synthesis_matches_complex(n1, n2):
    # _phys reads the packed spectrum c1 + i c2 of two real band-limited
    # fields over |k2| <= reach2; .real and .imag of its samples must each
    # match the complex synthesis of their own field, for the field and for
    # its derivative d1.  The fields are a batch of level fields of an odd
    # level, whose last pair holds a cosine alone.
    from ans2d.basis import GalerkinFrame, max_level
    from ans2d.spectral import _phys

    grid = TorusGrid(n1, n2)
    frame = GalerkinFrame(grid, max_level(grid) - 1)
    assert frame.n % 2 == 1
    a = np.random.default_rng(n1 + n2).standard_normal((3, frame.n))
    c = frame.lift(a)
    for coeffs in (c, fullgrid.deriv(c, grid, 1)):
        ref = np.fft.ifft2(coeffs, axes=(-2, -1)).real * grid.n_points
        got = _phys(_packed(coeffs, frame.reach2), grid.n_points)
        assert got.shape == (3, n1, n2) and got.dtype == np.complex128
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got.real - ref[:, 0])) <= 1e-13 * scale
        assert np.max(np.abs(got.imag - ref[:, 1])) <= 1e-13 * scale


@PACKED_GRIDS
def test_packed_analysis_recovers_each_field(n1, n2):
    # _spec of packed samples x1 + i x2 gives W = x1^ + i x2^ over |k2| <=
    # reach2; each field's coefficients follow from W at k and -k,
    # x1^(k) = (W(k) + conj W(-k)) / 2 and x2^(k) = (W(k) - conj W(-k)) / 2i
    from ans2d.basis import GalerkinFrame, max_level
    from ans2d.spectral import _spec

    grid = TorusGrid(n1, n2)
    k2 = GalerkinFrame(grid, max_level(grid) - 1).reach2
    x = np.random.default_rng(n1 * n2).standard_normal((3, 2, n1, n2))
    w = _spec(x[:, 0] + 1j * x[:, 1], grid.n_points, k2)
    assert w.shape == (3, 2 * k2 + 1, n1)
    m = 2 * k2 + 1
    mirror = np.conj(w[:, -np.arange(m) % m][:, :, -np.arange(n1) % n1])  # conj W(-k)
    ref = _cols(np.fft.fft2(x, axes=(-2, -1)) / grid.n_points, k2)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs((w + mirror) / 2 - ref[:, 0])) <= 1e-14 * scale
    assert np.max(np.abs((w - mirror) / 2j - ref[:, 1])) <= 1e-14 * scale


@pytest.mark.parametrize("n1,n2", [(4, 4), (8, 8), (10, 10), (16, 16), (16, 24), (64, 64)])
@pytest.mark.parametrize("rows", [3, 5])
def test_contiguous_layout_matches_strided_transforms(n1, n2, rows):
    # _phys and _spec run the k1 pass along the contiguous last axis of an
    # (m, n1) packed spectrum; written with that pass along axis -2 of an
    # (n1, m) one, as the reference below is, each 1-D transform sees the
    # same numbers, so both must agree bit for bit
    from ans2d.spectral import _phys, _spec

    grid = TorusGrid(n1, n2)
    k2 = grid.band2
    rng = np.random.default_rng(n1 * n2 + rows)
    samples = rng.standard_normal((7, rows, n1, n2)) + 1j * rng.standard_normal((7, rows, n1, n2))
    cols = np.fft.fft(samples, axis=-1, norm="forward")
    packed = np.fft.fft(np.concatenate((cols[..., :k2 + 1], cols[..., n2 - k2:]), axis=-1),
                        axis=-2, norm="forward")
    got = _spec(samples, grid.n_points, k2)
    assert got.shape == (7, rows, 2 * k2 + 1, n1) and got.flags.c_contiguous
    np.testing.assert_array_equal(got, packed.swapaxes(-1, -2))
    rows_x1 = np.fft.ifft(packed, axis=-2, norm="forward")
    full = np.zeros(samples.shape, dtype=np.complex128)
    full[..., :k2 + 1] = rows_x1[..., :k2 + 1]
    full[..., n2 - k2:] = rows_x1[..., k2 + 1:]
    np.testing.assert_array_equal(_phys(got, grid.n_points),
                                  np.fft.ifft(full, axis=-1, norm="forward"))
