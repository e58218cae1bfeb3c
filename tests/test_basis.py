import numpy as np
import pytest

import fullgrid
from ans2d.basis import (
    GalerkinFrame,
    enumerate_pairs,
    galerkin_project_raw,
    is_canonical,
    level_reach,
    max_level,
    quadrature_grid,
)
from ans2d import spectral
from ans2d.basis import _AMP
from ans2d.norms import MEASURE
from ans2d.spectral import TorusGrid


def test_element_shapes(grid16):
    e = fullgrid.basis_element(grid16, (1, 0))
    # k = (1, 0): direction k_perp/|k| = (0, 1), so (0, cos x1)/(sqrt(2) pi)
    samples = fullgrid.samples(e.coeffs, grid16)
    x1 = grid16.x1[:, None]
    np.testing.assert_allclose(
        samples[1], np.cos(x1) * np.ones((1, 16)) / (np.sqrt(2.0) * np.pi), atol=1e-15)
    assert np.max(np.abs(samples[0])) <= 1e-15
    # negated wavevector picks the sine partner
    s = fullgrid.samples(fullgrid.basis_element(grid16, (-1, 0)).coeffs, grid16)
    np.testing.assert_allclose(
        s[1], np.sin(x1) * np.ones((1, 16)) / (np.sqrt(2.0) * np.pi), atol=1e-15)


def test_element_guards(grid16):
    with pytest.raises(ValueError):
        fullgrid.basis_element(grid16, (0, 0))
    with pytest.raises(ValueError):
        fullgrid.basis_element(grid16, (6, 0))  # outside the (n-1)//3 band


def test_enumeration_order(grid16):
    pairs = enumerate_pairs(grid16, 6)
    assert pairs == [(0, 1), (1, 0), (1, -1), (1, 1), (0, 2), (2, 0)]
    ks = GalerkinFrame(grid16, 5).wavevectors.tolist()
    assert ks == [[0, 1], [0, -1], [1, 0], [-1, 0], [1, -1]]


@pytest.mark.parametrize("n1,n2", [(16, 16), (64, 64), (16, 40)])
def test_enumeration_matches_sorted_reference(n1, n2):
    grid = TorusGrid(n1, n2)
    band1, band2 = (n1 - 1) // 3, (n2 - 1) // 3
    ref = sorted(((a, b) for a in range(band1 + 1) for b in range(-band2, band2 + 1)
                  if is_canonical((a, b))), key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))
    assert enumerate_pairs(grid, len(ref)) == ref
    assert enumerate_pairs(grid, 7) == ref[:7]


def test_gram_matrix_both_inner_products(grid16):
    n = 12
    ks = fullgrid.level_wavevectors(grid16, n)
    elems = [fullgrid.basis_element(grid16, k).coeffs for k in ks]
    for inner in (fullgrid.inner, fullgrid.inner_h01):
        gram = np.array([[inner(a, b, grid16) for b in elems] for a in elems])
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-12
    # L2-normalized; vertical-derivative weight is 1 + k2^2 per element
    k1, k2 = fullgrid.wavenumbers(grid16)
    for e, k in zip(elems, ks):
        assert fullgrid.inner(e, e, grid16) == pytest.approx(1.0, abs=1e-13)
        assert fullgrid.inner_h01(e, e, grid16) == pytest.approx(1.0 + k[1] ** 2, abs=1e-12)
        assert np.max(np.abs(k1 * e[0] + k2 * e[1])) <= 1e-15  # solenoidal


def test_projection_span_and_idempotence(grid16):
    n = 8
    ks = fullgrid.level_wavevectors(grid16, n + 2)
    for j, k in enumerate(ks):
        e = fullgrid.element(grid16, k)
        p = galerkin_project_raw(e, grid16, n)
        if j < n:
            np.testing.assert_allclose(p, e, atol=1e-14)
        else:
            assert np.max(np.abs(p)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_projection_matches_both_inner_product_expansions(grid16, make_field, n):
    """The span projection agrees with the coefficient expansions in the plain
    and in the vertical-derivative inner product, so the two truncations are
    the same operator."""
    u = make_field(grid16, band=5, seed=n).coeffs
    p = galerkin_project_raw(u, grid16, n)
    via_l2 = np.zeros_like(u)
    via_h01 = np.zeros_like(u)
    for k in fullgrid.level_wavevectors(grid16, n):
        e = fullgrid.element(grid16, k)
        via_l2 += fullgrid.inner(u, e, grid16) * e
        via_h01 += (fullgrid.inner_h01(u, e, grid16) / (1.0 + k[1] ** 2)) * e
    np.testing.assert_allclose(p, via_l2, atol=1e-13)
    np.testing.assert_allclose(p, via_h01, atol=1e-13)
    # idempotent and contractive in both norms
    np.testing.assert_allclose(galerkin_project_raw(p, grid16, n), p, atol=1e-14)
    assert fullgrid.inner(p, p, grid16) <= fullgrid.inner(u, u, grid16) * (1.0 + 1e-12)
    h01_p, h01_u = fullgrid.inner_h01(p, p, grid16), fullgrid.inner_h01(u, u, grid16)
    assert np.sqrt(h01_p) <= np.sqrt(h01_u) * (1.0 + 1e-12)


def test_odd_level_keeps_cosine_only(grid16):
    # level 2j-1 splits pair j: the sine element of that pair must drop
    pairs = enumerate_pairs(grid16, 3)
    kc = pairs[2]
    cos_e = fullgrid.basis_element(grid16, kc)
    sin_e = fullgrid.basis_element(grid16, (-kc[0], -kc[1]))
    u_cos = galerkin_project_raw(cos_e.coeffs, grid16, 5)
    u_sin = galerkin_project_raw(sin_e.coeffs, grid16, 5)
    np.testing.assert_allclose(u_cos, cos_e.coeffs, atol=1e-14)
    assert np.max(np.abs(u_sin)) <= 1e-14


def test_full_level_is_identity_on_dealiased_fields(grid16, make_field):
    u = make_field(grid16, band=5, seed=9)
    p = galerkin_project_raw(u.coeffs, grid16, max_level(grid16))
    np.testing.assert_allclose(p, u.coeffs, atol=1e-13)


def test_max_level_counts(grid16):
    band = 16 // 3
    n_pairs = band * (2 * band + 1) + band
    assert max_level(grid16) == 2 * n_pairs
    # 12 is divisible by 3: the alias-free band is 3, not 12 // 3 = 4
    assert max_level(TorusGrid(12, 12)) == 2 * (3 * 7 + 3)
    with pytest.raises(ValueError):
        enumerate_pairs(grid16, n_pairs + 1)


@pytest.mark.parametrize("n", [1, 2, 7, 8, max_level(TorusGrid(16, 16))])
def test_frame_coords_are_basis_inner_products(grid16, make_field, n):
    from ans2d.basis import GalerkinFrame

    u = make_field(grid16, band=5, seed=11)
    frame = GalerkinFrame(grid16, n)
    a = frame.coords(u.coeffs)
    ks = fullgrid.level_wavevectors(grid16, n)
    expected = [fullgrid.inner(u.coeffs, fullgrid.element(grid16, k), grid16) for k in ks]
    np.testing.assert_allclose(a, expected, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(frame.coords(frame.lift(a)), a, rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(frame.k1sq, [k[0] ** 2 for k in ks])
    np.testing.assert_array_equal(frame.k2sq, [k[1] ** 2 for k in ks])
    assert frame.coords(np.stack([u.coeffs] * 3)).shape == (3, n)


def test_frames_are_built_once_and_read_only(grid16):
    frame = GalerkinFrame(grid16, 8)
    assert GalerkinFrame(TorusGrid(16, 16), 8) is frame
    assert GalerkinFrame(grid16, 9) is not frame
    for arr in (*frame.plus, *frame.minus, frame.dirs, frame.wavevectors, frame.k1sq,
                frame.k2sq, frame.pair_at, frame.spec_src, frame.spec_gain, frame.drift_weights,
                frame.field_weights, frame.coord_scale, frame.power_weights):
        with pytest.raises(ValueError):
            arr[0] = 0


SYNTH_CASES = pytest.mark.parametrize("n1,n2", [(16, 16), (16, 24), (4, 16), (12, 12), (64, 64)])
SYNTH_LEVELS = pytest.mark.parametrize("level", [1, 2, 7, 8, "max"])


@SYNTH_CASES
@SYNTH_LEVELS
def test_frame_synth_and_analyse_match_full_spectrum(n1, n2, level, full_samples):
    # the packed transforms against the complex ones on the full spectrum:
    # levels 1 and 2 hold the pair (0, 1) alone, from level 3 on the
    # k2 = 0 pair (1, 0) fills both of its wavevectors in column 0 and
    # (1, -1) sits in a negative column, level 7 ends on a cosine, and
    # 12x12 has a band below n // 3
    grid = TorusGrid(n1, n2)
    frame = GalerkinFrame(grid, max_level(grid) if level == "max" else level)
    rng = np.random.default_rng(n1 * n2 + frame.n)
    a = rng.standard_normal((3, frame.n))
    u = full_samples(frame.lift(a), grid)[0]
    # packed samples u1 + i u2
    ref = u[:, 0] + 1j * u[:, 1]
    got = frame.synth(a)
    assert got.shape == (3, n1, n2) and got.dtype == np.complex128
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # analysis of two real sample fields that are not band-limited, packed
    x = rng.standard_normal((3, 2, n1, n2))
    ref = frame.coords(np.fft.fft2(x, axes=(-2, -1)) / grid.n_points)
    got = frame.analyse(x[:, 0] + 1j * x[:, 1], frame.field_weights)
    assert got.shape == (3, frame.n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@SYNTH_CASES
@pytest.mark.parametrize("level", [1, 7, "max"])
def test_synth_and_analyse_write_over_a_used_workspace(n1, n2, level):
    # a step's workspace holds the last step's arrays: synth and analyse
    # writing into NaN-filled out and spec give the bits they give into new
    # arrays, so every column synth leaves outside |k2| <= reach2 is zeroed
    grid = TorusGrid(n1, n2)
    frame = GalerkinFrame(grid, max_level(grid) if level == "max" else level)
    rng = np.random.default_rng(n1 * n2 + frame.n)
    a = rng.standard_normal((3, frame.n))
    nan = complex(np.nan, np.nan)
    out = np.full((3, n1, n2), nan)
    spec = np.full((3, 2 * frame.reach2 + 1, n1), nan)
    got = frame.synth(a, out, spec)
    assert got is out
    assert got.tobytes() == frame.synth(a).tobytes()
    x = rng.standard_normal((3, n1, n2)) + 1j * rng.standard_normal((3, n1, n2))
    spec.fill(nan)
    got = frame.analyse(x.copy(), frame.field_weights, spec)
    assert got.tobytes() == frame.analyse(x.copy(), frame.field_weights).tobytes()


@SYNTH_CASES
@SYNTH_LEVELS
def test_rotational_advection_matches_convective_form(n1, n2, level, full_samples):
    # the drift, analysed from (u1 u2, u2^2 - u1^2), is -P(u.grad u): u is
    # solenoidal, so u.grad u = div(u u), and on the configured grid the
    # products of level fields do not alias onto the level's coordinates.
    # The rotational form omega u_perp, which differs from u.grad u by the
    # gradient of |u|^2 / 2, gives the same coordinates.  References come
    # from full-grid transforms of the convective and rotational forms.
    from ans2d.det import _drift

    grid = TorusGrid(n1, n2)
    frame = GalerkinFrame(grid, max_level(grid) if level == "max" else level)
    a = np.random.default_rng(n1 + n2 + frame.n).standard_normal((2, frame.n))
    u, d1u, d2u = full_samples(frame.lift(a), grid)
    convective = u[:, 0:1] * d1u + u[:, 1:2] * d2u
    omega = d1u[:, 1] - d2u[:, 0]
    rotational = np.stack((-omega * u[:, 1], omega * u[:, 0]), axis=1)
    ref, rot = (-frame.coords(np.fft.fft2(x, axes=(-2, -1)) / grid.n_points)
                for x in (convective, rotational))
    got = _drift(a, frame)
    scale = np.max(np.abs(ref))
    if scale == 0.0:
        # a lone pair (levels 1, 2) does not advect itself; a packed
        # transform carries rounding of one field into the other, so the
        # drift is rounding of the products, which are |u|^2 in size
        assert np.max(np.abs(convective)) == 0.0
        assert np.max(np.abs(got)) <= 1e-13 * np.max(np.abs(u)) ** 2
    else:
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    assert np.max(np.abs(rot - ref)) <= 1e-13 * max(scale, np.max(np.abs(convective)))


def test_quadrature_grid_per_level(grid16):
    # level 8 spans |k_i| <= 1, level 16 |k_i| <= 2, level 32 |k_i| <= 3
    assert quadrature_grid(grid16, 8) == TorusGrid(4, 4)
    assert quadrature_grid(grid16, 16) == TorusGrid(8, 8)
    assert quadrature_grid(grid16, 32) == TorusGrid(10, 10)
    assert quadrature_grid(grid16, max_level(grid16)) == grid16
    # per axis: on 4x16 the band of axis 1 is 1, so level 12 reaches (1, 2)
    assert quadrature_grid(TorusGrid(4, 16), 12) == TorusGrid(4, 8)
    assert quadrature_grid(TorusGrid(16, 4), 12) == TorusGrid(8, 4)
    assert quadrature_grid(TorusGrid(4, 16), max_level(TorusGrid(4, 16))) == TorusGrid(4, 16)
    # the level's wavevectors come in the same order on the smaller grid
    q = quadrature_grid(grid16, 32)
    np.testing.assert_array_equal(GalerkinFrame(q, 32).wavevectors,
                                  GalerkinFrame(grid16, 32).wavevectors)


@pytest.mark.parametrize("n1,n2", [(8, 8), (12, 12), (16, 40), (30, 18), (64, 64)])
def test_level_reach_bounds_every_level(n1, n2):
    # det.run_bytes sizes each level from level_reach, without its frame
    grid = TorusGrid(n1, n2)
    pairs = np.abs(np.array(enumerate_pairs(grid, max_level(grid) // 2)))
    actual = np.maximum.accumulate(pairs, axis=0)  # row p: the first p + 1 pairs
    for n in range(1, max_level(grid) + 1):
        assert np.all(level_reach(grid, n) >= actual[(n + 1) // 2 - 1])
    assert level_reach(grid, max_level(grid)) == (grid.band1, grid.band2)


@pytest.mark.parametrize("n", [12, 18, 48])
def test_drift_is_energy_neutral_at_max_level(n):
    # (P(u.grad u), u) = 0 on the whole span; an aliased band breaks it
    from ans2d.det import _drift

    grid = TorusGrid(n, n)
    frame = GalerkinFrame(grid, max_level(grid))
    a = np.random.default_rng(n).standard_normal(frame.n)
    drift = _drift(a, frame)
    assert abs(drift @ a) <= 1e-13 * np.linalg.norm(drift) * np.linalg.norm(a)


# The frame's layers written the long way: -i over the whole grid of
# products, the gather source from _to_pairs and concatenate, the scale
# applied before the sines are negated.  The layers of GalerkinFrame must
# give their bits.

def _long_from_pairs(frame, beta):
    a = np.ascontiguousarray(beta, dtype=np.complex128).view(np.float64)
    a *= MEASURE * _AMP
    a[..., 1::2] *= -1.0
    return a[..., :frame.n]


def _long_synth(frame, a):
    lead = a.shape[:-1]
    z = frame._to_pairs(a)
    src = np.concatenate((z, np.conj(z), np.zeros(lead + (1,))), axis=-1)
    spec = np.empty(lead + (2 * frame.reach2 + 1, frame.grid.n1), dtype=np.complex128)
    flat = spec.reshape(lead + (frame.spec_src.size,))
    np.take(src, frame.spec_src, axis=-1, out=flat, mode="clip")
    flat *= frame.spec_gain
    return spectral._phys(spec, frame.grid.n_points)


def _long_analyse(frame, samples, weights):
    spec = spectral._spec(samples, frame.grid.n_points, frame.reach2)
    at = np.take(spec.reshape(spec.shape[:-2] + (frame.spec_src.size,)), frame.pair_at, axis=-1)
    n_pairs = len(frame.dirs[0])
    beta = at[..., :n_pairs] * weights[0]
    beta += np.conj(at[..., n_pairs:]) * weights[1]
    return _long_from_pairs(frame, beta)


def _long_drift(frame, phys):
    products = phys * phys
    products *= -1j  # P + i Q = -i z^2 on every sample
    return _long_analyse(frame, products, frame.drift_weights)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# (grid, level, batch axes): det64's frame, a 24x16 frame, SDE levels with
# an odd n (its last pair has no sine) and with batch axes
LEAN_CASES = pytest.mark.parametrize("n1,n2,level,lead", [
    (64, 64, "max", ()), (24, 16, "max", ()), (24, 16, "max", (2,)), (16, 16, 15, (3,)),
    (16, 16, 7, (2, 3)), (10, 10, 32, (4,)), (16, 16, 8, (250,))])


@LEAN_CASES
def test_frame_layers_keep_the_bits_of_the_long_form(n1, n2, level, lead):
    from ans2d.det import _drift

    grid = TorusGrid(n1, n2)
    frame = GalerkinFrame(grid, max_level(grid) if level == "max" else level)
    rng = np.random.default_rng(n1 * n2 + frame.n + len(lead))
    a = rng.standard_normal(lead + (frame.n,))
    # a used workspace holds anything: NaN everywhere
    nan = complex(np.nan, np.nan)
    out = np.full(lead + (n1, n2), nan)
    spec = np.full(lead + (2 * frame.reach2 + 1, n1), nan)
    want = _long_synth(frame, a)
    assert _same_bits(frame.synth(a, out, spec), want)
    assert _same_bits(frame.synth(a), want)
    x = rng.standard_normal(lead + (n1, n2)) + 1j * rng.standard_normal(lead + (n1, n2))
    spec.fill(nan)
    assert _same_bits(frame.analyse(x.copy(), frame.field_weights, spec),
                      _long_analyse(frame, x.copy(), frame.field_weights))
    drift = _long_drift(frame, want.copy())
    out.fill(nan)
    spec.fill(nan)
    assert _same_bits(frame.drift(want.copy(), out, spec), drift)
    assert _same_bits(frame.drift(want.copy()), drift)
    # det._drift squares its own samples in place, in a march's workspace or not
    out.fill(nan)
    spec.fill(nan)
    assert _same_bits(_drift(a, frame, (out, spec)), drift)
    assert _same_bits(_drift(a, frame), drift)


@pytest.mark.parametrize("n,batch", [(8, 250), (15, 3), (16, 2), (32, 5)])
def test_sde_drift_keeps_the_bits_of_the_long_form(n, batch):
    # the stepper advects on the level's quadrature grid, in its workspace
    from ans2d.noise import NoiseModel
    from ans2d.sde import SdeConfig, _Stepper

    stepper = _Stepper(TorusGrid(16, 16), NoiseModel(), SdeConfig(galerkin_n=n), batch)
    qframe = stepper.qframe
    rng = np.random.default_rng(n + batch)
    for _ in range(2):  # the second call writes over the first call's workspace
        a = rng.standard_normal((batch, n))
        assert _same_bits(stepper.drift(a), _long_drift(qframe, _long_synth(qframe, a)))


@pytest.mark.parametrize("length", [4, 8, 10, 16, 64])
def test_minus_i_commutes_with_the_batched_fft_bit_for_bit(length):
    # the drift turns the gathered coefficients of z^2 by -i instead of the
    # samples: fft(-i x) == -i fft(x) exactly, for the transform lengths of
    # the workloads' packed transforms (levels 8, 16, 32 on 16x16 quadrature
    # grids 4, 8, 10; 16x16 and 64x64 configured grids), either direction
    rng = np.random.default_rng(length)
    x = rng.standard_normal((5, 7, length)) + 1j * rng.standard_normal((5, 7, length))
    x[0, 0] = 0.0  # exact zeros too
    x *= 10.0 ** rng.integers(-8, 8, size=(5, 7, 1))
    for transform in (np.fft.fft, np.fft.ifft):
        turned = x * -1j
        want = transform(x, axis=-1, norm="forward")
        want *= -1j
        assert np.array_equal(transform(turned, axis=-1, norm="forward"), want)
