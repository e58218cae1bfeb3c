import numpy as np
import pytest

import fullgrid
from ans2d.norms import (
    NormReport,
    check_anisotropic_embedding,
    check_minkowski,
    cumulative_trapezoid,
    mixed_norm,
    norm_rows,
    trilinear_ratio,
    verdict,
)
from ans2d.spectral import (
    PhysicalField,
    TorusGrid,
    forward_transform,
    shear_field,
    zeros_spectral,
)


def test_sobolev_weights_single_mode(grid16):
    u = zeros_spectral(grid16)
    i, j = grid16.index_of((2, 3))
    im, jm = grid16.index_of((-2, -3))
    u.coeffs[0, i, j] = 0.5
    u.coeffs[0, im, jm] = 0.5
    rows = norm_rows(u.coeffs, grid16)
    l2 = rows["l2_sq"]
    assert l2 == pytest.approx((2.0 * np.pi) ** 2 * 0.5, rel=1e-14)
    # homogeneous weights |k1|^2, |k2|^2, |k1 k2|^2
    assert rows["d1_sq"] == pytest.approx(4.0 * l2, rel=1e-13)
    assert rows["d2_sq"] == pytest.approx(9.0 * l2, rel=1e-13)
    assert rows["d1d2_sq"] == pytest.approx(36.0 * l2, rel=1e-13)


def test_h01_inner_consistency(grid16, make_field):
    # the H^{0,1} norm the certificates read, l2_sq + d2_sq, against the
    # quadrature of (u, v) + (d2 u, d2 v); polarized for two fields
    u = make_field(grid16, band=5, seed=1).coeffs
    v = make_field(grid16, band=5, seed=2).coeffs

    def h01_sq(c):
        rows = norm_rows(c, grid16)
        return float(rows["l2_sq"] + rows["d2_sq"])

    assert (h01_sq(u + v) - h01_sq(u - v)) / 4.0 == pytest.approx(
        fullgrid.inner_h01(u, v, grid16), rel=1e-12)
    assert h01_sq(u) == pytest.approx(fullgrid.inner_h01(u, u, grid16), rel=1e-12)


def test_mixed_norm_constant_field(grid16):
    ones = np.ones((16, 16))
    for p, q in [(2.0, 2.0), (4.0, 2.0), (6.0, 3.0)]:
        val = mixed_norm(grid16, ones, p, q, h_outer=True)
        assert val == pytest.approx((2.0 * np.pi) ** (1.0 / p + 1.0 / q), rel=1e-12)
    sup = mixed_norm(grid16, ones, np.inf, 2.0, h_outer=False)
    assert sup == pytest.approx((2.0 * np.pi) ** 0.5, rel=1e-12)


def test_mixed_norm_diagonal_equality(grid16, make_field):
    samples = fullgrid.samples(make_field(grid16, band=4, seed=3).coeffs, grid16)[0]
    l2 = mixed_norm(grid16, samples, 2.0, 2.0, h_outer=True)
    assert l2 == pytest.approx(mixed_norm(grid16, samples, 2.0, 2.0, h_outer=False), rel=1e-12)


def test_minkowski_ordering(grid32, make_field):
    report = NormReport()
    for seed in range(20):
        samples = fullgrid.samples(make_field(grid32, band=6, seed=seed).coeffs, grid32)[seed % 2]
        check_minkowski(grid32, samples, p=4.0, q=2.0, report=report)
        check_minkowski(grid32, samples, p=6.0, q=2.0, report=report)
    assert not report.failures()
    with pytest.raises(ValueError):
        check_minkowski(grid32, np.ones((32, 32)), p=2.0, q=4.0)


def test_embedding_battery(grid32, make_field):
    report = NormReport()
    for seed in range(50):
        samples = fullgrid.samples(make_field(grid32, band=8, seed=100 + seed).coeffs, grid32)
        check_anisotropic_embedding(grid32, samples[0], report)
        check_anisotropic_embedding(grid32, samples[1], report)
    assert not report.failures()
    assert len(report.failures()) == 0


def test_embedding_constant_in_x1_direction(grid32):
    # f depending on x2 only: sup over x1 adds nothing, the d1 term drops
    # and the periodic mean term alone must carry the bound
    x2 = grid32.x2[None, :]
    f = np.sin(3.0 * x2) + 0.25 * np.cos(x2)
    samples = np.broadcast_to(f, (32, 32)).copy()
    report = check_anisotropic_embedding(grid32, samples)
    rows = {name: (lhs, rhs) for name, lhs, rhs, _, _ in report.rows}
    lhs, rhs = rows["embedding_sup_x1"]
    assert lhs <= rhs * (1.0 + 1e-9)
    # the x1-sup bound is tight up to the mean factor for such fields
    assert lhs >= rhs / (2.0 * np.pi) * 0.9
    assert not report.failures()


def test_report_failure_bookkeeping():
    report = NormReport()
    assert report.add("ok", 1.0, 2.0, 1.0)
    assert not report.add("bad", 3.0, 2.0, 1.0)
    assert report.failures()
    assert [r[0] for r in report.failures()] == ["bad"]


def test_verdict_reads_a_series_at_its_least_margin():
    t = np.array([0.0, 0.5, 1.0, 1.5])
    # a scalar bound measures the sup, even where lhs - bound rounds to a tie
    held = verdict("tie", np.array([2e-20, 1e-20, 3e-20, 0.0]), 1e-4, t)
    assert (held.measured, held.bound, held.passed, held.t_first) == (3e-20, 1e-4, True, None)
    # a moving bound is read where it is closest; t_first is the first break
    broken = verdict("moving", np.array([1.0, 2.0, 3.0, 5.0]), np.array([2.0, 1.5, 2.8, 6.0]), t)
    assert (broken.measured, broken.bound, broken.passed, broken.t_first) == (2.0, 1.5, False, 0.5)
    assert not verdict("nan", np.array([0.0, np.nan]), 1.0, t[:2]).passed
    assert verdict("scalar", 3, 0) == verdict("scalar", 3.0, 0.0)


def test_parseval_vs_mixed_norm(grid16):
    u = shear_field(grid16, axis=2)
    samples = fullgrid.samples(u.coeffs, grid16)[0]
    assert mixed_norm(grid16, samples, 2.0, 2.0, h_outer=True) ** 2 == pytest.approx(
        float(norm_rows(u.coeffs, grid16)["l2_sq"]), rel=1e-12)


def test_forward_transform_batch_friendly(grid16):
    # the scalar helpers used by the battery accept raw samples
    x1 = grid16.x1[:, None]
    x2 = grid16.x2[None, :]
    f = np.cos(x1) * np.sin(2.0 * x2)
    c = forward_transform(PhysicalField(grid16, np.stack([f, 0 * f])))
    assert abs(c.coeffs[0, 1, 2] - (-0.25j)) <= 1e-14  # mode (1, 2)


def test_norm_rows_keep_batch_axes(grid16, make_field):
    fields = np.stack([make_field(grid16, band=4, seed=s).coeffs for s in range(3)])
    batch = norm_rows(fields, grid16)
    assert set(batch) == {"l2_sq", "d1_sq", "d2_sq", "d1d2_sq"}
    for j in range(3):
        one = norm_rows(fields[j], grid16)
        for name, col in batch.items():
            assert col.shape == (3,) and one[name].shape == ()
            assert col[j] == one[name]  # same bits with or without batch axes
    # against quadratures of the derivative fields
    u = fields[0]
    d1u, d2u = fullgrid.deriv(u, grid16, 1), fullgrid.deriv(u, grid16, 2)
    d1d2u = fullgrid.deriv(d1u, grid16, 2)
    sq = {name: fullgrid.inner(f, f, grid16)
          for name, f in (("l2_sq", u), ("d1_sq", d1u), ("d2_sq", d2u), ("d1d2_sq", d1d2u))}
    assert batch["l2_sq"][0] == pytest.approx(sq["l2_sq"], rel=1e-14)
    for name in ("d1_sq", "d2_sq", "d1d2_sq"):
        assert batch[name][0] == pytest.approx(sq[name], rel=1e-13)


def test_cumulative_trapezoid_steps_and_batch_axes():
    t = np.linspace(0.0, 1.0, 11)
    y = np.stack([t ** 2, 2.0 * t], axis=1)  # two columns integrated independently
    out = cumulative_trapezoid(y, 0.1)
    assert out.shape == y.shape and np.all(out[0] == 0.0)
    np.testing.assert_allclose(out[:, 1], t ** 2, atol=1e-15)  # exact for linear y
    assert out[-1, 0] == pytest.approx(np.trapezoid(t ** 2, t), rel=1e-14)
    np.testing.assert_allclose(cumulative_trapezoid(y, np.diff(t)), out, rtol=1e-14)
    assert cumulative_trapezoid(np.array([3.0]), 0.1).tolist() == [0.0]
    # the running sum of the step loop it replaced, bit for bit
    ref = np.zeros_like(y)
    for i in range(1, len(t)):
        ref[i] = ref[i - 1] + 0.5 * 0.1 * (y[i - 1] + y[i])
    np.testing.assert_array_equal(out, ref)


def test_trilinear_ratio_is_zero_safe():
    ratio = trilinear_ratio(np.array([-2.0, 1.0, 0.0]), np.array([4.0, 0.0, 0.0]))
    assert ratio.tolist() == [0.5, 0.0, 0.0]
