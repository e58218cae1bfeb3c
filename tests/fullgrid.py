"""Independent references for the solver's operators, built from full-grid FFTs.

Apart from basis_element, nothing here runs basis.GalerkinFrame.  The
level-n projection P_n is an explicit mask over the level's wavevectors,
enumerated here by a Python sort, followed by a Leray projection;
sigma(u) y, the advection and every inner product are sampled on the full
grid with np.fft transforms and summed by quadrature.  Tests compare the
solver's frame-based code against these, so a fault in the frame cannot
pass on both sides.  basis_element is the frame's own lift of a unit
coordinate, the element a run perturbs along; element is its reference.

Coefficients use the package's amplitude convention: exp(i k.x) has
coefficient 1, in FFT layout.
"""

import numpy as np

MEASURE = (2.0 * np.pi) ** 2
_G = {"one": np.ones_like, "zero": np.zeros_like, "tanh": np.tanh, "sin": np.sin}


def wavenumbers(grid):
    """Float wavevector components (k1 as (n1, 1), k2 as (1, n2)) in FFT layout."""
    return (np.fft.fftfreq(grid.n1, 1.0 / grid.n1)[:, None],
            np.fft.fftfreq(grid.n2, 1.0 / grid.n2)[None, :])


def points(grid):
    """Grid coordinates x1 as (n1, 1) and x2 as (1, n2)."""
    return (2.0 * np.pi * np.arange(grid.n1)[:, None] / grid.n1,
            2.0 * np.pi * np.arange(grid.n2)[None, :] / grid.n2)


def samples(coeffs, grid):
    return np.fft.ifft2(coeffs, axes=(-2, -1)).real * grid.n_points


def spectrum(values, grid):
    return np.fft.fft2(values, axes=(-2, -1)) / grid.n_points


def deriv(coeffs, grid, axis):
    """Coefficients of d_axis u, axis 1 or 2."""
    return coeffs * (1j * wavenumbers(grid)[axis - 1])


def inner(u, v, grid):
    """(u, v) over the torus by quadrature of the samples of two coefficient arrays.

    Exact for band-limited fields whose product the grid resolves, as
    every dealiased pair is.
    """
    return float(np.sum(samples(u, grid) * samples(v, grid))) * MEASURE / grid.n_points


def inner_h01(u, v, grid):
    """(u, v) + (d2 u, d2 v), the H^{0,1} inner product, by quadrature."""
    return inner(u, v, grid) + inner(deriv(u, grid, 2), deriv(v, grid, 2), grid)


def level_pairs(grid, n):
    """Canonical wavevectors of the pairs the first n elements use.

    Pairs are ordered by |k|^2, then k1, then k2, inside the alias-free
    band |k_i| <= (n_i - 1) // 3; element 2j-1 is pair j's cosine, 2j its sine.
    """
    b1, b2 = (grid.n1 - 1) // 3, (grid.n2 - 1) // 3
    canonical = [(a, b) for a in range(b1 + 1) for b in range(-b2, b2 + 1)
                 if a > 0 or (a == 0 and b > 0)]
    canonical.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))
    return canonical[:(n + 1) // 2]


def level_wavevectors(grid, n):
    """Wavevector of each of the first n elements: kc for the cosine, -kc for the sine."""
    return [k for a, b in level_pairs(grid, n) for k in ((a, b), (-a, -b))][:n]


def basis_element(grid, k):
    """SpectralField of the unit element attached to wavevector k in the frame of all elements.

    The lift of the unit coordinate at column(k), as the uniqueness command
    builds its perturbation; ValueError for k = 0 and outside the band.
    """
    from ans2d.basis import GalerkinFrame, max_level
    from ans2d.spectral import SpectralField

    frame = GalerkinFrame(grid, max_level(grid))
    a = np.zeros(frame.n)
    a[frame.column(k)] = 1.0
    return SpectralField(grid, frame.lift(a))


def element(grid, k):
    """Coefficients of the unit element at k: amp d cos(kc.x), or amp d sin(kc.x) for k = -kc.

    d = kc_perp / |kc| with kc_perp = (-kc2, kc1), amp = 1 / (sqrt(2) pi).
    """
    canonical = k[0] > 0 or (k[0] == 0 and k[1] > 0)
    kc = k if canonical else (-k[0], -k[1])
    x1, x2 = points(grid)
    phase = kc[0] * x1 + kc[1] * x2
    wave = (np.cos(phase) if canonical else np.sin(phase)) / (np.sqrt(2.0) * np.pi)
    d = np.array([-kc[1], kc[0]]) / np.hypot(*kc)
    return spectrum(d[:, None, None] * wave, grid)


def leray(coeffs, grid):
    """c - k (k.c) / |k|^2 at every k != 0; the mean is dropped."""
    k1, k2 = wavenumbers(grid)
    ksq = k1 ** 2 + k2 ** 2
    div = (k1 * coeffs[..., 0, :, :] + k2 * coeffs[..., 1, :, :]) / np.where(ksq > 0, ksq, 1.0)
    out = np.stack((coeffs[..., 0, :, :] - k1 * div, coeffs[..., 1, :, :] - k2 * div), axis=-3)
    out[..., :, 0, 0] = 0.0
    return out


def project(coeffs, grid, n):
    """P_n of Hermitian (..., 2, n1, n2) coefficients: the level's mask, then Leray.

    An odd n keeps only the cosine element of its last pair, whose
    coefficient at +-kc is the real part of the projected one there.
    """
    pairs = level_pairs(grid, n)
    keep = np.zeros((grid.n1, grid.n2))
    for a, b in pairs:
        keep[a % grid.n1, b % grid.n2] = keep[-a % grid.n1, -b % grid.n2] = 1.0
    out = leray(coeffs * keep, grid)
    if n % 2:
        a, b = pairs[-1]
        for i, j in ((a % grid.n1, b % grid.n2), (-a % grid.n1, -b % grid.n2)):
            out[..., :, i, j] = out[..., :, i, j].real
    return out


def advection(coeffs, grid, n):
    """P_n (u.grad u) of (2, n1, n2) coefficients, in convective form on the full grid."""
    u = samples(coeffs, grid)
    d1u, d2u = samples(deriv(coeffs, grid, 1), grid), samples(deriv(coeffs, grid, 2), grid)
    return project(spectrum(u[0:1] * d1u + u[1:2] * d2u, grid), grid, n)


def recipe(r, grid):
    """Samples of a ScalarRecipe, term by term from its parsed terms."""
    x1, x2 = points(grid)
    out = np.zeros((grid.n1, grid.n2))
    for amp, k1, k2, phase in r.terms:
        out = out + amp * (np.cos if phase == "cos" else np.sin)(k1 * x1 + k2 * x2)
    return out


def sigma(model, coeffs, grid, y, n):
    """P_n sigma(u) y = P_n sum_k y_k (c_k d1 u + b_k g(u)) of (2, n1, n2) coefficients u."""
    u = samples(coeffs, grid)
    d1u = samples(deriv(coeffs, grid, 1), grid)
    g = _G[model.g_kind](u)
    out = np.zeros_like(u)
    for yk, c, b in zip(y, model.c, model.b):
        out += yk * (recipe(c, grid) * d1u + recipe(b, grid) * g)
    return project(spectrum(out, grid), grid, n)


def channels(model, coeffs, grid, n):
    """P_n sigma(u) psi_j for every channel j, shape (n_modes, 2, n1, n2)."""
    eye = np.eye(model.n_modes)
    return np.stack([sigma(model, coeffs, grid, y, n) for y in eye]) if model.n_modes else \
        np.zeros((0, 2, grid.n1, grid.n2))
