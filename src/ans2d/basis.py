"""Real divergence-free Fourier basis and Galerkin truncation.

Each conjugate mode pair {k, -k}, k != 0, carries two real unit-norm
elements: the perpendicular direction k_perp/|k| times cos(k.x) and times
sin(k.x).  Pairs are enumerated by |k|^2, ties broken lexicographically on
the canonical representative (k1 > 0, or k1 = 0 and k2 > 0).  Element
2j-1 of pair j is the cosine, element 2j the sine.  basis_element(k)
returns the cosine element when k is canonical and the sine element of the
pair of -k otherwise, so wavevectors index the whole enumeration.

Every element is an eigenfunction of d2^2, which makes the truncation
orthogonal in both the plain and the vertical-derivative inner product.
"""

from __future__ import annotations

import numpy as np

from .spectral import SpectralField, TorusGrid, zeros_spectral, _leray_raw


def is_canonical(k: tuple[int, int]) -> bool:
    return k[0] > 0 or (k[0] == 0 and k[1] > 0)


def basis_element(grid: TorusGrid, k: tuple[int, int]) -> SpectralField:
    """Unit-norm real solenoidal element attached to wavevector k != 0."""
    k = (int(k[0]), int(k[1]))
    if k == (0, 0):
        raise ValueError("no basis element at k = 0")
    if abs(k[0]) > grid.n1 // 3 or abs(k[1]) > grid.n2 // 3:
        raise ValueError(f"wavevector {k} outside dealiased band of {grid.n1}x{grid.n2} grid")
    kc = k if is_canonical(k) else (-k[0], -k[1])
    norm = np.hypot(kc[0], kc[1])
    d = np.array([-kc[1], kc[0]], dtype=np.float64) / norm  # k_perp / |k|
    amp = 1.0 / (np.sqrt(2.0) * np.pi)  # unit L2 norm on the torus
    f = zeros_spectral(grid)
    i, j = grid.index_of(kc)
    im, jm = grid.index_of((-kc[0], -kc[1]))
    if k == kc:  # cosine element
        f.coeffs[:, i, j] = 0.5 * amp * d
        f.coeffs[:, im, jm] = 0.5 * amp * d
    else:  # sine element
        f.coeffs[:, i, j] = -0.5j * amp * d
        f.coeffs[:, im, jm] = 0.5j * amp * d
    return f


def enumerate_pairs(grid: TorusGrid, count: int) -> list[tuple[int, int]]:
    """First `count` canonical pair representatives in enumeration order."""
    band1, band2 = grid.n1 // 3, grid.n2 // 3
    pairs = [
        (a, b)
        for a in range(0, band1 + 1)
        for b in range(-band2, band2 + 1)
        if is_canonical((a, b))
    ]
    pairs.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))
    if count > len(pairs):
        raise ValueError(
            f"{count} pairs requested but only {len(pairs)} fit the dealiased band"
        )
    return pairs[:count]


def basis_wavevectors(grid: TorusGrid, n: int) -> list[tuple[int, int]]:
    """Wavevectors indexing the first n basis elements (cos, then sin, per pair)."""
    pairs = enumerate_pairs(grid, (n + 1) // 2)
    out: list[tuple[int, int]] = []
    for kc in pairs:
        out.append(kc)
        out.append((-kc[0], -kc[1]))
    return out[:n]


def galerkin_mask(grid: TorusGrid, n: int) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Modes the level-n projection keeps whole, plus its split pair.

    Returns a read-only boolean (n1, n2) mask over both members of every
    fully kept pair and, for odd n, the canonical wavevector of the last
    pair, of which only the cosine element is kept (None for even n).
    """
    pairs = enumerate_pairs(grid, (n + 1) // 2)
    mask = np.zeros((grid.n1, grid.n2), dtype=bool)
    full = pairs if n % 2 == 0 else pairs[:-1]
    for kc in full:
        mask[grid.index_of(kc)] = True
        mask[grid.index_of((-kc[0], -kc[1]))] = True
    mask.flags.writeable = False
    return mask, (pairs[-1] if n % 2 == 1 else None)


def galerkin_project_raw(coeffs: np.ndarray, grid: TorusGrid, n: int,
                         mask: tuple[np.ndarray, tuple[int, int] | None] | None = None
                         ) -> np.ndarray:
    """Span projection onto the first n basis elements; supports batch axes.

    mask is galerkin_mask(grid, n), built here when not given.  The result
    is Leray-projected, dealiased and mean-free.
    """
    keep, split = galerkin_mask(grid, n) if mask is None else mask
    out = _leray_raw(coeffs * keep, grid)
    if split is not None:
        # split pair: retain only the cosine component, i.e. the real part of
        # the solenoidal amplitude at the canonical representative
        kc = split
        norm = np.hypot(kc[0], kc[1])
        d = np.array([-kc[1], kc[0]], dtype=np.float64) / norm
        i, j = grid.index_of(kc)
        im, jm = grid.index_of((-kc[0], -kc[1]))
        alpha = coeffs[..., 0, i, j] * d[0] + coeffs[..., 1, i, j] * d[1]
        re = alpha.real
        out[..., 0, i, j] = re * d[0]
        out[..., 1, i, j] = re * d[1]
        out[..., 0, im, jm] = re * d[0]
        out[..., 1, im, jm] = re * d[1]
    return out


def galerkin_project(u: SpectralField, n: int) -> SpectralField:
    """Orthogonal projection onto the span of the first n basis elements.

    Identical whether taken in the L2 or the vertical-derivative inner
    product, because the elements diagonalize both.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n == 0:
        return zeros_spectral(u.grid)
    return SpectralField(u.grid, galerkin_project_raw(u.coeffs, u.grid, n))


def max_level(grid: TorusGrid) -> int:
    """Number of basis elements available inside the dealiased band."""
    band1, band2 = grid.n1 // 3, grid.n2 // 3
    n_pairs = band1 * (2 * band2 + 1) + band2
    return 2 * n_pairs
