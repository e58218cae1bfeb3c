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

from . import spectral
from .norms import MEASURE
from .spectral import SpectralField, TorusGrid, alias_free_band

_AMP = 1.0 / (np.sqrt(2.0) * np.pi)  # unit L2 norm of a cosine or sine element


def is_canonical(k: tuple[int, int]) -> bool:
    return k[0] > 0 or (k[0] == 0 and k[1] > 0)


def basis_element(grid: TorusGrid, k: tuple[int, int]) -> SpectralField:
    """Unit-norm real solenoidal element attached to wavevector k != 0.

    The lift of the unit coordinate at GalerkinFrame(grid,
    max_level(grid)).column(k), which raises ValueError for k = 0 and for
    k outside the dealiased band.
    """
    frame = GalerkinFrame(grid, max_level(grid))
    a = np.zeros(frame.n)
    a[frame.column(k)] = 1.0
    return SpectralField(grid, frame.lift(a))


def enumerate_pairs(grid: TorusGrid, count: int) -> list[tuple[int, int]]:
    """First `count` canonical pair representatives in enumeration order."""
    a, b = np.meshgrid(np.arange(grid.band1 + 1), np.arange(-grid.band2, grid.band2 + 1),
                       indexing="ij")
    a, b = a.ravel(), b.ravel()
    canonical = (a > 0) | ((a == 0) & (b > 0))
    a, b = a[canonical], b[canonical]
    if count > len(a):
        raise ValueError(
            f"{count} pairs requested but only {len(a)} fit the dealiased band"
        )
    order = np.lexsort((b, a, a * a + b * b))[:count]  # by |k|^2, then k1, then k2
    return list(zip(a[order].tolist(), b[order].tolist()))


_FRAMES: dict[tuple[TorusGrid, int], "GalerkinFrame"] = {}


class GalerkinFrame:
    """Coordinate map of the level-n span: a field <-> its n inner products (u, e_j).

    Pair p has canonical wavevector kc and direction d = kc_perp/|kc|; its
    cosine element has coefficient amp d/2 at kc and at -kc, its sine
    element -i amp d/2 at kc and i amp d/2 at -kc, amp = 1/(sqrt(2) pi).
    coords reads kc only, so its input must be Hermitian,
    c(-k) = conj(c(k)) (as every real field's coefficients are):

        (u, e_cos) = (2pi)^2 amp Re(d . u_hat(kc)),
        (u, e_sin) = -(2pi)^2 amp Im(d . u_hat(kc)).

    The gradient part of u drops out (d is orthogonal to kc).  lift
    scatters coordinates back to (..., 2, n1, n2) coefficients.  Both use
    index arrays over the pairs, never a dense basis matrix.

    synth and analyse do the same on the k2 >= 0 half spectrum cut to the
    level's columns 0 .. cols-1, cols = max |k2| + 1, through real
    transforms (spectral._phys, spectral._spec).  That half is laid out
    (cols, n1), k1 last, so the transform along k1 runs on the contiguous
    axis, where numpy's FFT is several times faster on the short batched
    transforms of a level; half_at and half_src index it flat, at
    k2 * n1 + (k1 mod n1).  There pair p sits at its representative kr,
    which is kc, or -kc holding conj(c(kc)) when kc2 < 0 (im_sign +1,
    the factor of Im(d . c(kr)) in the sine coordinate, -1 at kc); a pair
    with kc2 = 0 also fills its mirror -kc in
    column 0, which the inverse transform along k1 reads.  synth gives the
    leading rows of the table half_gain, the coefficients per unit
    coordinate of (u1, u2, d1 u1, d1 u2): the advection reads the first
    2, a sigma(u) with c-channels all 4.  analyse weights the two sampled
    components per pair: by dirs for a field, or by drift_weights for the
    products P = u1 u2 and Q = u2^2 - u1^2.  With div u = 0,

        d . (u.grad u)^(k) = i ((k1^2 - k2^2) P^(k) + k1 k2 Q^(k)) / |k|

    (the divergence form; Basdevant, J. Comput. Phys. 50, 1983), so
    drift_weights holds -i s (k1^2 - k2^2) / |k| and -i s k1 k2 / |k| at
    kc, the minus of the drift -P(u.grad u) folded in; s is -1 where the
    half spectrum holds -kc and reads conj(P^(kc)), +1 otherwise.
    Element j is attached to wavevectors[j] and is an eigenfunction of
    d1^2 and d2^2 with eigenvalues -k1sq[j], -k2sq[j].

    GalerkinFrame(grid, n) is built once per (grid, n) and shared, so its
    arrays are read-only.
    """

    def __new__(cls, grid: TorusGrid, n: int):
        frame = _FRAMES.get((grid, n))
        if frame is None:
            frame = super().__new__(cls)
            frame._build(grid, n)
            _FRAMES[(grid, n)] = frame
        return frame

    def _build(self, grid: TorusGrid, n: int) -> None:
        pairs = np.array(enumerate_pairs(grid, (n + 1) // 2), dtype=np.int64).reshape(-1, 2)
        self.grid = grid
        self.n = n
        self.plus = (pairs[:, 0] % grid.n1, pairs[:, 1] % grid.n2)
        self.minus = (-pairs[:, 0] % grid.n1, -pairs[:, 1] % grid.n2)
        self.dirs = np.stack((-pairs[:, 1], pairs[:, 0])) / np.hypot(pairs[:, 0], pairs[:, 1])
        # cosine element at kc, sine element at -kc
        self.wavevectors = (np.repeat(pairs, 2, axis=0)
                            * np.tile([[1], [-1]], (len(pairs), 1)))[:n]
        self.k1sq = (self.wavevectors[:, 0] ** 2).astype(np.float64)
        self.k2sq = (self.wavevectors[:, 1] ** 2).astype(np.float64)
        # half-spectrum maps: representative kr = sign * kc has kr2 >= 0
        sign = np.where(pairs[:, 1] < 0, -1, 1)
        self.im_sign = -sign.astype(np.float64)
        rep = pairs * sign[:, None]
        self.cols = int(np.max(rep[:, 1], initial=0)) + 1
        self.half_at = rep[:, 1] * grid.n1 + rep[:, 0] % grid.n1  # flat index of kr
        # synthesis map over the cols x n1 half: each position reads pair p
        # at kc (source p), at -kc (source n_pairs + p, conjugated) or
        # nothing (source 2 n_pairs, a zero)
        n_pairs = len(pairs)
        mirror = np.flatnonzero(pairs[:, 1] == 0)
        pos = np.concatenate((self.half_at, -pairs[mirror, 0] % grid.n1))  # mirrors: column 0
        src = np.concatenate((np.where(sign > 0, 0, n_pairs) + np.arange(n_pairs),
                              n_pairs + mirror))
        k = np.concatenate((rep, -pairs[mirror]))
        self.half_src = np.full(grid.n1 * self.cols, 2 * n_pairs)
        self.half_src[pos] = src
        # coefficient of (u, d1 u) per unit alpha, rows (u1, u2, d1 u1, d1 u2)
        gain = np.zeros((2, 2, grid.n1 * self.cols), dtype=np.complex128)
        gain[:, :, pos] = (np.stack((np.ones(len(k)), 1j * k[:, 0]))[:, None, :]
                           * (0.5 * _AMP * self.dirs[:, src % n_pairs]))
        self.half_gain = gain.reshape(4, -1)
        # d . (-i k_j (u_j u)^) at kc from the products P = u1 u2, Q = u2^2 - u1^2,
        # times sign: a flipped pair reads conj(P^(kc)), and the weights are imaginary
        k1, k2 = pairs.T.astype(np.float64)
        self.drift_weights = (-1j * sign / np.hypot(k1, k2)) * np.stack((k1 * k1 - k2 * k2,
                                                                         k1 * k2))
        for arr in (*self.plus, *self.minus, self.dirs, self.wavevectors, self.k1sq, self.k2sq,
                    self.im_sign, self.half_at, self.half_src, self.half_gain,
                    self.drift_weights):
            arr.flags.writeable = False

    def column(self, k: tuple[int, int]) -> int:
        """Index of the element attached to wavevector k, as in basis_element."""
        match = np.flatnonzero(np.all(self.wavevectors == (int(k[0]), int(k[1])), axis=1))
        if match.size == 0:
            raise ValueError(f"wavevector {tuple(k)} is outside the first {self.n} elements "
                             f"of the {self.grid.n1}x{self.grid.n2} grid")
        return int(match[0])

    def _from_pairs(self, beta: np.ndarray, im_sign: np.ndarray | float) -> np.ndarray:
        """(..., n) coordinates from beta = d . c per pair; may overwrite beta.

        The float view of a C-ordered complex beta interleaves (Re, Im) per
        pair, which is the (cos, sin) layout of the coordinates: one
        multiply scales both, and im_sign gives the sine its sign.
        """
        a = np.ascontiguousarray(beta, dtype=np.complex128).view(np.float64)
        a *= MEASURE * _AMP
        a[..., 1::2] *= im_sign
        return a[..., :self.n]

    def _to_pairs(self, a: np.ndarray) -> np.ndarray:
        """a_cos - i a_sin per pair for (..., n) coordinates a; an odd n pads a zero sine."""
        pad = np.zeros(a.shape[:-1] + (2 * len(self.im_sign),))
        pad[..., :self.n] = a
        return np.conj(pad.view(np.complex128))

    def coords(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., n) coordinates of Hermitian (..., 2, n1, n2) coefficients."""
        i, j = self.plus
        alpha = coeffs[..., 0, i, j] * self.dirs[0] + coeffs[..., 1, i, j] * self.dirs[1]
        return self._from_pairs(alpha, -1.0)

    def lift(self, a: np.ndarray) -> np.ndarray:
        """(..., 2, n1, n2) coefficients of the field with coordinates a."""
        lead = a.shape[:-1]
        half = self._to_pairs(a)[..., None, :] * (0.5 * _AMP * self.dirs)
        out = np.zeros(lead + (2, self.grid.n1, self.grid.n2), dtype=np.complex128)
        out[..., :, self.plus[0], self.plus[1]] = half
        out[..., :, self.minus[0], self.minus[1]] = np.conj(half)
        return out

    def synth(self, a: np.ndarray, rows: int = 2) -> np.ndarray:
        """(..., rows, n1, n2) samples of the leading rows of half_gain for coordinates a.

        The first 2 rows, u, feed the advection (spectral._advection_raw);
        a sigma(u) with c-channels also reads d1 u, rows 2 and 3.  The
        gather writes the (..., rows, cols, n1) half spectrum spectral._phys
        reads, k1 last, straight from the index map half_src, and one
        transform call serves all the rows.
        """
        lead = a.shape[:-1]
        z = self._to_pairs(a)
        src = np.concatenate((z, np.conj(z), np.zeros(lead + (1,))), axis=-1)
        # the gathered factor has its batch axes innermost; numpy would lay
        # the product out like it, which is slow, so it goes into a C-ordered out
        half = np.empty(lead + (rows, self.half_src.size), dtype=np.complex128)
        np.multiply(src[..., None, self.half_src], self.half_gain[:rows], out=half)
        del z, src  # not held through the transform: it would raise the peak heap
        half = half.reshape(lead + (rows, self.cols, self.grid.n1))
        return spectral._phys(half, self.grid.n_points)

    def analyse(self, samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(..., n) coordinates of real (..., 2, n1, n2) samples, weighted per pair.

        With weights = dirs these are the coords of the samples' FFT; with
        drift_weights and samples of (u1 u2, u2^2 - u1^2)
        (spectral._advection_raw), those of -P(u.grad u).
        """
        half = spectral._spec(samples, self.grid.n_points, self.cols)
        # np.take keeps the batch axes outermost (fancy indexing would not)
        at = np.take(half.reshape(half.shape[:-2] + (self.half_src.size,)), self.half_at, axis=-1)
        beta = at[..., 0, :] * weights[0] + at[..., 1, :] * weights[1]
        return self._from_pairs(beta, self.im_sign)  # conj where flipped


def galerkin_project_raw(coeffs: np.ndarray, grid: TorusGrid, n: int) -> np.ndarray:
    """Span projection onto the first n basis elements; supports batch axes.

    coeffs must be Hermitian (see GalerkinFrame).  The result is
    solenoidal, dealiased and mean-free.  No solver calls it: criterion 06
    checks the frame's projection through it, and perfbench/layers.py
    traces it as the basis.galerkin span.
    """
    frame = GalerkinFrame(grid, n)
    return frame.lift(frame.coords(coeffs))


def max_level(grid: TorusGrid) -> int:
    """Number of basis elements available inside the dealiased band."""
    band1, band2 = grid.band1, grid.band2
    n_pairs = band1 * (2 * band2 + 1) + band2
    return 2 * n_pairs


def quadrature_grid(grid: TorusGrid, n: int) -> TorusGrid:
    """Smallest alias-free grid that holds the first n basis elements of grid.

    Per axis: the smallest even m >= 4 whose alias-free band reaches the
    largest |k_i| of the level's wavevectors, capped at the configured n_i.
    Products of two level-n fields sampled there transform back without
    aliasing onto the level's modes, so their level-n coordinates match
    those taken on grid up to rounding; the level's enumeration is the same
    on both grids.
    """
    reach = np.max(np.abs(GalerkinFrame(grid, n).wavevectors), axis=0)

    def size(k: int, cap: int) -> int:
        m = 4
        while alias_free_band(m) < k:
            m += 2
        return min(m, cap)

    return TorusGrid(size(reach[0], grid.n1), size(reach[1], grid.n2))
