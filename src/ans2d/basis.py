"""Real divergence-free Fourier basis and Galerkin truncation.

Each conjugate mode pair {k, -k}, k != 0, carries two real unit-norm
elements: the perpendicular direction k_perp/|k| times cos(k.x) and times
sin(k.x).  Pairs are enumerated by |k|^2, ties broken lexicographically on
the canonical representative (k1 > 0, or k1 = 0 and k2 > 0).  Element
2j-1 of pair j is the cosine, element 2j the sine.  The cosine element is
attached to the canonical k and the sine element to -k
(GalerkinFrame.column), so wavevectors index the whole enumeration.

Every element is an eigenfunction of d2^2, which makes the truncation
orthogonal in both the plain and the vertical-derivative inner product.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .norms import MEASURE
from .spectral import TorusGrid, alias_free_band

_AMP = 1.0 / (np.sqrt(2.0) * np.pi)  # unit L2 norm of a cosine or sine element


def is_canonical(k: tuple[int, int]) -> bool:
    return k[0] > 0 or (k[0] == 0 and k[1] > 0)


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

    synth and analyse do the same through packed transforms
    (spectral._phys, spectral._spec): each complex transform carries two
    real fields, u1 + i u2 in and P + i Q out.  The packed spectrum covers
    the level's full k2 range |k2| <= reach2, laid out (m, n1) as _phys
    reads it, m = 2 reach2 + 1; pair_at indexes it flat, at
    (k2 mod m) n1 + (k1 mod n1): kc of every pair, then -kc.  synth gives
    the packed samples u1 + i u2 through spec_gain, their coefficient per
    unit pair value a_cos - i a_sin at kc (conjugated at -kc),
    0.5 amp (d1 + i d2); the advection and a sigma(u) whose b g(u)
    depends on u read them.  analyse
    weights two packed real fields w = f1 + i f2 per pair: with
    W = f1^ + i f2^, f1^(kc) = (W(kc) + conj W(-kc)) / 2 and
    f2^(kc) = (W(kc) - conj W(-kc)) / 2i, so the weighted value
    w0 f1^(kc) + w1 f2^(kc) is

        c+ W(kc) + c- conj W(-kc),   c+- = (w0 -+ i w1) / 2,

    and the tables field_weights and drift_weights hold (c+, c-): of
    (w0, w1) = d for a field, and of the weights of the products
    P = 2 u1 u2 and Q = u2^2 - u1^2 for the drift.  With div u = 0,

        d . (u.grad u)^(k) = i ((k1^2 - k2^2) P^(k) / 2 + k1 k2 Q^(k)) / |k|

    (the divergence form; Basdevant, J. Comput. Phys. 50, 1983), so the
    drift's (w0, w1) are -i (k1^2 - k2^2) / 2|k| and -i k1 k2 / |k| at
    kc, the minus of the drift -P(u.grad u) folded in.  power_weights,
    (4, n), holds 1, k1^2, k2^2 and k1^2 k2^2 per element (det._powers).
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
        # packed spectrum: flat index of kc, then of -kc, per pair
        n_pairs = len(pairs)
        self.reach2 = int(np.max(np.abs(pairs[:, 1]), initial=0))
        m = 2 * self.reach2 + 1
        k = np.concatenate((pairs, -pairs))
        self.pair_at = k[:, 1] % m * grid.n1 + k[:, 0] % grid.n1
        # synthesis map: position kc reads pair p (source p), -kc its
        # conjugate (source n_pairs + p), every other position a zero
        # (source 2 n_pairs)
        self.spec_src = np.full(m * grid.n1, 2 * n_pairs)
        self.spec_src[self.pair_at] = np.arange(2 * n_pairs)
        # coefficient of u1 + i u2 per unit pair value
        gain = np.zeros(m * grid.n1, dtype=np.complex128)
        gain[self.pair_at] = np.tile(0.5 * _AMP * (self.dirs[0] + 1j * self.dirs[1]), 2)
        self.spec_gain = gain
        # d . (-i k_j (u_j u)^) at kc from the products P = 2 u1 u2, Q = u2^2 - u1^2
        k1, k2 = pairs.T.astype(np.float64)
        drift = (-1j / np.hypot(k1, k2)) * np.stack((0.5 * (k1 * k1 - k2 * k2), k1 * k2))
        self.drift_weights = _packed_weights(drift)
        self.field_weights = _packed_weights(self.dirs)
        # (cos, sin) per pair of the float view of beta: scale, and the sine's minus
        self.coord_scale = np.tile([MEASURE * _AMP, -MEASURE * _AMP], n_pairs)
        # ||u||^2, ||d1 u||^2, ||d2 u||^2, ||d1 d2 u||^2 per unit squared coordinate
        self.power_weights = np.stack((np.ones(n), self.k1sq, self.k2sq, self.k1sq * self.k2sq))
        for arr in (*self.plus, *self.minus, self.dirs, self.wavevectors, self.k1sq, self.k2sq,
                    self.pair_at, self.spec_src, self.spec_gain, self.drift_weights,
                    self.field_weights, self.coord_scale, self.power_weights):
            arr.flags.writeable = False

    def column(self, k: tuple[int, int]) -> int:
        """Index of the element attached to wavevector k; ValueError outside the level."""
        match = np.flatnonzero(np.all(self.wavevectors == (int(k[0]), int(k[1])), axis=1))
        if match.size == 0:
            raise ValueError(f"wavevector {tuple(k)} is outside the first {self.n} elements "
                             f"of the {self.grid.n1}x{self.grid.n2} grid")
        return int(match[0])

    def _from_pairs(self, beta: np.ndarray) -> np.ndarray:
        """(..., n) coordinates from beta = d . c(kc) per pair; may overwrite beta.

        The float view of a C-ordered complex beta interleaves (Re, Im) per
        pair, which is the (cos, sin) layout of the coordinates: one
        multiply by coord_scale, (c, -c) per pair with c = (2pi)^2 amp,
        scales both and gives the sine its minus (x (-c) is -(x c)
        exactly, so this is the scale-then-negate of two passes, bit for
        bit).
        """
        a = np.ascontiguousarray(beta, dtype=np.complex128).view(np.float64)
        a *= self.coord_scale
        return a[..., :self.n]

    def _to_pairs(self, a: np.ndarray) -> np.ndarray:
        """a_cos - i a_sin per pair for (..., n) coordinates a; an odd n pads a zero sine."""
        pad = np.zeros(a.shape[:-1] + (2 * len(self.dirs[0]),))
        pad[..., :self.n] = a
        return np.conj(pad.view(np.complex128))

    def coords(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., n) coordinates of Hermitian (..., 2, n1, n2) coefficients."""
        i, j = self.plus
        return self._from_pairs(coeffs[..., 0, i, j] * self.dirs[0]
                                + coeffs[..., 1, i, j] * self.dirs[1])

    def lift(self, a: np.ndarray) -> np.ndarray:
        """(..., 2, n1, n2) coefficients of the field with coordinates a."""
        lead = a.shape[:-1]
        half = self._to_pairs(a)[..., None, :] * (0.5 * _AMP * self.dirs)
        out = np.zeros(lead + (2, self.grid.n1, self.grid.n2), dtype=np.complex128)
        out[..., :, self.plus[0], self.plus[1]] = half
        out[..., :, self.minus[0], self.minus[1]] = np.conj(half)
        return out

    def synth(self, a: np.ndarray, out: np.ndarray | None = None,
              spec: np.ndarray | None = None) -> np.ndarray:
        """(..., n1, n2) packed samples u1 + i u2 of the field with coordinates a.

        The gather source holds z = a_cos - i a_sin per pair, then
        conj z = a_cos + i a_sin, then a zero (an odd n leaves its last sine
        0): its float view is written straight from a, the conj z half a
        copy of it and the z half that copy with its sines negated.  The
        gather writes the (..., m, n1) packed spectrum spectral._phys reads,
        from the index map spec_src, into spec, and the samples go into out:
        both C-ordered complex arrays that may hold anything, such as a
        step's workspace (sde._Stepper, det._det_march), else new ones.
        """
        lead = a.shape[:-1]
        n_pairs = len(self.dirs[0])
        src = np.zeros(lead + (2 * n_pairs + 1,), dtype=np.complex128)
        parts = src.view(np.float64)
        z, conj_z = parts[..., :2 * n_pairs], parts[..., 2 * n_pairs:4 * n_pairs]
        conj_z[..., :self.n] = a
        z[..., 0::2] = conj_z[..., 0::2]
        np.negative(conj_z[..., 1::2], out=z[..., 1::2])
        m = 2 * self.reach2 + 1
        if spec is None:
            spec = np.empty(lead + (m, self.grid.n1), dtype=np.complex128)
        # take keeps the batch axes outermost (fancy indexing would put
        # them innermost, which is slow); with mode="clip" it writes straight
        # into spec, where the default mode would gather into a buffer first.
        # The array method skips np.take's Python wrapper, as in _gather
        flat = spec.reshape(lead + (self.spec_src.size,))
        src.take(self.spec_src, axis=-1, out=flat, mode="clip")
        del src, parts, z, conj_z  # not held through the transform: at max_level as large as spec
        flat *= self.spec_gain
        return spectral._phys(spec, self.grid.n_points, out)

    def analyse(self, samples: np.ndarray, weights: np.ndarray,
                spec: np.ndarray | None = None) -> np.ndarray:
        """(..., n) coordinates of packed (..., n1, n2) samples f1 + i f2, weighted per pair.

        With weights = field_weights, f = (f1, f2) is a vector field and
        these are the coords of its FFT.  The analysis consumes samples
        (the x2 pass runs in place on them) and writes the packed spectrum
        into spec when given, as synth does; the coordinates are always a
        new array.
        """
        return self._weigh(self._gather(samples, spec), weights)

    def drift(self, phys: np.ndarray, out: np.ndarray | None = None,
              spec: np.ndarray | None = None) -> np.ndarray:
        """(..., n) coordinates of -P(u.grad u) from the packed samples phys = u1 + i u2 of u.

        spectral._advection_raw squares phys into out (phys itself may be
        out), z^2 = i (P + i Q); the analysis gathers the coefficients
        of z^2 at the 2 n_pairs wavevectors of the level, and multiplying
        those by -i gives the ones of P + i Q that drift_weights weigh.
        The FFT is linear and a product with -i only swaps parts and
        negates one, so fft(-i x) == -i fft(x) bit for bit: this is the
        analysis of P + i Q themselves at 2 n_pairs products instead of
        one per sample.  Folding -i into drift_weights instead would not
        be: numpy's complex product rounds (-i c) x and c (-i x)
        differently.  spec is as in analyse.
        """
        at = self._gather(spectral._advection_raw(phys, out), spec)
        at *= -1j
        return self._weigh(at, self.drift_weights)

    def _gather(self, samples: np.ndarray, spec: np.ndarray | None) -> np.ndarray:
        """(..., 2 n_pairs) packed coefficients W at kc of every pair, then at -kc."""
        spec = spectral._spec(samples, self.grid.n_points, self.reach2, spec)
        # take keeps the batch axes outermost (fancy indexing would not)
        return spec.reshape(spec.shape[:-2] + (self.spec_src.size,)).take(self.pair_at, axis=-1)

    def _weigh(self, at: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Coordinates of c+ W(kc) + c- conj W(-kc) per pair, from _gather's at (overwritten)."""
        n_pairs = len(self.dirs[0])
        minus = at[..., n_pairs:]
        np.conjugate(minus, out=minus)
        minus *= weights[1]
        beta = at[..., :n_pairs] * weights[0]
        beta += minus
        return self._from_pairs(beta)


def _packed_weights(w: np.ndarray) -> np.ndarray:
    """(c+, c-) = ((w0 - i w1) / 2, (w0 + i w1) / 2) of per-pair weights w = (w0, w1).

    GalerkinFrame.analyse reads w0 f1^(kc) + w1 f2^(kc) of packed samples
    f1 + i f2 as c+ W(kc) + c- conj W(-kc).
    """
    return 0.5 * np.stack((w[0] - 1j * w[1], w[0] + 1j * w[1]))


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


def level_reach(grid: TorusGrid, n: int) -> tuple[int, int]:
    """Bounds on the largest |k1| and |k2| of the first n elements, found without a frame.

    Pairs come in |k|^2 order, and the 2 s^2 + 2 s canonical wavevectors with
    |k_i| <= s have |k|^2 <= 2 s^2: a level of at most that many pairs
    reaches no further than s sqrt(2), when that square fits the band.
    """
    s = int(np.sqrt((n + 1) / 4)) + 1  # 2 s^2 > (n + 1) / 2, the level's pairs at most
    r = int(np.sqrt(2 * s * s)) if s <= min(grid.band1, grid.band2) else max(grid.n1, grid.n2)
    return min(r, grid.band1), min(r, grid.band2)
