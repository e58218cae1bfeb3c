"""Spectral core for vector fields on the 2-pi periodic torus.

Fields are velocity fields u = (u1, u2) sampled on a uniform n1 x n2 grid
over [0, 2pi)^2.  Spectral coefficients use the amplitude convention: the
function exp(i k.x) has coefficient 1 at mode k, so Parseval reads
int |u|^2 dx = (2pi)^2 * sum_k |u_hat(k)|^2.  Wavevectors run over
k_i in {-n_i/2 + 1, ..., n_i/2} with the Nyquist column labelled +n_i/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpError

# growth factor of the L2 norm over its initial value at which both engines stop
BLOWUP_GUARD = 1e6
# largest array a run may make, checked from its configuration before any is made
MAX_ARRAY_BYTES = 2 ** 32
ORACLE_MAX_POINTS = 1024  # largest n1*n2 of the direct-convolution oracle (quadratic cost)


def check_array_bytes(what: str, nbytes: int, scope: str = "an array may take") -> None:
    """Raise ValueError when nbytes, holding what, would exceed MAX_ARRAY_BYTES.

    scope names what the limit bounds in the message: one array, or all
    that a run holds at once (det.run_bytes).
    """
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} would take {nbytes / 2 ** 30:.3g} GiB, above the "
                         f"{MAX_ARRAY_BYTES / 2 ** 30:.3g} GiB {scope}")


def _wavenumbers(n: int) -> np.ndarray:
    k = ((np.arange(n) + n // 2) % n) - n // 2
    k[n // 2] = n // 2  # Nyquist labelled positive
    return k.astype(np.int64)


def alias_free_band(n: int) -> int:
    """Largest band K whose quadratic products an n-point axis resolves.

    Two fields of band K multiply to band 2K, and mode 2K aliases to
    2K - n; the alias stays outside the band exactly when n > 3K, so
    K = (n - 1) // 3 (Orszag's two-thirds rule).
    """
    return (n - 1) // 3


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0, 2pi)^2 with n1 x n2 points (both even, >= 4)."""

    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if n < 4 or n % 2 != 0:
                raise ValueError(f"grid size must be even and >= 4, got {n}")
        check_array_bytes(f"the coefficients of a {self.n1}x{self.n2} field",
                          2 * 16 * self.n1 * self.n2)

    @cached_property
    def x1(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n1) / self.n1

    @cached_property
    def x2(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n2) / self.n2

    @cached_property
    def k1(self) -> np.ndarray:
        """Wavevector component along axis 1, FFT layout, shape (n1, 1)."""
        return _wavenumbers(self.n1)[:, None]

    @cached_property
    def k2(self) -> np.ndarray:
        """Wavevector component along axis 2, FFT layout, shape (1, n2)."""
        return _wavenumbers(self.n2)[None, :]

    @cached_property
    def ksq(self) -> np.ndarray:
        return (self.k1 ** 2 + self.k2 ** 2).astype(np.float64)

    @property
    def band1(self) -> int:
        """Largest alias-free |k1|; see alias_free_band."""
        return alias_free_band(self.n1)

    @property
    def band2(self) -> int:
        """Largest alias-free |k2|; see alias_free_band."""
        return alias_free_band(self.n2)

    @property
    def n_points(self) -> int:
        return self.n1 * self.n2

    def index_of(self, k: tuple[int, int]) -> tuple[int, int]:
        """FFT-layout array index of wavevector k (k may be any alias)."""
        return (int(k[0]) % self.n1, int(k[1]) % self.n2)


@dataclass
class PhysicalField:
    """Real velocity samples, shape (2, n1, n2); x1 index slow, x2 fast."""

    grid: TorusGrid
    samples: np.ndarray

    def __post_init__(self):
        expected = (2, self.grid.n1, self.grid.n2)
        if self.samples.shape != expected:
            raise ValueError(f"samples shape {self.samples.shape}, expected {expected}")


@dataclass
class SpectralField:
    """Complex Fourier coefficients, shape (2, n1, n2), FFT layout."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (2, self.grid.n1, self.grid.n2)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape}, expected {expected}")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def zeros_spectral(grid: TorusGrid) -> SpectralField:
    return SpectralField(grid, np.zeros((2, grid.n1, grid.n2), dtype=np.complex128))


def forward_transform(f: PhysicalField) -> SpectralField:
    """FFT of real samples into amplitude-normalized coefficients."""
    coeffs = np.fft.fft2(f.samples, axes=(-2, -1)) / f.grid.n_points
    return SpectralField(f.grid, coeffs)


def _phys(spec: np.ndarray, n_points: int, out: np.ndarray | None = None) -> np.ndarray:
    """Packed synthesis for internal pipelines; supports leading batch axes.

    spec holds the coefficients Z = c1 + i c2 of two real fields (u1, u2)
    over the band's full k2 range |k2| <= reach2, laid out (..., m, n1),
    m = 2 reach2 + 1: row k2 mod m holds the columns k2 = 0 .. reach2,
    then -reach2 .. -1, and k1 runs last, band-limited below the Nyquist
    column.  The samples z = u1 + i u2 come back as one complex
    (..., n1, n2) array, n2 = n_points // n1: one complex transform
    carries two real fields (Cooley, Lewis & Welch, J. Sound Vib. 12,
    1970; Press et al., Numerical Recipes, sec. 12.3), and its .real and
    .imag are the two fields.  A complex inverse transform along k1, the
    contiguous axis, runs in place on the m rows of spec, which it
    consumes (numpy's FFT runs a batch of short transforms several times
    faster along the contiguous axis than along a strided one; Frigo &
    Johnson, Proc. IEEE 93, 2005); one transposed copy writes them at
    k2 mod n2 into out, whose other columns are zeroed, and one in-place
    complex inverse transform along x2 gives z there.  out, a C-ordered
    complex (..., n1, n2) array, may hold anything (a step's workspace
    holds the last step's samples); without it a new array is made.  Both
    passes run unnormalized (norm="forward" leaves the inverse unscaled),
    as the amplitude convention asks.
    """
    m, n1 = spec.shape[-2:]
    n2 = n_points // n1
    reach2 = m // 2
    z = np.empty(spec.shape[:-2] + (n1, n2), dtype=np.complex128) if out is None else out
    rows = np.fft.ifft(spec, axis=-1, norm="forward", out=spec).swapaxes(-1, -2)
    z[..., :reach2 + 1] = rows[..., :reach2 + 1]
    z[..., reach2 + 1:n2 - reach2] = 0.0
    z[..., n2 - reach2:] = rows[..., reach2 + 1:]
    return np.fft.ifft(z, axis=-1, norm="forward", out=z)


def _spec(samples: np.ndarray, n_points: int, reach2: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """Packed coefficients W = P^ + i Q^ of complex samples w = P + i Q, for |k2| <= reach2.

    The inverse of _phys: a complex transform along x2 runs in place on
    samples, which it consumes, and the columns k2 = 0 .. reach2 and
    -reach2 .. -1 are kept; one transposed copy lays them out
    (..., m, n1), m = 2 reach2 + 1, the layout _phys reads, in out (a
    C-ordered complex array of that shape, else a new one), and an
    in-place complex transform along x1, the contiguous axis, runs on
    those only.  Each real field's own coefficients follow from W at k
    and -k, P^(k) = (W(k) + conj W(-k)) / 2 and
    Q^(k) = (W(k) - conj W(-k)) / 2i (GalerkinFrame.analyse).  Each pass
    scales by 1/n of its axis (norm="forward"), so n_points, kept to
    match _phys, is not read.
    """
    n1, n2 = samples.shape[-2:]
    cols = np.fft.fft(samples, axis=-1, norm="forward", out=samples)
    spec = np.empty(samples.shape[:-2] + (2 * reach2 + 1, n1),
                    dtype=np.complex128) if out is None else out
    spec[..., :reach2 + 1, :] = cols[..., :reach2 + 1].swapaxes(-1, -2)
    spec[..., reach2 + 1:, :] = cols[..., n2 - reach2:].swapaxes(-1, -2)
    return np.fft.fft(spec, axis=-1, norm="forward", out=spec)


def _leray_raw(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    k1 = grid.k1.astype(np.float64)
    k2 = grid.k2.astype(np.float64)
    ksq = np.where(grid.ksq == 0.0, 1.0, grid.ksq)  # k=0 handled by zero-mean rule
    div = k1 * coeffs[..., 0, :, :] + k2 * coeffs[..., 1, :, :]
    div = div / ksq
    out = coeffs.copy()
    out[..., 0, :, :] -= k1 * div
    out[..., 1, :, :] -= k2 * div
    out[..., :, 0, 0] = coeffs[..., :, 0, 0]  # only k=(0,0) has |k|=0
    return out


def leray_project(u: SpectralField) -> SpectralField:
    """Remove the gradient part: u_hat(k) -> u_hat(k) - k (k.u_hat(k)) / |k|^2.

    The k = 0 mode is left untouched; solvers pin it to zero separately.
    """
    return SpectralField(u.grid, _leray_raw(u.coeffs, u.grid))


def zero_mean(u: SpectralField) -> SpectralField:
    out = u.copy()
    out.coeffs[:, 0, 0] = 0.0
    return out


def _advection_raw(phys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Packed samples P + i Q of P = 2 u1 u2 and Q = u2^2 - u1^2, the products of u.grad(u).

    For div u = 0, u.grad(u) = div(u u), and the part of it that survives
    a projection onto divergence-free fields is fixed by P and Q alone
    (GalerkinFrame.drift_weights); analysed with those weights they give
    the drift -P(u.grad u).  phys holds the packed samples z = u1 + i u2
    of one synthesis of a state (GalerkinFrame.synth), which every
    consumer of the state's samples shares; batch axes are kept.  With
    z^2 = (u1^2 - u2^2) + 2 i u1 u2, the packed products are
    P + i Q = -i z^2: one complex square and one exact swap of parts,
    giving the one complex (..., n1, n2) array, P in .real and Q in
    .imag, that GalerkinFrame.analyse reads.  They are written into out
    when given (a step's workspace), else into a new array.
    """
    out = np.multiply(phys, phys, out=out)
    out *= -1j
    return out


def nonlinear_term_oracle(u: SpectralField) -> SpectralField:
    """Advection term by direct truncated convolution, no FFT in the product.

    Quadratic in the mode count per output mode, so guarded to grids with
    n1*n2 <= ORACLE_MAX_POINTS.
    """
    from . import kernels  # scipy.signal loads slowly; only the oracle needs it

    grid = u.grid
    if grid.n_points > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle limited to n1*n2 <= {ORACLE_MAX_POINTS}, got {grid.n_points}")
    return SpectralField(grid, kernels.direct_advection(u.coeffs))


def check_finite(l2_sq: float, l2_sq_initial: float, t_last: float) -> None:
    """Raise BlowUpError on a non-finite squared norm l2_sq (a NaN or inf
    coordinate makes it one) or on a norm above BLOWUP_GUARD times the initial one."""
    if not np.isfinite(l2_sq):
        raise BlowUpError("non-finite norm", last_finite_time=t_last)
    if l2_sq_initial > 0.0 and l2_sq > BLOWUP_GUARD ** 2 * l2_sq_initial:
        raise BlowUpError(
            f"L2 norm exceeded {BLOWUP_GUARD:.1e} x initial", last_finite_time=t_last
        )


def max_sq_norm(a: np.ndarray) -> float:
    """Largest squared row norm of (..., n) coordinates a; a NaN row gives NaN.

    einsum, because np.sum over a short last axis costs several times a
    contiguous reduction.
    """
    return float(np.einsum("...j,...j->...", a, a).max())


def check_rows(a: np.ndarray, l2_sq_initial: float, t_last: float) -> None:
    """check_finite on the largest squared row norm of (..., n) coordinates a.

    The blow-up guard of both engines.  One dot product over the whole
    batch settles the common case: no row exceeds a finite total, so a
    total within BLOWUP_GUARD^2 l2_sq_initial (or any finite total when
    l2_sq_initial is 0) clears every row.  Only otherwise is the row
    maximum taken and checked by check_finite, with its exceptions.  The
    total rounds differently from a row's own sum, so a row that sits at
    the bound to rounding level may be decided differently than by the
    row maximum alone; the guard's value reaches no output.
    """
    total = float(np.vdot(a, a))  # NaN or inf on a non-finite row
    if total < np.inf and (l2_sq_initial <= 0.0 or total <= BLOWUP_GUARD ** 2 * l2_sq_initial):
        return
    check_finite(max_sq_norm(a), l2_sq_initial, t_last)


# ---------------------------------------------------------------------------
# ready-made initial fields


def shear_field(grid: TorusGrid, axis: int = 1, amplitude: float = 1.0) -> SpectralField:
    """Unidirectional shear: axis=1 gives (0, A sin x1), axis=2 gives (A sin x2, 0)."""
    f = zeros_spectral(grid)
    if axis == 1:
        # sin x1 = (e^{ix1} - e^{-ix1}) / (2i) in component 2
        f.coeffs[1, grid.index_of((1, 0))[0], 0] = amplitude / 2j
        f.coeffs[1, grid.index_of((-1, 0))[0], 0] = -amplitude / 2j
    elif axis == 2:
        f.coeffs[0, 0, grid.index_of((0, 1))[1]] = amplitude / 2j
        f.coeffs[0, 0, grid.index_of((0, -1))[1]] = -amplitude / 2j
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return f


def taylor_green(grid: TorusGrid, amplitude: float = 1.0) -> SpectralField:
    """Cellular field A (sin x1 cos x2, -cos x1 sin x2); solenoidal."""
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    samples = np.stack([
        amplitude * np.sin(x1) * np.cos(x2),
        -amplitude * np.cos(x1) * np.sin(x2),
    ])
    return forward_transform(PhysicalField(grid, samples))


def random_solenoidal_field(grid: TorusGrid, band: int, amplitude: float,
                            rng: np.random.Generator) -> SpectralField:
    """Random mean-zero solenoidal field supported on 0 < max|k_i| <= band."""
    if band > min(grid.band1, grid.band2):
        raise ValueError(f"band {band} exceeds dealiased range of {grid.n1}x{grid.n2} grid")
    raw = rng.standard_normal((2, grid.n1, grid.n2))
    coeffs = forward_transform(PhysicalField(grid, raw)).coeffs
    keep = (np.abs(grid.k1) <= band) & (np.abs(grid.k2) <= band)
    coeffs *= keep
    f = zero_mean(leray_project(SpectralField(grid, coeffs)))
    norm = np.sqrt((2.0 * np.pi) ** 2 * np.sum(np.abs(f.coeffs) ** 2))
    if norm > 0.0:
        f.coeffs *= amplitude / norm
    return f
