"""Direct-summation advection kernel used as the FFT-free oracle.

The kernel computes the truncated convolution

    B_m(k) = sum_q  u_j(q) * i (k - q)_j * u_m(k - q)

over all mode pairs that stay inside the grid's wavevector range, by direct
2-d convolution.  The module imports scipy.signal, which is slow to load,
so it is imported only when the oracle runs.

The convolution runs in the centered layout: index a along an axis of
length n holds wavevector k = a - (n//2 - 1), so k runs over -n/2+1 .. n/2.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import convolve2d


def direct_advection(coeffs: np.ndarray) -> np.ndarray:
    """Truncated convolution of u.grad(u) on (2, n1, n2) coefficients in FFT layout.

    The inputs are cropped to the bounding box of their support (a field of
    band K lives on a (2K+1)^2 block), which drops only zero products.
    """
    n1, n2 = coeffs.shape[-2:]
    shift = (n1 // 2 - 1, n2 // 2 - 1)
    u = np.roll(np.asarray(coeffs, dtype=np.complex128), shift, axis=(-2, -1))
    out = np.zeros_like(u)
    live = u != 0.0
    rows = np.flatnonzero(np.any(live, axis=(0, 2)))
    cols = np.flatnonzero(np.any(live, axis=(0, 1)))
    if rows.size == 0:
        return out
    u = u[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    k1 = np.arange(rows[0], rows[-1] + 1, dtype=np.int64) - shift[0]
    k2 = np.arange(cols[0], cols[-1] + 1, dtype=np.int64) - shift[1]
    d1 = u * (1j * k1[None, :, None])
    d2 = u * (1j * k2[None, None, :])
    # the full linear convolution starts at k = 2 k_lo, index 2 k_lo + shift;
    # keep its part inside the grid window
    o1, o2 = 2 * k1[0] + shift[0], 2 * k2[0] + shift[1]
    lo1, lo2 = max(o1, 0), max(o2, 0)
    for m in range(2):
        full = convolve2d(u[0], d1[m]) + convolve2d(u[1], d2[m])
        hi1, hi2 = min(o1 + full.shape[0], n1), min(o2 + full.shape[1], n2)
        out[m, lo1:hi1, lo2:hi2] = full[lo1 - o1:hi1 - o1, lo2 - o2:hi2 - o2]
    return np.roll(out, (-shift[0], -shift[1]), axis=(-2, -1))
