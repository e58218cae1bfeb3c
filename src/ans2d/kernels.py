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
    """Truncated convolution of u.grad(u) on (2, n1, n2) coefficients in FFT layout."""
    n1, n2 = coeffs.shape[-2:]
    shift = (n1 // 2 - 1, n2 // 2 - 1)
    u = np.roll(np.asarray(coeffs, dtype=np.complex128), shift, axis=(-2, -1))
    k1 = np.arange(n1, dtype=np.int64) - shift[0]
    k2 = np.arange(n2, dtype=np.int64) - shift[1]
    d1 = u * (1j * k1[None, :, None])
    d2 = u * (1j * k2[None, None, :])
    out = np.zeros_like(u)
    for m in range(2):
        full = convolve2d(u[0], d1[m]) + convolve2d(u[1], d2[m])
        # full linear convolution covers k in [2*lo, 2*hi]; cut the grid window
        out[m] = full[shift[0]:shift[0] + n1, shift[1]:shift[1] + n2]
    return np.roll(out, (-shift[0], -shift[1]), axis=(-2, -1))
