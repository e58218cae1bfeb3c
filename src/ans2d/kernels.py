"""Direct-summation advection kernel used as the FFT-free oracle.

The kernel computes the truncated convolution

    B_m(k) = sum_q  u_j(q) * i (k - q)_j * u_m(k - q)

over all mode pairs that stay inside the grid's wavevector range, by direct
2-d convolution.  The module imports scipy.signal, which is slow to load,
so it is imported only when the oracle runs.

Arrays here use the centered layout: index a along an axis of length n
holds wavevector k = a - (n//2 - 1), so k runs over -n/2+1 .. n/2.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import convolve2d


def direct_advection(u_centered: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Truncated convolution of u.grad(u) on centered coefficients (2, n1, n2)."""
    k1 = np.arange(n1, dtype=np.int64) - (n1 // 2 - 1)
    k2 = np.arange(n2, dtype=np.int64) - (n2 // 2 - 1)
    u = np.ascontiguousarray(u_centered, dtype=np.complex128)
    d1 = u * (1j * k1[None, :, None])
    d2 = u * (1j * k2[None, None, :])
    out = np.zeros_like(u)
    for m in range(2):
        full = convolve2d(u[0], d1[m]) + convolve2d(u[1], d2[m])
        # full linear convolution covers k in [2*lo, 2*hi]; cut the grid window
        out[m] = full[n1 // 2 - 1:n1 // 2 - 1 + n1, n2 // 2 - 1:n2 // 2 - 1 + n2]
    return out
