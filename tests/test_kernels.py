import numpy as np
import pytest

from ans2d.spectral import TorusGrid, dealias, nonlinear_term, nonlinear_term_oracle


def _rel_err(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def test_oracle_matches_pseudospectral(make_field):
    grid = TorusGrid(8, 8)
    for seed in range(10):
        u = make_field(grid, band=2, seed=seed)
        fast = nonlinear_term(u)
        slow = dealias(nonlinear_term_oracle(u))
        assert _rel_err(fast.coeffs, slow.coeffs) <= 1e-12


def test_oracle_size_guard(make_field):
    grid = TorusGrid(64, 64)
    u = make_field(grid, band=2, seed=0)
    with pytest.raises(ValueError, match="1024"):
        nonlinear_term_oracle(u)
