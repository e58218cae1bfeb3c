import numpy as np
import pytest

import fullgrid
from ans2d.spectral import TorusGrid, random_solenoidal_field

acceptance_verdicts: list[str] = []


def record_verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    acceptance_verdicts.append(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay criterion lines outside capture so they land in piped output
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_verdicts):
            terminalreporter.write_line(line)


@pytest.fixture
def grid16() -> TorusGrid:
    return TorusGrid(16, 16)


@pytest.fixture
def grid32() -> TorusGrid:
    return TorusGrid(32, 32)


@pytest.fixture
def make_field():
    """Factory for seeded band-limited solenoidal fields."""

    def _make(grid: TorusGrid, band: int = 3, amplitude: float = 1.0, seed: int = 0):
        rng = np.random.default_rng(seed)
        return random_solenoidal_field(grid, band=band, amplitude=amplitude, rng=rng)

    return _make


@pytest.fixture
def full_samples():
    """Samples of (u, d1 u, d2 u) from (..., 2, n1, n2) coefficients, by full complex ifft2."""

    def _samples(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
        stack = (coeffs, fullgrid.deriv(coeffs, grid, 1), fullgrid.deriv(coeffs, grid, 2))
        return np.stack([fullgrid.samples(x, grid) for x in stack])

    return _samples
