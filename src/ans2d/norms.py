"""Anisotropic Sobolev and mixed Lebesgue norms plus inequality checks.

All norms include the physical measure of the torus: the L2 norm of a
field is sqrt((2pi)^2 sum_k |u_hat(k)|^2), so || sin x2 ||_{L2}^2 = 2 pi^2.
Mixed norms L^p_h(L^q_v) iterate outer in x1 and inner in x2 (and the
transposed order for L^q_v(L^p_h)); they are evaluated by grid quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import TorusGrid

MEASURE = (2.0 * np.pi) ** 2
CHECK_SLACK = 1e-9  # relative slack of the embedding and Minkowski checks


# ---------------------------------------------------------------------------
# certificate toolkit: batch-aware pieces shared by every a priori audit


def norm_rows(coeffs: np.ndarray, grid: TorusGrid) -> dict[str, np.ndarray]:
    """Squared anisotropic norms of (..., 2, n1, n2) coefficient arrays.

    The power_rows of |u_hat|^2 over the wavevector grid, times the
    measure; the sums run over the last three axes, so batch axes are kept
    (0-d arrays for a single field).
    """
    k1sq = grid.k1.astype(np.float64) ** 2
    k2sq = grid.k2.astype(np.float64) ** 2
    rows = power_rows(np.abs(coeffs) ** 2, k1sq, k2sq, axes=(-3, -2, -1))
    return {name: MEASURE * value for name, value in rows.items()}


def power_rows(p: np.ndarray, k1sq: np.ndarray, k2sq: np.ndarray,
               axes: int | tuple[int, ...]) -> dict[str, np.ndarray]:
    """||u||^2, ||d1 u||^2, ||d2 u||^2 and ||d1 d2 u||^2 from a spectral power p.

    p holds the power of each mode (or of each orthonormal coordinate) and
    k1sq, k2sq the squared wavevector components it carries; the sums run
    over axes.
    """
    return {"l2_sq": p.sum(axis=axes),
            "d1_sq": (k1sq * p).sum(axis=axes),
            "d2_sq": (k2sq * p).sum(axis=axes),
            "d1d2_sq": (k1sq * k2sq * p).sum(axis=axes)}


def trilinear_ratio(pairing: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Realized constant |pairing| / denom of a trilinear bound; 0 where denom is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, np.abs(pairing) / denom, 0.0)


def cumulative_trapezoid(y: np.ndarray, dx: float | np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y along axis 0, starting from 0.

    dx is the constant step or the len(y) - 1 steps; trailing (batch) axes
    of y are integrated independently.
    """
    y = np.asarray(y, dtype=np.float64)
    dx = np.reshape(dx, np.shape(dx) + (1,) * (y.ndim - np.ndim(dx)))
    out = np.zeros_like(y)
    out[1:] = np.cumsum(dx * (y[1:] + y[:-1]) / 2, axis=0)
    return out


# Young weight alpha left on the dissipation by every h01 and gap bound,
# deterministic and stochastic; no run overrides it
YOUNG_WEIGHT = 0.5


def young_h01(c: float | np.ndarray, alpha: float) -> float | np.ndarray:
    """C = c^2 / (4 alpha): the h01 bound's trilinear constant c absorbed with
    weight alpha on ||d1 d2 u||^2."""
    return c ** 2 / (4.0 * alpha)


def young_gap(c: float | np.ndarray, alpha: float) -> float | np.ndarray:
    """C = (3/4) (2 alpha)^{-1/3} c^{4/3}: the gap bound's trilinear constant c
    absorbed (exponents 4 and 4/3) with weight alpha on ||d1 w||^2."""
    return 0.75 * (2.0 * alpha) ** (-1.0 / 3.0) * c ** (4.0 / 3.0)


def absorb(pairing: np.ndarray, denom: np.ndarray, integrand: np.ndarray,
           dx: float | np.ndarray, young: Callable, alpha: float) -> tuple:
    """One absorbed step of an a priori bound: (ratio, sup, big_c, q).

    ratio is the realized trilinear constant |pairing| / denom of each row
    (trilinear_ratio), sup its max over time (axis 0), big_c = young(sup,
    alpha) with young one of young_h01, young_gap, and q(t) = 2 C int_0^t
    integrand a running trapezoid with steps dx.  sup and big_c are per
    path: scalars for (n_steps+1,) rows, (B,) arrays for (n_steps+1, B)
    columns.
    """
    ratio = trilinear_ratio(pairing, denom)
    sup = np.max(ratio, axis=0, initial=0.0)
    big_c = young(sup, alpha)
    return ratio, sup, big_c, cumulative_trapezoid(integrand, dx) * 2.0 * big_c


def _lp_along(samples: np.ndarray, p: float, axis: int, h: float) -> np.ndarray:
    if np.isinf(p):
        return np.max(np.abs(samples), axis=axis)
    return (np.sum(np.abs(samples) ** p, axis=axis) * h) ** (1.0 / p)


def mixed_norm(grid: TorusGrid, samples: np.ndarray, p_h: float, q_v: float,
               h_outer: bool = True) -> float:
    """Iterated norm of a scalar sample array (n1, n2).

    h_outer=True gives L^{p_h}_h(L^{q_v}_v): inner norm over x2 for each x1,
    outer norm over x1.  h_outer=False gives the transposed order
    L^{q_v}_v(L^{p_h}_h).
    """
    if samples.shape != (grid.n1, grid.n2):
        raise ValueError(f"expected scalar samples {(grid.n1, grid.n2)}, got {samples.shape}")
    h1 = 2.0 * np.pi / grid.n1
    h2 = 2.0 * np.pi / grid.n2
    if h_outer:
        inner = _lp_along(samples, q_v, axis=1, h=h2)
        return float(_lp_along(inner, p_h, axis=0, h=h1))
    inner = _lp_along(samples, p_h, axis=0, h=h1)
    return float(_lp_along(inner, q_v, axis=0, h=h2))


@dataclass(frozen=True)
class Verdict:
    """One certificate's answer to measured <= bound; for a time series,
    read at its step of least margin, with t_first the first time the bound
    is broken (None when it holds)."""

    name: str
    measured: float
    bound: float
    passed: bool
    t_first: float | None = None


def verdict(name: str, lhs: float | np.ndarray, bound: float | np.ndarray,
            t: np.ndarray | None = None) -> Verdict:
    """The Verdict of lhs <= bound, scalars or series along t (a scalar bound
    holds at every step).  The step of least margin has the largest lhs -
    bound, then the largest lhs, so a scalar bound measures the sup of lhs."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=np.float64))
    bound = np.broadcast_to(np.asarray(bound, dtype=np.float64), lhs.shape)
    held = lhs <= bound
    worst = np.lexsort((lhs, lhs - bound))[-1]
    broken = np.flatnonzero(~held)
    t_first = float(t[broken[0]]) if t is not None and broken.size else None
    return Verdict(name, float(lhs[worst]), float(bound[worst]), bool(held.all()), t_first)


@dataclass
class NormReport:
    """Rows of inequality checks: (name, lhs, rhs, constant, passed)."""

    rows: list[tuple[str, float, float, float, bool]] = field(default_factory=list)

    def add(self, name: str, lhs: float, rhs: float, constant: float,
            slack: float = 0.0) -> bool:
        ok = verdict(name, lhs, rhs * (1.0 + slack) + 1e-300).passed
        self.rows.append((name, float(lhs), float(rhs), float(constant), ok))
        return ok

    def failures(self) -> list[tuple[str, float, float, float, bool]]:
        return [r for r in self.rows if not r[4]]


def _scalar_grad(grid: TorusGrid, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samples of (d1 f, d2 f) for real scalar samples f, from one forward FFT."""
    c = np.fft.fft2(samples)
    return (np.fft.ifft2(1j * grid.k1.astype(np.float64) * c).real,
            np.fft.ifft2(1j * grid.k2.astype(np.float64) * c).real)


def check_anisotropic_embedding(grid: TorusGrid, samples: np.ndarray,
                                report: NormReport | None = None) -> NormReport:
    """Periodic sup-trace bounds in both axis orientations.

    For scalar f on the torus:
        ||f||_{L2_v(L^inf_h)}^2 <= (1/2pi) ||f||^2 + 2 ||f|| ||d1 f||
        ||f||_{L2_h(L^inf_v)}^2 <= (1/2pi) ||f||^2 + 2 ||f|| ||d2 f||
    The (1/2pi) mean term is what periodicity adds over the whole-space
    two-factor bound; the whole-space ratio is recorded unasserted.
    """
    if report is None:
        report = NormReport()
    h1 = 2.0 * np.pi / grid.n1
    h2 = 2.0 * np.pi / grid.n2
    l2 = float(np.sqrt(np.sum(samples ** 2) * h1 * h2))
    d1, d2 = _scalar_grad(grid, samples)
    l2_d1 = float(np.sqrt(np.sum(d1 ** 2) * h1 * h2))
    l2_d2 = float(np.sqrt(np.sum(d2 ** 2) * h1 * h2))

    # sup over x1 (inner inf-norm along axis 0), L2 over x2 -- and transposed
    sup_h = float(np.sqrt(np.sum(np.max(samples ** 2, axis=0)) * h2))
    sup_v = float(np.sqrt(np.sum(np.max(samples ** 2, axis=1)) * h1))

    rhs_h = l2 ** 2 / (2.0 * np.pi) + 2.0 * l2 * l2_d1
    rhs_v = l2 ** 2 / (2.0 * np.pi) + 2.0 * l2 * l2_d2
    report.add("embedding_sup_x1", sup_h ** 2, rhs_h, 2.0, slack=CHECK_SLACK)
    report.add("embedding_sup_x2", sup_v ** 2, rhs_v, 2.0, slack=CHECK_SLACK)

    # whole-space form, reported only: ratio of lhs^2 to 2 ||f|| ||d f||
    for name, sup, prod in (("wholespace_ratio_x1", sup_h, l2 * l2_d1),
                            ("wholespace_ratio_x2", sup_v, l2 * l2_d2)):
        ratio = sup ** 2 / (2.0 * prod) if prod > 0 else np.inf
        report.rows.append((name, sup ** 2, 2.0 * prod, float(ratio), True))
    return report


def check_minkowski(grid: TorusGrid, samples: np.ndarray, p: float, q: float,
                    report: NormReport | None = None) -> NormReport:
    """Iterated-norm ordering: for q <= p, the outer-p order is the smaller."""
    if report is None:
        report = NormReport()
    if q > p:
        raise ValueError(f"ordering needs q <= p, got q={q} > p={p}")
    lhs = mixed_norm(grid, samples, p, q, h_outer=True)
    rhs = mixed_norm(grid, samples, p, q, h_outer=False)
    report.add(f"minkowski_p{p:g}_q{q:g}", lhs, rhs, 1.0, slack=CHECK_SLACK)
    return report
