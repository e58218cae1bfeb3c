"""Deterministic time stepping with exact horizontal-viscosity flow.

The evolved system is du/dt = P(-u.grad u) + L u with diagonal symbol
L = -(k1^2 + eps_v^2 k2^2); the viscous flow is applied exactly through an
integrating factor, so purely linear solutions (for example unidirectional
shear) are reproduced to round-off.  Certificates re-derive the energy
balance, the vertical-gradient decay, and a two-solution stability bound
from recorded diagnostics, with all constants measured from the run itself.

The dealiased, solenoidal, mean-free space the system lives in is the span
of all max_level(grid) basis elements, so the state is its real coordinates
in GalerkinFrame(grid, max_level(grid)): the deterministic system is the
top Galerkin level of the stochastic engine.  Taking coordinates projects
the initial data; run_det and uniqueness_experiment therefore require
Hermitian input, c(-k) = conj(c(k)), as the SDE engine does.  The state
stays coordinates, which only frame.synth samples (the advection, and the
CLI's snapshot of final_coords).

One step loop, _march, steps every run of both engines and yields
(i, a, drift, sig) per state: its drift, shared with the step, and sig,
the noise increment of step i (None without noise and at the last state).
Each audit is a consumer that keeps what it reads: run_det's rows,
weak_form_residual, the gap audit and eps_sweep through _det_march (the
integrator's stages), sde._run_batched's rows and the pathwise gap audit
through sde._Stepper.march (Euler-Maruyama).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import spectral
from .basis import GalerkinFrame, level_reach, max_level
from .norms import (YOUNG_WEIGHT, Verdict, absorb, cumulative_trapezoid, power_rows, verdict,
                    young_gap, young_h01)
from .spectral import SpectralField, TorusGrid

INTEGRATORS = ("if-rk2", "if-rk4", "if-euler")
ENERGY_REL_TOL = 1e-4  # energy residual allowed, relative to ||u0||^2
H01_SLACK = 1e-6       # weighted vertical-energy increase allowed, relative to its start
GAP_TOL = 0.05         # slack (1 + GAP_TOL) of both two-solution gap bounds
MAX_STEPS = 10 ** 7    # most steps a run may take; a run's arrays hold n_steps + 1 rows
# the recorded columns, those of _coord_rows; cross is (d2(u.grad u), d2 u)
DIAG_NAMES = ("l2_sq", "d1_sq", "d2_sq", "d1d2_sq", "cross")


@dataclass
class Clock:
    """Step size and run length of a run (DetConfig, sde.SdeConfig); its blow-up
    guard is spectral.BLOWUP_GUARD, which no run overrides."""

    dt: float = 1e-3
    t_end: float = 1.0

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        # the ratio, not n_steps: int() of an overflow to inf would raise
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(f"t_end / dt = {self.t_end / self.dt:.6g} exceeds "
                             f"{MAX_STEPS} steps")
        if self.n_steps < 1:
            raise ValueError(f"t_end / dt = {self.t_end / self.dt:.6g} gives 0 steps; "
                             f"a run needs at least 1")

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_end / self.dt - 1e-12))

    @property
    def times(self) -> np.ndarray:
        """The n_steps + 1 times of the recorded states."""
        return np.arange(self.n_steps + 1) * self.dt


def run_bytes(grid: TorusGrid, batch: int = 1, levels: Sequence[int] = (),
              sampled: bool = False) -> int:
    """Bytes a run of batch states on grid holds at once, sized without building a frame.

    A deterministic run (no levels) steps max_level(grid) on grid; an SDE
    run steps its levels in turn, each on its quadrature grid (at most
    3 reach + 4 points per axis, basis.level_reach), or on grid when
    sampled, as a sigma(u) whose b g(u) depends on u is.  The sum of:
    - 32 bytes per grid point per coefficient array: 4, a random field's
      construction peak, and 2 more for a batch, such as the uniqueness
      pair's u0, v0 and their stack beside the heap the construction left;
    - per level, 192 bytes per mode pair and 40 per entry of its
      (2 reach2 + 1) x n1 packed spectrum, twice for an SDE level and its quadrature frame;
    - per state, 3 complex per sampling point (8 with a sampled sigma(u))
      and 2 per spectrum entry.  An SDE step writes into its workspace
      (sde._Stepper): the samples and products, 2 per point, the b-channel
      sum and term of a sampled sigma(u), 1 more, and one spectrum; that
      sigma(u)'s hs_sq allocates g(u), the sum, term and product over its
      channel axis, 5 per point with two channels.  The deterministic
      drift allocates its samples and products, 2 per point, and the
      spectrum of each transform;
    - 16 MiB: modules loaded on first use (7.7 MiB), the allocator's heap,
      and an SDE run's two noise blocks (a block of Wiener paths and a
      slab of additive increments, at most 2 sde.BLOCK_BYTES together).
    The peak-RSS growth after imports of 2-step runs of each subcommand at
    512^2 and 1024^2 stays below it.
    """
    top = max_level(grid)
    total = sum((2 if levels else 1)
                * (192 * ((n + 1) // 2) + 40 * (2 * level_reach(grid, n)[1] + 1) * grid.n1)
                for n in levels or (top,))
    reach = level_reach(grid, max(levels, default=top))
    n1, n2 = (grid.n1, grid.n2) if sampled or not levels else (
        min(n, 3 * k + 4) for n, k in zip((grid.n1, grid.n2), reach))
    total += batch * 16 * ((8 if sampled else 3) * n1 * n2 + 2 * (2 * reach[1] + 1) * n1)
    return total + 32 * (4 if batch == 1 else 6) * grid.n_points + 2 ** 24


@dataclass
class DetConfig(Clock):
    integrator: str = "if-rk2"
    eps_v: float = 0.0  # vertical viscosity multiplier of the regularized system

    def __post_init__(self):
        super().__post_init__()
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if self.eps_v < 0.0:
            raise ValueError("eps_v must be >= 0")
        # a float product overflows to inf, where eps_v ** 2 would raise
        if not np.isfinite(self.eps_v * self.eps_v):
            raise ValueError(f"eps_v = {self.eps_v:.6g} has no finite square")


@dataclass
class Trajectory:
    """The record of a run of either engine (run_det, sde.run_sde).

    diag maps each recorded name (DIAG_NAMES, sde.DIAG_NAMES) to its column
    over t; values derived from the columns are computed where they are
    read.  final_coords holds the (n,) coordinates in frame (on
    frame.grid) of the state at t[-1].
    """

    config: Clock
    t: np.ndarray
    diag: dict[str, np.ndarray]
    final_coords: np.ndarray
    frame: GalerkinFrame


def mollify(u: SpectralField, eps: float) -> SpectralField:
    """Spectral smoothing: scale mode k by exp(-eps^2 |k|^2)."""
    if eps < 0.0:
        raise ValueError("mollifier width must be >= 0")
    return SpectralField(u.grid, u.coeffs * np.exp(-eps ** 2 * u.grid.ksq))


def _drift(a: np.ndarray, frame: GalerkinFrame) -> np.ndarray:
    """Coordinates of -P(u.grad u) for (..., n) coordinates a."""
    return frame.analyse(spectral._advection_raw(frame.synth(a)), frame.drift_weights)


def _coord_rows(frame: GalerkinFrame, a: np.ndarray, drift: np.ndarray) -> dict[str, np.ndarray]:
    """Squared norms of coordinates a (power_rows) and the cross pairing.

    drift holds the coordinates of -P_n(u.grad u); on the span,
    (d2 (u.grad u), d2 u) = sum_j k2_j^2 (u.grad u, e_j) a_j.
    """
    row = power_rows(a ** 2, frame.k1sq, frame.k2sq, axes=-1)
    row["cross"] = np.sum(frame.k2sq * -drift * a, axis=-1)
    return row


def _march(a: np.ndarray, clock: Clock, drift: Callable, step: Callable,
           noise: Callable | None = None) -> Iterator[tuple]:
    """Yield (i, a, drift(a), sig) for every state of a run from (..., n) coordinates a.

    The drift is evaluated once per state, the last one included, and is
    shared with step(a, drift, sig), which returns the next state as a new
    array, so a consumer may keep the states it is handed.  sig is
    noise(i, a), the increment step i adds, or None without noise and at
    the last state.  Every row of a batch is guarded against blow-up.
    """
    n_steps, l2_0 = clock.n_steps, spectral.max_sq_norm(a)
    for i in range(n_steps + 1):
        k = drift(a)
        sig = None if noise is None or i == n_steps else noise(i, a)
        yield i, a, k, sig
        if i < n_steps:
            a = step(a, k, sig)
            spectral.check_rows(a, l2_0, t_last=i * clock.dt)


def _det_march(a: np.ndarray, frame: GalerkinFrame, cfg: DetConfig) -> Iterator[tuple]:
    """_march of the deterministic system in frame, stepped by the integrator's stages."""
    dt = cfg.dt
    symbol = frame.k1sq + cfg.eps_v ** 2 * frame.k2sq
    ef = np.exp(-dt * symbol)
    eh = np.exp(-0.5 * dt * symbol)

    # k1 is the drift at c, which the march shares; the system has no noise
    if cfg.integrator == "if-euler":
        def step(c: np.ndarray, k1: np.ndarray, _sig: None) -> np.ndarray:
            return ef * (c + dt * k1)
    elif cfg.integrator == "if-rk2":
        def step(c: np.ndarray, k1: np.ndarray, _sig: None) -> np.ndarray:
            pred = ef * (c + dt * k1)
            return ef * c + 0.5 * dt * (ef * k1 + _drift(pred, frame))
    else:  # if-rk4
        def step(c: np.ndarray, k1: np.ndarray, _sig: None) -> np.ndarray:
            k2 = _drift(eh * (c + 0.5 * dt * k1), frame)
            k3 = _drift(eh * c + 0.5 * dt * k2, frame)
            k4 = _drift(ef * c + dt * eh * k3, frame)
            return ef * c + dt / 6.0 * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
    return _march(a, cfg, lambda c: _drift(c, frame), step)


def run_det(u0: SpectralField, cfg: DetConfig) -> Trajectory:
    """Advance the deterministic system and record per-step diagnostics.

    u0 must be Hermitian; the run starts from its projection onto the
    dealiased, solenoidal, mean-free span.
    """
    frame = GalerkinFrame(u0.grid, max_level(u0.grid))
    diag = {name: np.zeros(cfg.n_steps + 1) for name in DIAG_NAMES}
    for i, a, drift, _ in _det_march(frame.coords(u0.coeffs), frame, cfg):
        for name, value in _coord_rows(frame, a, drift).items():
            diag[name][i] = value
    return Trajectory(config=cfg, t=cfg.times, diag=diag, final_coords=a, frame=frame)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class EnergyReport:
    """The residual series R(t) and the verdict on |R(t)| / ||u0||^2."""

    residual: np.ndarray
    verdict: Verdict


def energy_certificate(traj: Trajectory) -> EnergyReport:
    """Energy balance audit.

    Checks R(t) = ||u(t)||^2 + 2 int ||d1 u||^2 + 2 eps^2 int ||d2 u||^2
    - ||u0||^2 stays below ENERGY_REL_TOL * ||u0||^2; R carries the
    trapezoid and integrator bias, both second order in dt.
    """
    d, dt, eps = traj.diag, traj.config.dt, traj.config.eps_v
    l2 = d["l2_sq"]
    residual = (l2 + 2.0 * cumulative_trapezoid(d["d1_sq"], dt)
                + 2.0 * eps ** 2 * cumulative_trapezoid(d["d2_sq"], dt) - l2[0])
    scale = float(l2[0]) if l2[0] > 0 else 1.0
    return EnergyReport(residual=residual, verdict=verdict(
        "energy_certificate", np.abs(residual) / scale, ENERGY_REL_TOL, traj.t))


@dataclass
class H01Report:
    """Verdicts: monotone on each step's increase of weighted, bound on ||d2 u(t)||^2."""

    c_emp: np.ndarray
    c_sup: float
    weighted: np.ndarray
    monotone: Verdict
    bound: Verdict


def h01_certificate(traj: Trajectory) -> H01Report:
    """Vertical-gradient decay audit with a run-measured constant.

    c_emp(t) = |(d2(u.grad u), d2 u)| / (||d1 d2 u|| ||d1 u|| ||d2 u||) is the
    realized constant of the trilinear bound; with C = young_h01(sup(c_emp),
    1/2) = sup(c_emp)^2 / 2 the weighted quantity
    exp(-2C int ||d1 u||^2) ||d2 u||^2 must not increase by more than
    H01_SLACK times its initial value at any step, which also yields
    ||d2 u(t)||^2 <= ||d2 u(0)||^2 exp(2C int ||d1 u||^2).
    """
    d = traj.diag
    d1, d2 = d["d1_sq"], d["d2_sq"]
    c_emp, c_sup, _, q = absorb(d["cross"], np.sqrt(d["d1d2_sq"] * d1 * d2), d1,
                                traj.config.dt, young_h01, YOUNG_WEIGHT)
    weighted = np.exp(-q) * d2
    allowance = H01_SLACK * weighted[0] if weighted[0] > 0 else H01_SLACK
    bound = d2[0] * np.exp(q) * (1.0 + H01_SLACK) + allowance
    return H01Report(c_emp=c_emp, c_sup=float(c_sup), weighted=weighted,
                     monotone=verdict("h01_monotone", np.maximum(np.diff(weighted), 0.0),
                                      allowance, traj.t[1:]),
                     bound=verdict("h01_bound", d2, bound, traj.t))


@dataclass
class TimeProfile:
    """Smooth scalar time window chi with its derivative."""

    name: str
    fn: Callable[[float], float]
    dfn: Callable[[float], float]


def time_profile(name: str) -> TimeProfile:
    profiles = {
        "one": TimeProfile("one", lambda t: 1.0, lambda t: 0.0),
        "cos": TimeProfile("cos", lambda t: float(np.cos(t)), lambda t: float(-np.sin(t))),
        "quadratic": TimeProfile("quadratic", lambda t: 1.0 + t * t, lambda t: 2.0 * t),
    }
    if name not in profiles:
        raise ValueError(f"unknown time profile {name!r}; choose from {sorted(profiles)}")
    return profiles[name]


def weak_form_residual(u0: SpectralField, cfg: DetConfig, test_mode: tuple[int, int],
                       chi: TimeProfile) -> float:
    """Weak-form defect of the run from u0 against the test function chi(t) e_k(x).

    The residual

        int_0^t [ -chi'(s) (u, e_k) + chi(s) ((d1 u, d1 e_k)
                  + eps^2 (d2 u, d2 e_k) + (u.grad u, e_k)) ] ds
        - chi(0) (u0, e_k) + chi(t) (u(t), e_k)

    vanishes for exact solutions; trapezoid quadrature leaves O(dt^2).
    e_k is the element at column(k) of the run's frame, that of all basis
    elements: passing -k selects the sine element of the mode pair of k.
    (u.grad u, e_k) is read from the drift the run computes anyway.
    """
    frame = GalerkinFrame(u0.grid, max_level(u0.grid))
    j = frame.column(test_mode)
    t = cfg.times
    a = np.zeros_like(t)                        # (u, e_k)
    b = np.zeros_like(t)                        # (u.grad u, e_k)
    for i, state, drift, _ in _det_march(frame.coords(u0.coeffs), frame, cfg):
        a[i], b[i] = state[j], -drift[j]
    chi_v = np.array([chi.fn(s) for s in t])
    dchi_v = np.array([chi.dfn(s) for s in t])
    # e_k is an eigenfunction: (d1 u, d1 e_k) = k1^2 (u, e_k), same for d2
    integrand = (-dchi_v * a + chi_v * (frame.k1sq[j] + cfg.eps_v ** 2 * frame.k2sq[j]) * a
                 + chi_v * b)
    integral = float(np.trapezoid(integrand, t))
    return integral - chi_v[0] * a[0] + chi_v[-1] * a[-1]


@dataclass
class GapReport:
    """Report of a two-solution gap audit (see _GapAudit).

    q is the absorbed exponent and growth the Gronwall exponent G(t);
    verdict holds exp(-q) ||w||^2 <= ||w(0)||^2 exp(growth) (1 + GAP_TOL), and
    max_ratio is the largest ratio of the two sides (0 for a bitwise-zero
    gap).  c1 is the measured trilinear constant.
    """

    t: np.ndarray
    w_l2_sq: np.ndarray
    q: np.ndarray
    growth: np.ndarray
    c1: float
    bitwise_zero: bool
    max_ratio: float
    verdict: Verdict


class _GapAudit:
    """Two-solution gap audit shared by the deterministic and stochastic runs.

    record() takes the (2, n) coordinates of the pair (u, v) in frame at
    each step and keeps the gap row of w = u - v against the base solution
    b (one of u, v):

        ||w||^2, the trilinear pairing |(w.grad b, w)| = |(w.grad w, b)|,
        its bound ||d1 w||^{1/2} ( ||d1 b||^{1/2} + ||d2 b||^{1/2} )
            ||d1 d2 b||^{1/2} ||w||^{3/2},
        the dissipation ( ||d1 b||^{2/3} + ||d2 b||^{2/3} ) ||d1 d2 b||^{2/3}.

    The pairing is read from the drift of w, the solver's own advection:
    w and b are solenoidal and lie in the span.  report() turns the rows
    into the measured constant c1, the absorbed exponent
    q(t) = 2 C int dissipation, C = young_gap(c1, YOUNG_WEIGHT), and the check

        exp(-q(t)) ||w(t)||^2 <= ||w(0)||^2 exp(growth(t)) (1 + GAP_TOL).

    Both engines' audits share that weight and slack, which no run
    overrides.  Identical inputs keep w bitwise zero, since both rows of
    the pair see identical arithmetic; both sides of the check are then 0
    at every step.
    """

    def __init__(self, frame: GalerkinFrame, clock: Clock, base: int):
        self.frame = frame
        self.dt = clock.dt
        self.base = base
        self.t = clock.times
        self.w_l2 = np.zeros_like(self.t)
        self.tri = np.zeros_like(self.t)
        self.den = np.zeros_like(self.t)
        self.dissip = np.zeros_like(self.t)
        self.bitwise = True

    def record(self, i: int, pair: np.ndarray) -> None:
        frame = self.frame
        w = pair[0] - pair[1]
        b = pair[self.base]
        self.bitwise = self.bitwise and bool(np.all(pair[0] == pair[1]))
        wn = power_rows(w ** 2, frame.k1sq, frame.k2sq, axes=-1)
        bn = power_rows(b ** 2, frame.k1sq, frame.k2sq, axes=-1)
        d1, d2, d1d2 = bn["d1_sq"], bn["d2_sq"], bn["d1d2_sq"]
        self.w_l2[i] = wn["l2_sq"]
        self.dissip[i] = (d1 ** (1.0 / 3.0) + d2 ** (1.0 / 3.0)) * d1d2 ** (1.0 / 3.0)
        # w is synthesized itself: u and v agree to many digits, so the
        # difference of their samples would lose them
        self.tri[i] = abs(float(_drift(w, frame) @ b))
        self.den[i] = (wn["d1_sq"] ** 0.25 * (d1 ** 0.25 + d2 ** 0.25) * d1d2 ** 0.25
                       * self.w_l2[i] ** 0.75)

    def report(self, growth: float | np.ndarray) -> GapReport:
        """The report of the recorded rows against the Gronwall exponent growth."""
        _, c1, _, q = absorb(self.tri, self.den, self.dissip, self.dt, young_gap, YOUNG_WEIGHT)
        growth = np.zeros_like(self.t) + growth
        # a bitwise-zero gap has lhs = bound = 0 at every step
        lhs = np.exp(-q) * self.w_l2
        bound = self.w_l2[0] * np.exp(growth) * (1.0 + GAP_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            max_ratio = 0.0 if self.bitwise else float(
                np.max(np.where(bound > 0.0, lhs / bound, np.inf)))
        return GapReport(t=self.t, w_l2_sq=self.w_l2, q=q, growth=growth, c1=float(c1),
                         bitwise_zero=self.bitwise, max_ratio=max_ratio,
                         verdict=verdict("passed", lhs, bound, self.t))


def uniqueness_experiment(u0: SpectralField, v0: SpectralField, cfg: DetConfig) -> GapReport:
    """Two-solution stability audit.

    Runs u and v in lockstep, as one batch, and checks the difference
    w = u - v against ||w(t)||^2 <= ||w(0)||^2 exp(E(t)) (1 + GAP_TOL) with

        E(t) = 2 C0 int ( ||d1 v||^{2/3} + ||d2 v||^{2/3} ) ||d1 d2 v||^{2/3} ds

    where C0 = (3/4) c1^{4/3} converts the measured trilinear constant

        c1 = sup |(w.grad v, w)| / ( ||d1 w||^{1/2}
             ( ||d1 v||^{1/2} + ||d2 v||^{1/2} ) ||d1 d2 v||^{1/2} ||w||^{3/2} )

    through Young's inequality (young_gap) with weight YOUNG_WEIGHT = 1/2
    on ||d1 w||^2.  The report's q is E(t) and its growth is 0.  Identical
    inputs keep the gap bitwise zero.  A blow-up of either solution raises
    BlowUpError.  u0 and v0 must be Hermitian.
    """
    frame = GalerkinFrame(u0.grid, max_level(u0.grid))
    audit = _GapAudit(frame, cfg, base=1)
    for i, pair, _, _ in _det_march(frame.coords(np.stack((u0.coeffs, v0.coeffs))),
                                     frame, cfg):
        audit.record(i, pair)
    return audit.report(0.0)


def eps_sweep(u0: SpectralField, cfg: DetConfig, eps_values: list[float]) -> list[float]:
    """L2-in-time distance of each regularized run from the eps = 0 run.

    Each eps run starts from mollified data mollify(u0, eps) and evolves with
    vertical viscosity eps^2; returns
    || u_eps - u_0 ||_{L2([0,T]; L2)} for each eps, computed by trapezoid
    over the per-step sums of squared coordinate differences.  The runs
    advance in lockstep, so no trajectory is stored.
    """
    frame = GalerkinFrame(u0.grid, max_level(u0.grid))

    def march(eps: float):
        return _det_march(frame.coords(mollify(u0, eps).coeffs), frame, replace(cfg, eps_v=eps))

    t = cfg.times
    diff_sq = np.zeros((len(eps_values), len(t)))
    for (i, base, _, _), *runs in zip(march(0.0), *map(march, eps_values)):
        for m, (_, a, _, _) in enumerate(runs):
            diff_sq[m, i] = np.sum((a - base) ** 2)
    return [float(np.sqrt(np.trapezoid(row, t))) for row in diff_sq]
