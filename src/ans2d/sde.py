"""Euler-Maruyama stepping with exact horizontal-viscosity flow.

The Galerkin system evolves inside the span of the first n divergence-free
basis elements:

    u+ = exp(L dt) ( u + dt P_n P(-u.grad u) + P_n sigma(u) dW ),

with L = -k1^2 applied exactly.  The engine steps the n real coordinates
of the state in that basis (basis.GalerkinFrame), batched over
trajectories as (B, n) arrays, and hands back coordinates: its final
state and on_step callback see (B, n) arrays, which the frame lifts to
coefficients where a caller needs a field.  Every element is an
eigenfunction of d1^2 and d2^2, so exp(L dt), P_n, additive noise
and every diagnostic norm act on the coordinates directly, and so do the
transport channels c_k d1 u of sigma(u), through a fixed table per level
(noise._transport_table).  Only the advection and a b g(u) that depends
on u (noise.sigma_coords) need grid samples of the state, synthesized
once per step: the velocity u, whose products 2 u1 u2 and u2^2 - u1^2
give the advection in its divergence form (basis.GalerkinFrame), and
whose componentwise g(u) the b-channels multiply.  The advection runs on
the level's quadrature grid, the smallest alias-free grid holding its
wavevectors (basis.quadrature_grid); such a g(u) is not band-limited, so
with it the samples come from the configured grid instead.  Initial
coefficients must be Hermitian.
Per-step diagnostics come out as (n_steps+1, B) columns, which keeps path
ensembles in pure array arithmetic; the noise pairing (sigma dW, u) is
formed only when a diagnostic row records it.  Additive noise reaches
only the coordinates of its channels' wavevectors (a term in cos(m.x)
or sin(m.x) those of the pair of +-m), so its increment is formed and
added on their contiguous span of columns alone.  The engine steps on
Wiener increments that its caller draws with draw_increments: one
step-major (n_steps, B, n_modes) array, so a step reads the contiguous
slab of its own increments, and callers that replay the same paths at
several levels (the ensemble) draw them once.  The additive noise path
works in blocks of at most BLOCK_BYTES: draw_increments fills a block of
whole paths, BLOCK_BYTES // (8 n_steps n_modes) of them, contiguously and
copies it into the step-major array with one transposed assignment, and
the step loop forms additive increments a slab of BLOCK_BYTES //
(8 B len(span)) steps at a time, as they do not depend on the state
(either block holds at least one path or step).  Each trajectory's
increments come from a dedicated counter-based stream keyed by (seed,
path index), and every sum over noise channels runs channel by channel,
so any path replays bit-for-bit regardless of batch layout and blocking,
for every noise model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import det, spectral
from .basis import GalerkinFrame, is_canonical, max_level, quadrature_grid
from .det import GAP_TOL, Clock, GapReport, Trajectory, _coord_rows, _GapAudit
from .noise import (
    DEFAULT_ETA,
    NoiseModel,
    ScalarRecipe,
    _additive_coords,
    _channel_sum,
    _sigma_parts,
    condition_c_bounds,
    sample_wiener_increment,
    sigma_coords,
)
from .norms import YOUNG_WEIGHT, absorb, cumulative_trapezoid, young_h01
from .spectral import SpectralField, TorusGrid

DIAG_NAMES = det.DIAG_NAMES + ("noise_work", "hs_sq")
N_SE = 5.0      # standard errors allowed to the Monte Carlo audits
BETA_HAT = 0.5  # Gronwall split of the noise's Lipschitz channel in the gap bound
BLOCK_BYTES = 2 ** 18  # size of a block of Wiener paths and of a slab of additive increments


@dataclass
class SdeConfig(Clock):
    galerkin_n: int = 8
    seed: int = 0
    drop_nonlinearity: bool = False
    alpha_tilde: float = YOUNG_WEIGHT

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha_tilde < 1.0:
            raise ValueError("alpha_tilde must lie in (0, 1)")
        if self.galerkin_n < 1:
            raise ValueError("galerkin_n must be >= 1")


class _Stepper:
    """Precomputed batched update for one (grid, model, config) triple.

    States are (B, n) coordinates in the level-n frame.  The step loop
    synthesizes the packed samples u1 + i u2 of a state on the quadrature
    grid qgrid once (synth, through qframe.synth) and hands them, with the
    state, to drift, noise_increment and hs_sq.  qgrid is the level's
    smallest alias-free grid (basis.quadrature_grid), which gives the
    advection coordinates of the configured grid up to rounding.  A
    sigma(u) whose b g(u) depends on u is not band-limited, so for it
    qgrid is the configured grid; its c-channels act on the coordinates
    (noise._transport_table), and additive channels are read off the
    recipes (noise._additive_coords), so no other noise samples the state.
    Without noise (NoiseModel(), or a zero model) the additive case has no
    channel, and its increments are exact zeros.

    span is the slice of columns a noise increment touches: every column
    for a sigma(u) that depends on u; for additive noise, the first to the
    last column where a channel coordinate is non-zero, and span_channels
    holds the channels there, (n_modes, len(span)).  A single-mode channel
    touches one column, and a zero model none.  additive keeps the dense
    (n_modes, n) channels, which hs_sq reads.
    """

    def __init__(self, grid: TorusGrid, model: NoiseModel, cfg: SdeConfig):
        if cfg.galerkin_n > max_level(grid):
            raise ValueError(
                f"galerkin_n={cfg.galerkin_n} exceeds the {max_level(grid)} basis "
                f"elements of the {grid.n1}x{grid.n2} grid"
            )
        self.model = model
        self.cfg = cfg
        self.frame = GalerkinFrame(grid, cfg.galerkin_n)
        self.ef = np.exp(-cfg.dt * self.frame.k1sq)
        self.additive = None  # (channels, n) coordinates of the projected channels
        sampled = False
        if model.is_zero:
            self.additive = np.zeros((0, self.frame.n))
        elif model.is_additive:
            self.additive = _additive_coords(model, self.frame)
        else:
            self.parts = _sigma_parts(model, self.frame)
            sampled = len(self.parts[1][0]) > 0
        # the -0.0 that _from_pairs leaves in sine columns counts as untouched
        self.span = slice(None)
        if self.additive is not None:
            touched = np.flatnonzero(np.any(self.additive != 0.0, axis=0))
            ends = (int(touched[0]), int(touched[-1]) + 1) if len(touched) else (0, 0)
            self.span = slice(*ends)
            self.span_channels = np.ascontiguousarray(self.additive[:, self.span])
        self.needs_phys = sampled or not cfg.drop_nonlinearity
        self.qgrid = grid if sampled else quadrature_grid(grid, cfg.galerkin_n)
        self.qframe = GalerkinFrame(self.qgrid, cfg.galerkin_n)

    def synth(self, a: np.ndarray) -> np.ndarray | None:
        """Samples u1 + i u2 of a on qgrid, or None when no layer reads them."""
        return self.qframe.synth(a) if self.needs_phys else None

    def drift(self, a: np.ndarray, phys: np.ndarray | None) -> np.ndarray | float:
        """Coordinates of -P_n (u.grad u); phys holds the samples of a.

        Without the nonlinearity the drift is the scalar 0.0, which
        broadcasts against a.
        """
        if self.cfg.drop_nonlinearity:
            return 0.0
        return self.qframe.analyse(spectral._advection_raw(phys), self.qframe.drift_weights)

    def noise_increment(self, dw: np.ndarray, a: np.ndarray,
                        phys: np.ndarray | None) -> np.ndarray:
        """Coordinates of P_n sigma(u) dW in the columns span; dw has shape (B, n_modes).

        a is the state and phys its samples.  Every coordinate outside
        span is an exact zero, and the step adds only the (B, len(span))
        increment returned.  Additive increments do not depend on the
        state, so for them dw may also be a slab of steps, (D, B, n_modes),
        which gives the (D, B, len(span)) increments of all D steps at once.
        """
        if self.additive is not None:
            return _channel_sum(dw, self.span_channels)
        return sigma_coords(self.model, self.frame, a, phys, dw, self.parts)

    def hs_sq(self, a: np.ndarray, phys: np.ndarray | None) -> np.ndarray:
        """||P_n sigma(u) Pi||_HS^2 per batch entry."""
        lead = a.shape[:-1]
        if self.additive is not None:
            return np.full(lead, float(np.sum(self.additive ** 2)))
        # all channels at once: a channel axis before the coordinates and the samples
        chans = sigma_coords(self.model, self.frame, a[..., None, :],
                             None if phys is None else phys[..., None, :, :],
                             np.eye(self.model.n_modes), self.parts)
        return np.sum(chans ** 2, axis=(-2, -1))


def _diag_row(stepper: _Stepper, a: np.ndarray, drift: np.ndarray, noise_work: np.ndarray,
              with_hs: bool, phys: np.ndarray | None) -> dict[str, np.ndarray]:
    """Diagnostics of a batch of coordinates a; drift and phys are the step's."""
    hs = stepper.hs_sq(a, phys) if with_hs else np.zeros(a.shape[:-1])
    return {**_coord_rows(stepper.frame, a, drift), "noise_work": noise_work, "hs_sq": hs}


ORACLE_TOL = 1e-12  # relative error allowed against the direct-convolution oracle


def oracle_levels(grid: TorusGrid) -> tuple[int, ...]:
    """Levels the oracle checks on grid: 8, 16 and max_level(grid), clipped to the top."""
    top = max_level(grid)
    return tuple(sorted({min(n, top) for n in (8, 16, top)}))


def drift_oracle_error(u: SpectralField, n: int) -> float:
    """Largest relative error of the solvers' level-n drift of P_n u against the oracle.

    The subject is det._drift at max_level(grid) and _Stepper.drift, which
    advects on the level's quadrature grid, below it.  The reference is
    -P_n(u.grad u) by direct convolution (spectral.nonlinear_term_oracle)
    in the level's frame; a zero reference checks nothing and reads inf.
    """
    grid = u.grid
    frame = GalerkinFrame(grid, n)
    a = frame.coords(u.coeffs)
    ref = -frame.coords(spectral.nonlinear_term_oracle(SpectralField(grid, frame.lift(a))).coeffs)
    if n == max_level(grid):
        drift = det._drift(a, frame)  # looked up per call, as a test may replace it
    else:
        stepper = _Stepper(grid, NoiseModel(), SdeConfig(galerkin_n=n))
        drift = stepper.drift(a, stepper.synth(a))
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(drift - ref))) / scale if scale > 0.0 else np.inf


@dataclass
class BatchedRun:
    t: np.ndarray
    diag: dict[str, np.ndarray]  # each (n_steps+1, B)
    final: np.ndarray            # (B, n) coordinates
    frame: GalerkinFrame         # lifts coordinates to coefficients


def draw_increments(model: NoiseModel, cfg: SdeConfig,
                    paths: Sequence[int]) -> np.ndarray:
    """Wiener increments of one trajectory per index in paths, step-major.

    Shape (n_steps, B, n_modes), B = len(paths): column j holds the stream
    (cfg.seed, paths[j]) of sample_wiener_increment, and a repeated index
    repeats its path, drawn once and copied.  Paths are drawn a block at a
    time, as many whole (n_steps, n_modes) paths as fit in BLOCK_BYTES (at
    least one), each into its contiguous row of the block, and the block
    goes into its columns in one transposed copy.  A model with no
    non-zero channel draws nothing (n_modes = 0), as its noise increments
    are exact zeros.
    """
    n_modes = 0 if model.is_zero else model.n_modes
    distinct = list(dict.fromkeys(paths))
    if len(distinct) < len(paths):
        where = {j: col for col, j in enumerate(distinct)}
        return np.take(draw_increments(model, cfg, distinct), [where[j] for j in paths], axis=1)
    n_steps = cfg.n_steps
    increments = np.empty((n_steps, len(distinct), n_modes))
    if n_modes:
        width = max(1, BLOCK_BYTES // (8 * n_steps * n_modes))
        block = np.empty((min(width, len(distinct)), n_steps, n_modes))
        for start in range(0, len(distinct), width):
            chunk = distinct[start:start + width]
            for row, j in enumerate(chunk):
                sample_wiener_increment(n_modes, n_steps, cfg.dt, cfg.seed, j, out=block[row])
            increments[:, start:start + len(chunk)] = block[:len(chunk)].swapaxes(0, 1)
    return increments


def _run_batched(coeffs0: np.ndarray, grid: TorusGrid, model: NoiseModel,
                 cfg: SdeConfig, increments: np.ndarray, with_diag: bool = True,
                 with_hs: bool = True, on_step=None) -> BatchedRun:
    """Advance one trajectory per column of increments.

    increments is step-major, (n_steps, B, n_modes), as draw_increments
    returns it; step i reads the slab increments[i].  coeffs0 holds
    Hermitian initial coefficients, (2, n1, n2) shared by every row or
    (B, 2, n1, n2).  The batch is projected to the level-n coordinates and
    stepped there; final and on_step see (B, n) coordinates.  The noise
    pairing noise_work is formed only when with_diag records it, over the
    columns stepper.span the increment touches, as is the increment's
    addition.  Additive increments are formed a slab of steps at a time,
    as many as fit in BLOCK_BYTES (at least one); a multiplicative
    sigma(u) reads the step's state, one step at a time.  with_hs adds
    the Hilbert-Schmidt column hs_sq, one more sigma(u) evaluation per
    channel and row; it reads 0 when left out.
    """
    stepper = _Stepper(grid, model, cfg)
    frame = stepper.frame
    n_steps = cfg.n_steps
    dt = cfg.dt
    bsize = increments.shape[1]
    a = np.broadcast_to(frame.coords(coeffs0), (bsize, frame.n))
    diag = {name: np.zeros((n_steps + 1, bsize)) for name in DIAG_NAMES} if with_diag else {}

    def record(i: int, noise_work: np.ndarray, drift: np.ndarray | float | None,
               phys: np.ndarray | None) -> None:
        if with_diag:
            for name, value in _diag_row(stepper, a, drift, noise_work, with_hs, phys).items():
                diag[name][i] = value
        if on_step is not None:
            on_step(i, a)

    l2_0 = spectral.max_sq_norm(a)
    # the integrating factor tiled to the batch: a (B, n) x (n,) product
    # runs one inner loop of length n per row, a (B, n) x (B, n) one loop
    ef = np.tile(stepper.ef, (bsize, 1))
    span = stepper.span  # the increment's columns; the rest get no noise
    if stepper.additive is not None:  # steps per slab of additive increments
        slab = max(1, BLOCK_BYTES // max(1, 8 * bsize * stepper.span_channels.shape[1]))
    work = np.zeros(bsize)
    for i in range(n_steps + 1):
        # one synthesis and one advection per state feed its row and its step
        shared = i < n_steps or with_diag
        phys = stepper.synth(a) if shared else None
        drift = stepper.drift(a, phys) if shared else None
        record(i, work, drift, phys)
        if i == n_steps:
            break
        if stepper.additive is None:
            sig = stepper.noise_increment(increments[i], a, phys)
        else:
            if i % slab == 0:
                sigs = stepper.noise_increment(increments[i:i + slab], a, phys)
            sig = sigs[i % slab]
        if with_diag:  # only the next diagnostic row reads the pairing
            work = np.sum(sig * a[:, span], axis=-1)
        a = a + dt * drift  # a new array: on_step may hold the previous state
        a[:, span] += sig
        a *= ef
        spectral.check_rows(a, l2_0, t_last=i * dt, guard=cfg.blowup_factor)

    return BatchedRun(t=cfg.times, diag=diag, final=a, frame=frame)


@dataclass
class WeightedSeries:
    """Damped vertical-energy series built from recorded diagnostics.

    big_c and c_emp_sup are per path: scalars for one path, (B,) arrays for
    (n_steps+1, B) columns.
    """

    big_c: float | np.ndarray
    c_emp_sup: float | np.ndarray
    h: np.ndarray
    weighted_h01: np.ndarray
    int_weighted_h11: np.ndarray


def weighted_h01_series(t: np.ndarray, diag: dict[str, np.ndarray],
                        alpha_tilde: float = YOUNG_WEIGHT) -> WeightedSeries:
    """Damping exponent h(t) = 2 C(alpha) int ||d1 u||^2 and its weighted norms.

    C(alpha) = young_h01(sup(c_emp), alpha) = sup(c_emp)^2 / (4 alpha)
    converts the realized trilinear constant through Young's inequality
    with weight alpha on ||d1 d2 u||^2, and weights ||u||^2 + ||d2 u||^2 and
    ||u||^2_{H^{1,1}}, the sum of the four recorded norms, as its weight is
    (1 + k1^2)(1 + k2^2).  diag holds the DIAG_NAMES columns over t on axis 0:
    (n_steps+1,) for one path or (n_steps+1, B) for a batch, each path with
    its own sup and C(alpha).
    """
    steps = np.diff(t)
    l2, d1, d2, d1d2 = (diag[name] for name in ("l2_sq", "d1_sq", "d2_sq", "d1d2_sq"))
    _, c_sup, big_c, h = absorb(diag["cross"], np.sqrt(d1d2 * d1 * d2), d1, steps,
                                young_h01, alpha_tilde)
    return WeightedSeries(big_c=big_c, c_emp_sup=c_sup, h=h, weighted_h01=np.exp(-h) * (l2 + d2),
                          int_weighted_h11=cumulative_trapezoid(
                              np.exp(-h) * (l2 + d1 + d2 + d1d2), steps))


def run_sde(u0: SpectralField, model: NoiseModel, cfg: SdeConfig) -> Trajectory:
    """Single stochastic trajectory with full diagnostics (DIAG_NAMES).

    The path uses trajectory index 0 of the seed's increment stream; u0
    must be Hermitian.
    """
    run = _run_batched(u0.coeffs, u0.grid, model, cfg, draw_increments(model, cfg, (0,)))
    diag = {name: col[:, 0] for name, col in run.diag.items()}
    return Trajectory(config=cfg, t=run.t, diag=diag, final_coords=run.final[0], frame=run.frame)


@dataclass
class ItoAuditReport:
    """Mean energy identity audit.

    balance_mean tests E[ ||u(T)||^2 - ||u0||^2 + 2 int ||d1 u||^2 ]
    against int E ||P_n sigma Pi_n||_HS^2 dt; work_mean tests that the
    martingale pairing 2 sum (sigma dW, u_pre) is centered.
    """

    balance_mean: float
    balance_se: float
    quad_mean: float
    work_mean: float
    work_se: float
    passed: bool


def ito_isometry_audit(u0: SpectralField, model: NoiseModel, cfg: SdeConfig,
                       n_paths: int) -> ItoAuditReport:
    """Check the discrete energy balance against the quadratic variation."""
    run = _run_batched(u0.coeffs, u0.grid, model, cfg,
                       draw_increments(model, cfg, range(n_paths)))
    dt = cfg.dt
    int_d1 = cumulative_trapezoid(run.diag["d1_sq"], dt)[-1]
    balance = run.diag["l2_sq"][-1] - run.diag["l2_sq"][0] + 2.0 * int_d1
    quad = np.sum(run.diag["hs_sq"][:-1] * dt, axis=0)  # left Riemann sum
    work = 2.0 * np.sum(run.diag["noise_work"], axis=0)
    resid = balance - quad
    resid_mean = float(np.mean(resid))
    resid_se = float(np.std(resid, ddof=1) / np.sqrt(n_paths))
    work_mean = float(np.mean(work))
    work_se = float(np.std(work, ddof=1) / np.sqrt(n_paths))
    # O(dt) scheme bias allowance on top of the statistical band
    bias = dt * (float(np.mean(quad)) + 2.0 * float(np.mean(int_d1)) + 1.0)
    ok = (abs(resid_mean) <= N_SE * max(resid_se, 1e-300) + bias
          and abs(work_mean) <= N_SE * max(work_se, 1e-300) + bias)
    return ItoAuditReport(balance_mean=float(np.mean(balance)), balance_se=resid_se,
                          quad_mean=float(np.mean(quad)), work_mean=work_mean,
                          work_se=work_se, passed=bool(ok))


def pathwise_uniqueness_experiment(u0: SpectralField, v0: SpectralField,
                                   model: NoiseModel, cfg: SdeConfig,
                                   tol: float = GAP_TOL,
                                   eta: float = DEFAULT_ETA) -> GapReport:
    """Drive two solutions with the same Wiener path and audit their gap.

    Identical inputs must stay bitwise identical: both rows of the batch see
    the same increments and the same arithmetic.  For distinct inputs the
    difference w = u - v is tested against

        exp(-q(t)) ||w(t)||^2 <= ||w(0)||^2 exp(G(t)) (1 + tol),

    where q(t) = int 2 C(alpha) (||d1 u||^{2/3} + ||d2 u||^{2/3})
    ||d1 d2 u||^{2/3} ds absorbs the advection coupling through the
    run-measured trilinear constant c1 (Young weight alpha = alpha_tilde,
    C(alpha) = young_gap(c1, alpha) = (3/4) (2 alpha)^{-1/3} c1^{4/3}), and
    G(t) = (1 + 4/BETA_HAT) L1 t is the Gronwall factor of the Lipschitz
    channel of the noise; the dissipation margin 2 - 2 alpha - L2 > 0 and
    the martingale fluctuation are covered by the slack.  L1 is taken with
    the Peter-Paul split eta of the noise gates.  The report's q is the
    absorbed exponent above and its growth is G(t).
    """
    qgrid = quadrature_grid(u0.grid, cfg.galerkin_n)  # the gap's drift is alias-free there
    audit = _GapAudit(GalerkinFrame(qgrid, cfg.galerkin_n), cfg, base=0)
    # path 0 twice, drawn once: both rows see the same increments
    _run_batched(np.stack((u0.coeffs, v0.coeffs)), u0.grid, model, cfg,
                 draw_increments(model, cfg, (0, 0)), with_diag=False, on_step=audit.record)
    growth = (1.0 + 4.0 / BETA_HAT) * condition_c_bounds(model, eta=eta).l1 * audit.t
    return audit.report(cfg.alpha_tilde, growth, tol)


# ---------------------------------------------------------------------------
# single-mode validation against the exact linear-SDE law


def single_mode_noise(grid: TorusGrid, mode: tuple[int, int], s: float) -> NoiseModel:
    """Additive one-channel model whose projected channel is s * e_mode.

    Realized through b_1 = a cos(k.x) acting on g = 1: the Leray projection
    of a cos(k.x) (1, 1) is a cos(k.x) (k_perp.(1,1)/|k|) k_perp/|k|, which
    is parallel to the cosine basis element; needs k1 != k2.
    """
    k1, k2 = int(mode[0]), int(mode[1])
    if k1 == k2:
        raise ValueError("mode with k1 == k2 projects to zero; pick k1 != k2")
    knorm = float(np.hypot(k1, k2))
    a = s * knorm / ((k1 - k2) * np.sqrt(2.0) * np.pi)
    return NoiseModel(c=(ScalarRecipe(()),), b=(ScalarRecipe(((a, k1, k2, "cos"),)),))


@dataclass
class OuModeReport:
    mode: tuple[int, int]
    second_moment: float
    exact: float
    se: float
    allowance: float
    n_paths: int
    passed: bool


def _mode_law(mode: tuple[int, int], s: float, m0: float, n_paths: int, cfg: SdeConfig,
              batch: int = 2500) -> OuModeReport:
    """Second moment of the driven amplitude at t_end against its exact law.

    The amplitude is the coordinate along the cosine element of the mode's
    pair, the element single_mode_noise drives; every path starts there at
    sqrt(m0).  The grid is the square one of side 4 max(1, |k1|, |k2|).
    The damped law (k1 != 0) gets an O(dt) discretization allowance on top
    of N_SE standard errors; the undamped one is exact.
    """
    if not cfg.drop_nonlinearity:
        raise ValueError("single-mode law requires drop_nonlinearity=True")
    side = 4 * max(1, abs(mode[0]), abs(mode[1]))
    grid = TorusGrid(side, side)
    model = single_mode_noise(grid, mode, s)
    frame = GalerkinFrame(grid, cfg.galerkin_n)
    col = frame.column(mode if is_canonical(mode) else (-mode[0], -mode[1]))
    a0 = np.zeros(frame.n)
    a0[col] = np.sqrt(m0)
    u0 = frame.lift(a0)
    finals = np.zeros(n_paths)
    for done in range(0, n_paths, batch):
        paths = range(done, min(done + batch, n_paths))
        run = _run_batched(u0, grid, model, cfg, draw_increments(model, cfg, paths),
                           with_diag=False)
        finals[done:paths.stop] = run.final[:, col]

    lam = float(mode[0]) ** 2
    t = cfg.n_steps * cfg.dt
    sq = finals ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / np.sqrt(n_paths))
    if lam > 0.0:
        decay = np.exp(-2.0 * lam * t)
        exact = decay * m0 + s ** 2 * (1.0 - decay) / (2.0 * lam)
        allowance = N_SE * se + s ** 2 * cfg.dt + 2.0 * lam * cfg.dt * m0
    else:
        exact = s ** 2 * t
        allowance = N_SE * se
    return OuModeReport(mode=tuple(mode), second_moment=est, exact=float(exact), se=se,
                        allowance=float(allowance), n_paths=n_paths,
                        passed=bool(abs(est - exact) <= allowance))


def ou_mode_validation(mode: tuple[int, int], s: float, m0: float, n_paths: int,
                       cfg: SdeConfig) -> OuModeReport:
    """Monte Carlo check of the damped single-mode law.

    With the nonlinearity dropped and one additive channel on the cosine
    element of `mode`, the amplitude follows da = -k1^2 a dt + s dB, so

        E a(t)^2 = exp(-2 k1^2 t) a(0)^2 + s^2 (1 - exp(-2 k1^2 t)) / (2 k1^2).

    Pass: sample second moment within N_SE standard errors plus an s^2 dt
    discretization allowance.  Rejects k1 = 0 (no damping; see
    undamped_mode_validation for the linear-growth case).
    """
    if mode[0] == 0:
        raise ValueError("mode with k1 = 0 is undamped; use undamped_mode_validation")
    return _mode_law(mode, s, m0, n_paths, cfg)


def undamped_mode_validation(mode: tuple[int, int], s: float, n_paths: int,
                             cfg: SdeConfig) -> OuModeReport:
    """Growth case k1 = 0: the driven amplitude is a random walk.

    Var a(t) = s^2 t exactly for the discrete scheme as well, since the
    integrating factor is 1 on undamped modes.
    """
    if mode[0] != 0:
        raise ValueError("growth case needs k1 = 0")
    return _mode_law(mode, s, 0.0, n_paths, cfg)
