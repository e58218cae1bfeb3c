"""Euler-Maruyama stepping with exact horizontal-viscosity flow.

The Galerkin system evolves inside the span of the first n divergence-free
basis elements:

    u+ = exp(L dt) ( u + dt P_n P(-u.grad u) + P_n sigma(u) dW ),

with L = -k1^2 applied exactly.  The engine steps the n real coordinates
of the state in that basis (basis.GalerkinFrame), batched over
trajectories as (B, n) arrays, through the one step loop of both engines,
det._march: _Stepper.march hands it the drift and the Euler-Maruyama step
of a level, and its consumers (_run_batched's diagnostic rows, the
pathwise gap audit) see every state as (B, n) coordinates, which the
frame lifts to coefficients where a caller needs a field.  Every element
is an eigenfunction of d1^2 and d2^2, so exp(L dt), P_n, additive noise
and every diagnostic norm act on the coordinates directly, and so do the
transport channels c_k d1 u of sigma(u), through a fixed table per level
(noise._transport_table).  Only the advection and a b g(u) that depends
on u (noise.sigma_coords) need grid samples of the state, synthesized
once per step: the velocity u, whose products 2 u1 u2 and u2^2 - u1^2
give the advection in its divergence form (basis.GalerkinFrame), and
whose componentwise g(u) the b-channels multiply.  The advection runs on
the level's quadrature grid, the smallest alias-free grid holding its
wavevectors (basis.quadrature_grid); such a g(u) is not band-limited, so
with it the samples come from the configured grid instead.  Every array
of the samples' size that a step writes (the samples, the advection's
products, sigma(u)'s samples and b-channel sums, and the packed spectra
of their transforms) lives in one workspace per run, allocated once for
the run's batch (_Stepper) and overwritten by every step; the states the
march yields are never workspace arrays.
Initial coefficients must be Hermitian.
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
the march forms additive increments a slab of BLOCK_BYTES //
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
from .det import Clock, GapReport, Trajectory, _coord_rows, _GapAudit
from .noise import (
    DEFAULT_ETA,
    NoiseModel,
    ScalarRecipe,
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
MODE_LAW_BATCH = 2500  # paths per engine call of the single-mode law


@dataclass
class SdeConfig(Clock):
    galerkin_n: int = 8
    seed: int = 0
    drop_nonlinearity: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.galerkin_n < 1:
            raise ValueError("galerkin_n must be >= 1")


class _Stepper:
    """Precomputed batched update for one (grid, model, config) triple.

    States are (B, n) coordinates in the level-n frame.  drift synthesizes
    the packed samples u1 + i u2 of a state on the quadrature grid qgrid
    (qframe.synth) and keeps them as phys, which noise_increment and hs_sq
    read for the same state.  qgrid is the level's smallest alias-free grid
    (basis.quadrature_grid), which gives the advection coordinates of the
    configured grid up to rounding.  A
    sigma(u) whose b g(u) depends on u is not band-limited, so for it
    qgrid is the configured grid; its c-channels act on the coordinates
    (noise._transport_table), and the channels of a constant b g(u) are
    read off the recipes (noise._additive_coords), so no other noise
    samples the state.  The structure of sigma is read from these parts
    (noise._sigma_parts) alone: with no transport channel and no sampled
    b-channel sigma is additive, and additive holds the parts' constant
    rows, none without noise (NoiseModel(), or a zero model), whose
    increments are exact zeros.

    Built for a batch of B states (the engine's _run_batched), the stepper
    holds the workspace its layers write into, allocated once and
    overwritten by every step, so a step makes no array of the samples'
    size: z, (B, q1, q2) complex, the packed samples u1 + i u2 of phys;
    w, of the same shape, the advection's products, which the drift's
    analysis consumes, and then a sampled sigma(u)'s samples
    g(u) sum_k y_k b_k; spec, (B, m, q1) complex, the packed spectrum of
    each of those transforms (GalerkinFrame.synth, analyse); and, only
    when b g(u) samples the state, sums, the two (B, q1, q2) float arrays
    of its b-channel sum and per-channel product.  So phys lives until the
    next drift, and what drift, noise_increment and hs_sq return (the
    state's coordinates, never the workspace) stays the caller's.  hs_sq,
    whose channel axis widens the samples, and a stepper built without a
    batch allocate each array they write.

    span is the slice of columns a noise increment touches: every column
    for a sigma(u) that depends on u; for additive noise, the first to the
    last column where a channel coordinate is non-zero, and span_channels
    holds the channels there, (n_modes, len(span)).  A single-mode channel
    touches one column, and a zero model none.  additive keeps the dense
    (n_modes, n) channels, which hs_sq reads.
    """

    def __init__(self, grid: TorusGrid, model: NoiseModel, cfg: SdeConfig,
                 batch: int | None = None):
        if cfg.galerkin_n > max_level(grid):
            raise ValueError(
                f"galerkin_n={cfg.galerkin_n} exceeds the {max_level(grid)} basis "
                f"elements of the {grid.n1}x{grid.n2} grid"
            )
        self.model = model
        self.cfg = cfg
        self.frame = GalerkinFrame(grid, cfg.galerkin_n)
        self.ef = np.exp(-cfg.dt * self.frame.k1sq)
        self.parts = _sigma_parts(model, self.frame)
        (channels, _, _), (b_channels, _), const = self.parts
        sampled = len(b_channels) > 0
        # the (rows, n) constant coordinates of a sigma that does not depend on u
        self.additive = None if sampled or len(channels) else const
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
        self.z = self.w = self.spec = self.phys = None  # the workspace; see the class docstring
        self.sums = (None, None)
        if batch is not None and self.needs_phys:
            q = (batch, self.qgrid.n1, self.qgrid.n2)
            self.z = np.empty(q, dtype=np.complex128)
            self.w = np.empty(q, dtype=np.complex128)
            self.spec = np.empty((batch, 2 * self.qframe.reach2 + 1, self.qgrid.n1),
                                 dtype=np.complex128)
            if sampled:
                self.sums = (np.empty(q), np.empty(q))

    def drift(self, a: np.ndarray) -> np.ndarray | float:
        """Coordinates of -P_n (u.grad u); keeps the samples of a as phys.

        Without the nonlinearity the drift is the scalar 0.0, which
        broadcasts against a.
        """
        self.phys = self.qframe.synth(a, self.z, self.spec) if self.needs_phys else None
        if self.cfg.drop_nonlinearity:
            return 0.0
        return self.qframe.analyse(spectral._advection_raw(self.phys, self.w),
                                   self.qframe.drift_weights, self.spec)

    def noise_increment(self, dw: np.ndarray, a: np.ndarray | None) -> np.ndarray:
        """Coordinates of P_n sigma(u) dW in the columns span; dw has shape (B, n_modes).

        a is the state, whose samples the last drift kept.  Every coordinate
        outside span is an exact zero, and the step adds only the
        (B, len(span)) increment returned.  Additive increments do not
        depend on the state, so for them dw may also be a slab of steps,
        (D, B, n_modes), which gives the (D, B, len(span)) increments of
        all D steps at once.
        """
        if self.additive is not None:
            return _channel_sum(dw, self.span_channels)
        return sigma_coords(self.model, self.frame, a, self.phys, dw, self.parts,
                            self.w, self.spec, self.sums)

    def hs_sq(self, a: np.ndarray) -> np.ndarray:
        """||P_n sigma(u) Pi||_HS^2 per batch entry of a, whose samples the last drift kept."""
        lead = a.shape[:-1]
        if self.additive is not None:
            return np.full(lead, float(np.sum(self.additive ** 2)))
        # all channels at once: a channel axis before the coordinates and the samples
        chans = sigma_coords(self.model, self.frame, a[..., None, :],
                             None if self.phys is None else self.phys[..., None, :, :],
                             np.eye(self.model.n_modes), self.parts)
        return np.sum(chans ** 2, axis=(-2, -1))

    def march(self, coeffs0: np.ndarray, increments: np.ndarray):
        """det._march of one trajectory per column of increments, (n_steps, B, n_modes).

        coeffs0 holds Hermitian initial coefficients, (2, n1, n2) shared by
        every row or (B, 2, n1, n2), projected to the level's coordinates.
        The step is a + dt drift, then + sig on span, then exp(L dt).  Step i
        reads the slab increments[i]; additive increments, which do not
        depend on the state, are formed a slab of steps per noise_increment
        call, as many as fit in BLOCK_BYTES (at least one).
        """
        bsize, dt, span = increments.shape[1], self.cfg.dt, self.span
        # the integrating factor tiled to the batch: a (B, n) x (n,) product
        # runs one inner loop of length n per row, a (B, n) x (B, n) one loop
        ef = np.tile(self.ef, (bsize, 1))

        def step(a: np.ndarray, drift: np.ndarray | float, sig: np.ndarray) -> np.ndarray:
            a = a + dt * drift
            a[:, span] += sig
            a *= ef
            return a

        if self.additive is not None:
            slab = max(1, BLOCK_BYTES // max(1, 8 * bsize * self.span_channels.shape[1]))
            sigs = (sig for i in range(0, len(increments), slab)
                    for sig in self.noise_increment(increments[i:i + slab], None))

        def noise(i: int, a: np.ndarray) -> np.ndarray:
            return self.noise_increment(increments[i], a) if self.additive is None else next(sigs)

        a0 = np.broadcast_to(self.frame.coords(coeffs0), (bsize, self.frame.n))
        return det._march(a0, self.cfg, self.drift, step, noise)


def _diag_row(stepper: _Stepper, a: np.ndarray, drift: np.ndarray, noise_work: np.ndarray,
              with_hs: bool) -> dict[str, np.ndarray]:
    """Diagnostics of a batch of coordinates a, whose drift the march handed over."""
    hs = stepper.hs_sq(a) if with_hs else np.zeros(a.shape[:-1])
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
        drift = _Stepper(grid, NoiseModel(), SdeConfig(galerkin_n=n)).drift(a)
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
                 with_hs: bool = True) -> BatchedRun:
    """Advance one trajectory per column of increments and record its diagnostic rows.

    coeffs0 and increments are as in _Stepper.march; the rows read its
    (B, n) states, and final holds the last.  The noise pairing
    noise_work is formed only when with_diag records it, over the columns
    stepper.span the increment touches.  with_hs adds the Hilbert-Schmidt
    column hs_sq, one more sigma(u) evaluation per channel and row; it
    reads 0 when left out.  The stepper is built for the batch, so the
    step writes its samples, products and spectra into one workspace for
    the whole call (_Stepper).
    """
    bsize = increments.shape[1]
    stepper = _Stepper(grid, model, cfg, bsize)
    diag = {name: np.zeros((cfg.n_steps + 1, bsize)) for name in DIAG_NAMES} if with_diag else {}
    work = np.zeros(bsize)
    for i, a, drift, sig in stepper.march(coeffs0, increments):
        if with_diag:
            for name, value in _diag_row(stepper, a, drift, work, with_hs).items():
                diag[name][i] = value
            if sig is not None:  # only the next row reads the pairing
                work = np.sum(sig * a[:, stepper.span], axis=-1)
    return BatchedRun(t=cfg.times, diag=diag, final=a, frame=stepper.frame)


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


def weighted_h01_series(t: np.ndarray, diag: dict[str, np.ndarray]) -> WeightedSeries:
    """Damping exponent h(t) = 2 C int ||d1 u||^2 and its weighted norms.

    C = young_h01(sup(c_emp), YOUNG_WEIGHT) = sup(c_emp)^2 / 2 converts the
    realized trilinear constant through Young's inequality with weight
    YOUNG_WEIGHT = 1/2 on ||d1 d2 u||^2, the weight of the deterministic
    h01 bound (det.h01_certificate), and weights ||u||^2 + ||d2 u||^2 and
    ||u||^2_{H^{1,1}}, the sum of the four recorded norms, as its weight is
    (1 + k1^2)(1 + k2^2).  diag holds the DIAG_NAMES columns over t on axis 0:
    (n_steps+1,) for one path or (n_steps+1, B) for a batch, each path with
    its own sup and C.
    """
    steps = np.diff(t)
    l2, d1, d2, d1d2 = (diag[name] for name in ("l2_sq", "d1_sq", "d2_sq", "d1d2_sq"))
    _, c_sup, big_c, h = absorb(diag["cross"], np.sqrt(d1d2 * d1 * d2), d1, steps,
                                young_h01, YOUNG_WEIGHT)
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
                                   eta: float = DEFAULT_ETA) -> GapReport:
    """Drive two solutions with the same Wiener path and audit their gap.

    Identical inputs must stay bitwise identical: both rows of the batch see
    the same increments and the same arithmetic.  For distinct inputs the
    difference w = u - v is tested against

        exp(-q(t)) ||w(t)||^2 <= ||w(0)||^2 exp(G(t)) (1 + GAP_TOL),

    where q(t) = int 2 C (||d1 u||^{2/3} + ||d2 u||^{2/3})
    ||d1 d2 u||^{2/3} ds absorbs the advection coupling through the
    run-measured trilinear constant c1 (Young weight alpha = YOUNG_WEIGHT
    and slack GAP_TOL, as in the deterministic audit, so
    C = young_gap(c1, alpha) = (3/4) c1^{4/3}), and
    G(t) = (1 + 4/BETA_HAT) L1 t is the Gronwall factor of the Lipschitz
    channel of the noise; the dissipation margin 2 - 2 alpha - L2 > 0 and
    the martingale fluctuation are covered by the slack.  L1 is taken with
    the Peter-Paul split eta of the noise gates.  The report's q is the
    absorbed exponent above and its growth is G(t).
    """
    qgrid = quadrature_grid(u0.grid, cfg.galerkin_n)  # the gap's drift is alias-free there
    audit = _GapAudit(GalerkinFrame(qgrid, cfg.galerkin_n), cfg, base=0)
    # path 0 twice, drawn once: both rows see the same increments
    march = _Stepper(u0.grid, model, cfg, 2).march(np.stack((u0.coeffs, v0.coeffs)),
                                                   draw_increments(model, cfg, (0, 0)))
    for i, pair, _, _ in march:
        audit.record(i, pair)
    growth = (1.0 + 4.0 / BETA_HAT) * condition_c_bounds(model, eta=eta).l1 * audit.t
    return audit.report(growth)


# ---------------------------------------------------------------------------
# single-mode validation against the exact linear-SDE law


def single_mode_noise(mode: tuple[int, int], s: float) -> NoiseModel:
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


def _mode_law(mode: tuple[int, int], s: float, m0: float, n_paths: int,
              cfg: SdeConfig) -> OuModeReport:
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
    model = single_mode_noise(mode, s)
    frame = GalerkinFrame(grid, cfg.galerkin_n)
    col = frame.column(mode if is_canonical(mode) else (-mode[0], -mode[1]))
    a0 = np.zeros(frame.n)
    a0[col] = np.sqrt(m0)
    u0 = frame.lift(a0)
    finals = np.zeros(n_paths)
    for done in range(0, n_paths, MODE_LAW_BATCH):
        paths = range(done, min(done + MODE_LAW_BATCH, n_paths))
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
