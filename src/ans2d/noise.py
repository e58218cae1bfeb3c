"""Multiplicative noise family, Wiener sampling, and well-posedness gates.

The diffusion maps a Wiener increment with components y_k to

    sigma(u) y = sum_k ( c_k(x) d1 u + b_k(x) g(u) ) y_k

followed by the projection P_n onto the span of the first n basis
elements; sigma_coords gives its n coordinates, which the SDE engine (for
a sigma that depends on u) and condition_c_empirical_check share.  The
transport part P_n (c_k d1 u) is a fixed sparse linear map of the state's
coordinates, applied through a gather table read off the recipes
(_transport_table); only a b g(u) that depends on u is sampled on the
grid and analysed.  The c_k, b_k are finite trigonometric recipes; g acts
componentwise, is bounded and Lipschitz.  The budgets the recipes need:

    M1 = sum_k (sup|c_k| + sup|d1 c_k| + sup|d2 c_k|)^2
    M2 = max( sum_k (sup|b_k|)^2, sum_k (sup|d2 b_k|)^2 )
    Cg = max(sup|g|, Lip(g))

Growth and Lipschitz constants are derived from the budgets with a
Peter-Paul split eta; the derivations are generous (validity over
sharpness), while the gate thresholds compare the pinned constants
K2 = (1+eta) M1, Kt2 = 2 (1+eta) M1, L2 = (1+eta) M1 directly.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .basis import GalerkinFrame, max_level
from .norms import NormReport, norm_rows
from .spectral import SpectralField, TorusGrid

EXISTENCE_K2_LIMIT = 2.0 / 11.0
EXISTENCE_KT2_LIMIT = 2.0 / 5.0
UNIQUENESS_L2_LIMIT = 2.0 / 5.0
DEFAULT_ETA = 0.1  # Peter-Paul split weight of the growth and Lipschitz constants

_TERM_RE = re.compile(
    r"(?P<sign>[+-])?\s*(?P<amp>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:\s*\*\s*(?P<phase>cos|sin)\(\s*(?P<k1>-?\d+)\s*,\s*(?P<k2>-?\d+)\s*\))?\s*"
)


@dataclass(frozen=True)
class ScalarRecipe:
    """Finite trigonometric polynomial: sum of amp * {cos,sin}(k . x) terms.

    A bare constant is stored as amp * cos(0.x).
    """

    terms: tuple[tuple[float, int, int, str], ...] = ()

    @staticmethod
    def parse(text: str) -> "ScalarRecipe":
        s = text.strip()
        if not s:
            return ScalarRecipe(())
        terms = []
        pos = 0
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if m is None:
                raise ValueError(f"cannot parse recipe at {s[pos:]!r}")
            if pos > 0 and m.group("sign") is None:
                raise ValueError(f"missing +/- before {s[pos:]!r}")
            amp = float((m.group("sign") or "") + m.group("amp"))
            if m.group("phase") is None:
                terms.append((amp, 0, 0, "cos"))
            else:
                terms.append((amp, int(m.group("k1")), int(m.group("k2")), m.group("phase")))
            pos = m.end()
        return ScalarRecipe(tuple(terms))

    def evaluate(self, grid: TorusGrid) -> np.ndarray:
        x1 = grid.x1[:, None]
        x2 = grid.x2[None, :]
        out = np.zeros((grid.n1, grid.n2))
        for amp, k1, k2, phase in self.terms:
            angle = k1 * x1 + k2 * x2
            out += amp * (np.cos(angle) if phase == "cos" else np.sin(angle))
        return out

    @property
    def is_zero(self) -> bool:
        return all(amp == 0.0 for amp, *_ in self.terms)

    def sup_bound(self) -> float:
        """Rigorous bound on sup |recipe|: sum of |amplitudes|."""
        return float(sum(abs(a) for a, *_ in self.terms))

    def sup_bound_d(self, axis: int) -> float:
        return float(sum(abs(a * (k1 if axis == 1 else k2))
                         for a, k1, k2, _ in self.terms))


# g kind -> (g, sup|g|, Lip(g))
G_FUNCS = {
    "one": (lambda x: np.ones_like(x), 1.0, 0.0),
    "zero": (lambda x: np.zeros_like(x), 0.0, 0.0),
    "tanh": (np.tanh, 1.0, 1.0),
    "sin": (np.sin, 1.0, 1.0),
}


def _g_funcs(kind: str):
    if kind not in G_FUNCS:
        raise ValueError(f"unknown g kind {kind!r}; choose from {sorted(G_FUNCS)}")
    return G_FUNCS[kind]


# (channel indices, their (len, n1, n2) samples) of the b recipes; see NoiseModel.b_fields
Channels = tuple[np.ndarray, np.ndarray]


def _sum_sq(what: str, values) -> float:
    """The sum of squares what; ValueError when it is not a finite number."""
    try:
        total = sum(v ** 2 for v in values)
    except OverflowError:  # float ** raises where a product would give inf
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"{what} = {total!r}: amplitudes and their squares must be finite")
    return total


def required_budgets(c: Sequence[ScalarRecipe], b: Sequence[ScalarRecipe]
                     ) -> tuple[float, float]:
    """Smallest budgets (M1, M2) the recipes allow, as in the module docstring; both finite."""
    m1 = _sum_sq("c recipes need M1", (r.sup_bound() + r.sup_bound_d(1) + r.sup_bound_d(2)
                                       for r in c))
    m2 = max(_sum_sq("b recipes need M2", (r.sup_bound() for r in b)),
             _sum_sq("b recipes need M2", (r.sup_bound_d(2) for r in b)))
    return m1, m2


@dataclass(frozen=True)
class NoiseModel:
    """Coefficient recipes and g; the budgets m1, m2 (required_budgets) and
    cg = max(sup|g|, Lip(g)) they need are computed at construction.
    NoiseModel(), with no channel, is the one value for no noise.
    """

    c: tuple[ScalarRecipe, ...] = ()
    b: tuple[ScalarRecipe, ...] = ()
    g_kind: str = "one"
    m1: float = field(init=False)
    m2: float = field(init=False)
    cg: float = field(init=False)

    def __post_init__(self):
        if len(self.c) != len(self.b):
            raise ValueError("c and b must list the same number of channels")
        _, g_sup, g_lip = _g_funcs(self.g_kind)
        m1, m2 = required_budgets(self.c, self.b)
        for name, value in (("m1", m1), ("m2", m2), ("cg", max(g_sup, g_lip))):
            object.__setattr__(self, name, value)  # the class is frozen

    @property
    def n_modes(self) -> int:
        return len(self.c)

    @property
    def is_zero(self) -> bool:
        return (all(r.is_zero for r in self.c)
                and (self.g_kind == "zero" or all(r.is_zero for r in self.b)))

    def g_eval(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """g(x), into out when given; out needs a ufunc g (tanh, sin), as every
        g that depends on u is."""
        g = _g_funcs(self.g_kind)[0]
        return g(x) if out is None else g(x, out=out)

    def check_band(self, grid: TorusGrid) -> None:
        """Raise ValueError for a recipe wavevector outside grid's alias-free band.

        Sampled on grid, such a term is not the declared noise: on 16
        points cos(9,0) samples as cos(7,0), outside the band, and projects
        to nothing, and cos(11,0) samples as the in-band cos(5,0), while
        the gates read the budgets of the recipes either way.
        """
        for recipe in self.c + self.b:
            for _, k1, k2, phase in recipe.terms:
                if abs(k1) > grid.band1 or abs(k2) > grid.band2:
                    raise ValueError(
                        f"{phase}({k1},{k2}) lies outside the alias-free band |k1| <= "
                        f"{grid.band1}, |k2| <= {grid.band2} of the {grid.n1}x{grid.n2} grid")

    def b_fields(self, grid: TorusGrid) -> Channels:
        """The b recipes sampled on grid, as (channels, samples).

        channels indexes the recipes whose samples are not all zero, and
        samples holds those, (len(channels), n1, n2): sigma adds only
        these, so a channel that make_model padded with an empty recipe,
        or a recipe that samples to zero, costs nothing per step.  The
        recipes are sampled on a grid here alone, so check_band guards
        it: an out-of-band recipe raises ValueError instead of stepping
        noise that is not the declared one.  The c recipes act on
        coordinates (_transport_table) and are never sampled.
        """
        self.check_band(grid)
        arr = np.array([r.evaluate(grid) for r in self.b]).reshape(len(self.b), grid.n1, grid.n2)
        channels = np.flatnonzero(np.any(arr != 0.0, axis=(1, 2)))
        return channels, arr[channels]


def make_model(c_recipes: Sequence[str], b_recipes: Sequence[str],
               g_kind: str = "one") -> NoiseModel:
    """Model from recipe strings, the shorter list padded with empty recipes."""
    c = tuple(ScalarRecipe.parse(s) for s in c_recipes)
    b = tuple(ScalarRecipe.parse(s) for s in b_recipes)
    n = max(len(c), len(b))
    empty = (ScalarRecipe(()),)
    return NoiseModel(c=c + empty * (n - len(c)), b=b + empty * (n - len(b)), g_kind=g_kind)


@functools.cache
def _philox() -> np.random.Generator:
    """The one Philox generator, re-keyed for every path; not safe to share between threads.

    Built on first use: importing the package does not load numpy.random.
    """
    return np.random.Generator(np.random.Philox(0))


def sample_wiener_increment(n_modes: int, n_steps: int, dt: float,
                            base_seed: int, traj_index: int = 0,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Pregenerated increments, shape (n_steps, n_modes), entries N(0, dt).

    The draws are made and scaled in place in out when given, else in a
    new array, and the array written is returned.  out must be a
    C-contiguous float64 (n_steps, n_modes) array, such as one path's row
    of a block of paths (sde.draw_increments); ValueError otherwise,
    before anything is drawn.

    Counter-based stream: each (base_seed, traj_index) pair keys an
    independent Philox stream, so paths are reproducible individually.  A
    Philox stream is its (key, counter) pair, so the call resets one
    generator to the state of a fresh Philox(key=(base_seed, traj_index)):
    counter 0 and an empty buffer.  That draws exactly the fresh
    generator's numbers, without building one (and the OS entropy its
    constructor gathers) per path.
    """
    if out is None:
        out = np.empty((n_steps, n_modes))
    elif not (out.flags.c_contiguous and out.dtype == np.float64):
        raise ValueError("out must be a C-contiguous float64 array")
    key = np.array([base_seed % 2 ** 64, traj_index % 2 ** 64], dtype=np.uint64)
    gen = _philox()
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                               "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    gen.standard_normal((n_steps, n_modes), out=out)
    out *= np.sqrt(dt)
    return out


def _channel_sum(y: np.ndarray, arr: np.ndarray, channels: Sequence[int] | None = None,
                 out: np.ndarray | None = None, term: np.ndarray | None = None) -> np.ndarray:
    """sum_k y[..., channels[k]] arr[k], for y of shape (..., n_modes) and arr (len, ...).

    channels defaults to every channel, range(len(arr)).  Added channel by
    channel: a BLAS product (tensordot, @) rounds differently for
    different batch shapes, so paths would no longer replay bit-for-bit
    across batch layouts.  The sum goes into out and each later channel's
    product into term when given (arrays of the sum's shape, such as a
    step's workspace), else into new arrays; the bits are the same.
    """
    if not len(arr):  # no channel (no noise, or a zero model): exact zeros
        return np.zeros(y.shape[:-1] + arr.shape[1:])
    if channels is None:
        channels = range(len(arr))
    tail = (None,) * (arr.ndim - 1)
    out = np.multiply(y[(..., channels[0]) + tail], arr[0], out=out)
    for k in range(1, len(arr)):
        out += np.multiply(y[(..., channels[k]) + tail], arr[k], out=term)
    return out


def _additive_coords(model: NoiseModel, frame: GalerkinFrame) -> np.ndarray:
    """(n_modes, n) coordinates of the fields b_k (1, 1), read off the recipes.

    amp cos(m.x) has coefficient amp/2 at m and -m, amp sin(m.x) -i amp/2 at m and i amp/2
    at -m; per pair, d . (1, 1) b_k^(kc) is the value frame._from_pairs encodes.  These are
    the channels of b g(u) for g = one, an additive sigma among them.
    """
    model.check_band(frame.grid)
    kc = frame.wavevectors[::2]
    beta = np.zeros((model.n_modes, len(kc)), dtype=np.complex128)
    for j, recipe in enumerate(model.b):
        for amp, m1, m2, phase in recipe.terms:
            at_m, at_minus_m = (0.5 * amp * np.all(kc == (s * m1, s * m2), axis=1) for s in (1, -1))
            beta[j] += at_m + at_minus_m if phase == "cos" else -1j * (at_m - at_minus_m)
    return frame._from_pairs(beta * (frame.dirs[0] + frame.dirs[1]))


# (channels, src, weight) of the c-channels in one frame; see _transport_table
_Table = tuple[np.ndarray, np.ndarray, np.ndarray]


def _transport_table(model: NoiseModel, frame: GalerkinFrame) -> _Table:
    """Gather tables of the maps a -> coordinates of P_n (c_k d1 u), read off the recipes.

    u has coordinates a in frame, and P_n (c_k d1 u) is a fixed linear map
    of them.  d1 u has coefficient i s1 u^(s) at each wavevector s = +-kc
    of the level, and a term amp cos(m.x) of c_k takes it to s + m and
    s - m with weight amp/2, amp sin(m.x) with weight -i amp/2 to s + m
    and i amp/2 to s - m (a bare constant is cos(0.x)).  Target kc_q thus
    reads the sources kc_q -+ m, each kc_p or -kc_p of a level pair p
    (s = 0 and sources or targets outside the level drop out), times
    d_q . d_p: a cos term couples the cosine coordinates of one pair to
    the sine ones of the other, a sin term cosine to cosine and sine to
    sine.  So every target column reads at most two source columns per
    term.  Duplicate (target, source) entries are summed, and zero
    weights dropped.

    channels indexes the c recipes whose map is not zero; src and weight,
    both (len(channels), width, n), hold per channel and slot a source
    column and its weight for every target column, zero-weight padding
    (source 0) where a column reads fewer than width sources:

        (table_k a)_j = sum_w weight[k, w, j] a[src[k, w, j]].

    No product of a level against itself is sampled, so nothing aliases
    and nothing depends on the grid beyond the level's enumeration.
    """
    model.check_band(frame.grid)
    n = frame.n
    kc = frame.wavevectors[::2]
    d0, d1 = frame.dirs
    r1, r2 = np.max(np.abs(kc), axis=0)
    # lookup over the level's box: p + 1 at kc_p, -(p + 1) at -kc_p, 0 elsewhere
    at = np.zeros((2 * r1 + 1, 2 * r2 + 1), dtype=np.int64)
    code = np.arange(1, len(kc) + 1)
    at[kc[:, 0] + r1, kc[:, 1] + r2] = code
    at[r1 - kc[:, 0], r2 - kc[:, 1]] = -code
    channels, entries = [], []
    for ch, recipe in enumerate(model.c):
        rows = []  # (target columns, source columns, weights)
        for amp, m1, m2, phase in recipe.terms:
            for sign in (1, -1):  # the source kc_q - sign m reaches kc_q through +-m
                s = kc - (sign * m1, sign * m2)
                inside = (np.abs(s[:, 0]) <= r1) & (np.abs(s[:, 1]) <= r2)
                hit = np.zeros(len(kc), dtype=np.int64)
                hit[inside] = at[s[inside, 0] + r1, s[inside, 1] + r2]
                q = np.flatnonzero(hit)
                p, eps = np.abs(hit[q]) - 1, np.sign(hit[q])
                gamma = 0.5 * amp * s[q, 0] * (d0[q] * d0[p] + d1[q] * d1[p])
                if phase == "cos":
                    rows += [(2 * q, 2 * p + 1, eps * gamma), (2 * q + 1, 2 * p, -gamma)]
                else:
                    gamma = sign * gamma
                    rows += [(2 * q, 2 * p, gamma), (2 * q + 1, 2 * p + 1, eps * gamma)]
        if not rows:
            continue
        tgt, src, weight = (np.concatenate(x) for x in zip(*rows))
        keep = (tgt < n) & (src < n)  # an odd n has no sine column in its last pair
        key, where = np.unique(tgt[keep] * n + src[keep], return_inverse=True)
        weight = np.bincount(where, weights=weight[keep], minlength=len(key))
        key, weight = key[weight != 0.0], weight[weight != 0.0]
        if len(key):
            channels.append(ch)
            entries.append((key // n, key % n, weight))
    width = max((int(np.bincount(t).max()) for t, _, _ in entries), default=0)
    src = np.zeros((len(entries), width, n), dtype=np.int64)
    weight = np.zeros((len(entries), width, n))
    for k, (t, j, w) in enumerate(entries):
        # entries are sorted by target: the slot is the rank within the target's run
        count = np.bincount(t, minlength=n)
        slot = np.arange(len(t)) - (np.cumsum(count) - count)[t]
        src[k, slot, t] = j
        weight[k, slot, t] = w
    return np.array(channels, dtype=np.int64), src, weight


# (transport table, b channels sampled when b g(u) depends on u, (rows, n)
# coordinates of b g(u) when it does not); see _sigma_parts
_Parts = tuple[_Table, Channels, np.ndarray]


def _sigma_parts(model: NoiseModel, frame: GalerkinFrame) -> _Parts:
    """What sigma_coords needs of model in frame, built once per (frame, model).

    The c-channels' transport table; for g = one the constant coordinates
    of b (1, 1) (_additive_coords; no row when every b recipe is empty);
    for a g that depends on u the b recipes sampled on frame.grid
    (NoiseModel.b_fields), which sigma_coords reads through samples of u.
    g = zero contributes nothing.  A model whose b g(u) does not depend
    on u thus needs no samples of the state.
    """
    grid = frame.grid
    fields = (np.zeros(0, dtype=np.int64), np.zeros((0, grid.n1, grid.n2)))
    const = np.zeros((0, frame.n))
    if model.g_kind == "one" and not all(r.is_zero for r in model.b):
        const = _additive_coords(model, frame)
    elif _samples_state(model):
        fields = model.b_fields(grid)
    return _transport_table(model, frame), fields, const


def _samples_state(model: NoiseModel) -> bool:
    """True when b g(u) depends on u: g is neither one nor zero and a b recipe has a term
    of non-zero amplitude.  Only then does sigma(u) read samples of the state."""
    return model.g_kind not in ("one", "zero") and not all(r.is_zero for r in model.b)


def _sigma_raw(model: NoiseModel, u_phys: np.ndarray, y: np.ndarray, b_fields: Channels,
               out: np.ndarray | None = None, sums: tuple = (None, None)) -> np.ndarray:
    """sum_k y_k b_k g(u) before projection, packed, from packed samples u1 + i u2.

    u_phys: (..., n1, n2) complex samples; y: (..., n_modes); batch axes
    broadcast.  b_fields are the non-zero b-channels of
    NoiseModel.b_fields, and only those are added.  g acts
    componentwise, on the float view of u_phys, whose (Re, Im) pairs are
    (u1, u2).  Returns the packed samples of the b g(u) part of
    sigma(u) y; the c-channels act on coordinates (_transport_table).

    No buffer is zeroed: g(u) goes into out, a complex array of the
    samples' shape (a step's workspace), else into a new array, and is
    multiplied in place by the b-channel sum, which _channel_sum forms in
    sums = (sum, term), float arrays of that shape, when given.  A
    channel axis in y, as hs_sq and condition_c_empirical_check pass,
    widens the product beyond g(u), and then it is a new array.
    """
    b_channels, b_samples = b_fields
    x = u_phys.view(np.float64)
    if out is None:
        out = model.g_eval(x).view(np.complex128)
    else:
        model.g_eval(x, out.view(np.float64))
    bsum = _channel_sum(y, b_samples, b_channels, *sums)
    if out.shape == np.broadcast_shapes(out.shape, bsum.shape):
        out *= bsum
    else:
        out = out * bsum
    return out


def sigma_coords(model: NoiseModel, frame: GalerkinFrame, a: np.ndarray, phys: np.ndarray | None,
                 y: np.ndarray, parts: _Parts, samples: np.ndarray | None = None,
                 spec: np.ndarray | None = None, sums: tuple = (None, None)) -> np.ndarray:
    """(..., n) coordinates of P_n sigma(u) y in frame, for u with coordinates a.

    a: (..., n); y: (..., n_modes); batch axes broadcast.  parts are
    _sigma_parts(model, frame), built once by the caller.  Into zeros goes
    the b g(u) part first: when it depends on u, the analysis of
    _sigma_raw's samples from phys, the (..., n1, n2) packed samples
    u1 + i u2 on frame.grid (GalerkinFrame.synth), which nothing else
    here reads and may be None otherwise; for g = one, the constant
    channel coordinates.  samples, spec and sums are the workspace those
    samples, their packed spectrum and the b-channel sum are written into
    (_sigma_raw, GalerkinFrame.analyse); left out, each is a new array.
    Then each c-channel adds y_k (table_k a),
    channel by channel and slot by slot, in elementwise
    gather-multiply-adds: a BLAS product would round differently for
    different batch shapes (_channel_sum).  The SDE
    engine (sde._Stepper) passes the state, the one synthesis of each
    step and its workspace, and condition_c_empirical_check a field in
    the frame of all basis elements (_field_sigma_coords).
    """
    table, fields, const = parts
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], y.shape[:-1]) + (frame.n,))
    if len(fields[0]):
        out += frame.analyse(_sigma_raw(model, phys, y, fields, samples, sums),
                             frame.field_weights, spec)
    if len(const):
        out += _channel_sum(y, const)
    channels, src, weight = table
    for k, ch in enumerate(channels):
        ta = np.take(a, src[k, 0], axis=-1) * weight[k, 0]
        for w in range(1, src.shape[1]):
            ta += np.take(a, src[k, w], axis=-1) * weight[k, w]
        out += y[..., ch, None] * ta
    return out


def _field_sigma_coords(model: NoiseModel, u: SpectralField,
                        y: np.ndarray) -> tuple[np.ndarray, GalerkinFrame]:
    """sigma_coords of a field u in the frame of all basis elements of its grid, and the frame.

    u is read through its coordinates in that frame, so it must be
    Hermitian; a dealiased, solenoidal, mean-free u (every field the audit
    takes) is its own projection there.  It is synthesized only when its
    b g(u) depends on it.
    """
    top = GalerkinFrame(u.grid, max_level(u.grid))
    parts = _sigma_parts(model, top)
    a = top.coords(u.coeffs)
    phys = top.synth(a) if len(parts[1][0]) else None
    return sigma_coords(model, top, a, phys, y, parts), top


@dataclass(frozen=True)
class ConditionCConstants:
    """Growth and Lipschitz constants derived from the budgets the recipes need."""

    k0p: float
    k1p: float
    k0: float
    k1: float
    k2: float
    kt0: float
    kt1: float
    kt2: float
    l1: float
    l2: float
    eta: float


def condition_c_bounds(model: NoiseModel, eta: float = DEFAULT_ETA) -> ConditionCConstants:
    """Constants for the three growth bounds and the Lipschitz bound.

    With budgets M1, M2, Cg and split weight eta:
        H^{-1}:  ||sigma||^2 <= K0' + K1' ||u||^2
        L^2:     ||sigma||^2 <= K0 + K1 ||u||^2 + K2 ||d1 u||^2
        H^{0,1}: ||sigma||^2 <= Kt0 + Kt1 (||u||^2 + ||d2 u||^2)
                                + Kt2 (||d1 u||^2 + ||d1 d2 u||^2)
        Lip:     ||sigma(u)-sigma(v)||^2 <= L1 ||u-v||^2 + L2 ||d1(u-v)||^2
    """
    if not 0.0 < eta:
        raise ValueError("eta must be positive")
    m1, m2, cg = model.m1, model.m2, model.cg
    pp = 1.0 + 1.0 / eta
    return ConditionCConstants(
        k0p=32.0 * np.pi ** 2 * m2 * cg ** 2,
        k1p=6.0 * m1 + 4.0 * m2 * cg ** 2,
        k0=16.0 * np.pi ** 2 * pp * m2 * cg ** 2,
        k1=2.0 * pp * m2 * cg ** 2,
        k2=(1.0 + eta) * m1,
        kt0=128.0 * np.pi ** 2 * pp * m2 * cg ** 2,
        kt1=16.0 * pp * m2 * cg ** 2,
        kt2=2.0 * (1.0 + eta) * m1,
        l1=pp * m2 * cg ** 2,
        l2=(1.0 + eta) * m1,
        eta=eta,
    )


@dataclass(frozen=True)
class GateResult:
    k2: float
    kt2: float
    l2: float
    existence_ok: bool
    uniqueness_ok: bool

    def describe(self) -> str:
        return (
            f"K2={self.k2:.6g} (<{EXISTENCE_K2_LIMIT:.6g}: {self.k2 < EXISTENCE_K2_LIMIT}), "
            f"Kt2={self.kt2:.6g} (<{EXISTENCE_KT2_LIMIT:.6g}: {self.kt2 < EXISTENCE_KT2_LIMIT}), "
            f"L2={self.l2:.6g} (<{UNIQUENESS_L2_LIMIT:.6g}: {self.l2 < UNIQUENESS_L2_LIMIT})"
        )


def condition_c_gate(constants: ConditionCConstants) -> GateResult:
    """Strict thresholds: existence needs K2 < 2/11 and Kt2 < 2/5;
    uniqueness additionally needs L2 < 2/5."""
    existence = constants.k2 < EXISTENCE_K2_LIMIT and constants.kt2 < EXISTENCE_KT2_LIMIT
    uniqueness = existence and constants.l2 < UNIQUENESS_L2_LIMIT
    return GateResult(k2=constants.k2, kt2=constants.kt2, l2=constants.l2,
                      existence_ok=bool(existence), uniqueness_ok=bool(uniqueness))


def condition_c_empirical_check(model: NoiseModel, fields: Sequence[SpectralField],
                                eta: float = DEFAULT_ETA,
                                report: NormReport | None = None) -> NormReport:
    """Audit every growth/Lipschitz inequality on sample fields.

    Channel norms are computed exactly (spectrally); the derived constants
    must dominate them for arbitrary solenoidal input.  Lipschitz rows pair
    consecutive fields.
    """
    if report is None:
        report = NormReport()
    cc = condition_c_bounds(model, eta=eta)
    chans = []  # (n_modes, n) channel coordinates per field
    for idx, u in enumerate(fields):
        rows = norm_rows(u.coeffs, u.grid)
        l2, d1, d2, d1d2 = (float(rows[k]) for k in ("l2_sq", "d1_sq", "d2_sq", "d1d2_sq"))
        a, frame = _field_sigma_coords(model, u, np.eye(model.n_modes))
        chans.append(a)
        sq = a ** 2
        hs_hm1 = float(np.sum(sq / (1.0 + frame.k1sq + frame.k2sq)))
        hs_h01 = float(np.sum(sq * (1.0 + frame.k2sq)))
        report.add(f"growth_hminus1[{idx}]", hs_hm1, cc.k0p + cc.k1p * l2, cc.k1p)
        report.add(f"growth_l2[{idx}]", float(np.sum(sq)),
                   cc.k0 + cc.k1 * l2 + cc.k2 * d1, cc.k2)
        report.add(f"growth_h01[{idx}]", hs_h01,
                   cc.kt0 + cc.kt1 * (l2 + d2) + cc.kt2 * (d1 + d1d2), cc.kt2)
    for idx in range(len(fields) - 1):
        w = norm_rows(fields[idx].coeffs - fields[idx + 1].coeffs, fields[idx].grid)
        hs_diff = float(np.sum((chans[idx] - chans[idx + 1]) ** 2))
        report.add(f"lipschitz[{idx}]", hs_diff,
                   cc.l1 * w["l2_sq"] + cc.l2 * w["d1_sq"], cc.l2)
    return report
