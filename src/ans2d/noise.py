"""Multiplicative noise family, Wiener sampling, and well-posedness gates.

The diffusion maps a Wiener increment with components y_k to

    sigma(u) y = sum_k ( c_k(x) d1 u + b_k(x) g(u) ) y_k

followed by the projection P_n onto the span of the first n basis
elements; sigma_coords gives its n coordinates, the one evaluation of
sigma that the SDE engine and condition_c_empirical_check share.  The c_k,
b_k are finite trigonometric recipes; g acts componentwise, is bounded
and Lipschitz.  Declared budgets:

    M1 >= sum_k (sup|c_k| + sup|d1 c_k| + sup|d2 c_k|)^2
    M2 >= sum_k (sup|b_k|)^2   and   M2 >= sum_k (sup|d2 b_k|)^2
    Cg >= max(sup|g|, Lip(g))

Growth and Lipschitz constants are derived from the budgets with a
Peter-Paul split eta; the derivations are generous (validity over
sharpness), while the gate thresholds compare the pinned constants
K2 = (1+eta) M1, Kt2 = 2 (1+eta) M1, L2 = (1+eta) M1 directly.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
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


# (channel indices, their (len, n1, n2) samples) of one recipe family; see
# NoiseModel.coefficient_fields
Channels = tuple[np.ndarray, np.ndarray]


def required_budgets(c: Sequence[ScalarRecipe], b: Sequence[ScalarRecipe]
                     ) -> tuple[float, float]:
    """Smallest budgets (M1, M2) the recipes allow, as in the module docstring."""
    m1 = sum((r.sup_bound() + r.sup_bound_d(1) + r.sup_bound_d(2)) ** 2 for r in c)
    m2 = max(sum(r.sup_bound() ** 2 for r in b), sum(r.sup_bound_d(2) ** 2 for r in b))
    return m1, m2


@dataclass(frozen=True)
class NoiseModel:
    """Coefficient recipes plus declared smoothness budgets.

    NoiseModel(), with no channel, is the one value for no noise.
    """

    c: tuple[ScalarRecipe, ...] = ()
    b: tuple[ScalarRecipe, ...] = ()
    g_kind: str = "one"
    m1: float = 0.0
    m2: float = 0.0
    cg: float = 1.0

    def __post_init__(self):
        if len(self.c) != len(self.b):
            raise ValueError("c and b must list the same number of channels")
        _, g_sup, g_lip = _g_funcs(self.g_kind)
        if self.cg < max(g_sup, g_lip) - 1e-12:
            raise ValueError(
                f"declared Cg={self.cg} below actual bound {max(g_sup, g_lip)} for g={self.g_kind!r}"
            )
        m1, m2 = required_budgets(self.c, self.b)
        if m1 > self.m1 * (1.0 + 1e-12) + 1e-300:
            raise ValueError(f"c recipes need M1 >= {m1:.6g}, declared {self.m1:.6g}")
        if m2 > self.m2 * (1.0 + 1e-12) + 1e-300:
            raise ValueError(f"b recipes need M2 >= {m2:.6g}, declared {self.m2:.6g}")

    @property
    def n_modes(self) -> int:
        return len(self.c)

    @property
    def is_additive(self) -> bool:
        """True when sigma does not depend on the state."""
        return all(r.is_zero for r in self.c) and self.g_kind in ("one", "zero")

    @property
    def is_zero(self) -> bool:
        return (all(r.is_zero for r in self.c)
                and (self.g_kind == "zero" or all(r.is_zero for r in self.b)))

    def g_eval(self, x: np.ndarray) -> np.ndarray:
        return _g_funcs(self.g_kind)[0](x)

    def check_band(self, grid: TorusGrid) -> None:
        """Raise ValueError for a recipe wavevector outside grid's alias-free band.

        Sampled on grid, such a term is not the declared noise: on 16
        points cos(9,0) samples as cos(7,0), outside the band, and projects
        to nothing, and cos(11,0) samples as the in-band cos(5,0), while
        the gates read the declared budgets either way.
        """
        for recipe in self.c + self.b:
            for _, k1, k2, phase in recipe.terms:
                if abs(k1) > grid.band1 or abs(k2) > grid.band2:
                    raise ValueError(
                        f"{phase}({k1},{k2}) lies outside the alias-free band |k1| <= "
                        f"{grid.band1}, |k2| <= {grid.band2} of the {grid.n1}x{grid.n2} grid")

    def coefficient_fields(self, grid: TorusGrid) -> tuple[Channels, Channels]:
        """The c and b recipes sampled on grid, each as (channels, samples).

        channels indexes the recipes whose samples are not all zero, and
        samples holds those, (len(channels), n1, n2): sigma adds only
        these, so a channel that make_model padded with an empty recipe,
        or a recipe that samples to zero, costs nothing per step.  Every
        caller that samples the recipes on a grid does it here, so
        check_band guards them all: an out-of-band recipe raises ValueError
        instead of stepping noise that is not the declared one.
        """
        self.check_band(grid)

        def nonzero(recipes: tuple[ScalarRecipe, ...]) -> Channels:
            arr = np.array([r.evaluate(grid) for r in recipes]).reshape(len(recipes), grid.n1,
                                                                        grid.n2)
            channels = np.flatnonzero(np.any(arr != 0.0, axis=(1, 2)))
            return channels, arr[channels]

        return nonzero(self.c), nonzero(self.b)


def make_model(c_recipes: Sequence[str], b_recipes: Sequence[str], g_kind: str = "one",
               margin: float = 1.0) -> NoiseModel:
    """Model from recipe strings with budgets set to the computed sums x margin."""
    c = tuple(ScalarRecipe.parse(s) for s in c_recipes)
    b = tuple(ScalarRecipe.parse(s) for s in b_recipes)
    n = max(len(c), len(b))
    c = c + tuple(ScalarRecipe(()) for _ in range(n - len(c)))
    b = b + tuple(ScalarRecipe(()) for _ in range(n - len(b)))
    _, g_sup, g_lip = _g_funcs(g_kind)
    m1, m2 = required_budgets(c, b)
    return NoiseModel(c=c, b=b, g_kind=g_kind, m1=margin * m1, m2=margin * m2,
                      cg=max(g_sup, g_lip, 1e-12))


@functools.cache
def _philox() -> np.random.Generator:
    """The one Philox generator, re-keyed for every path; not safe to share between threads.

    Built on first use: importing the package does not load numpy.random.
    """
    return np.random.Generator(np.random.Philox(0))


def sample_wiener_increment(n_modes: int, n_steps: int, dt: float,
                            base_seed: int, traj_index: int = 0) -> np.ndarray:
    """Pregenerated increments, shape (n_steps, n_modes), entries N(0, dt).

    Counter-based stream: each (base_seed, traj_index) pair keys an
    independent Philox stream, so paths are reproducible individually.  A
    Philox stream is its (key, counter) pair, so the call resets one
    generator to the state of a fresh Philox(key=(base_seed, traj_index)):
    counter 0 and an empty buffer.  That draws exactly the fresh
    generator's numbers, without building one (and the OS entropy its
    constructor gathers) per path.
    """
    key = np.array([base_seed % 2 ** 64, traj_index % 2 ** 64], dtype=np.uint64)
    gen = _philox()
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                               "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal((n_steps, n_modes)) * np.sqrt(dt)


def _channel_sum(y: np.ndarray, arr: np.ndarray, channels: Sequence[int] | None = None
                 ) -> np.ndarray:
    """sum_k y[..., channels[k]] arr[k], for y of shape (..., n_modes) and arr (len, ...).

    channels defaults to every channel, range(len(arr)).  Added channel by
    channel: a BLAS product (tensordot, @) rounds differently for
    different batch shapes, so paths would no longer replay bit-for-bit
    across batch layouts.
    """
    if not len(arr):  # no channel (no noise, or a zero model): exact zeros
        return np.zeros(y.shape[:-1] + arr.shape[1:])
    if channels is None:
        channels = range(len(arr))
    tail = (None,) * (arr.ndim - 1)
    out = y[(..., channels[0]) + tail] * arr[0]
    for k in range(1, len(arr)):
        out += y[(..., channels[k]) + tail] * arr[k]
    return out


def _sigma_raw(model: NoiseModel, u_phys: np.ndarray, d1u_phys: np.ndarray | None,
               y: np.ndarray, c_fields: Channels, b_fields: Channels) -> np.ndarray:
    """sigma(u) y before projection, packed, from packed samples of u and d1 u.

    u_phys, d1u_phys: (..., n1, n2) complex samples u1 + i u2 and
    d1 u1 + i d1 u2 (d1u_phys is read only when c_fields has a channel);
    y: (..., n_modes); batch axes broadcast.  c_fields, b_fields are the
    non-zero channels of model.coefficient_fields, and only those are
    added.  g acts componentwise, on the float view of u_phys, whose
    (Re, Im) pairs are (u1, u2).  Returns the packed samples
    sigma1 + i sigma2 of sigma(u) y.
    """
    lead = np.broadcast_shapes(u_phys.shape[:-2], y.shape[:-1])
    out = np.zeros(lead + u_phys.shape[-2:], dtype=np.complex128)
    if len(c_fields[0]):
        out += _channel_sum(y, c_fields[1], c_fields[0]) * d1u_phys
    if len(b_fields[0]):
        g = model.g_eval(u_phys.view(np.float64)).view(np.complex128)
        out += _channel_sum(y, b_fields[1], b_fields[0]) * g
    return out


def sigma_coords(model: NoiseModel, frame: GalerkinFrame, phys: np.ndarray, y: np.ndarray,
                 fields: tuple[Channels, Channels]) -> np.ndarray:
    """(..., n) coordinates of P_n sigma(u) y in frame.

    phys holds the (..., rows, n1, n2) packed samples frame.synth gives,
    of which u1 + i u2 (row 0) and, for a model with c-channels,
    d1 u1 + i d1 u2 (row 1) are read; y: (..., n_modes); batch axes
    broadcast.  fields are model.coefficient_fields(frame.grid), sampled
    once by the caller.  The SDE engine (sde._Stepper) passes the one
    synthesis of each step, and condition_c_empirical_check a field's
    synthesis in the frame of all basis elements (_field_sigma_coords).
    """
    d1u = phys[..., 1, :, :] if len(fields[0][0]) else None
    return frame.analyse(_sigma_raw(model, phys[..., 0, :, :], d1u, y, *fields),
                         frame.field_weights)


def _field_sigma_coords(model: NoiseModel, u: SpectralField,
                        y: np.ndarray) -> tuple[np.ndarray, GalerkinFrame]:
    """sigma_coords of a field u in the frame of all basis elements of its grid, and the frame.

    u is read through its coordinates in that frame, so it must be
    Hermitian; a dealiased, solenoidal, mean-free u (every field the audit
    takes) is its own projection there.
    """
    top = GalerkinFrame(u.grid, max_level(u.grid))
    fields = model.coefficient_fields(u.grid)
    phys = top.synth(top.coords(u.coeffs), rows=2 if len(fields[0][0]) else 1)
    return sigma_coords(model, top, phys, y, fields), top


@dataclass(frozen=True)
class ConditionCConstants:
    """Growth and Lipschitz constants derived from the declared budgets."""

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
