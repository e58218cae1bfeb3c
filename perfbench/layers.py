"""Per-layer tracing from outside the package.

Each layer boundary is a function of `ans2d`.  `install` wraps it and
rebinds the wrapper at every import site: the defining module, every
loaded `ans2d` module that imported the name (``from .x import f``), and
every class attribute that holds it (``_Stepper.hs_sq``).  After rebinding
it scans again and raises if any site still holds the original, so a
missed import site fails loudly instead of reading zero.

A span records calls, inclusive time and self time (inclusive minus the
inclusive time of its direct child spans), plus layer-specific counts.
Byte counts of transforms are computed from array sizes, not measured.
"""

from __future__ import annotations

import importlib
import os
import sys
import time


def _fft_counts(args, kwargs, out) -> dict:
    # _phys(coeffs, n_points) / _spec(samples, n_points)
    data, n_points = args[0], args[1]
    return {"fields": data.size // n_points, "bytes": data.nbytes + out.nbytes}


def _file_bytes(args, kwargs, out) -> dict:
    # _write_csv(path, ...) / write_snapshot(path, ...)
    return {"bytes": os.path.getsize(args[0])}


def _draws(args, kwargs, out) -> dict:
    return {"draws": out.size}


def _engine_counts(args, kwargs, out) -> dict:
    steps = len(out.t) - 1
    return {"steps": steps, "path_steps": out.final.shape[0] * steps}


def _det_counts(args, kwargs, out) -> dict:
    return {"steps": len(out.t) - 1}


# (span, module, attribute path, counter)
BOUNDARIES = (
    ("spectral.synth", "ans2d.spectral", "_phys", _fft_counts),
    ("spectral.analysis", "ans2d.spectral", "_spec", _fft_counts),
    ("spectral.advection", "ans2d.spectral", "_advection_raw", None),
    ("spectral.leray", "ans2d.spectral", "_leray_raw", None),
    ("basis.galerkin", "ans2d.basis", "galerkin_project_raw", None),
    ("basis.enumerate_pairs", "ans2d.basis", "enumerate_pairs", None),
    ("noise.sigma", "ans2d.noise", "_sigma_raw", None),
    ("noise.wiener", "ans2d.noise", "sample_wiener_increment", _draws),
    ("sde.engine", "ans2d.sde", "_run_batched", _engine_counts),
    ("sde.drift", "ans2d.sde", "_Stepper.drift", None),
    ("sde.noise_increment", "ans2d.sde", "_Stepper.noise_increment", None),
    ("sde.diag_row", "ans2d.sde", "_diag_row", None),
    ("sde.hs_sq", "ans2d.sde", "_Stepper.hs_sq", None),
    ("sde.weighted_series", "ans2d.sde", "weighted_h01_series", None),
    ("det.run", "ans2d.det", "run_det", _det_counts),
    ("det.drift", "ans2d.det", "_drift", None),
    ("det.certificates", "ans2d.det", "energy_certificate", None),
    ("det.certificates", "ans2d.det", "h01_certificate", None),
    ("ensemble.level", "ans2d.ensemble", "_level_estimates", None),
    ("cli.csv", "ans2d.cli", "_write_csv", _file_bytes),
    ("snapshots.write", "ans2d.snapshots", "write_snapshot", _file_bytes),
    ("config.load", "ans2d.config", "load_config", None),
)

SPANS = tuple(dict.fromkeys(span for span, *_ in BOUNDARIES))


class Tracer:
    """In-memory span statistics; one per traced process."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {
            span: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for span in SPANS}
        self._open: list[float] = []  # child time accumulated by each open span

    def wrap(self, span: str, fn, count=None):
        st = self.stats[span]
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
                st["calls"] += 1
                st["incl_s"] += took
                st["self_s"] += took - children
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    st[key] = st.get(key, 0) + value
            return out

        traced.__wrapped__ = fn
        return traced


def _namespaces():
    """Every loaded ans2d module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ans2d" or name.startswith("ans2d.")):
            continue
        yield name, mod
        for attr, value in list(vars(mod).items()):
            if isinstance(value, type) and value.__module__ == name:
                yield f"{name}.{attr}", value


def _sites(target) -> list[tuple[str, object, str]]:
    return [(label, ns, attr) for label, ns in _namespaces()
            for attr, value in list(vars(ns).items()) if value is target]


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every boundary at every import site; returns span -> sites."""
    rebound: dict[str, list[str]] = {span: [] for span in SPANS}
    for span, module, path, count in BOUNDARIES:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(span, original, count)
        for label, ns, name in _sites(original):
            setattr(ns, name, wrapper)
            rebound[span].append(f"{label}.{name}")
        missed = _sites(original)
        if missed:
            raise RuntimeError(f"{span}: {module}.{path} still bound at "
                               f"{[f'{label}.{name}' for label, _, name in missed]}")
    return rebound


def layer_metrics(stats: dict[str, dict[str, float]], names) -> dict[str, float]:
    """Per-layer metric values by name: '<span>.<key>' or a derived ratio.

    spectral.advection.per_step counts advections inside the step loops:
    each engine or solver run that advects at all evaluates one extra
    advection at its initial state, which is left out.  sde.diag_share is
    the inclusive time of the diagnostics and weighted series over the
    inclusive engine time.
    """
    def get(span: str, key: str) -> float:
        return stats[span].get(key, 0)

    runs = get("sde.engine", "calls") + get("det.run", "calls")
    steps = get("sde.engine", "steps") + get("det.run", "steps")
    in_loop = max(get("spectral.advection", "calls") - runs, 0)
    engine_s = get("sde.engine", "incl_s")
    derived = {
        "spectral.advection.per_step": in_loop / steps if steps else 0.0,
        "sde.diag_share":
            (get("sde.diag_row", "incl_s") + get("sde.weighted_series", "incl_s")) / engine_s
            if engine_s else 0.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span, key = name.rsplit(".", 1)
        if span not in stats:
            raise KeyError(f"per-layer metric {name!r} names no traced span")
        out[name] = get(span, key)
    return out
