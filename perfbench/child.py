"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds the workload name, seed, size, trace flag, the source tree to
import ans2d from and the output directory.  The child times set-up
(importing numpy, scipy and ans2d, then loading the config), with
pure-Python reference passes just before and after it, and the workload
window (from the first call into ans2d until verdicts are returned and
outputs written), then runs the correctness checks outside both windows
and writes everything to RESULT.  All through the workload
window a timer signal runs short passes of the reference kernel
(refkernel.py); the runner divides the window's times, less the time the
passes took, by their mean pass time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import refkernel
import workloads


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    name, seed, tiny = spec["workload"], spec["seed"], spec["tiny"]
    out = Path(spec["out"])
    config_path = out / "config.txt"
    config_path.write_text(workloads.config_text(name, seed, tiny), encoding="utf-8")
    src = Path(spec["src"])
    sys.path.insert(0, str(src))

    interp_passes = refkernel.interp_passes()
    setup_start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import ans2d
    import ans2d.cli

    if not Path(ans2d.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"ans2d imported from {ans2d.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    cfg = ans2d.config.load_config(str(config_path))
    setup_s = time.perf_counter() - setup_start
    interp_passes += refkernel.interp_passes()

    sampler = refkernel.Sampler()
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    with sampler:
        outcome = workloads.run(name, ans2d.cli, cfg, config_path, out, seed, tiny)
    wall_s = time.perf_counter() - wall0 - sampler.spent_s
    cpu_s = _cpu_s() - cpu0 - sampler.spent_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, numbers = workloads.check(name, outcome, cfg, out, seed, tiny)
    result = {
        "setup_raw_s": setup_s,
        "interp_pass_s": interp_passes,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_pass_s": sampler.passes,
        "peak_rss_mb": peak_rss_mb,
        "path_steps": workloads.path_steps(name, cfg, tiny),
        "checks": checks,
        "numbers": numbers,
        "trace": None if tracer is None else tracer.stats,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
