"""Benchmark runner for ans2d.

Usage (from the repository root):

    python3 perfbench/run.py --workload det64 --seed 1 --seconds 30 --trace 0

A closed loop: this process runs one workload repetition at a time, each in a
fresh child process (perfbench/child.py), until --seconds have passed, and
reports the median of each metric over the repetitions.  Every repetition
runs the correctness checks.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Their times
are in units of the reference kernel (refkernel.py), sampled in the same
child all through the workload window: wall_rel is wall time over the
kernel's mean pass time, cpu_rel likewise for CPU time, and
path_steps_per_ref is path-steps per pass time.  On a shared host this
cancels the moments in which the CPU itself runs slower, which move raw
seconds by up to about 2x between runs.  setup_s is likewise scaled to a
nominal speed of a pure-Python kernel timed around set-up; peak_rss_mb is raw.

--trace 1 alternates untraced and traced repetitions (in ABBA order) and
reports the per-layer metrics: counts from the traced runs (which must
repeat exactly), self times in seconds as medians, untraced.wall_s and
ref.pass_s as raw medians, and trace.overhead_ratio as the traced over the
untraced median wall_rel.

Children run with one BLAS and OpenMP thread: a second thread on a 2-vCPU
host measures the scheduler and doubles CPU time for no gain in wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (correctness checks) and metrics.  The full
record, with every sample and the machine facts, goes to --out (default
.perfbench/results/ under the repository root).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
RUN_LIMIT_S = 170.0  # the whole run, children included, ends within this
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
RAW = ("wall_s", "cpu_s", "ref_s", "setup_raw_s")  # kept in the record beside the metrics


def machine_facts() -> dict:
    """Facts that must match before two result sets are compared."""
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def run_child(work: Path, index: int, args, trace: bool, deadline: float) -> dict | None:
    """One repetition; None when the child failed or ran out of time."""
    out = work / f"rep{index:03d}"
    out.mkdir()
    spec = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "trace": trace, "src": str(SRC), "out": str(out)}
    spec_path, result_path = out / "spec.json", out / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"repetition {index}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"repetition {index}: child exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = refkernel.scaled_setup_s(result["setup_raw_s"], result["interp_pass_s"])
    result["ref_s"] = statistics.mean(result["ref_pass_s"])
    result["wall_rel"] = result["wall_s"] / result["ref_s"]
    result["cpu_rel"] = result["cpu_s"] / result["ref_s"]
    result["path_steps_per_ref"] = result["path_steps"] / result["wall_rel"]
    return result


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples.

    The quartiles are statistics.quantiles' default (exclusive) ones, the
    estimator the benchmark's spreads are judged with.
    """
    if len(samples) < 2:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: a few paths and steps (tests only)")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the full JSON record")
    args = parser.parse_args(argv)
    os.environ.update(THREADS)

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ans2d" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"error: {SRC / 'ans2d'} or {bench_path} is missing; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    metric_defs = bench["per_layer"] if args.trace else bench["end_to_end"]

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    scratch = ROOT / ".perfbench" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    plain: list[dict] = []
    traced: list[dict] = []
    lost = 0
    try:
        index = 0
        round_s: list[float] = []
        while time.monotonic() < deadline:
            # stop within half a round of --seconds, after at least MIN_REPS rounds
            elapsed = time.monotonic() - started
            if len(round_s) >= MIN_REPS and elapsed + statistics.median(round_s) / 2 >= args.seconds:
                break
            round_start = time.monotonic()
            # ABBA order, so drift and position within a pair cancel in the ratio
            order = (False, True) if len(round_s) % 2 == 0 else (True, False)
            for trace in (order if args.trace else (False,)):
                result = run_child(work, index, args, trace, deadline)
                index += 1
                if result is None:
                    lost += 1
                else:
                    (traced if trace else plain).append(result)
            round_s.append(time.monotonic() - round_start)
            if lost:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    checks = [c for r in reps for c in r["checks"]]
    failures = [c for c in checks if not c[1]]
    samples = {name: [r[name] for r in plain]
               for name in [m["name"] for m in bench["end_to_end"]] + list(RAW)}
    metrics: dict[str, dict] = {}
    summary: dict[str, dict] = {}
    if args.trace and traced and plain:
        counts = [{span: {k: v for k, v in st.items() if not k.endswith("_s")}
                   for span, st in r["trace"].items()} for r in traced]
        repeat_ok = all(c == counts[0] for c in counts)
        checks.append(["trace_counts_repeat", repeat_ok, f"{len(counts)} traced runs"])
        if not repeat_ok:
            failures.append(checks[-1])
        runner = {
            "trace.overhead_ratio": statistics.median(r["wall_rel"] for r in traced)
            / statistics.median(r["wall_rel"] for r in plain),
            "untraced.wall_s": statistics.median(r["wall_s"] for r in plain),
            "ref.pass_s": statistics.median(r["ref_s"] for r in reps),
        }
        names = [m["name"] for m in metric_defs if m["name"] not in runner]
        per_rep = [layers.layer_metrics(r["trace"], names) for r in traced]
        values = {name: statistics.median(v[name] for v in per_rep) for name in names}
        values.update(runner)
        samples["trace_wall_s"] = [r["wall_s"] for r in traced]
    elif plain:
        summary = {name: summarize(v) for name, v in samples.items()}
        values = {name: s["median"] for name, s in summary.items() if name not in RAW}
    else:
        values = {}
    for m in metric_defs:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    attempted = max(len(checks) + lost, 1)
    n_failed = len(failures) + lost
    correct = n_failed == 0 and len(metrics) == len(metric_defs)
    facts = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "facts": facts,
        "repetitions": {"untraced": len(plain), "traced": len(traced), "lost": lost},
        "metrics": metrics, "summary": summary, "samples": samples,
        "numbers": [r["numbers"] for r in reps],
        "ref_pass_s": [r["ref_pass_s"] for r in plain],
        "failed_checks": failures,
        "correct": correct, "attempted": attempted, "failed": n_failed,
    }
    out_path = args.out or (ROOT / ".perfbench" / "results" /
                            f"{args.workload}-seed{args.seed}-trace{args.trace}"
                            f"{'-tiny' if args.tiny else ''}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced, {lost} lost")
    for name, m in metrics.items():
        n = f"  (median of {summary[name]['n']})" if name in summary else ""
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{n}")
    for name in RAW if summary else ():
        print(f"  {name:32s} {summary[name]['median']:.6g} s"
              f"  (median of {summary[name]['n']}, raw)")
    print(f"  {'check_fail_ratio':32s} {n_failed / attempted:.6g} ratio"
          f"  ({n_failed} of {attempted} checks failed)")
    for label, _, detail in failures:
        print(f"  FAILED {label}: {detail}")
    print("facts " + json.dumps(facts))
    print(f"record {out_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
