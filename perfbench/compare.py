"""Compare two result sets of the benchmark.

Usage (from the repository root):

    python3 perfbench/compare.py --base OLD.json ... --new NEW.json ...

A result set is any number of records written by perfbench/run.py, one per
run.  The comparison is refused (exit 2) when any two records differ in
their machine facts, their run length (--seconds) or their size (--tiny).  For every workload and end-to-end metric it prints the
median over runs on each side, each side's quartile spread as a share of
its median, and a verdict against the metric's bound in BENCHMARK.json:

  worse       the new median is worse than the base median by more than the bound
  unresolved  a spread exceeds the bound and not every new run beats every base run
  better / within bound   otherwise

Exit code 1 when any metric is worse.  Per-layer records are listed side by
side without a verdict; per-layer metrics have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def _load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def _spread(values: list[float]) -> float:
    s = run.summarize(values)
    return (s["q3"] - s["q1"]) / s["median"]


def _by_metric(records: list[dict], workload: str, trace: int) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for rec in records:
        if rec["workload"] == workload and rec["trace"] == trace:
            for name, m in rec["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def compare(base: list[dict], new: list[dict], bench: dict) -> tuple[int, list[str]]:
    keys = {json.dumps({k: r[k] for k in ("facts", "seconds", "tiny")}, sort_keys=True)
            for r in base + new}
    if len(keys) > 1:
        return 2, ["refused: the records differ in machine facts, --seconds or --tiny:",
                   *sorted(keys)]
    lines = []
    worse = False
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    pairs = sorted({(r["workload"], r["trace"]) for r in base}
                   & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in pairs:
        b, n = _by_metric(base, workload, trace), _by_metric(new, workload, trace)
        for name in [k for k in b if k in n]:
            mb, mn = statistics.median(b[name]), statistics.median(n[name])
            sb, sn = _spread(b[name]), _spread(n[name])
            row = (f"{workload:10s} {name:32s} base {mb:.6g} ({len(b[name])} runs, spread {sb:.3f})"
                   f"  new {mn:.6g} ({len(n[name])} runs, spread {sn:.3f})")
            spec = end_to_end.get(name)
            if trace or spec is None:
                lines.append(row)
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change = sign * (mn - mb) / mb  # positive is worse
            if change > spec["bound"]:
                verdict, worse = "worse", True
            elif max(sb, sn) > spec["bound"] and not (
                    max(sign * v for v in n[name]) < min(sign * v for v in b[name])):
                verdict = "unresolved"
            else:
                verdict = "better" if change < 0 else "within bound"
            lines.append(f"{row}  change {change:+.3f} (bound {spec['bound']}) {verdict}")
    return (1 if worse else 0), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, lines = compare(_load(args.base), _load(args.new), bench)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
