"""Compare two result sets of the benchmark, per workload and metric.

    python3 perfbench/compare.py PARENT_DIR_OR_FILES... -- CHANGE_DIR_OR_FILES...

Each side is a list of result files (or directories holding them) written
by ``perfbench/run.py`` with ``--trace 0``.  Runs are paired in file-name
order, which is run order.  Verdicts follow the small-sandbox rule of the
metrics method this benchmark was built to:

* ``improved`` — at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side) and the medians differ, in the
  change's favour, by more than the parent's interquartile distance;
* ``unresolved`` — the parent's own spread (interquartile distance over
  median) is wider than the metric's bound, unless every change run beats
  every parent run;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound (``BENCHMARK.json``);
* ``no worse`` — anything else.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [values in run order]}`` of untraced runs."""
    files: list[Path] = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("result-*.json")) if p.is_dir() else [p])
    out: dict[tuple[str, str], list[float]] = {}
    for f in sorted(files, key=lambda f: f.name):
        res = json.loads(f.read_text())
        if res.get("trace"):
            continue
        for metric, v in res["metrics"].items():
            out.setdefault((res["workload"], metric), []).append(float(v["value"]))
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if len(parent) < 2 or len(change) < 2 or med_p == 0:
        return "unresolved", {"med_p": med_p, "med_c": med_c}
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    info = {"med_p": med_p, "med_c": med_c, "iqr_p": iqr, "wins": wins, "pairs": len(pairs)}
    gain = sign * (med_c - med_p)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", info
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr / abs(med_p) > bound and not all_better:
        return "unresolved", info
    if -gain / abs(med_p) > bound:
        return "worse", info
    return "no worse", info


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    cut = argv.index("--")
    parent, change = load(argv[:cut]), load(argv[cut + 1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':14s} {'metric':12s} {'parent median':>14s} {'change median':>14s} "
          f"{'parent IQR':>11s} {'wins':>6s}  verdict")
    for m in spec["end_to_end"]:
        for workload in sorted({w for w, _ in parent}):
            p, c = parent.get((workload, m["name"])), change.get((workload, m["name"]))
            if not p or not c:
                continue
            v, info = verdict(p, c, m["better"], m["bound"])
            wins = f"{info.get('wins', 0)}/{info.get('pairs', 0)}"
            print(f"{workload:14s} {m['name']:12s} {info['med_p']:14.5g} {info['med_c']:14.5g} "
                  f"{info.get('iqr_p', float('nan')):11.4g} {wins:>6s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
