"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE_RESULTS CHANGE_RESULTS

Each argument is a results directory written by run.py (``.perfbench/results``
of a checkout, holding ``<workload>/seed<n>-trace<t>.json``).  The metric
list and bounds come from BENCHMARK.json in the current directory.

For each workload and end-to-end metric it prints both sides' median and
quartiles over the untraced runs, the change's median delta as a share of the
base median (positive = worse), the metric's bound, and a verdict:

* ``unresolved`` (timed metrics): the two sides' CPU probes (a fixed work
  item each run times before and after its jobs, ``provenance.cpu_probe_s``)
  differ by more than the bound, so the machine's speed, not the code, may
  explain the delta;
* ``better``: the change wins at least 9 of 10 runs paired by seed (ties
  count for neither), and the medians differ by more than the base's own
  spread (its interquartile range);
* ``unresolved``: a side's spread (IQR / median) is wider than the bound and
  not every change run beats every base run;
* ``worse``: the median is worse by more than the bound;
* ``unchanged``: none of the above.

It then prints the per-layer metrics of the traced runs (medians and delta),
so a saving can be located in the layer that was meant to move.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(results: Path, trace: int) -> dict:
    """workload -> seed -> result dict."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(results.glob(f"*/seed*-trace{trace}.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault(res["workload"], {})[res["provenance"]["seed"]] = res
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(by_seed: dict) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(list(by_seed.values())))


def probe_median(results: dict) -> float:
    """Median CPU-probe seconds over a side's runs (before and after each)."""
    return statistics.median(v for r in results.values()
                             for v in r["provenance"]["cpu_probe_s"].values())


def verdict(base: dict, change: dict, lower_is_better: bool, bound: float,
            speed_shift: float = 0.0):
    """(verdict, signed worse-share, base spread, change spread).

    `speed_shift` is the change side's CPU-probe median over the base's,
    minus one; pass 0 for a metric machine speed does not move.
    """
    b, c = list(base.values()), list(change.values())
    bq, cq = quartiles(b), quartiles(c)
    b_med, c_med = statistics.median(b), statistics.median(c)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (c_med - b_med) / b_med
    b_spread, c_spread = (bq[2] - bq[0]) / b_med, (cq[2] - cq[0]) / c_med
    paired = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) < 0 for s in paired)
    all_better = (max(c) < min(b)) if lower_is_better else (min(c) > max(b))
    if abs(speed_shift) > bound:
        return "unresolved", worse, b_spread, c_spread
    if paired and wins >= 0.9 * len(paired) and -worse > b_spread:
        return "better", worse, b_spread, c_spread
    if max(b_spread, c_spread) > bound and not all_better:
        return "unresolved", worse, b_spread, c_spread
    if worse > bound:
        return "worse", worse, b_spread, c_spread
    return "unchanged", worse, b_spread, c_spread


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    base_dir, change_dir = Path(argv[0]), Path(argv[1])
    base, change = load(base_dir, 0), load(change_dir, 0)
    print(f"{'workload':16s} {'metric':12s} {'base q1/med/q3':>30s} {'change q1/med/q3':>30s}"
          f" {'delta':>8s} {'bound':>6s}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in base or wl not in change:
            print(f"{wl:16s} missing in {'base' if wl not in base else 'change'}")
            continue
        shift = probe_median(change[wl]) / probe_median(base[wl]) - 1.0
        print(f"{wl:16s} cpu probe    change/base - 1 = {shift:+.3f} (machine speed)")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = {s: r["end_to_end"][name] for s, r in base[wl].items()}
            c = {s: r["end_to_end"][name] for s, r in change[wl].items()}
            timed = m["unit"] in ("s", "1/s")
            v, worse, _, _ = verdict(b, c, m["better"] == "lower", m["bound"],
                                     shift if timed else 0.0)
            print(f"{wl:16s} {name:12s} {_fmt(b):>30s} {_fmt(c):>30s} {worse:+8.3f} "
                  f"{m['bound']:6.2f}  {v}  (n={len(b)}/{len(c)})")

    tbase, tchange = load(base_dir, 1), load(change_dir, 1)
    print("\nper-layer medians over traced runs, per traced cycle (base -> change):")
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in tbase or wl not in tchange:
            continue
        print(f"{wl}:")
        for m in spec["per_layer"]:
            name = m["name"]
            b = statistics.median(r["per_layer"][name] for r in tbase[wl].values())
            c = statistics.median(r["per_layer"][name] for r in tchange[wl].values())
            if b == 0 and c == 0:
                continue
            rel = f"{(c - b) / b:+.3f}" if b else "   new"
            print(f"  {name:40s} {b:12.5g} -> {c:12.5g} {m['unit']:12s} {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
