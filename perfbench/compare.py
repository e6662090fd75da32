"""Compare two sets of benchmark results: parent commit against a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py`` (``.perfbench_out/``
of each checkout).  Runs of one workload are paired by seed.  For every
workload and end-to-end metric this prints each side's median and quartiles,
the bound from BENCHMARK.json, the pairs the change won (ties count for
neither) and a verdict:

- improved: the change wins at least 9/10 of the pairs and the medians differ,
  in the better direction, by more than the parent's quartile distance;
- unresolved: the run-to-run spread (quartile distance over median, either
  side) is wider than the bound, unless every change run beats every parent run;
- regressed: the change median is worse than the parent's by more than the bound;
- no worse: otherwise.

Figures that are reported but not gated (README.md says why) are shown
without a bound, and the traced runs give per-layer deltas of the medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{(workload, trace): [result, ...]} sorted by seed."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        doc = json.loads(path.read_text())
        runs[(doc["workload"], doc["meta"]["trace"])].append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["meta"]["workload_seed"])
    return runs


def values(docs, name) -> list:
    out = []
    for d in docs:
        entry = d["summary"]["metrics"].get(name) or d["extra"].get(name)
        if entry is not None:
            out.append(entry["value"])
    return out


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(parent_docs, change_docs, name) -> list:
    by_seed = defaultdict(list)
    for d in change_docs:
        by_seed[d["meta"]["workload_seed"]].append(d)
    out = []
    for d in parent_docs:
        matches = by_seed.get(d["meta"]["workload_seed"])
        if matches:
            other = matches.pop(0)
            p, c = values([d], name), values([other], name)
            if p and c:
                out.append((p[0], c[0]))
    return out


def verdict(parent, change, paired, bound, better) -> tuple:
    """(pairs the change won, verdict)."""
    worse = 1.0 if better == "lower" else -1.0   # > 0 means the change is worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in paired if worse * (c - p) < 0)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(worse * (c - p) < 0 for c in change for p in parent)
    if paired and wins >= 0.9 * len(paired) and worse * (pm - cm) > p3 - p1:
        return wins, "improved"
    if bound is None:
        return wins, "-"
    if spread > bound and not all_better:
        return wins, "unresolved"
    if worse * (cm - pm) > bound * abs(pm):
        return wins, "regressed"
    return wins, "no worse"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    fmt = "{:<8} {:<19} {:>34} {:>34} {:>6} {:>6}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "bound", "wins", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        p_docs, c_docs = parent.get((w, 0), []), change.get((w, 0), [])
        if not p_docs or not c_docs:
            print(f"{w:<8} (no untraced runs on {'parent' if not p_docs else 'change'} side)")
            continue
        extras = sorted({k for d in p_docs + c_docs for k in d["extra"]})
        for name in list(gated) + extras:
            pv, cv = values(p_docs, name), values(c_docs, name)
            if not pv or not cv:
                continue
            paired = pairs(p_docs, c_docs, name)
            m = gated.get(name, {"better": "lower", "bound": None})
            wins, text = verdict(pv, cv, paired, m["bound"], m["better"])
            side = "{1:.6g} [{0:.6g}, {2:.6g}] n={3}"
            print(fmt.format(w, name, side.format(*quartiles(pv), len(pv)),
                             side.format(*quartiles(cv), len(cv)),
                             "-" if m["bound"] is None else f"{m['bound']:.2f}",
                             f"{wins}/{len(paired)}", text))

    print("\nper-layer medians from traced runs (change - parent)")
    for w in [w["name"] for w in spec["workloads"]]:
        p_docs, c_docs = parent.get((w, 1), []), change.get((w, 1), [])
        if not p_docs or not c_docs:
            continue
        for name in spec["per_layer"]:
            pv, cv = values(p_docs, name["name"]), values(c_docs, name["name"])
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            rel = f"{100.0 * (cm - pm) / abs(pm):+.1f}%" if pm else "n/a"
            print(f"{w:<8} {name['name']:<32} {pm:>12.6g} -> {cm:<12.6g} "
                  f"{cm - pm:+.6g} {name['unit']} ({rel})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
