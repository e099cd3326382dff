"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py run --parent DIR --change DIR --out FILE [--workload W ...]
    python3 perfbench/compare.py report FILE

`run` makes MIN_PAIRS pairs of runs per workload, one per side with the same
seed (FIRST_SEED + pair), alternating which side goes first, and appends each
result to FILE as one JSON line.  Both checkouts must hold the same
benchmark, and the run length is the one BENCHMARK.json fixes.  `report`
judges them by the bounds in the BENCHMARK.json next to this directory and
prints one row per workload.  For every
end-to-end metric it says:

  gain        the change wins at least 9/10 of at least 10 alternating pairs
              and the medians differ by more than the parent's interquartile
              range, with no more failed ops than the parent
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound, and
              not every change run reads better than every parent run
  ok          none of the above: no regression within the bound
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = "perfbench"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
FIRST_SEED = 1000
WIN_SHARE = 0.9


def same_benchmark(a: Path, b: Path) -> bool:
    if not filecmp.cmp(a / "BENCHMARK.json", b / "BENCHMARK.json", shallow=False):
        return False
    names = sorted(p.name for p in (a / BENCH_DIR).glob("*.py"))
    if names != sorted(p.name for p in (b / BENCH_DIR).glob("*.py")):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a / BENCH_DIR, b / BENCH_DIR, names, shallow=False)
    return not mismatch and not errors


def run_one(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {root}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    if not same_benchmark(sides["parent"], sides["change"]):
        print("error: the two checkouts hold different benchmarks", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in workloads:
            for pair in range(MIN_PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    seed = FIRST_SEED + pair
                    result = run_one(sides[side], workload, seed, spec["run_seconds"])
                    record = {"workload": workload, "pair": pair, "side": side, "position": position,
                              "seed": seed, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} {side}: "
                          + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, pairs: list[tuple[float, float]], failed: tuple[int, int], alternating: bool) -> dict:
    """Judge one metric on one workload from (parent, change) value pairs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    worse_by = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > metric["bound"] and not all_better:
        status = "unresolved"
    elif worse_by > metric["bound"]:
        status = "regression"
    elif (alternating and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and sign * (cmed - pmed) > pq3 - pq1 and failed[1] <= failed[0]):
        status = "gain"
    else:
        status = "ok"
    return {"status": status, "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "wins": wins,
            "pairs": len(pairs), "change_pct": 100.0 * (cmed - pmed) / pmed if pmed else 0.0,
            "parent_spread": spread}


def cmd_report(args) -> int:
    records = [json.loads(line) for line in Path(args.file).read_text().splitlines() if line.strip()]
    spec = json.loads(SPEC.read_text())
    by = defaultdict(dict)
    for r in records:
        by[r["workload"]].setdefault(r["pair"], {})[r["side"]] = r
    metrics = spec["end_to_end"]
    print("workload".ljust(18) + "".join(m["name"].ljust(28) for m in metrics) + "failed p/c  correct")
    details = []
    for workload, pairs in by.items():
        complete = [p for _, p in sorted(pairs.items()) if "parent" in p and "change" in p]
        if len(complete) < 2:
            print(f"{workload:18s}too few complete pairs ({len(complete)})")
            continue
        alternating = all(p["parent"]["position"] == (0 if i % 2 == 0 else 1) for i, p in enumerate(complete))
        failed = (sum(p["parent"]["result"]["failed"] for p in complete),
                  sum(p["change"]["result"]["failed"] for p in complete))
        correct = all(p[s]["result"]["correct"] for p in complete for s in ("parent", "change"))
        cells = []
        for m in metrics:
            values = [(p["parent"]["result"]["metrics"][m["name"]]["value"],
                       p["change"]["result"]["metrics"][m["name"]]["value"]) for p in complete]
            v = verdict(m, values, failed, alternating)
            cells.append(f"{v['status']} {v['change_pct']:+.1f}% {v['wins']}/{v['pairs']}".ljust(28))
            details.append((workload, m, v))
        print(f"{workload:18s}" + "".join(cells) + f"{failed[0]}/{failed[1]}".ljust(12) + str(correct)
              + ("" if alternating else "  (pairs not alternating: no gain can be claimed)"))
    print()
    for workload, m, v in details:
        pq1, pmed, pq3 = v["parent"]
        cq1, cmed, cq3 = v["change"]
        print(f"{workload} {m['name']} [{m['unit']}, {m['better']} is better, bound {m['bound']:.0%}]: "
              f"parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}] (spread {v['parent_spread']:.1%}), "
              f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]: {v['status']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run alternating pairs of parent and change")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("report", help="judge every metric and workload in a results file")
    p.add_argument("file")
    p.set_defaults(func=cmd_report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
