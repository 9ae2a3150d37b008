"""Collect sets of benchmark runs, summarise them, and compare two sets.

    python3 perfbench/compare.py collect --out perfbench/out/base.json --seeds 1-10
    python3 perfbench/compare.py collect --out perfbench/out/base-trace.json --seeds 1-3 --trace 1
    python3 perfbench/compare.py summary perfbench/out/base.json perfbench/out/base-trace.json
    python3 perfbench/compare.py compare perfbench/out/base.json perfbench/out/new.json

collect runs perfbench/run.py once per workload and seed, with the run length
BENCHMARK.json fixes, and saves every result.  summary prints, per workload
and metric, the median, the quartiles and their distance as a share of the
median (the spread), and the share of failed operations; given both an
untraced and a traced set it also prints the tracing overhead, the traced
bench.traced_run_s minus the untraced run_s.  compare prints, per workload
and end-to-end metric, both medians and quartiles and whether the second
median is worse or better than the first by more than the metric's bound;
it exits 1 when any is worse or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(args) -> int:
    s = spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = [*s["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(s["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "trace": args.trace, "result": result})
            out.write_text(json.dumps({"runs": runs}, indent=1))  # partial sets survive a stop
            print(proc.stdout.strip().splitlines()[0], flush=True)
    print(f"wrote {len(runs)} runs to {out}")
    summarise(runs)
    return 0


def load(paths) -> list[dict]:
    runs = []
    for path in paths:
        runs += json.loads(Path(path).read_text())["runs"]
    return runs


def by_metric(runs: list[dict], workload: str, trace: int) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == trace:
            for name, m in r["result"]["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def failed_shares(runs: list[dict], workload: str) -> set[Fraction]:
    return {Fraction(r["result"]["failed"], r["result"]["attempted"])
            for r in runs if r["workload"] == workload}


def summarise(runs: list[dict]) -> None:
    s = spec()
    bounds = {m["name"]: m.get("bound") for m in s["end_to_end"]}
    units = {m["name"]: m["unit"] for m in s["end_to_end"] + s["per_layer"]}
    for w in [w["name"] for w in s["workloads"]]:
        mine = [r for r in runs if r["workload"] == w]
        if not mine:
            continue
        shares = ", ".join(str(f) for f in sorted(failed_shares(runs, w)))
        correct = all(r["result"]["correct"] for r in mine)
        traced = sum(r["trace"] for r in mine)
        print(f"\n{w}: {len(mine) - traced} untraced and {traced} traced runs, "
              f"correct={correct}, failed/attempted = {shares}")
        print(f"  {'metric':46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  bound")
        for trace in (0, 1):
            for name, values in by_metric(runs, w, trace).items():
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(name)
                note = "" if bound is None else f"{bound}" + (
                    "  (over a third of the bound)" if spread > bound / 3 else "")
                print(f"  {name + ' [' + units[name] + ']':46} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f}  {note}")
        traced = by_metric(runs, w, 1).get("bench.traced_run_s")
        untraced = by_metric(runs, w, 0).get("run_s")
        if traced and untraced:
            over = statistics.median(traced) - statistics.median(untraced)
            print(f"  tracing overhead: {over:.4g} s per round "
                  f"({over / statistics.median(untraced):.1%} of run_s)")


def compare(args) -> int:
    base, new = load([args.base]), load([args.new])
    worse = False
    for w in [w["name"] for w in spec()["workloads"]]:
        a, b = by_metric(base, w, 0), by_metric(new, w, 0)
        if not a or not b:
            continue
        print(f"\n{w}")
        for m in spec()["end_to_end"]:
            qa, qb = quartiles(a[m["name"]]), quartiles(b[m["name"]])
            change = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                change = -change
            verdict = ("WORSE beyond bound" if change > m["bound"] else
                       "better beyond bound" if change < -m["bound"] else "within bound")
            worse |= change > m["bound"]
            print(f"  {m['name']:14} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"change {change:+.1%} (+ is worse), bound {m['bound']:.0%}: {verdict}")
        fa, fb = failed_shares(base, w), failed_shares(new, w)
        print(f"  failed/attempted base {sorted(map(str, fa))} new {sorted(map(str, fb))}")
        worse |= fa != fb
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run every workload for every seed and save the results")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    c.add_argument("--workloads", default="", help="comma-separated; default all")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("summary", help="summarise saved sets of runs")
    s.add_argument("files", nargs="+")
    k = sub.add_parser("compare", help="compare two saved sets, end-to-end metrics")
    k.add_argument("base")
    k.add_argument("new")
    args = p.parse_args(argv)
    if args.command == "collect":
        return collect(args)
    if args.command == "summary":
        summarise(load(args.files))
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
