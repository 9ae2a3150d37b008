"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload queries-20 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's inputs are drawn from
--seed.  Each workload runs in fresh single-threaded worker processes, one at
a time, that import tracecodes from src/ of this checkout.  With --trace 0,
SETUP_RUNS - 1 workers only set up, then one more sets up and runs whole
rounds for about --seconds; setup_s is the median of the set-up times.  With
--trace 1, one worker runs with every layer function wrapped in a span.
Human-readable lines go first; the last line of standard output is the JSON
result, whose metrics and units are the ones BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
#: A run must end within 180 s; leave room for starting and reporting.
BUDGET_S = 170.0
#: One thread per worker, whatever the numeric libraries would pick.
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to its end and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **SINGLE_THREAD)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker passed the {timeout:.0f} s left of the run") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    moduli = workloads.WORKLOADS[args.workload].inputs(args.seed)["moduli"]
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--moduli", json.dumps(sorted(moduli.items()))]
    try:
        if args.trace:
            trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            res = spawn(common + ["--seconds", str(args.seconds), "--trace", "1",
                                  "--trace-file", str(trace_file)], deadline)
            values = res["per_layer"]
            wanted = spec["per_layer"]
        else:
            setups = [spawn(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            res = spawn(common + ["--seconds", str(args.seconds)], deadline)
            values = {"setup_s": statistics.median(setups + [res["setup_s"]]),
                      "run_s": res["run_s"], "cpu_s": res["cpu_s"],
                      "peak_rss_mib": res["peak_rss_mib"]}
            wanted = spec["end_to_end"]
    except WorkerFailed as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for text, count in res["errors"].items():
        print(f"{count} x {text}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "tracecodes" / "__init__.py").is_file():
        print(f"error: no tracecodes sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
