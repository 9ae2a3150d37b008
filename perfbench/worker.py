"""One benchmark worker: a fresh process that sets up, runs rounds, checks.

Run by run.py, never by hand.  Set-up is timed from the first line: it
imports tracecodes (and with it numpy) and builds every field the workload
uses.  Nothing else is imported before the set-up ends.  With --setup-only
the worker prints the set-up time and exits.  Otherwise it runs whole rounds
of the workload's operations until the next round would pass --seconds, reads
its peak memory, and only then checks the outputs.  The last line of its
standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--moduli", required=True, help="JSON list of [m, modulus] pairs")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file", default="")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    moduli = {int(m): int(p) for m, p in json.loads(args.moduli)}

    import tracecodes
    from tracecodes import code, gf2m, predict, weil

    lib = argparse.Namespace(gf2m=gf2m, code=code, weil=weil, predict=predict)
    tracer = None
    if args.trace:
        import tracing  # the script's directory leads sys.path

        tracer = tracing.Tracer()
        tracer.install(vars(lib))
    fields = {m: gf2m.build_field(m, p) for m, p in moduli.items()}
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource
    import statistics

    import workloads

    src = Path(tracecodes.__file__).resolve().parent
    if src != (HERE.parent / "src" / "tracecodes").resolve():
        raise SystemExit(f"imported tracecodes from {src}, not from this checkout")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if inputs["moduli"] != moduli:
        raise SystemExit("moduli passed to the worker differ from the seed's")

    def fresh_fields():
        # A new context over the set-up's tables: lazily derived tables
        # (dual coordinates, power tables) are built again in every round.
        return {m: gf2m.FieldCtx(c.m, c.modulus, c.generator, c.log_table,
                                 c.antilog_table, c.trace_table) for m, c in fields.items()}

    keys: list[str] = []
    walls, cpus, raised, digests = [], [], [], []
    kept: dict[str, object] = {}
    checks: dict[str, object] = {}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        ops = workload.ops(lib, fresh_fields(), inputs)
        keys = [op.key for op in ops]
        state: dict[str, object] = {}
        wall = cpu = 0.0
        errs: dict[str, str] = {}
        dig: dict[str, str] = {}
        if tracer:
            tracer.phase, tracer.round = tracing.RUN, len(walls)
        for op in ops:
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                out = op.run(state)
            except Exception as exc:  # counted as a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            else:
                err = None
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            if err is not None:
                errs[op.key] = err
                continue
            state[op.key] = out
            payload = op.extract(out)
            dig[op.key] = workloads.payload_digest(payload)
            if op.key not in kept:
                kept[op.key], checks[op.key] = payload, op.check
        del state, ops
        walls.append(wall)
        cpus.append(cpu)
        raised.append(errs)
        digests.append(dig)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "rounds": len(walls),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracing.layer_metrics(tracer.spans, len(walls), sum(walls))
        if args.trace_file:
            path = Path(args.trace_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "rounds": len(walls), "spans": tracer.dump()}))

    refs = workloads.References()
    problems = {key: checks[key](payload, refs) for key, payload in kept.items()}
    result.update(workloads.tally(keys, raised, digests, kept, problems))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
