"""The benchmark's workloads: inputs drawn from a seed, the timed operations
of one round, and the check of every operation's output.

A round is a fixed list of operations.  Each Op has a timed ``run`` (it may
read the outputs of earlier ops of the same round from ``state``), an untimed
``extract`` that keeps what the check needs, and a ``check`` that runs after
every metric is taken.  Checks compare against the independent arithmetic of
reference.py or test a property the method must have; none compares against
a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    key: str
    run: Callable[[dict], object]
    extract: Callable[[object], object]
    check: Callable[[object, "References"], list[str]]


class References:
    """Reference fields and distributions, built once per check phase."""

    def __init__(self) -> None:
        self._fields: dict[tuple[int, int], ref.Field] = {}
        self._dists: dict[tuple, dict[int, int]] = {}

    def field(self, m: int, modulus: int) -> ref.Field:
        if (m, modulus) not in self._fields:
            self._fields[m, modulus] = ref.Field(m, modulus)
        return self._fields[m, modulus]

    def distribution(self, m: int, modulus: int, variant: str, h: int) -> dict[int, int]:
        key = (m, modulus, variant, h)
        if key not in self._dists:
            f = self.field(m, modulus)
            self._dists[key] = ref.distribution(f, ref.columns(f, variant, h))
        return self._dists[key]


# ---------------------------------------------------------------------------
# What the paper's hypotheses say about each (m, h, variant).
# ---------------------------------------------------------------------------

def proper_divisors(m: int) -> list[int]:
    return [h for h in range(1, m) if m % h == 0]


def expected_source(m: int, h: int, variant: str) -> str | None:
    """The table whose hypothesis covers the case, or None when none does."""
    mh = m // h
    if variant == "d0":
        return "T1" if mh % 2 else ("T3" if mh > 2 else None)
    if variant == "d1":
        return "T2C" if mh % 2 else ("T4" if mh > 2 else None)
    if mh % 2 or m <= 2:
        return None
    return "T5" if variant == "full" else "C6"


def sweep_cases(ms) -> list[tuple[int, int, str]]:
    """Every (m, h, variant) a sweep must report: three trace-set or full
    codes per (m, h), plus the punctured code where m/h is even."""
    cases = []
    for m in ms:
        for h in proper_divisors(m):
            cases += [(m, h, v) for v in ("d0", "d1", "full")]
            if (m // h) % 2 == 0 and m > 2:
                cases.append((m, h, "punctured"))
    return cases


def max_nonzero_weights(m: int, h: int, variant: str) -> int:
    if variant in ("full", "punctured"):
        return 2
    return 3 if (m // h) % 2 else 4


def check_distribution(m, h, variant, counts, n, k, expected) -> list[str]:
    """Properties every enumerated distribution must have, plus equality with
    the reference enumeration `expected`."""
    where = f"({m},{h},{variant})"
    problems = []
    if counts != expected:
        problems.append(f"{where} distribution {counts} != reference {expected}")
    if sum(counts.values()) != 1 << m:
        problems.append(f"{where} counts sum to {sum(counts.values())}, not 2^{m}")
    ref_k = ref.rank_from_distribution(m, expected)
    if k != ref_k:
        problems.append(f"{where} k={k}, reference rank {ref_k}")
    if counts.get(0) != 1 << (m - k):
        problems.append(f"{where} weight-0 count {counts.get(0)} != 2^(m-k) = {1 << (m - k)}")
    nonzero = {w: c for w, c in counts.items() if w > 0}
    if k == m and (sum(nonzero.values()) != (1 << m) - 1
                   or sum(w * c for w, c in nonzero.items()) != n << (m - 1)):
        problems.append(f"{where} fails the first two Pless moments")
    if len(nonzero) > max_nonzero_weights(m, h, variant):
        problems.append(f"{where} has {len(nonzero)} distinct nonzero weights")
    return problems


def payload_digest(payload) -> str:
    return hashlib.sha256(pickle.dumps(payload)).hexdigest()


def tally(keys, raised, digests, kept, problems) -> dict:
    """Attempted and failed operations over all rounds, and whether every
    output was correct.

    raised and digests hold one dict per round, keyed by operation.  An
    operation fails in a round when it raised, when its output differs from
    the output that was checked, or when that output failed its check.
    """
    checked = {key: payload_digest(p) for key, p in kept.items()}
    attempted = failed = 0
    errors: Counter = Counter()
    inconsistent = False
    for errs, dig in zip(raised, digests):
        for key in keys:
            attempted += 1
            if key in errs:
                failed += 1
                errors[f"{key}: {errs[key]}"] += 1
            elif dig[key] != checked[key]:
                failed += 1
                inconsistent = True
                errors[f"{key}: output differs from the checked round"] += 1
            elif problems[key]:
                failed += 1
    for key, found in problems.items():
        errors.update(f"{key}: {p}" for p in found)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not inconsistent and not any(problems.values()),
        "errors": dict(errors),
    }


def array_digest(a) -> tuple[int, str]:
    arr = np.asarray(a, dtype=np.int64)
    return arr.size, hashlib.sha256(arr.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# sweep-3-14: predict.sweep over m = 3..14 and its text report.
# ---------------------------------------------------------------------------

SWEEP_MS = range(3, 15)


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"moduli": {m: ref.random_irreducible(m, rng) for m in SWEEP_MS}}


def _sweep_payload(reports) -> list[dict]:
    out = []
    for r in reports:
        actual = {w: a for w, _, a in r.details if a}
        if not r.details:  # inapplicable cases carry no comparison rows
            actual = dict(r.counts)
            actual[0] = (1 << r.m) - sum(r.counts.values())
        out.append({
            "case": (r.m, r.h, r.variant), "source": r.source, "status": r.status,
            "n": r.n, "k": r.k, "d": r.d_min, "counts": dict(sorted(actual.items())),
            "moment": r.moment_check, "informational": r.informational,
        })
    return out


def _check_sweep(moduli):
    def check(payload, refs: References) -> list[str]:
        problems = []
        main = [r for r in payload if not r["informational"]]
        cases = [r["case"] for r in main]
        if sorted(cases) != sorted(sweep_cases(SWEEP_MS)):
            problems.append(f"sweep covered {len(cases)} cases, expected {len(sweep_cases(SWEEP_MS))}")
        for r in main:
            m, h, variant = r["case"]
            source = expected_source(m, h, variant)
            want = ("inapplicable", "") if source is None else ("match", source)
            if (r["status"], r["source"]) != want:
                problems.append(f"({m},{h},{variant}) reported {r['status']} {r['source']}, "
                                f"expected {want[0]} {want[1]}")
            expected = refs.distribution(m, moduli[m], variant, h)
            problems += check_distribution(m, h, variant, r["counts"], r["n"], r["k"], expected)
            if r["k"] == m and source is not None and r["moment"] != "pass":
                problems.append(f"({m},{h},{variant}) moment check {r['moment']}")
        adjudicated = sorted(r["case"] for r in payload if r["informational"])
        odd_d1 = sorted(c for c in cases if c[2] == "d1" and (c[0] // c[1]) % 2)
        if adjudicated != odd_d1:
            problems.append("printed-T2 adjudication rows do not cover the odd trace-1 cases")
        return problems
    return check


def _check_sweep_text(moduli):
    def check(text: str, refs: References) -> list[str]:
        problems = []
        rows = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            m, h, variant, status, n, k, d, *weights = line.split()
            counts = {int(w): int(c) for w, c in (x.split(":") for x in weights)}
            rows[int(m), int(h), variant] = (status, int(n), int(k), int(d), counts)
        if sorted(rows) != sorted(sweep_cases(SWEEP_MS)):
            problems.append(f"report lists {len(rows)} cases, expected {len(sweep_cases(SWEEP_MS))}")
        tally = {"match": 0, "mismatch": 0, "inapplicable": 0}
        for (m, h, variant), (status, n, k, d, counts) in rows.items():
            source = expected_source(m, h, variant)
            want = "inapplicable" if source is None else "match"
            tally[want] += 1
            expected = refs.distribution(m, moduli[m], variant, h)
            nonzero = {w: c for w, c in expected.items() if w}
            if (status, counts, k, d) != (want, nonzero, ref.rank_from_distribution(m, expected),
                                          min(nonzero)):
                problems.append(f"report line for ({m},{h},{variant}) disagrees with the reference")
        summary = "# summary cases={} match={} mismatch={} inapplicable={}".format(
            len(rows), tally["match"], tally["mismatch"], tally["inapplicable"])
        if summary not in text.splitlines():
            problems.append(f"summary line missing or wrong; expected {summary!r}")
        return problems
    return check


def sweep_ops(lib, ctxs, inputs) -> list[Op]:
    moduli = inputs["moduli"]
    return [
        Op("sweep", lambda st: lib.predict.sweep(SWEEP_MS, moduli=moduli),
           _sweep_payload, _check_sweep(moduli)),
        Op("format_sweep", lambda st: lib.predict.format_sweep(st["sweep"]),
           str, _check_sweep_text(moduli)),
    ]


# ---------------------------------------------------------------------------
# queries-20: construction, export, per-codeword weights and Weil sums at
# m = 20, where no enumeration is admitted.
# ---------------------------------------------------------------------------

QUERY_M = 20
QUERY_HS = (4, 5)  # m/h = 5 (odd) and m/h = 4 (even)
#: Each variant is built once; both regimes appear.  Every build costs a
#: full rank pass over up to 2^20 columns, so one per variant keeps a round
#: short enough for several rounds in a run.
QUERY_CODES = ((4, "d0"), (4, "d1"), (5, "full"))
PUNCTURED_H = 5
REFUSED = (4, "d0")  # the exact distribution requested of the trace-0 code at (20, 4)


def queries_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    q = 1 << QUERY_M
    return {
        "moduli": {QUERY_M: ref.random_irreducible(QUERY_M, rng)},
        "formula": [(h, t, rng.randrange(1, q)) for h in QUERY_HS for t in (0, 1) for _ in range(2)],
        "all_b": [(h, rng.randrange(1, q)) for h in QUERY_HS],
        "pairs": [(h, rng.randrange(1, q), rng.randrange(q)) for h in QUERY_HS for _ in range(2)],
    }


def _code_payload(lc) -> dict:
    return {"n": lc.n, "k": lc.k, "phis": array_digest(lc.phis)}


def queries_ops(lib, ctxs, inputs) -> list[Op]:
    m = QUERY_M
    ctx = ctxs[m]
    modulus = inputs["moduli"][m]
    ops = []

    for v in ("d0", "d1", "full"):
        def check_set(p, refs, v=v):
            got = array_digest(ref.defining_set(refs.field(m, modulus), v, 0))
            return [] if p == got else [f"defining set {v} differs from the reference"]
        ops.append(Op(f"defining_set {v}", lambda st, v=v: lib.code.defining_set(ctx, v),
                      lambda ds: array_digest(ds.elements), check_set))

    def check_code(h, v):
        def check(p, refs):
            f = refs.field(m, modulus)
            cols = ref.columns(f, v, h)
            k = ref.rank_from_distribution(m, refs.distribution(m, modulus, v, h))
            want = {"n": cols.size, "k": k, "phis": array_digest(cols)}
            return [] if p == want else [f"code ({m},{h},{v}) {p} != reference {want}"]
        return check

    for h, v in QUERY_CODES:
        ops.append(Op(f"build_code {h} {v}",
                      lambda st, h=h, v=v: lib.code.build_code(ctx, h, st[f"defining_set {v}"]),
                      _code_payload, check_code(h, v)))
    ops.append(Op(f"punctured_code {PUNCTURED_H}",
                  lambda st: lib.code.punctured_code(ctx, PUNCTURED_H),
                  _code_payload, check_code(PUNCTURED_H, "punctured")))

    def export(st):
        buf = io.StringIO()
        lib.code.write_generator_matrix(st[f"punctured_code {PUNCTURED_H}"], buf)
        return buf.getvalue()

    def check_export(text, refs):
        f = refs.field(m, modulus)
        cols = ref.columns(f, "punctured", PUNCTURED_H)
        return check_generator_text(text, m, modulus, cols, ref.codeword_rows(f, cols))

    ops.append(Op(f"export punctured {PUNCTURED_H}", export, str, check_export))

    for i, (h, t, b) in enumerate(inputs["formula"]):
        def check_formula(w, refs, h=h, t=t, b=b):
            want = ref.codeword_weight(refs.field(m, modulus), h, t, b)
            return [] if w == want else [f"formula weight ({h},{t},{b}) = {w}, literal count {want}"]
        ops.append(Op(f"codeword_weight_formula #{i}",
                      lambda st, h=h, t=t, b=b: lib.code.codeword_weight_formula(ctx, h, t, b),
                      int, check_formula))

    for h, a in inputs["all_b"]:
        def check_direct(values, refs, h=h, a=a):
            want = ref.weil_sums_all_b(refs.field(m, modulus), h, a)
            problems = [] if np.array_equal(values, want) else [f"all-b direct ({h},{a}) differs"]
            return problems + check_parseval(values, m, f"all-b direct ({h},{a})")

        def check_closed(p, refs, h=h, a=a):
            values, exact = p
            want = ref.weil_sums_all_b(refs.field(m, modulus), h, a)
            problems = []
            if not np.array_equal(values[exact], want[exact]):
                problems.append(f"all-b closed ({h},{a}) differs where exact")
            if not np.array_equal(np.abs(values[~exact]), np.abs(want[~exact])):
                problems.append(f"all-b closed ({h},{a}) differs in magnitude")
            return problems + check_parseval(values, m, f"all-b closed ({h},{a})")

        ops.append(Op(f"weil_sum_direct_all_b {h}",
                      lambda st, h=h, a=a: lib.weil.weil_sum_direct_all_b(ctx, h, a),
                      lambda x: x, check_direct))
        ops.append(Op(f"weil_sum_closed_all_b {h}",
                      lambda st, h=h, a=a: lib.weil.weil_sum_closed_all_b(ctx, h, a),
                      lambda x: x, check_closed))

    for i, (h, a, b) in enumerate(inputs["pairs"]):
        def pair(st, h=h, a=a, b=b):
            return lib.weil.weil_sum_direct(ctx, h, a, b), lib.weil.weil_sum_closed(ctx, h, a, b)

        def check_pair(p, refs, h=h, a=a, b=b):
            direct, exact, closed = p
            want = ref.weil_sum(refs.field(m, modulus), h, a, b)
            problems = [] if direct == want else [f"direct S_{h}({a},{b}) = {direct}, literal {want}"]
            if (closed != want) if exact else (abs(closed) != abs(want)):
                problems.append(f"closed S_{h}({a},{b}) = {closed} (exact={exact}), literal {want}")
            return problems

        ops.append(Op(f"weil pair #{i}", pair,
                      lambda out: (out[0], out[1].is_exact, out[1].value), check_pair))

    h, v = REFUSED

    def check_refused(p, refs):
        expected = refs.distribution(m, modulus, v, h)
        return check_distribution(m, h, v, p["counts"], p["n"], p["k"], expected)

    ops.append(Op(f"weight_distribution {h} {v}",
                  lambda st: lib.code.weight_distribution(st[f"build_code {h} {v}"]),
                  lambda d: {"counts": dict(sorted(d.counts.items())), "n": d.n, "k": d.k},
                  check_refused))
    return ops


def check_parseval(values: np.ndarray, m: int, what: str) -> list[str]:
    # |S| <= 2^((m+h)/2) with h < m, so the squares sum without overflow in int64
    total = int(np.square(values).sum())
    return [] if total == 1 << (2 * m) else [f"{what}: sum of squares {total} != 2^{2 * m}"]


def check_generator_text(text: str, m: int, modulus: int, cols: np.ndarray,
                         ref_rows: list[int]) -> list[str]:
    """Header, shape, reduced row-echelon form, and row space equal to the
    span of the reference codewords of messages 1, x, ..., x^(m-1)."""
    header, *lines = text.splitlines()
    n, k, hm, _, hmod = (int(x) for x in header.split())
    k_ref = ref.gf2_rank(ref_rows)
    problems = []
    if (n, k, hm, hmod) != (cols.size, k_ref, m, modulus):
        problems.append(f"header {header!r} disagrees with n={cols.size} k={k_ref} m={m}")
    if len(lines) != k or any(len(r) != n or set(r) - {"0", "1"} for r in lines):
        return problems + [f"expected {k} rows of {n} binary digits"]
    rows = [int(r[::-1], 2) for r in lines]  # bit j = coordinate j
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    if any(r == 0 for r in rows) or pivots != sorted(set(pivots)):
        problems.append("rows are not in echelon form")
    elif any(sum((r >> p) & 1 for r in rows) != 1 for p in pivots):
        problems.append("pivot columns are not reduced")
    if ref.gf2_rank(rows + ref_rows) != k_ref or ref.gf2_rank(rows) != k_ref:
        problems.append("row space differs from the span of the reference codewords")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    ops: Callable[[object, dict, dict], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-3-14", sweep_inputs, sweep_ops),
        Workload("queries-20", queries_inputs, queries_ops),
    )
}
