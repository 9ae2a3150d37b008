"""Tests of the benchmark's own arithmetic, checks and accounting.

They import nothing from tracecodes: the reference must stand on its own.
Run with ``python -m pytest perfbench``.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import tracing
import workloads


def code_distribution(m, modulus, variant, h):
    f = ref.Field(m, modulus)
    return ref.distribution(f, ref.columns(f, variant, h))


def test_irreducibility():
    assert ref.is_irreducible(0b111)
    assert ref.is_irreducible(0b100101)  # x^5 + x^2 + 1
    assert ref.is_irreducible(0x11B)  # x^8 + x^4 + x^3 + x + 1
    assert not ref.is_irreducible(0b101)  # (x + 1)^2
    assert not ref.is_irreducible(0b10101)  # (x^2 + x + 1)^2
    for m in (3, 9, 20):
        p = ref.random_irreducible(m, random.Random(m))
        assert p.bit_length() - 1 == m and ref.is_irreducible(p)
        assert p == ref.random_irreducible(m, random.Random(m))


def test_field_arithmetic_agrees_with_scalars():
    f = ref.Field(7, 0b10000011)  # x^7 + x + 1
    rng = np.random.default_rng(0)
    xs, ys = rng.integers(0, f.q, 64), rng.integers(0, f.q, 64)
    assert [f.mul(int(x), int(y)) for x, y in zip(xs, ys)] == list(f.mul_arrays(xs, ys))
    assert [f.frobenius_scalar(int(x), 3) for x in xs] == list(f.frobenius(xs, 3))
    assert [f.mul(5, int(x)) for x in xs] == list(f.mul_const(5, xs))
    assert [f.trace_scalar(int(x)) for x in xs] == list(f.trace(xs))
    assert int(f.trace(f.elements()).sum()) == f.q // 2
    b = 77
    assert list(f.trace(f.mul_const(b, xs))) == [bin(b & int(d)).count("1") & 1 for d in f.dual(xs)]


@pytest.mark.parametrize("modulus", [0b100101, 0b111101])
def test_paper_code_15_5_6(modulus):
    assert code_distribution(5, modulus, "d0", 1) == {0: 1, 6: 10, 8: 15, 10: 6}


@pytest.mark.parametrize("modulus", [0x11B, 0x11D])
def test_paper_pair_8_2(modulus):
    assert code_distribution(8, modulus, "d0", 2) == {0: 1, 56: 108, 64: 98, 80: 48, 96: 1}
    assert code_distribution(8, modulus, "d1", 2) == {0: 1, 56: 96, 64: 109, 80: 48, 96: 2}


@pytest.mark.parametrize("modulus", [0b1000011, 0b1100111])
def test_paper_codes_63_6_24_and_21_6_8(modulus):
    f = ref.Field(6, modulus)
    assert ref.columns(f, "full", 1).size == 63
    assert ref.columns(f, "punctured", 1).size == 21
    assert code_distribution(6, modulus, "full", 1) == {0: 1, 24: 21, 36: 42}
    assert code_distribution(6, modulus, "punctured", 1) == {0: 1, 8: 21, 12: 42}


@pytest.mark.parametrize("m,h", [(5, 1), (6, 1), (6, 2), (6, 3), (8, 2)])
def test_weil_sums_literal_and_batched_agree(m, h):
    f = ref.Field(m, ref.random_irreducible(m, random.Random(m)))
    for a in (1, 3, f.q - 1):
        batch = ref.weil_sums_all_b(f, h, a)
        assert [ref.weil_sum(f, h, a, b) for b in range(f.q)] == list(batch)
        assert int(np.square(batch).sum()) == 1 << (2 * m)  # Parseval
        assert workloads.check_parseval(batch, m, "") == []


def test_literal_codeword_weight_matches_enumeration():
    f = ref.Field(6, 0b1000011)
    for t, variant in ((0, "d0"), (1, "d1")):
        by_message = ref.weights_by_message(f, ref.columns(f, variant, 2))
        for b in (1, 2, 40, 63):
            assert ref.codeword_weight(f, 2, t, b) == by_message[b]


def test_rank_collapse_m_equals_2h():
    counts = code_distribution(4, 0b10011, "full", 2)
    assert ref.rank_from_distribution(4, counts) == 2


def test_perturbed_distribution_is_a_failed_operation():
    expected = code_distribution(5, 0b100101, "d0", 1)
    good = workloads.check_distribution(5, 1, "d0", dict(expected), 15, 5, expected)
    assert good == []
    perturbed = dict(expected)
    perturbed[6] -= 1
    perturbed[8] += 1
    problems = workloads.check_distribution(5, 1, "d0", perturbed, 15, 5, expected)
    assert problems
    digest = workloads.payload_digest(perturbed)
    res = workloads.tally(["op"], [{}, {}], [{"op": digest}, {"op": digest}],
                          {"op": perturbed}, {"op": problems})
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 2, False)


def test_raised_operation_is_failed_but_not_incorrect():
    res = workloads.tally(["a", "b"], [{"b": "ValueError: refused"}],
                          [{"a": workloads.payload_digest(1)}], {"a": 1}, {"a": []})
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, True)
    assert res["errors"] == {"b: ValueError: refused": 1}


def test_output_that_changes_between_rounds_is_caught():
    d1, d2 = workloads.payload_digest(1), workloads.payload_digest(2)
    res = workloads.tally(["a"], [{}, {}], [{"a": d1}, {"a": d2}], {"a": 1}, {"a": []})
    assert (res["failed"], res["correct"]) == (1, False)


def test_generator_text_check():
    f = ref.Field(6, 0b1000011)
    cols = ref.columns(f, "d0", 1)
    rows = ref.codeword_rows(f, cols)
    # reduce the reference rows to reduced row-echelon form (pivot = lowest bit)
    reduced = []
    for v in rows:
        for r in reduced:
            if (v >> ((r & -r).bit_length() - 1)) & 1:
                v ^= r
        if v:
            p = (v & -v).bit_length() - 1
            reduced = [r ^ v if (r >> p) & 1 else r for r in reduced] + [v]
    reduced.sort(key=lambda r: r & -r)
    n = cols.size

    def text(rs):
        lines = [format(r, f"0{n}b")[::-1] for r in rs]
        return "\n".join([f"{n} {len(rs)} 6 1 {0b1000011}"] + lines) + "\n"

    assert workloads.check_generator_text(text(reduced), 6, 0b1000011, cols, rows) == []
    broken = reduced[:-1] + [reduced[-1] ^ (1 << (n - 1))]
    assert workloads.check_generator_text(text(broken), 6, 0b1000011, cols, rows)


def test_sweep_cases_follow_the_hypotheses():
    cases = workloads.sweep_cases(workloads.SWEEP_MS)
    assert len(cases) == 93
    inapplicable = {c for c in cases if workloads.expected_source(*c) is None}
    assert inapplicable == (
        {(m, h, v) for m, h, v in cases if v in ("d0", "d1") and m == 2 * h}
        | {(m, h, "full") for m, h, _ in cases if (m // h) % 2}
    )


def test_layer_self_times_account_for_the_round():
    S = tracing.Span
    spans = [
        S("predict.sweep", 0.0, 10.0, -1, tracing.RUN, 0),
        S("code.build_code", 1.0, 4.0, 0, tracing.RUN, 0),
        S("gf2m.gf2_rank", 2.0, 3.5, 1, tracing.RUN, 0),
        S("code.weight_distribution", 11.0, 11.5, -1, tracing.RUN, 0, error="ValueError"),
        S("gf2m.build_field", -3.0, -1.0, -1, tracing.SETUP, -1),
    ]
    out = tracing.layer_metrics(spans, rounds=1, ops_wall_s=12.0)
    assert out["code.build_code.self_s"] == pytest.approx(1.5)
    assert out["predict.sweep.self_s"] == pytest.approx(7.0)
    assert out["gf2m.build_field.setup_s"] == pytest.approx(2.0)
    assert out["code.weight_distribution.refused"] == 1
    assert out["bench.unspanned_s"] == pytest.approx(1.5)
    self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert self_total + out["bench.unspanned_s"] == pytest.approx(out["bench.traced_run_s"])


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "cpu_s", "peak_rss_mib"]
