"""Acceptance gate: nine criteria, one test each, run with pytest -v.

Each test is self-contained apart from the shared parameter sweep, which is
expensive enough to run once at module scope.  Timings use a monotonic clock
and assert the stated budgets; frozen dictionaries are exact, not subsets.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from tracecodes import code as code_mod
from tracecodes import gf2m, predict, weil

import cases
import oracles

SWEEP_MS = range(3, 15)


@pytest.fixture(scope="module")
def swept():
    t0 = time.monotonic()
    reports = predict.sweep(SWEEP_MS)
    return reports, time.monotonic() - t0


def _divisor_pairs(ms):
    return [(m, h) for m in ms for h in cases.divisors(m)]


def test_criterion_1_single_code_reproduction():
    t0 = time.monotonic()
    dist = cases.distribution(5, 1, code_mod.D0)
    elapsed = time.monotonic() - t0
    assert (dist.n, dist.k, dist.d_min) == (15, 5, 6)
    assert dist.nonzero == {6: 10, 8: 15, 10: 6}
    assert elapsed < 1.0
    print(f"criterion 1 PASS: [15,5,6] exact in {elapsed:.3f}s")


def test_criterion_2_paired_codes_reproduction():
    t0 = time.monotonic()
    d0 = cases.distribution(8, 2, code_mod.D0)
    d1 = cases.distribution(8, 2, code_mod.D1)
    elapsed = time.monotonic() - t0
    assert (d0.n, d0.k, d0.d_min) == (127, 8, 56)
    assert d0.nonzero == {56: 108, 64: 98, 80: 48, 96: 1}
    assert (d1.n, d1.k) == (128, 8)
    assert d1.nonzero == {56: 96, 64: 109, 80: 48, 96: 2}
    assert elapsed < 5.0
    print(f"criterion 2 PASS: both (8,2) codes exact in {elapsed:.3f}s")


def test_criterion_3_full_and_punctured_reproduction():
    full = cases.distribution(6, 1, code_mod.FULL_STAR)
    punc = cases.distribution(6, 1, code_mod.PUNCTURED_IMAGE)
    assert (full.n, full.k, full.d_min) == (63, 6, 24)
    assert full.nonzero == {24: 21, 36: 42}
    assert (punc.n, punc.k, punc.d_min) == (21, 6, 8)
    assert punc.nonzero == {8: 21, 12: 42}
    print("criterion 3 PASS: [63,6,24] and [21,6,8] exact")


def test_criterion_4_table_sweep(swept):
    reports, elapsed = swept
    assert elapsed <= 600.0
    main = [r for r in reports if not r.informational]
    assert all(r.status != predict.MISMATCH for r in main)
    # coverage: three unpunctured variants per divisor pair, plus the
    # punctured column exactly when the exponent ratio is even
    pairs = _divisor_pairs(SWEEP_MS)
    expected_rows = sum(3 + (1 - (m // h) % 2) for m, h in pairs)
    assert len(main) == expected_rows
    seen = {(r.m, r.h, r.variant) for r in main}
    assert len(seen) == expected_rows
    for r in main:
        want = cases.expected_source(r.m, r.h, r.variant)
        if want is None:
            assert r.status == predict.INAPPLICABLE, (r.m, r.h, r.variant)
        else:
            assert r.source == want and r.status == predict.MATCH, (r.m, r.h, r.variant)
    matched = sum(r.status == predict.MATCH for r in main)
    print(f"criterion 4 PASS: {matched} matches, 0 mismatches, "
          f"{len(main) - matched} out-of-hypothesis, {elapsed:.1f}s")


def test_criterion_5_printed_table_adjudication(swept):
    reports, _ = swept
    printed = predict.predict_distribution(5, 1, predict.T2)
    assert not predict.pless_check(printed)
    assert sum(w * c for w, c in printed.counts.items()) == 252
    assert printed.n * (1 << (printed.m - 1)) == 256
    # the corrected variant carries every odd-ratio trace-1 case
    corrected = [r for r in reports if not r.informational and r.source == predict.T2C]
    odd_pairs = {(m, h) for m, h in _divisor_pairs(SWEEP_MS) if (m // h) % 2}
    assert {(r.m, r.h) for r in corrected} == odd_pairs
    assert all(r.status == predict.MATCH for r in corrected)
    # and the as-printed rows are documented failures, one per odd pair
    adjudicated = [r for r in reports if r.informational]
    assert {(r.m, r.h) for r in adjudicated} == odd_pairs
    assert all(r.status == predict.MISMATCH for r in adjudicated)
    text = predict.format_sweep(reports)
    assert "# table2-as-printed adjudication" in text
    assert "moment=fail" in text
    print(f"criterion 5 PASS: 252 != 256 documented; corrected table matches "
          f"all {len(corrected)} odd-ratio cases")


def test_criterion_6_character_sum_oracle_equivalence():
    checked = 0
    for m in range(2, 13):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            for a in range(1, ctx.q):
                d = weil.weil_sum_direct_all_b(ctx, h, a)
                v, ex = weil.weil_sum_closed_all_b(ctx, h, a)
                assert ex.all() and np.array_equal(v, d), (m, h, a)
                checked += ctx.q
            rng = np.random.default_rng(m * 100 + h)
            for a in rng.integers(1, ctx.q, size=2):
                for b in rng.integers(0, ctx.q, size=3):
                    closed = weil.weil_sum_closed(ctx, h, int(a), int(b))
                    direct = weil.weil_sum_direct(ctx, h, int(a), int(b))
                    assert closed.value == direct, (m, h, a, b)
    print(f"criterion 6 PASS: {checked} (a, b) pairs, zero mismatches")


def test_criterion_7_image_trace_split_counts():
    # T0 - T1 = S_h(1, 0): the trace split is one Weil sum, read off the
    # direct route and held against the closed route
    counted = 0
    for m, h in _divisor_pairs(range(3, 13)):
        if (m // h) % 2:
            continue
        ctx = gf2m.build_field(m)
        s = weil.weil_sum_direct(ctx, h, 1, 0)
        assert weil.weil_sum_closed(ctx, h, 1, 0).value == s, (m, h)
        t0, t1 = (ctx.q + s) // 2, (ctx.q - s) // 2
        e = m // 2
        eps = -1 if (e // h) % 2 else 1
        assert t0 == (1 << (m - 1)) - eps * (1 << (e + h - 1)), (m, h)
        assert t1 == (1 << (m - 1)) + eps * (1 << (e + h - 1)), (m, h)
        if m <= 8:
            # independent recount, scalar route
            exp = (1 << h) + 1
            ones = sum(
                oracles.raw_trace(oracles.pow(ctx, x, exp), ctx.modulus, m) for x in range(ctx.q)
            )
            assert (t0, t1) == (ctx.q - ones, ones)
        counted += 1
    print(f"criterion 7 PASS: {counted} even-ratio cases, counts exact")


def test_criterion_8_secret_sharing_threshold(swept):
    reports, _ = swept
    half = Fraction(1, 2)
    exceptions = {}
    for r in reports:
        if r.informational or r.source not in (predict.T1, predict.T2C,
                                               predict.T3, predict.T4):
            continue
        if r.source in (predict.T1, predict.T2C):
            expect_ok = r.m > r.h + 2
        else:
            expect_ok = (r.m, r.h) not in {(4, 1), (6, 1)}
        assert r.ss_suitable == expect_ok, (r.m, r.h, r.variant)
        assert (r.ss_ratio > half) == expect_ok, (r.m, r.h, r.variant)
        if not expect_ok:
            exceptions[(r.m, r.h, r.variant)] = r.ss_ratio
    assert exceptions == {
        (3, 1, "d0"): Fraction(1, 3),
        (3, 1, "d1"): Fraction(1, 3),
        (4, 1, "d0"): Fraction(1, 3),
        (4, 1, "d1"): Fraction(1, 4),
        (6, 1, "d0"): Fraction(2, 5),
        (6, 1, "d1"): Fraction(2, 5),
    }
    print("criterion 8 PASS: threshold holds everywhere; the six undersized "
          "cases are reported with their exact ratios")


def test_criterion_9_property_suite():
    # field axioms, exhaustive
    for m in range(2, 7):
        ctx = gf2m.build_field(m)
        q = ctx.q
        t = np.zeros((q, q), dtype=np.int64)
        for x in range(q):
            for y in range(q):
                t[x, y] = oracles.mul(ctx, x, y)
        assert (t == t.T).all()
        assert (t[t, :] == t[:, t].transpose(1, 0, 2)).all()  # associativity
        xor = np.arange(q)[:, None] ^ np.arange(q)[None, :]
        assert (t[:, xor] == t[:, :, None] ^ t[:, None, :]).all()  # distributivity
        for x in range(1, q):
            assert t[x, oracles.pow(ctx, x, q - 2)] == 1
    # trace linearity and Frobenius invariance
    for m in range(2, 11):
        ctx = gf2m.build_field(m)
        tr = ctx.trace_table
        xs = np.arange(ctx.q)
        assert ((tr[:, None] ^ tr[None, :]) == tr[xs[:, None] ^ xs[None, :]]).all()
        sq = np.array([oracles.mul(ctx, x, x) for x in range(ctx.q)])
        assert (tr[sq] == tr).all()
    # basis independence: same distributions under a second modulus
    alt = {3: (11, 13), 4: (19, 25), 5: (37, 41), 6: (67, 73),
           7: (131, 137), 8: (283, 285)}
    for m, (mod_a, mod_b) in alt.items():
        assert gf2m.is_irreducible(mod_a) and gf2m.is_irreducible(mod_b)
        for h in cases.divisors(m):
            for kind in code_mod.variants(m, h):
                da = cases.distribution(m, h, kind, mod_a)
                db = cases.distribution(m, h, kind, mod_b)
                assert da.counts == db.counts, (m, h, kind)
    # per-codeword formula agrees with literal column counting
    for m, h in _divisor_pairs(range(3, 13)):
        ctx = gf2m.build_field(m)
        for a in (0, 1):
            lc = code_mod.make_code(ctx, h, (code_mod.D0, code_mod.D1)[a])
            weights = np.zeros(ctx.q, dtype=np.int64)
            xs = np.arange(ctx.q, dtype=np.int64)
            for phi in lc.phis:
                weights += ctx.trace_table[oracles.mul_vec(ctx, int(phi), xs)]
            for b in range(1, ctx.q):
                assert code_mod.codeword_weight_formula(ctx, h, a, b) == int(
                    weights[b]
                ), (m, h, a, b)
    print("criterion 9 PASS: axioms, trace identities, basis independence, "
          "formula equality all exact")
