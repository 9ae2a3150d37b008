"""Prediction tables, verification, power moments, secret-sharing ratios.

Frozen table values here were derived by evaluating the closed forms by hand
and cross-checked against enumeration; the as-printed three-weight trace-1
table is asserted to fail its second power moment, which is the whole point
of shipping it separately from the corrected variant.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

import pytest

from tracecodes import code as code_mod
from tracecodes import gf2m, predict

import cases


# ---------------------------------------------------------------------------
# Frozen table evaluations.
# ---------------------------------------------------------------------------

def test_three_weight_tables_at_m5():
    assert predict.predict_distribution(5, 1, predict.T1).counts == {6: 10, 8: 15, 10: 6}
    assert predict.predict_distribution(5, 1, predict.T2).counts == {6: 7, 8: 15, 10: 9}
    assert predict.predict_distribution(5, 1, predict.T2C).counts == {6: 6, 8: 15, 10: 10}


def test_three_weight_tables_at_m3():
    assert predict.predict_distribution(3, 1, predict.T1).counts == {1: 3, 2: 3, 3: 1}
    assert predict.predict_distribution(3, 1, predict.T2C).counts == {1: 1, 2: 3, 3: 3}
    # the as-printed variant degenerates to non-integer multiplicities here
    printed = predict.predict_distribution(3, 1, predict.T2)
    assert printed.counts == {1: Fraction(3, 2), 2: 3, 3: Fraction(5, 2)}


def test_four_weight_tables_at_m8():
    assert predict.predict_distribution(8, 2, predict.T3).counts == {
        56: 108, 64: 98, 80: 48, 96: 1,
    }
    assert predict.predict_distribution(8, 2, predict.T4).counts == {
        56: 96, 64: 109, 80: 48, 96: 2,
    }


def test_two_weight_tables_at_m6():
    t5 = predict.predict_distribution(6, 1, predict.T5)
    c6 = predict.predict_distribution(6, 1, predict.C6)
    assert t5.counts == {24: 21, 36: 42} and t5.n == 63
    assert c6.counts == {8: 21, 12: 42} and c6.n == 21


def test_punctured_table_scales_weights_only():
    for m, h in ((4, 1), (6, 1), (8, 2), (10, 1), (12, 2)):
        t5 = predict.predict_distribution(m, h, predict.T5)
        c6 = predict.predict_distribution(m, h, predict.C6)
        den = (1 << h) + 1
        assert c6.counts == {w // den: c for w, c in t5.counts.items()}
        assert all(w % den == 0 for w in t5.counts)


def test_weight_count_bounds():
    for m in range(3, 13):
        for h in cases.divisors(m):
            for src in predict.SOURCES:
                try:
                    pred = predict.predict_distribution(m, h, src)
                except predict.Inapplicable:
                    continue
                nz = [w for w in pred.counts if w > 0]
                limit = 2 if src in (predict.T5, predict.C6) else 4
                assert len(nz) <= limit, (m, h, src)


def test_applicability_gates():
    with pytest.raises(predict.Inapplicable):
        predict.predict_distribution(4, 1, predict.T1)  # needs m/h odd
    with pytest.raises(predict.Inapplicable):
        predict.predict_distribution(5, 1, predict.T3)  # needs m/h even
    with pytest.raises(predict.Inapplicable):
        predict.predict_distribution(4, 2, predict.T3)  # needs m/h > 2
    with pytest.raises(predict.Inapplicable):
        predict.predict_distribution(2, 1, predict.T5)  # needs m > 2
    with pytest.raises(predict.Inapplicable):
        predict.predict_distribution(3, 1, predict.C6)
    with pytest.raises(ValueError, match="unknown source"):
        predict.predict_distribution(5, 1, "T9")
    with pytest.raises(ValueError):
        predict.predict_distribution(5, 2, predict.T1)  # 2 does not divide 5
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match=f"m must be an integer >= 2, got {m}"):
            predict.predict_distribution(m, 1, predict.T1)


# ---------------------------------------------------------------------------
# Power moments.
# ---------------------------------------------------------------------------

def test_predictions_satisfy_power_moments_except_printed_variant():
    for m in range(3, 13):
        for h in cases.divisors(m):
            for src in predict.SOURCES:
                try:
                    pred = predict.predict_distribution(m, h, src)
                except predict.Inapplicable:
                    continue
                if m == 2 * h:
                    continue  # zero-weight rows; moment identity shifts
                expect = src != predict.T2
                assert predict.pless_check(pred) == expect, (m, h, src)


def test_printed_variant_second_moment_numbers():
    printed = predict.predict_distribution(5, 1, predict.T2)
    assert sum(printed.counts.values()) == 31  # first moment still holds
    weighted = sum(w * c for w, c in printed.counts.items())
    assert weighted == 252
    assert printed.n * (1 << 4) == 256
    assert not predict.pless_check(printed)


def test_pless_check_on_enumerations():
    for m, h, kind in ((5, 1, code_mod.D0), (5, 1, code_mod.D1), (8, 2, code_mod.D1)):
        assert predict.pless_check(cases.distribution(m, h, kind))
    # the [15,5,6] code without its weight-10 row fails the first moment: 25
    # nonzero messages, not 31
    dist = cases.distribution(5, 1, code_mod.D0)
    assert not predict.pless_check(
        dataclasses.replace(dist, counts={w: c for w, c in dist.counts.items() if w != 10}))


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------

def test_verify_match_and_mismatch():
    dist = cases.distribution(5, 1, code_mod.D1)
    good = predict.verify(predict.predict_distribution(5, 1, predict.T2C), dist, "d1")
    assert good.status == predict.MATCH
    assert good.moment_check == "pass"
    bad = predict.verify(predict.predict_distribution(5, 1, predict.T2), dist, "d1")
    assert bad.status == predict.MISMATCH
    diffs = {w for w, e, a in bad.details if e != a}
    assert diffs == {6, 10}


def test_verify_rejects_parameter_mismatch():
    dist = cases.distribution(5, 1, code_mod.D0)  # n=15, but the trace-1 table has n=16
    with pytest.raises(ValueError, match="parameter mismatch"):
        predict.verify(predict.predict_distribution(5, 1, predict.T2C), dist)
    # same n, but the counts cover 33 messages where the table covers 2^5
    dist = cases.distribution(5, 1, code_mod.D1)
    extra = dataclasses.replace(dist, counts={**dist.counts, 0: dist.counts[0] + 1})
    with pytest.raises(ValueError, match="covers 33 messages, expected 2\\^5"):
        predict.verify(predict.predict_distribution(5, 1, predict.T2C), extra)


def test_check_case_refuses_an_unknown_variant():
    # an unknown name must not fall through to the punctured table
    punctured = cases.distribution(6, 1, code_mod.PUNCTURED_IMAGE)
    assert predict.check_case(punctured, 6, 1, code_mod.PUNCTURED_IMAGE).status == predict.MATCH
    with pytest.raises(ValueError, match="unknown defining-set kind 'bogus'"):
        predict.check_case(punctured, 6, 1, "bogus")
    with pytest.raises(ValueError, match="unknown defining-set kind 'D0'"):
        predict.check_case(cases.distribution(6, 3, code_mod.D0), 6, 3, "D0")
    with pytest.raises(ValueError, match="unknown defining-set kind 'bogus'"):
        predict.check_case(punctured, 6, 1, "bogus", predict.C6)


def _distribution_of(pred):
    """The distribution a code has where pred holds: the zero codeword joins
    the weight-0 row, whose 2^(m-k) messages give k."""
    counts = dict(pred.counts)
    counts[0] = counts.get(0, 0) + 1
    k = pred.m + 1 - counts[0].bit_length()
    return code_mod.WeightDistribution(counts, pred.n, k, min(w for w in counts if w))


def test_check_case_picks_the_paper_table_up_to_m40():
    # enumeration stops at m = 20, so past it the choice of table is held
    # against cases.expected_source on distributions built from the tables
    for m in range(3, 41):
        units = (1 << m) - 1
        simplex = code_mod.WeightDistribution({0: 1, 1 << (m - 1): units}, units, m, 1 << (m - 1))
        for h in cases.divisors(m):
            for kind in code_mod.KINDS:
                want = cases.expected_source(m, h, kind)
                if want is None:
                    rep = predict.check_case(simplex, m, h, kind)
                    assert (rep.status, rep.source) == (predict.INAPPLICABLE, ""), (m, h, kind)
                else:
                    dist = _distribution_of(predict.predict_distribution(m, h, want))
                    rep = predict.check_case(dist, m, h, kind)
                    assert (rep.status, rep.source) == (predict.MATCH, want), (m, h, kind)


def test_verify_handles_norm_collapse():
    # m = 2h: the table predicts a zero-weight row; enumeration folds it
    # into the zero-codeword count and the rank drop is reported, not hidden
    dist = cases.distribution(4, 2, code_mod.FULL_STAR)
    rep = predict.verify(predict.predict_distribution(4, 2, predict.T5), dist, "full")
    assert rep.status == predict.MATCH
    assert rep.k == 2
    assert "rank collapse" in rep.note
    assert rep.moment_check.startswith("skipped")


def test_verify_norm_collapse_punctured():
    dist = cases.distribution(8, 4, code_mod.PUNCTURED_IMAGE)
    rep = predict.verify(predict.predict_distribution(8, 4, predict.C6), dist, "punctured")
    assert rep.status == predict.MATCH and rep.k == 4


# ---------------------------------------------------------------------------
# Secret sharing.
# ---------------------------------------------------------------------------

def test_secret_sharing_ratios():
    ratio, ok = predict.secret_sharing_ratio(cases.distribution(5, 1, code_mod.D0))
    assert (ratio, ok) == (Fraction(3, 5), True)
    ratio, ok = predict.secret_sharing_ratio(predict.predict_distribution(4, 1, predict.T3))
    assert (ratio, ok) == (Fraction(1, 3), False)
    ratio, ok = predict.secret_sharing_ratio(predict.predict_distribution(4, 1, predict.T4))
    assert (ratio, ok) == (Fraction(1, 4), False)
    ratio, ok = predict.secret_sharing_ratio(predict.predict_distribution(6, 1, predict.T4))
    assert (ratio, ok) == (Fraction(2, 5), False)
    ratio, ok = predict.secret_sharing_ratio(predict.predict_distribution(8, 2, predict.T3))
    assert (ratio, ok) == (Fraction(7, 12), True)


def test_secret_sharing_constant_weight_code():
    # single nonzero weight: ratio is exactly 1
    ratio, ok = predict.secret_sharing_ratio(cases.distribution(4, 2, code_mod.FULL_STAR))
    assert (ratio, ok) == (Fraction(1, 1), True)


def test_secret_sharing_needs_a_nonzero_weight():
    with pytest.raises(ValueError):
        predict.secret_sharing_ratio(
            code_mod.WeightDistribution(counts={0: 4}, n=3, k=2, d_min=0)
        )


# ---------------------------------------------------------------------------
# Sweep plumbing.
# ---------------------------------------------------------------------------

def test_sweep_small_range():
    reports = predict.sweep([3, 4])
    main = [r for r in reports if not r.informational]
    adj = [r for r in reports if r.informational]
    # m=3: three variants at h=1; m=4: h=1 has four, h=2 has four
    assert len(main) == 3 + 4 + 4
    assert all(r.status != predict.MISMATCH for r in main)
    # every odd-ratio trace-1 case carries one as-printed adjudication row
    assert [(r.m, r.h) for r in adj] == [(3, 1)]
    assert adj[0].status == predict.MISMATCH
    statuses = {(r.m, r.h, r.variant): r.status for r in main}
    assert statuses[(3, 1, "d0")] == predict.MATCH
    assert statuses[(3, 1, "full")] == predict.INAPPLICABLE
    assert statuses[(4, 1, "full")] == predict.MATCH
    assert statuses[(4, 2, "d0")] == predict.INAPPLICABLE
    assert statuses[(4, 2, "full")] == predict.MATCH


def test_sweep_is_deterministic():
    a = predict.format_sweep(predict.sweep([3, 4]))
    b = predict.format_sweep(predict.sweep([3, 4]))
    assert a == b


def test_format_sweep_content():
    text = predict.format_sweep(predict.sweep([3, 4]))
    lines = text.splitlines()
    assert "3 1 d0 match 3 3 1 1:3 2:3 3:1" in lines
    assert any(line.startswith("# table2-as-printed adjudication") for line in lines)
    assert any("moment=fail" in line for line in lines)
    assert lines[-1].startswith("# summary cases=11 match=")


def test_format_sweep_reads_the_stored_predictions(monkeypatch):
    # each report keeps the table it was checked against, so printing the
    # sweep evaluates no table a second time
    reports = predict.sweep(range(3, 15))
    for r in reports:
        if r.status == predict.INAPPLICABLE:
            assert r.prediction is None and r.source == "", (r.m, r.h, r.variant)
        else:
            assert r.source == r.prediction.source, (r.m, r.h, r.variant)
            assert (r.prediction.m, r.prediction.h) == (r.m, r.h)
    assert {r.source for r in reports if r.informational} == {predict.T2}
    with pytest.raises(AttributeError):
        reports[0].source = predict.T1
    inner, calls = predict.predict_distribution, []
    monkeypatch.setattr(predict, "predict_distribution",
                        lambda *args: calls.append(args) or inner(*args))
    text = predict.format_sweep(reports)
    assert calls == []
    assert "# 5 1 d1 mismatch moment=fail expected 6:7 8:15 10:9" in text.splitlines()


def test_adjudication_rows_reuse_their_main_row(monkeypatch):
    # an adjudication row is its main row with the as-printed comparison, so
    # the power moments and the secret-sharing ratio run once per code; the
    # row equals what the single-code route reports against T2
    calls = []
    for name in ("pless_check", "secret_sharing_ratio"):
        inner = getattr(predict, name)
        monkeypatch.setattr(predict, name, lambda dist, f=inner: calls.append(f.__name__) or f(dist))
    reports = predict.sweep(range(3, 15))
    main = [r for r in reports if not r.informational]
    adj = [r for r in reports if r.informational]
    assert len(adj) == 11
    assert calls.count("secret_sharing_ratio") == len(main)
    assert calls.count("pless_check") == sum(r.k == r.m for r in main)
    monkeypatch.undo()
    for r in adj:
        dist = code_mod.weight_distribution(code_mod.make_code(gf2m.build_field(r.m), r.h, r.variant))
        assert r == dataclasses.replace(
            predict.check_case(dist, r.m, r.h, r.variant, predict.T2), informational=True)


def test_sweep_runs_two_walsh_transforms_per_h(monkeypatch):
    # one per (m, h) for d0, one for d1 or the punctured code; counts only
    calls = []
    inner = gf2m.wht

    def counted(v):
        calls.append(v.size)
        return inner(v)

    monkeypatch.setattr(gf2m, "wht", counted)
    predict.sweep(range(3, 15))
    assert len(calls) == 52
    calls.clear()
    predict.sweep([20])
    assert len(calls) == 10


def test_sweep_builds_no_code(monkeypatch):
    # every k is read off a kernel count, so no column rank and no code is built
    def refuse(*args):
        raise AssertionError("the sweep built a code")

    for name in ("_rank", "build_code", "punctured_code"):
        monkeypatch.setattr(code_mod, name, refuse)
    assert len(predict.sweep(range(3, 15))) == 104
    assert len(predict.sweep([20])) == 20


def test_sweep_gathers_no_d1_columns(monkeypatch):
    # d1's weights are derived from d0's and the image's in every regime
    inner = code_mod.defining_set

    def no_d1(ctx, kind, h=0):
        if kind == code_mod.D1:
            raise AssertionError("the sweep gathered the d1 columns")
        return inner(ctx, kind, h)

    monkeypatch.setattr(code_mod, "defining_set", no_d1)
    assert len(predict.sweep(range(2, 15))) == 107
    assert len(predict.sweep([20])) == 20


def test_sweep_empty_range():
    assert predict.sweep([]) == []


def test_sweep_refuses_an_out_of_range_m_before_any_work(monkeypatch):
    with pytest.raises(ValueError) as refused:
        gf2m.build_field(21)
    calls = []
    monkeypatch.setattr(gf2m, "build_field", lambda *args: calls.append(args))
    for ms in (range(3, 22), [21, 3]):
        with pytest.raises(ValueError) as exc:
            predict.sweep(ms)
        assert str(exc.value) == str(refused.value) and calls == []


# Frozen: the range, its row counts and the time bound of the large sweep.
LARGE_SWEEP_MS = range(15, 21)
LARGE_SWEEP_ROWS = 68
LARGE_SWEEP_ADJUDICATIONS = 8
LARGE_SWEEP_SECONDS = 60.0


def test_sweep_m15_to_m20():
    t0 = time.monotonic()
    reports = predict.sweep(LARGE_SWEEP_MS)
    elapsed = time.monotonic() - t0
    main = [r for r in reports if not r.informational]
    assert len(main) == LARGE_SWEEP_ROWS
    assert len(reports) - len(main) == LARGE_SWEEP_ADJUDICATIONS
    assert len({(r.m, r.h, r.variant) for r in main}) == LARGE_SWEEP_ROWS
    for r in main:
        want = cases.expected_source(r.m, r.h, r.variant)
        if want is None:
            assert r.status == predict.INAPPLICABLE, (r.m, r.h, r.variant)
        else:
            assert (r.source, r.status) == (want, predict.MATCH), (r.m, r.h, r.variant)
        # the norm collapse: at m = 2h every column lies in GF(2^h)
        assert r.k == (r.h if r.m == 2 * r.h else r.m), (r.m, r.h, r.variant)
    collapsed = sorted((r.m, r.variant) for r in main if r.m == 2 * r.h)
    assert collapsed == [(m, v) for m in (16, 18, 20) for v in sorted(code_mod.KINDS)]
    assert elapsed <= LARGE_SWEEP_SECONDS
    print(f"m = 15..20 sweep: {len(main)} cases in {elapsed:.2f}s")
