"""Character-sum tests.

A pure-Python evaluator on the table-free multiply and trace of
tests/oracles.py serves as the independent oracle for small fields; the
closed forms are then checked against direct summation exhaustively,
including the batch kernels.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import code as code_mod
from tracecodes import gf2m, weil

import cases
import oracles


def _oracle_sum(m: int, modulus: int, h: int, a: int, b: int) -> int:
    # independent of the package's tables on purpose
    def mul(x: int, y: int) -> int:
        return oracles.raw_mul(x, y, modulus, m)

    exp = (1 << h) + 1
    s = 0
    for x in range(1 << m):
        p = 1
        for _ in range(exp):  # x^exp by repeated multiplication
            p = mul(p, x)
        s += -1 if oracles.raw_trace(mul(a, p) ^ mul(b, x), modulus, m) else 1
    return s


def test_direct_sum_matches_independent_oracle():
    for m in (2, 3, 4):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            for a in range(1, ctx.q):
                for b in range(ctx.q):
                    assert weil.weil_sum_direct(ctx, h, a, b) == _oracle_sum(
                        m, ctx.modulus, h, a, b
                    )


def test_direct_sum_oracle_spot_checks_m5():
    ctx = gf2m.build_field(5)
    for a, b in ((1, 0), (2, 3), (17, 30), (31, 1), (5, 5)):
        assert weil.weil_sum_direct(ctx, 1, a, b) == _oracle_sum(5, ctx.modulus, 1, a, b)


def test_frozen_values():
    ctx2 = gf2m.build_field(2)
    assert weil.weil_sum_direct(ctx2, 1, 1, 0) == 4  # direct 4-term sum
    assert weil.weil_sum_direct(ctx2, 1, ctx2.generator, 0) == -2
    assert weil.weil_sum_closed(ctx2, 1, 1, 0).value == 4
    assert weil.weil_sum_closed(ctx2, 1, ctx2.generator, 0).value == -2

    ctx6 = gf2m.build_field(6)
    a = oracles.pow(ctx6, ctx6.generator, 3)  # a cube, m/h even regime
    got = weil.weil_sum_closed(ctx6, 1, a, 0)
    assert got.is_exact and got.value == 16
    assert weil.weil_sum_direct(ctx6, 1, a, 0) == 16


def test_odd_regime_vanishes_at_b_zero():
    for m in (3, 5, 7, 9):
        ctx = gf2m.build_field(m)
        for a in range(1, ctx.q):
            assert weil.weil_sum_direct(ctx, 1, a, 0) == 0
        vals, exact = weil.weil_sum_closed_all_b(ctx, 1, 3)
        assert vals[0] == 0 and exact[0]


def test_odd_regime_magnitude_branch():
    # m=3, h=1, a=1: the signed closed value equals direct summation, and it
    # is zero exactly where the relative trace of b/c is not 1 (here c = 1)
    ctx = gf2m.build_field(3)
    for b in range(ctx.q):
        got = weil.weil_sum_closed(ctx, 1, 1, b)
        assert got.value == weil.weil_sum_direct(ctx, 1, 1, b)
        assert (got.value == 0) == (oracles.relative_trace(b, 1, ctx.modulus, 3) != 1)
    # a spread of a at m = 9, with c the unique (2^h+1)-th root of a
    ctx = gf2m.build_field(9)
    for h in (1, 3):
        cubes = {oracles.pow(ctx, c, (1 << h) + 1): c for c in range(1, ctx.q)}
        for a in range(1, ctx.q, 37):
            cinv = oracles.pow(ctx, cubes[a], ctx.q - 2)
            for b in range(0, ctx.q, 11):
                got = weil.weil_sum_closed(ctx, h, a, b).value
                assert got == weil.weil_sum_direct(ctx, h, a, b), (h, a, b)
                beta = oracles.mul(ctx, b, cinv)
                assert (got == 0) == (oracles.relative_trace(beta, h, ctx.modulus, 9) != 1), (h, a, b)


def test_closed_equals_direct_exhaustive_small_m():
    """Every (a, b) pair for every divisor, m up to 8, through the batch
    kernels; for sampled a, the scalar closed value equals the batch value
    at every b, and sampled b are checked against direct summation."""
    for m in range(2, 9):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            for a in range(1, ctx.q):
                d = weil.weil_sum_direct_all_b(ctx, h, a)
                v, ex = weil.weil_sum_closed_all_b(ctx, h, a)
                assert ex.all() and np.array_equal(v, d), (m, h, a)
            rng = np.random.default_rng(m * 10 + h)
            for a in rng.integers(1, ctx.q, size=3):
                v, _ = weil.weil_sum_closed_all_b(ctx, h, int(a))
                assert [weil.weil_sum_closed(ctx, h, int(a), b).value for b in range(ctx.q)] == v.tolist()
                for b in rng.integers(0, ctx.q, size=5):
                    s = weil.weil_sum_closed(ctx, h, int(a), int(b))
                    assert s.is_exact and s.value == int(v[b])
                    assert s.value == weil.weil_sum_direct(ctx, h, int(a), int(b))


def test_batch_direct_matches_scalar_direct():
    for m in (2, 3, 4, 5):
        ctx = gf2m.build_field(m)
        for a in range(1, ctx.q):
            d = weil.weil_sum_direct_all_b(ctx, 1, a)
            for b in range(ctx.q):
                assert int(d[b]) == weil.weil_sum_direct(ctx, 1, a, b)


def test_direct_sum_edges():
    # m = 2: q - 1 = 3, and b = g^2 reads the slice that ends at the last
    # entry of the trace-of-antilog table
    ctx = gf2m.build_field(2)
    for a in range(1, 4):
        d = weil.weil_sum_direct_all_b(ctx, 1, a)
        assert d.dtype == np.int64
        for b in range(4):
            want = _oracle_sum(2, ctx.modulus, 1, a, b)
            assert weil.weil_sum_direct(ctx, 1, a, b) == int(d[b]) == want
    for m in (5, 6):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            # a = 1, b = 0: the sum of (-1)^Tr(x^(2^h+1))
            s = weil.weil_sum_direct(ctx, h, 1, 0)
            assert s == _oracle_sum(m, ctx.modulus, h, 1, 0)
            assert s == int(weil.weil_sum_direct_all_b(ctx, h, 1)[0])


def test_batch_direct_matches_scalar_direct_m20():
    ctx = gf2m.build_field(20)
    rng = np.random.default_rng(20)
    for h in (4, 5):
        for _ in range(2):
            a = int(rng.integers(1, ctx.q))
            d = weil.weil_sum_direct_all_b(ctx, h, a)
            assert d.dtype == np.int64
            for b in [0, *(int(b) for b in rng.integers(1, ctx.q, size=3))]:
                assert weil.weil_sum_direct(ctx, h, a, b) == int(d[b])


def test_closed_equals_direct_all_b_m13_to_m20():
    # criterion 6 is exhaustive up to m = 12; above it, two a per divisor,
    # in the default basis and in that of the largest modulus, since the
    # right sides go through the dual coordinates of the basis
    rng = np.random.default_rng(1320)
    for m in range(13, 21):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            for a in rng.integers(1, ctx.q, size=2):
                v, ex = weil.weil_sum_closed_all_b(ctx, h, int(a))
                d = weil.weil_sum_direct_all_b(ctx, h, int(a))
                assert v.dtype == d.dtype == np.int64, (m, h)
                assert ex.all() and np.array_equal(v, d), (m, h, int(a))
        ctx = gf2m.build_field(m, cases.largest_irreducible(m))
        for h in cases.divisors(m):
            for a in rng.integers(1, ctx.q, size=2):
                v, ex = weil.weil_sum_closed_all_b(ctx, h, int(a))
                d = weil.weil_sum_direct_all_b(ctx, h, int(a))
                assert ex.all() and np.array_equal(v, d), (m, ctx.modulus, h, int(a))


def test_direct_kernels_call_nothing_of_the_closed_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route reached the closed route")

    ctx = gf2m.build_field(8)
    expect = {(h, b): _oracle_sum(8, ctx.modulus, h, 5, b) for h in (1, 2, 4) for b in (0, 9)}
    for name in ("_regime", "_character"):
        monkeypatch.setattr(weil, name, refuse)
    for name in ("gf2_solve", "quadratic_form", "quadratic_table", "power_map_table"):
        monkeypatch.setattr(gf2m, name, refuse)
    for (h, b), want in expect.items():
        assert weil.weil_sum_direct(ctx, h, 5, b) == want
        assert weil.weil_sum_direct_all_b(ctx, h, 5)[b] == want
    with pytest.raises(AssertionError, match="closed route"):
        weil.weil_sum_closed_all_b(ctx, 1, 5)


def test_even_regime_value_set():
    # exact values are 0 or +/-2^e or +/-2^(e+h)
    for m, h in ((4, 1), (6, 1), (8, 2)):
        ctx = gf2m.build_field(m)
        e = m // 2
        allowed = {0, 1 << e, -(1 << e), 1 << (e + h), -(1 << (e + h))}
        for a in range(1, ctx.q):
            v, ex = weil.weil_sum_closed_all_b(ctx, h, a)
            assert ex.all()
            assert set(int(x) for x in np.unique(v)) <= allowed


def _powers(ctx, h: int) -> set[int]:
    """The (2^h+1)-th powers of the units, by literal powering."""
    return set(oracles.power_table(ctx, (1 << h) + 1)[1:].tolist())


def _magnitudes(ctx, h: int, a: int) -> set[int]:
    """The magnitudes of the nonzero closed values S_h(a, b) over every b."""
    v, _ = weil.weil_sum_closed_all_b(ctx, h, a)
    return {abs(int(x)) for x in v if x}


def test_power_branch_magnitude_is_large():
    # when a is a (2^h+1)-th power, every nonzero value has the 2^(e+h)
    # magnitude; the small magnitude belongs to the permutation branch
    ctx = gf2m.build_field(4)
    e, h = 2, 1
    powers = _powers(ctx, h)
    for a in range(1, 16):
        v, _ = weil.weil_sum_closed_all_b(ctx, h, a)
        mags = {abs(int(x)) for x in v if x}
        if a in powers:
            assert mags == {1 << (e + h)}
            assert int((v != 0).sum()) == 1 << (4 - 2 * h)
        else:
            assert mags == {1 << e}
            assert not np.any(v == 0)


def test_is_power_against_exhaustive_powering():
    # the branch is observable: a is a (2^h+1)-th power exactly when its
    # nonzero closed values all have the power-branch magnitude, 2^(e+h)
    # when m/h is even; when m/h is odd every a is a power and every a
    # has the one magnitude 2^((m+h)/2)
    for m, h in ((4, 1), (6, 1), (6, 2), (8, 2)):
        ctx = gf2m.build_field(m)
        big = 1 << ((m + h) // 2 if (m // h) % 2 else m // 2 + h)
        observed = {a for a in range(1, ctx.q) if _magnitudes(ctx, h, a) == {big}}
        assert observed == _powers(ctx, h), (m, h)


def test_is_power_frozen_m4_cubes():
    ctx = gf2m.build_field(4)
    assert sorted(_powers(ctx, 1)) == [1, 8, 10, 12, 15]
    assert [a for a in range(1, 16) if _magnitudes(ctx, 1, a) == {8}] == [1, 8, 10, 12, 15]


def test_is_power_always_true_in_odd_regime():
    ctx = gf2m.build_field(5)
    assert _powers(ctx, 1) == set(range(1, 32))
    assert all(_magnitudes(ctx, 1, a) == {8} for a in range(1, 32))


def test_one_elimination_per_coset(monkeypatch):
    # the closed route eliminates the left side once per a' = g^j, j < d:
    # at most d times per field and h, and once when m/h is odd (d = 1);
    # the weight formula's two scalar calls add no elimination of their own
    solver = gf2m.gf2_solve
    calls = []

    def counting(cols, m):
        calls.append(m)
        return solver(cols, m)

    monkeypatch.setattr(gf2m, "gf2_solve", counting)
    for m, h in ((8, 2), (8, 4), (12, 6), (9, 3)):
        ctx = gf2m.build_field(m)
        calls.clear()
        for a in range(1, ctx.q):
            weil.weil_sum_closed_all_b(ctx, h, a)
            weil.weil_sum_closed(ctx, h, a, a)
            code_mod.codeword_weight_formula(ctx, h, 0, a)
            code_mod.codeword_weight_formula(ctx, h, 1, a)
        d = math.gcd((1 << h) + 1, ctx.n_units)
        assert 1 <= len(calls) <= d, (m, h, d, len(calls))
        if (m // h) % 2:
            assert d == 1 and len(calls) == 1, (m, h)


def test_form_constants_match_coulter():
    # t and the scale, read off the form's radical and Arf invariant, equal
    # Coulter's per-regime constants at every coset g^j of every divisor
    checked = 0
    for m in range(2, 21):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            for j in range(math.gcd((1 << h) + 1, ctx.n_units)):
                _, got_j, _, t, scale = weil._regime(ctx, h, int(ctx.antilog_table[j]))
                assert got_j == j and (t, scale) == oracles.coulter_constants(m, h, j), (m, h, j)
                checked += 1
    assert checked == 2190


def test_fields_are_freed_without_the_cycle_collector():
    # a field caches plain data and no function that refers back to it, so
    # it is in no reference cycle: dropping the last reference frees it
    gc.disable()
    try:
        ctx = gf2m.build_field(6)  # m/h = 6 and 2 even, 3 odd
        for h in cases.divisors(6):
            for a in (1, 5, 6):
                weil.weil_sum_closed(ctx, h, a, 3)
                weil.weil_sum_closed_all_b(ctx, h, a)
                weil.weil_sum_direct_all_b(ctx, h, a)
                code_mod.codeword_weight_formula(ctx, h, 1, a)
            for kind in code_mod.variants(6, h):
                code_mod.weight_distribution(code_mod.make_code(ctx, h, kind))
        cosets = [v for key, v in ctx._cache.items() if key[0] == "coset"]
        assert cosets and all(type(cols) is list for cols, _, _ in cosets)
        assert all(type(x) is int for cols, t, scale in cosets for x in cols + [t, scale])
        freed = weakref.ref(ctx)
        del ctx
        assert freed() is None
    finally:
        gc.enable()


def test_one_closed_value_builds_no_dual_table():
    # its one right-hand side D[v] comes from m traces, not a 2^m table
    ctx = gf2m.build_field(12)
    weil.weil_sum_closed(ctx, 3, 5, 7)
    assert "dual" not in ctx._cache


@settings(max_examples=100, deadline=None)
@given(cases.irreducible_modulus(12), st.data())
def test_closed_equals_direct_in_a_random_basis(modulus, data):
    # j and c depend on the generator, so on the modulus
    ctx = gf2m.build_field(gf2m.poly_degree(modulus), modulus)
    a = data.draw(st.integers(1, ctx.q - 1), label="a")
    bs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=3), label="bs")
    for h in cases.divisors(ctx.m):
        v, _ = weil.weil_sum_closed_all_b(ctx, h, a)
        assert np.array_equal(v, weil.weil_sum_direct_all_b(ctx, h, a)), (h, a)
        for b in bs:
            assert weil.weil_sum_closed(ctx, h, a, b).value == weil.weil_sum_direct(ctx, h, a, b)


def test_subfield_image_counts():
    # T0 zeros and T1 ones of Tr(x^(2^h+1)) over the field: T0 - T1 = S_h(1, 0)
    for m, h, t0 in ((4, 1, 4), (6, 1, 40)):
        assert (1 << m) + weil.weil_sum_direct(gf2m.build_field(m), h, 1, 0) == 2 * t0
    for m, h in ((4, 2), (6, 3), (8, 2), (8, 4), (10, 1)):
        ctx = gf2m.build_field(m)
        ones = int(ctx.trace_table[gf2m.power_map_table(ctx, h)].sum())
        assert weil.weil_sum_direct(ctx, h, 1, 0) == ctx.q - 2 * ones, (m, h)


def test_query_validation():
    ctx = gf2m.build_field(6)
    with pytest.raises(ValueError):
        weil.weil_sum_direct(ctx, 1, 0, 0)
    with pytest.raises(ValueError):
        weil.weil_sum_closed(ctx, 4, 1, 0)
    with pytest.raises(ValueError):
        weil.weil_sum_closed(ctx, 1, 64, 0)
