"""Code construction and weight enumeration tests.

The three worked reference codes pin the enumerator down exactly; everything
else is checked by route-vs-route agreement (per-coordinate scalar weights vs
the batch enumeration, formula vs enumeration, two moduli per degree).
"""

from __future__ import annotations

import io
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import code as code_mod
from tracecodes import gf2m, predict, weil

import cases
import oracles


def _dist(ctx, h, kind):
    lc = code_mod.make_code(ctx, h, kind)
    return lc, code_mod.weight_distribution(lc)


# ---------------------------------------------------------------------------
# Defining sets.
# ---------------------------------------------------------------------------

def test_defining_set_sizes_and_membership():
    for m in range(2, 9):
        ctx = gf2m.build_field(m)
        d0 = code_mod.defining_set(ctx, code_mod.D0)
        d1 = code_mod.defining_set(ctx, code_mod.D1)
        full = code_mod.defining_set(ctx, code_mod.FULL_STAR)
        assert len(d0) == (1 << (m - 1)) - 1
        assert len(d1) == 1 << (m - 1)
        assert len(full) == (1 << m) - 1
        assert all(x and oracles.raw_trace(int(x), ctx.modulus, m) == 0 for x in d0.elements)
        assert all(oracles.raw_trace(int(x), ctx.modulus, m) == 1 for x in d1.elements)
        for ds in (d0, d1, full):
            assert list(ds.elements) == sorted(ds.elements)
        assert set(d0.elements) | set(d1.elements) == set(full.elements)


def test_field_only_defining_sets_are_built_once_per_field():
    ctx = gf2m.build_field(6)
    for kind in (code_mod.D0, code_mod.D1, code_mod.FULL_STAR):
        ds = code_mod.defining_set(ctx, kind)
        assert code_mod.defining_set(ctx, kind) is ds
        assert code_mod.defining_set(gf2m.build_field(6), kind) is not ds
        with pytest.raises(ValueError, match="read-only"):
            ds.elements[0] = 0
    punctured = code_mod.defining_set(ctx, code_mod.PUNCTURED_IMAGE, 3)
    assert code_mod.defining_set(ctx, code_mod.PUNCTURED_IMAGE, 1) is not punctured


def test_defining_set_m2_is_degenerate_but_well_defined():
    ctx = gf2m.build_field(2)
    assert list(code_mod.defining_set(ctx, code_mod.D0).elements) == [1]
    assert list(code_mod.defining_set(ctx, code_mod.D1).elements) == [2, 3]


def test_punctured_image_sizes():
    for m, h in ((4, 1), (6, 1), (8, 2), (6, 3), (8, 4), (10, 1)):
        ctx = gf2m.build_field(m)
        ds = code_mod.defining_set(ctx, code_mod.PUNCTURED_IMAGE, h)
        assert len(ds) == ((1 << m) - 1) // ((1 << h) + 1)
        t = (1 << h) + 1
        assert set(ds.elements) == {oracles.pow(ctx, x, t) for x in range(1, ctx.q)}


def test_punctured_image_rejects_odd_ratio():
    ctx = gf2m.build_field(6)
    with pytest.raises(ValueError, match="bijection"):
        code_mod.defining_set(ctx, code_mod.PUNCTURED_IMAGE, 2)
    # m = 2 is refused by the defining set itself, as by every constructor
    ctx2 = gf2m.build_field(2)
    for build in (lambda: code_mod.defining_set(ctx2, code_mod.PUNCTURED_IMAGE, 1),
                  lambda: code_mod.punctured_code(ctx2, 1),
                  lambda: code_mod.make_code(ctx2, 1, code_mod.PUNCTURED_IMAGE)):
        with pytest.raises(ValueError, match="m > 2"):
            build()


def test_variants_list_exactly_the_codes_make_code_builds():
    # the catalogue against the constructors: every kind builds where it is
    # listed, at that kind's length, and is refused with ValueError where it is not
    for m in range(2, 13):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            listed = code_mod.variants(m, h)
            length = {code_mod.D0: (1 << (m - 1)) - 1, code_mod.D1: 1 << (m - 1),
                      code_mod.FULL_STAR: (1 << m) - 1,
                      code_mod.PUNCTURED_IMAGE: ((1 << m) - 1) // ((1 << h) + 1)}
            for kind in code_mod.KINDS:
                if kind in listed:
                    assert code_mod.make_code(ctx, h, kind).n == length[kind], (m, h, kind)
                else:
                    with pytest.raises(ValueError):
                        code_mod.make_code(ctx, h, kind)


def test_unknown_kind_and_empty_set():
    ctx = gf2m.build_field(4)
    with pytest.raises(ValueError, match="unknown"):
        code_mod.defining_set(ctx, "d2")
    with pytest.raises(ValueError, match="empty"):
        code_mod.build_code(ctx, 1, code_mod.DefiningSet(()))


def test_build_code_rejects_elements_outside_the_units():
    # 0 has no log (0^3 = 0 would be a zero column), -1 would alias q - 1
    # and q would index past the tables
    ctx = gf2m.build_field(5)
    for bad in (0, -1, ctx.q, 40):
        with pytest.raises(ValueError, match=f"element {bad} is not a nonzero element"):
            code_mod.build_code(ctx, 1, code_mod.DefiningSet((3, bad, 5)))
    # of several, the first in defining-set order is named
    with pytest.raises(ValueError, match=r"element 40 is not a nonzero element of GF\(2\^5\)"):
        code_mod.build_code(ctx, 1, code_mod.DefiningSet((3, 40, 0, 5)))


def test_defining_set_refuses_floats():
    # a float array used to be truncated to [2, 3, 5] and built into a code
    with pytest.raises(ValueError, match="not an integer"):
        code_mod.DefiningSet([2.7, 3.2, 5.9])
    with pytest.raises(ValueError, match="not an integer"):
        code_mod.DefiningSet(np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="not an integer"):
        code_mod.DefiningSet([3, None])


def test_defining_set_refuses_other_shapes():
    # a 2 x 2 array used to be accepted, and build_code reported n = 2 for four columns
    with pytest.raises(ValueError, match="1-D"):
        code_mod.DefiningSet([[2, 3], [5, 7]])
    with pytest.raises(ValueError, match="1-D"):
        code_mod.DefiningSet(np.int64(3))


def test_defining_set_refuses_values_past_int64():
    # 2^63 used to raise OverflowError from the int64 cast
    for big in ([3, 1 << 63], [1 << 64], [-(1 << 63) - 1], np.array([1 << 63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="fit in int64"):
            code_mod.DefiningSet(big)


def test_defining_set_accepts_ints_and_integer_arrays():
    ctx = gf2m.build_field(5)
    ref = code_mod.build_code(ctx, 1, code_mod.DefiningSet([3, 5, 6]))
    for els in ((3, 5, 6), [np.int32(3), 5, np.uint8(6)], np.array([3, 5, 6], dtype=np.uint16),
                np.array([3, 5, 6], dtype=np.uint64), np.array([3, 5, 6], dtype=object)):
        ds = code_mod.DefiningSet(els)
        assert ds.elements.dtype == np.int64 and ds.elements.tolist() == [3, 5, 6]
        lc = code_mod.build_code(ctx, 1, ds)
        assert (lc.n, lc.k) == (ref.n, ref.k) and np.array_equal(lc.phis, ref.phis)
    assert code_mod.DefiningSet([(1 << 63) - 1]).elements.tolist() == [(1 << 63) - 1]
    assert code_mod.DefiningSet(()).elements.dtype == np.int64


# ---------------------------------------------------------------------------
# Reference codes: the three worked examples.
# ---------------------------------------------------------------------------

def test_reference_code_m5_trace0():
    ctx = gf2m.build_field(5)
    lc, dist = _dist(ctx, 1, code_mod.D0)
    assert (lc.n, lc.k, dist.d_min) == (15, 5, 6)
    assert dist.counts == {0: 1, 6: 10, 8: 15, 10: 6}


def test_reference_code_m5_trace1():
    ctx = gf2m.build_field(5)
    lc, dist = _dist(ctx, 1, code_mod.D1)
    assert (lc.n, lc.k) == (16, 5)
    assert dist.counts == {0: 1, 6: 6, 8: 15, 10: 10}
    # the enumerator's lowest weight is 6, so that is the minimum distance,
    # whatever any secondary parameter claim might suggest
    assert dist.d_min == 6


def test_reference_code_m8_both_trace_sets():
    ctx = gf2m.build_field(8)
    lc0, dist0 = _dist(ctx, 2, code_mod.D0)
    assert (lc0.n, lc0.k, dist0.d_min) == (127, 8, 56)
    assert dist0.counts == {0: 1, 56: 108, 64: 98, 80: 48, 96: 1}
    lc1, dist1 = _dist(ctx, 2, code_mod.D1)
    assert (lc1.n, lc1.k) == (128, 8)
    assert dist1.counts == {0: 1, 56: 96, 64: 109, 80: 48, 96: 2}


def test_reference_code_m6_full_and_punctured():
    ctx = gf2m.build_field(6)
    lc, dist = _dist(ctx, 1, code_mod.FULL_STAR)
    assert (lc.n, lc.k, dist.d_min) == (63, 6, 24)
    assert dist.counts == {0: 1, 24: 21, 36: 42}
    pc = code_mod.punctured_code(ctx, 1)
    pdist = code_mod.weight_distribution(pc)
    assert (pc.n, pc.k, pdist.d_min) == (21, 6, 8)
    assert pdist.counts == {0: 1, 8: 21, 12: 42}


# ---------------------------------------------------------------------------
# Structural properties.
# ---------------------------------------------------------------------------

def test_dimension_is_m_outside_the_norm_collapse():
    for m in range(3, 9):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            for kind in (code_mod.D0, code_mod.D1, code_mod.FULL_STAR):
                lc = code_mod.build_code(ctx, h, code_mod.defining_set(ctx, kind))
                if m == 2 * h:
                    assert lc.k == h
                else:
                    assert lc.k == m


def test_norm_collapse_m4_h2():
    # x^(2^h+1) is the norm onto GF(2^h) when m = 2h: the columns all live
    # in the subfield, so the rank drops to h and messages collapse 4-to-1
    ctx = gf2m.build_field(4)
    lc, dist = _dist(ctx, 2, code_mod.FULL_STAR)
    assert (lc.n, lc.k) == (15, 2)
    assert dist.counts == {0: 4, 10: 12}
    _, d0 = _dist(ctx, 2, code_mod.D0)
    assert d0.counts == {0: 4, 4: 8, 6: 4}
    pc = code_mod.punctured_code(ctx, 2)
    assert (pc.n, pc.k) == (3, 2)
    assert code_mod.weight_distribution(pc).counts == {0: 4, 2: 12}


def test_distribution_totals_and_zero_count():
    for m, h, kind in ((5, 1, code_mod.D0), (6, 2, code_mod.D1), (8, 4, code_mod.FULL_STAR)):
        ctx = gf2m.build_field(m)
        lc, dist = _dist(ctx, h, kind)
        assert dist.total == 1 << m
        # dist.k is read off counts[0]; the column rank is the other route
        assert dist.counts[0] == 1 << (m - lc.k)
        assert dist.nonzero == {w: c for w, c in dist.counts.items() if w}


def test_punctured_weights_scale_per_message():
    for m, h in ((6, 1), (8, 2), (8, 4)):
        ctx = gf2m.build_field(m)
        full = code_mod.build_code(ctx, h, code_mod.defining_set(ctx, code_mod.FULL_STAR))
        punct = code_mod.punctured_code(ctx, h)
        wf = code_mod._weights_by_message(full)
        wp = code_mod._weights_by_message(punct)
        assert np.array_equal(wf, ((1 << h) + 1) * wp)


def _assert_derived_equal_alone(ctx):
    # two transforms per h against one weight_distribution per built code:
    # counts, n, k and d_min; both read k off the kernel count, which is
    # held against the column rank
    for h in cases.divisors(ctx.m):
        derived = code_mod.weight_distributions(ctx, h)
        assert tuple(derived) == code_mod.variants(ctx.m, h), (ctx.m, h)
        for kind, dist in derived.items():
            lc = code_mod.make_code(ctx, h, kind)
            assert dist == code_mod.weight_distribution(lc), (ctx.m, ctx.modulus, h, kind)
            assert dist.k == lc.k, (ctx.m, ctx.modulus, h, kind)


def test_derived_distributions_equal_each_code_enumerated_alone():
    # under two moduli per degree (m = 2 has one), and at m = 16, 20; at
    # m = 2, d = 3 and the image is not reported
    fields = [(2, None)] + [(m, modulus) for m in range(3, 15)
                            for modulus in (None, cases.largest_irreducible(m))]
    fields += [(16, None), (20, None)]
    for m, modulus in fields:
        _assert_derived_equal_alone(gf2m.build_field(m, modulus))


@settings(max_examples=25, deadline=None)
@given(cases.irreducible_modulus(12))
def test_derived_distributions_equal_each_code_in_a_random_basis(modulus):
    _assert_derived_equal_alone(gf2m.build_field(gf2m.poly_degree(modulus), modulus))


def test_kernel_count_that_is_no_power_of_two_is_refused(monkeypatch):
    # W[0] = n is message 0's weight 0; moved to weight 1, d0 at m = 5 has
    # no message of weight 0 left, which no kernel allows
    inner = gf2m.wht

    def moved(v):
        w = inner(v)
        w[0] -= 2
        return w

    monkeypatch.setattr(gf2m, "wht", moved)
    with pytest.raises(RuntimeError, match="no power of two"):
        code_mod.weight_distributions(gf2m.build_field(5), 1)


def test_derived_weights_equal_each_code_message_by_message():
    # d0 and d1 equal their codes' weights; the full code's are d times the
    # image's in every regime, the simplex code's where m/h is odd (d = 1),
    # and the image's are the punctured code's where that code exists
    for m in range(2, 13):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            derived = code_mod._derived_weights(ctx, h)
            image = derived.pop(code_mod.PUNCTURED_IMAGE)
            d = gcd((1 << h) + 1, ctx.n_units)
            derived[code_mod.FULL_STAR] = d * image
            kinds = code_mod.variants(m, h)
            if code_mod.PUNCTURED_IMAGE in kinds:
                derived[code_mod.PUNCTURED_IMAGE] = image
            assert tuple(derived) == kinds, (m, h)
            for kind, w in derived.items():
                lc = code_mod.make_code(ctx, h, kind)
                assert np.array_equal(w, code_mod._weights(ctx, lc.phis)), (m, h, kind)


def test_weight_distributions_refuse_a_bad_h_before_any_table(monkeypatch):
    # power_map_table admits h = 0 and non-divisors, so the refusal must
    # come first; it is the one variants raises
    def refuse(*args):
        raise AssertionError("a table was built for a refused h")

    ctx = gf2m.build_field(6)
    monkeypatch.setattr(gf2m, "power_map_table", refuse)
    monkeypatch.setattr(gf2m, "wht", refuse)
    for h in (0, 6, 4, 2.0):
        with pytest.raises(ValueError) as refused:
            code_mod.variants(6, h)
        with pytest.raises(ValueError) as exc:
            code_mod.weight_distributions(ctx, h)
        assert str(exc.value) == str(refused.value), h


def test_single_element_defining_set():
    ctx = gf2m.build_field(5)
    lc = code_mod.build_code(ctx, 1, code_mod.DefiningSet((3,)))
    assert (lc.n, lc.k) == (1, 1)
    dist = code_mod.weight_distribution(lc)
    assert dist.counts == {0: 16, 1: 16}


def _codeword_weight_direct(lc, x):
    """Hamming weight of the codeword of message x, one trace per coordinate."""
    ctx = lc.ctx
    return sum(oracles.raw_trace(oracles.mul(ctx, x, int(p)), ctx.modulus, ctx.m) for p in lc.phis)


def test_codeword_weight_direct():
    ctx = gf2m.build_field(6)
    lc = code_mod.build_code(ctx, 1, code_mod.defining_set(ctx, code_mod.D1))
    assert _codeword_weight_direct(lc, 0) == 0
    w = code_mod._weights_by_message(lc)
    for x in (1, 2, 17, 40, 63):
        assert _codeword_weight_direct(lc, x) == int(w[x])


def test_weight_formula_equals_direct_small_m():
    for m in range(3, 9):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            by_msg = {}
            for a, kind in ((0, code_mod.D0), (1, code_mod.D1)):
                lc = code_mod.build_code(ctx, h, code_mod.defining_set(ctx, kind))
                by_msg[a] = code_mod._weights_by_message(lc)
            for b in range(1, ctx.q):
                for a in (0, 1):
                    assert code_mod.codeword_weight_formula(ctx, h, a, b) == int(
                        by_msg[a][b]
                    ), (m, h, a, b)


def test_weight_formula_validation():
    ctx = gf2m.build_field(5)
    with pytest.raises(ValueError, match="zero codeword"):
        code_mod.codeword_weight_formula(ctx, 1, 0, 0)
    with pytest.raises(ValueError, match="0 or 1"):
        code_mod.codeword_weight_formula(ctx, 1, 2, 3)
    for a in (0.0, 1.0):
        with pytest.raises(ValueError, match="not an integer"):
            code_mod.codeword_weight_formula(ctx, 1, a, 3)


@pytest.mark.parametrize("h", [0, 6, 4, 2.0])
def test_every_layer_refuses_h_with_one_message(h):
    # h = 0, h = m, a non-divisor and a float, at m = 6
    ctx = gf2m.build_field(6)
    calls = (
        lambda: predict.predict_distribution(6, h, predict.T3),
        lambda: code_mod.build_code(ctx, h, code_mod.defining_set(ctx, code_mod.D0)),
        lambda: weil.weil_sum_closed(ctx, h, 1),
        lambda: code_mod.variants(6, h),
        lambda: code_mod.make_code(ctx, h, code_mod.D0),
    )
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match=f"^h={h!r} ") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1, messages


def test_basis_independence_of_distributions():
    # same degree, different irreducible modulus: coordinates permute but
    # the weight data cannot change
    for m, other in ((3, 13), (5, 41), (6, 73)):
        base = gf2m.build_field(m)
        alt = gf2m.build_field(m, other)
        for kind in (code_mod.D0, code_mod.D1, code_mod.FULL_STAR):
            _, d1 = _dist(base, 1, kind)
            _, d2 = _dist(alt, 1, kind)
            assert d1.counts == d2.counts, (m, kind)


def test_build_code_columns_are_literal_powers():
    for m in range(2, 11):
        ctx = gf2m.build_field(m)
        for h, kind, lc in cases.every_code(ctx):
            if kind == code_mod.PUNCTURED_IMAGE:
                continue
            t = (1 << h) + 1
            literal = [oracles.pow(ctx, int(d), t) for d in code_mod.defining_set(ctx, kind).elements]
            assert lc.phis.dtype == np.int64 and lc.phis.tolist() == literal, (m, h, kind)


def test_walsh_route_equals_literal_column_count():
    # the per-coordinate count sum_phi Tr(x*phi) is the oracle for the
    # Walsh route, over every variant and h, under two moduli per degree
    for m in range(3, 11):
        for modulus in (None, cases.largest_irreducible(m)):
            ctx = gf2m.build_field(m, modulus)
            xs = np.arange(ctx.q, dtype=np.int64)
            for h, kind, lc in cases.every_code(ctx):
                literal = sum(
                    ctx.trace_table[oracles.mul_vec(ctx, p, xs)].astype(np.int64)
                    for p in lc.phis
                )
                case = (m, ctx.modulus, h, kind)
                assert np.array_equal(code_mod._weights_by_message(lc), literal), case
                # weight_distribution transforms in plain coordinates; its
                # counts are still the histogram of the message weights
                counts = np.bincount(literal)
                want = {int(w): int(counts[w]) for w in np.flatnonzero(counts)}
                dist = code_mod.weight_distribution(lc)
                assert dist.counts == want and dist.d_min == min(w for w in want if w), case


def _assert_rank_oracle(ctx):
    for h, kind, lc in cases.every_code(ctx):
        case = (ctx.m, ctx.modulus, h, kind)
        els = code_mod.defining_set(ctx, kind, h).elements
        assert lc.h == h and lc.n == len(els) == len(lc.phis), case
        # the rank of every column in its given order, duplicates and all
        assert lc.k == gf2m.gf2_rank(lc.phis.tolist(), ctx.m), case
        if kind == code_mod.PUNCTURED_IMAGE:
            # the defining set, and the identity columns on it, are the image
            image = np.unique(oracles.power_table(ctx, (1 << h) + 1)[1:])
            assert els.dtype == image.dtype, case
            assert np.array_equal(els, image) and np.array_equal(lc.phis, image), case
        else:
            repeated = code_mod.DefiningSet(np.concatenate([els[::-1], els[::3]]))
            assert code_mod.build_code(ctx, h, repeated).k == lc.k, case


def test_rank_oracle_smallest_and_largest_modulus():
    for m in range(3, 13):
        for modulus in (None, cases.largest_irreducible(m)):
            _assert_rank_oracle(gf2m.build_field(m, modulus))


@settings(max_examples=25, deadline=None)
@given(cases.irreducible_modulus(12))
def test_rank_oracle_in_a_random_basis(modulus):
    _assert_rank_oracle(gf2m.build_field(gf2m.poly_degree(modulus), modulus))


def test_linear_code_takes_length_and_rank_from_its_columns():
    # r random vectors and draws from their span, zero included, repeated and
    # shuffled, for every r <= m; n and k follow from the columns alone
    rng = random.Random(18)
    for m in (3, 6, 10):
        ctx = gf2m.build_field(m)
        for r in range(m + 1):
            basis = [rng.randrange(1, ctx.q) for _ in range(r)]
            span = [0]
            for v in basis:
                span = sorted(set(span) | {x ^ v for x in span})
            cols = basis + rng.choices(span, k=rng.randrange(1, 4 * len(span)))
            rng.shuffle(cols)
            lc = code_mod.LinearCode(ctx, 1, np.array(cols, dtype=np.int64))
            assert lc.n == len(cols), (m, r)
            assert lc.k == gf2m.gf2_rank(cols, m) == gf2m.gf2_rank(basis, m), (m, r)


def test_distinct_nonzero_columns_in_integer_order():
    rng = np.random.default_rng(7)
    for m in (3, 8, 12):
        ctx = gf2m.build_field(m)
        for size in (1, 5, ctx.q, 4 * ctx.q):
            cols = rng.integers(0, ctx.q, size=size)
            want = np.setdiff1d(cols, [0])  # sorted and unique
            assert np.array_equal(code_mod._distinct_nonzero(ctx, cols), want), (m, size)


def _counting_distinct_nonzero(monkeypatch):
    """Wrap code._distinct_nonzero, the short-rank fallback, to count its calls."""
    calls = []
    inner = code_mod._distinct_nonzero

    def counted(ctx, values):
        calls.append(len(values))
        return inner(ctx, values)

    monkeypatch.setattr(code_mod, "_distinct_nonzero", counted)
    return calls


def test_rank_fallback_when_the_sample_falls_short(monkeypatch):
    # thousands of copies of one element, then a tail that completes a basis:
    # the strided sample sees only the repeated column, so the rank must come
    # from the distinct columns behind it
    calls = _counting_distinct_nonzero(monkeypatch)
    for m, h in ((6, 1), (10, 2), (14, 2)):
        ctx = gf2m.build_field(m)
        t = (1 << h) + 1
        tail, phis = [], []
        for d in range(2, ctx.q):
            phi = oracles.pow(ctx, d, t)
            if gf2m.gf2_rank(phis + [phi], m) > len(phis):
                phis.append(phi)
                tail.append(d)
            if len(tail) == m:
                break
        els = np.array([1] * 3000 + tail, dtype=np.int64)
        lc = code_mod.build_code(ctx, h, code_mod.DefiningSet(els))
        stride = max(1, lc.n // (8 * m))
        assert gf2m.gf2_rank(lc.phis[::stride].tolist(), m) < m, (m, h)
        assert lc.k == gf2m.gf2_rank(lc.phis.tolist(), m) == m, (m, h)
    assert len(calls) == 3


def test_rank_sample_spares_the_mask_at_full_rank(monkeypatch):
    calls = _counting_distinct_nonzero(monkeypatch)
    for m in (10, 16):
        ctx = gf2m.build_field(m)
        for kind in (code_mod.D0, code_mod.D1, code_mod.FULL_STAR):
            assert code_mod.build_code(ctx, 1, code_mod.defining_set(ctx, kind)).k == m
        assert code_mod.punctured_code(ctx, 1).k == m
    assert calls == []
    # the m = 2h collapse falls short of rank m and takes the mask route
    ctx = gf2m.build_field(10)
    assert code_mod.build_code(ctx, 5, code_mod.defining_set(ctx, code_mod.FULL_STAR)).k == 5
    assert code_mod.punctured_code(ctx, 5).k == 5
    assert len(calls) == 2


def test_punctured_image_oracle_m14_to_m20():
    # the subgroup <g^d> against the literal image of the power map
    for m in (14, 16, 18, 20):
        ctx = gf2m.build_field(m)
        for h in [h for h in cases.divisors(m) if (m // h) % 2 == 0]:
            pc = code_mod.punctured_code(ctx, h)
            els = code_mod.defining_set(ctx, code_mod.PUNCTURED_IMAGE, h).elements
            image = np.unique(oracles.power_table(ctx, (1 << h) + 1)[1:])
            assert els.dtype == image.dtype, (m, h)
            assert np.array_equal(els, image) and np.array_equal(pc.phis, image), (m, h)
            assert pc.k == gf2m.gf2_rank(pc.phis.tolist(), m) == (h if m == 2 * h else m), (m, h)


@st.composite
def _random_basis_query(draw):
    """(modulus, h, a, t, b): a random irreducible modulus of degree m <= 12,
    a proper divisor h, a != 0, a trace-set choice t and a message b != 0."""
    modulus = draw(cases.irreducible_modulus(12))
    m = gf2m.poly_degree(modulus)
    h = draw(st.sampled_from(cases.divisors(m)))
    a = draw(st.integers(1, (1 << m) - 1))
    b = draw(st.integers(1, (1 << m) - 1))
    return modulus, h, a, draw(st.sampled_from((0, 1))), b


@settings(max_examples=60, deadline=None)
@given(_random_basis_query())
def test_three_routes_agree_in_a_random_basis(query):
    modulus, h, a, t, b = query
    assert gf2m.is_irreducible(modulus)
    ctx = gf2m.build_field(gf2m.poly_degree(modulus), modulus)
    # closed form against direct summation, every b at once
    values, _ = weil.weil_sum_closed_all_b(ctx, h, a)
    assert np.array_equal(values, weil.weil_sum_direct_all_b(ctx, h, a))
    # per-codeword formula against the Walsh route and the literal column count
    lc = code_mod.build_code(ctx, h, code_mod.defining_set(ctx, (code_mod.D0, code_mod.D1)[t]))
    walsh = int(code_mod._weights_by_message(lc)[b])
    literal = int(ctx.trace_table[oracles.mul_vec(ctx, b, lc.phis)].sum())
    assert code_mod.codeword_weight_formula(ctx, h, t, b) == walsh == literal


def test_at_most_four_nonzero_weights():
    for m in range(3, 11):
        ctx = gf2m.build_field(m)
        for h in cases.divisors(m):
            for kind in (code_mod.D0, code_mod.D1):
                _, dist = _dist(ctx, h, kind)
                assert len(dist.nonzero) <= 4, (m, h, kind)


@st.composite
def _random_code(draw):
    """(modulus, h, kind): a random irreducible modulus of degree m <= 10, a
    proper divisor h and a variant defined for (m, h)."""
    modulus = draw(cases.irreducible_modulus(10))
    m = gf2m.poly_degree(modulus)
    h = draw(st.sampled_from(cases.divisors(m)))
    return modulus, h, draw(st.sampled_from(code_mod.variants(m, h)))


@settings(max_examples=60, deadline=None)
@given(_random_code())
def test_distribution_properties_in_a_random_basis(query):
    modulus, h, kind = query
    m = gf2m.poly_degree(modulus)
    _, dist = _dist(gf2m.build_field(m, modulus), h, kind)
    # the weights are a property of the field, not of its polynomial basis
    _, base = _dist(gf2m.build_field(m), h, kind)
    assert (dist.counts, dist.n, dist.k) == (base.counts, base.n, base.k)
    if dist.k == m:
        assert predict.pless_check(dist)
    if kind in (code_mod.FULL_STAR, code_mod.PUNCTURED_IMAGE):
        bound = 2
    else:
        bound = 3 if (m // h) % 2 else 4
    assert len(dist.nonzero) <= bound, (m, h, kind, dist.nonzero)


# ---------------------------------------------------------------------------
# Generator matrices and export.
# ---------------------------------------------------------------------------

def test_generator_matrix_row_space_is_the_code():
    ctx = gf2m.build_field(4)
    lc = code_mod.build_code(ctx, 1, code_mod.defining_set(ctx, code_mod.D0))
    g = code_mod.generator_matrix(lc)
    assert g.shape == (lc.k, lc.n)
    span = set()
    for mask in range(1 << g.shape[0]):
        row = np.zeros(lc.n, dtype=np.uint8)
        for i in range(g.shape[0]):
            if (mask >> i) & 1:
                row ^= g[i]
        span.add(row.tobytes())
    words = set()
    for x in range(ctx.q):
        words.add(
            np.array(
                [oracles.raw_trace(oracles.mul(ctx, x, p), ctx.modulus, ctx.m) for p in lc.phis],
                dtype=np.uint8
            ).tobytes()
        )
    assert span == words
    assert len(span) == 1 << lc.k


def test_generator_matrix_is_reduced():
    ctx = gf2m.build_field(6)
    full_rank = code_mod.build_code(ctx, 1, code_mod.defining_set(ctx, code_mod.D1))
    collapsed = code_mod.punctured_code(ctx, 3)  # m = 2h: k = 3 rows from 6 codewords
    assert collapsed.k == 3
    for lc in (full_rank, collapsed):
        g = code_mod.generator_matrix(lc)
        assert g.shape == (lc.k, lc.n)
        pivots = [int(np.argmax(row)) for row in g]  # first 1 in each row
        assert pivots == sorted(pivots)
        for i, p in enumerate(pivots):
            assert g[i, p] == 1
            col = g[:, p].copy()
            col[i] = 0
            assert not col.any()


def test_export_format_and_roundtrip(tmp_path):
    ctx = gf2m.build_field(5)
    lc = code_mod.build_code(ctx, 1, code_mod.defining_set(ctx, code_mod.D0))
    out = tmp_path / "g.txt"
    code_mod.write_generator_matrix(lc, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "15 5 5 1 37"
    rows = lines[1:]
    assert len(rows) == 5 and all(len(r) == 15 and set(r) <= {"0", "1"} for r in rows)
    parsed = np.array([[int(c) for c in r] for r in rows], dtype=np.uint8)
    assert np.array_equal(parsed, code_mod.generator_matrix(lc))
    buf = io.StringIO()
    code_mod.write_generator_matrix(lc, buf)
    assert buf.getvalue() == out.read_text()


def _literal_export_text(lc):
    """The generator-matrix text rendered bit by bit: the oracle for the
    byte-array rendering of write_generator_matrix."""
    g = code_mod.generator_matrix(lc)
    lines = [f"{lc.n} {lc.k} {lc.ctx.m} {lc.h} {lc.ctx.modulus}"]
    lines.extend("".join("1" if b else "0" for b in row) for row in g)
    return "\n".join(lines) + "\n"


def _export_text(lc, tmp_path):
    """write_generator_matrix output, checked equal through a file and a stream."""
    out = tmp_path / "g.txt"
    code_mod.write_generator_matrix(lc, out)
    buf = io.StringIO()
    code_mod.write_generator_matrix(lc, buf)
    assert out.read_bytes() == buf.getvalue().encode("ascii")
    return buf.getvalue()


def test_export_text_equals_per_bit_rendering(tmp_path):
    for m in range(2, 9):
        for modulus in (None, cases.largest_irreducible(m)):
            ctx = gf2m.build_field(m, modulus)
            for h, kind, lc in cases.every_code(ctx):
                assert _export_text(lc, tmp_path) == _literal_export_text(lc), (
                    m, ctx.modulus, h, kind)
    pc = code_mod.punctured_code(gf2m.build_field(20), 5)
    assert (pc.n, pc.k) == (31775, 20)
    assert _export_text(pc, tmp_path) == _literal_export_text(pc)


def test_numpy_integers_are_integers_and_floats_are_refused():
    """Parameter checks take numpy integers at their value, with the same
    results as ints, and refuse floats with ValueError instead of truncating."""
    i64 = np.int64
    assert gf2m.build_field(i64(10)).antilog_table.tobytes() == gf2m.build_field(10).antilog_table.tobytes()
    assert predict.predict_distribution(i64(6), i64(1), "T3") == predict.predict_distribution(6, 1, "T3")
    with pytest.raises(predict.Inapplicable):
        predict.predict_distribution(i64(6), 2, "T3")
    ctx8 = gf2m.build_field(8)
    ds = code_mod.defining_set(ctx8, code_mod.D0)
    got, ref = code_mod.build_code(ctx8, i64(2), ds), code_mod.build_code(ctx8, 2, ds)
    assert (got.h, got.n, got.k) == (ref.h, ref.n, ref.k) and type(got.h) is int
    assert type(code_mod.punctured_code(ctx8, i64(2)).h) is int  # export prints this h
    assert np.array_equal(got.phis, ref.phis)
    assert code_mod.weight_distribution(got) == code_mod.weight_distribution(ref)
    ctx5 = gf2m.build_field(5)
    assert oracles.pow(ctx5, i64(2), np.uint8(3)) == oracles.pow(ctx5, 2, 3)
    assert (code_mod.codeword_weight_formula(ctx5, i64(1), 0, np.int32(5))
            == code_mod.codeword_weight_formula(ctx5, 1, 0, 5))
    assert weil.weil_sum_closed_all_b(ctx8, i64(2), i64(7))[0].tolist() == \
        weil.weil_sum_closed_all_b(ctx8, 2, 7)[0].tolist()
    refused = (
        lambda: gf2m.build_field(10.0),
        lambda: gf2m.build_field(5, 37.0),
        lambda: predict.predict_distribution(6.0, 1, "T3"),
        lambda: predict.predict_distribution(6, 1.0, "T3"),
        lambda: code_mod.build_code(ctx8, 2.0, ds),
        lambda: oracles.pow(ctx5, 2.9, 3),
        lambda: code_mod.codeword_weight_formula(ctx5, 1, 0, 5.5),
        lambda: weil.weil_sum_closed(ctx5, 1, i64(3), 1.0),
        lambda: predict.sweep([3.7]),  # refused, not truncated to m = 3
        lambda: predict.sweep(["5"]),  # refused, not parsed as m = 5
    )
    for call in refused:
        with pytest.raises(ValueError):
            call()
