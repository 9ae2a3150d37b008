"""Field-layer tests.

The polynomial helpers are checked against a naive coefficient-list oracle,
the table-driven arithmetic against table-free reference operations, the
log, antilog and trace tables against a literal one-power-at-a-time chase, and
the solver and the quadratic-form routine against exhaustive substitution.
Expected values that appear as literals were derived by hand or by the
oracles here.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import code as code_mod
from tracecodes import gf2m
from tracecodes import weil

import cases
import oracles


# ---------------------------------------------------------------------------
# Naive polynomial oracle: coefficient lists, schoolbook arithmetic.
# ---------------------------------------------------------------------------

def _mul_oracle(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    out = [0] * (a.bit_length() + b.bit_length() - 1)
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            for j in range(b.bit_length()):
                if (b >> j) & 1:
                    out[i + j] ^= 1
    v = 0
    for i, c in enumerate(out):
        v |= c << i
    return v


def _mod_oracle(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _irreducible_oracle(p: int) -> bool:
    # trial division by every polynomial of lower positive degree
    d = p.bit_length() - 1
    if d < 1:
        return False
    return all(_mod_oracle(p, f) != 0 for f in range(2, 1 << d))


def test_raw_mul_against_oracle():
    # the one table-free multiply, behind the irreducibility test and the tables
    rng = random.Random(7)
    for _ in range(300):
        mod = rng.randrange(1 << 12, 1 << 13)
        a = rng.randrange(0, 1 << 12)
        b = rng.randrange(0, 1 << 12)
        expect = _mod_oracle(_mul_oracle(a, b), mod)
        assert gf2m._raw_mul(a, b, mod, 12) == expect


def test_poly_mod_against_oracle():
    rng = random.Random(8)
    for _ in range(300):
        a = rng.randrange(0, 1 << 16)
        mod = rng.randrange(2, 1 << 9)
        assert gf2m.poly_mod(a, mod) == _mod_oracle(a, mod)


def test_poly_gcd_divides_both():
    rng = random.Random(9)
    for _ in range(200):
        a = rng.randrange(1, 1 << 10)
        b = rng.randrange(1, 1 << 10)
        g = gf2m.poly_gcd(a, b)
        assert _mod_oracle(a, g) == 0 and _mod_oracle(b, g) == 0


def test_poly_str():
    assert gf2m.poly_str(0) == "0"
    assert gf2m.poly_str(1) == "1"
    assert gf2m.poly_str(0b110) == "x^2 + x"
    assert gf2m.poly_str(0b1011) == "x^3 + x + 1"


def test_irreducibility_matches_oracle():
    for p in range(2, 1 << 7):
        assert gf2m.is_irreducible(p) == _irreducible_oracle(p), bin(p)
    assert not gf2m.is_irreducible(-11)  # negative ints encode no polynomial


def test_irreducibility_witness_is_a_factor():
    for p in range(4, 1 << 8):
        w = gf2m.irreducibility_witness(p)
        if w is not None:
            _, g = w
            assert g != 1 and _mod_oracle(p, g) == 0


def test_smallest_irreducible_frozen_values():
    # independent scan with the trial-division oracle, plus frozen literals
    for m in range(2, 7):
        expect = next(p for p in range(1 << m, 1 << (m + 1)) if _irreducible_oracle(p))
        assert gf2m.smallest_irreducible(m) == expect
    assert gf2m.smallest_irreducible(3) == 0b1011
    assert gf2m.smallest_irreducible(4) == 0b10011
    assert gf2m.smallest_irreducible(5) == 37
    assert gf2m.smallest_irreducible(8) == 283


# ---------------------------------------------------------------------------
# Field construction and validation.
# ---------------------------------------------------------------------------

def test_build_field_rejects_reducible_modulus():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ValueError, match="reducible"):
        gf2m.build_field(4, 0b10101)
    with pytest.raises(ValueError, match=r"x\^2 \+ x \+ 1"):
        gf2m.build_field(4, 0b10101)


def test_default_modulus_is_searched_once_per_degree(monkeypatch):
    # the smallest irreducible polynomial depends on m alone; an explicit
    # modulus is still checked for irreducibility on every call
    first = gf2m.build_field(12)
    calls = []
    inner = gf2m.irreducibility_witness
    monkeypatch.setattr(gf2m, "irreducibility_witness", lambda p: calls.append(p) or inner(p))
    assert gf2m.build_field(12).modulus == first.modulus
    assert calls == []
    gf2m.build_field(12, first.modulus)
    assert calls == [first.modulus]
    with pytest.raises(ValueError, match="reducible"):
        gf2m.build_field(4, 0b10101)
    assert calls == [first.modulus, 0b10101]


def test_build_field_rejects_wrong_degree_and_range():
    with pytest.raises(ValueError, match="degree"):
        gf2m.build_field(4, 0b1011)
    with pytest.raises(ValueError):
        gf2m.build_field(1)
    with pytest.raises(ValueError):
        gf2m.build_field(21)
    with pytest.raises(ValueError):
        gf2m.build_field("5")


def test_generator_is_minimal_primitive():
    for m in range(2, 9):
        ctx = gf2m.build_field(m)
        n = ctx.n_units
        # antilog covers every unit exactly once iff the generator has full order
        assert sorted(int(v) for v in ctx.antilog_table) == list(range(1, ctx.q))
        import math
        for a in range(2, ctx.generator):
            order = n // math.gcd(n, int(ctx.log_table[a]))
            assert order < n, f"m={m}: {a} already has full order"


def test_generator_frozen_values():
    assert gf2m.build_field(8).generator == 3  # x is not primitive mod 0b100011011
    assert gf2m.build_field(9).generator == 7
    assert gf2m.build_field(12).generator == 3
    for m in (2, 3, 4, 5, 6, 7, 10, 11):
        assert gf2m.build_field(m).generator == 2


def test_scalar_ops_frozen_values():
    ctx = gf2m.build_field(3)  # x^3 + x + 1
    assert oracles.mul(ctx, 0b010, 0b100) == 0b011  # x * x^2 = x + 1
    assert oracles.pow(ctx, 0b010, 3) == 0b011
    assert oracles.pow(ctx, 0, 0) == 1
    assert oracles.pow(ctx, 0, 5) == 0
    assert oracles.mul(ctx, 0, 6) == 0
    assert oracles.mul(ctx, 1, 6) == 6
    with pytest.raises(ValueError):
        oracles.pow(ctx, 3, -1)
    with pytest.raises(ValueError):
        oracles.mul(ctx, 8, 1)


def test_mul_matches_tablefree_reference():
    for m in (2, 3, 4, 5):
        ctx = gf2m.build_field(m)
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert oracles.mul(ctx, a, b) == oracles.raw_mul(a, b, ctx.modulus, m)


# ---------------------------------------------------------------------------
# Literal oracle for the field tables: one power of the generator at a time,
# each a table-free shift-and-add product (oracles.raw_mul), and the trace by
# m - 1 squarings (oracles.raw_trace).
# ---------------------------------------------------------------------------

def _raw_pow(a: int, k: int, modulus: int, m: int) -> int:
    r = 1
    for bit in bin(k)[2:]:
        r = oracles.raw_mul(r, r, modulus, m)
        if bit == "1":
            r = oracles.raw_mul(r, a, modulus, m)
    return r


def _chased_tables(m: int, modulus: int, generator: int):
    """(log, antilog, trace) filled one power of the generator at a time."""
    q = 1 << m
    antilog = [0] * (q - 1)
    log = [-1] * q
    v = 1
    for i in range(q - 1):
        antilog[i] = v
        log[v] = i
        v = oracles.raw_mul(v, generator, modulus, m)
    assert v == 1 and -1 not in log[1:]
    log_np = np.array(log, dtype=np.int64)
    alog_np = np.array(antilog, dtype=np.int64)
    # m - 1 squarings of every element at once, each through the chased tables
    cur = np.arange(q, dtype=np.int64)
    tr = cur.copy()
    for _ in range(m - 1):
        cur[1:] = alog_np[(2 * log_np[cur[1:]]) % (q - 1)]
        tr ^= cur
    return log_np, alog_np, tr.astype(np.uint8)


def _assert_tables_match_oracle(ctx) -> None:
    for name, want in zip(("log_table", "antilog_table", "trace_table"),
                          _chased_tables(ctx.m, ctx.modulus, ctx.generator)):
        got = getattr(ctx, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), (ctx, name)


def test_field_tables_equal_the_chased_tables():
    for m in range(2, 17):
        for modulus in (gf2m.smallest_irreducible(m), cases.largest_irreducible(m)):
            _assert_tables_match_oracle(gf2m.build_field(m, modulus))


@settings(max_examples=40, deadline=None)
@given(cases.irreducible_modulus(14))
def test_field_tables_equal_the_chased_tables_random_modulus(modulus):
    _assert_tables_match_oracle(gf2m.build_field(gf2m.poly_degree(modulus), modulus))


def test_field_tables_spot_checked_at_m20():
    rng = random.Random(20)
    for modulus in (gf2m.smallest_irreducible(20), cases.largest_irreducible(20)):
        ctx = gf2m.build_field(20, modulus)
        assert ctx.log_table.dtype == ctx.antilog_table.dtype == np.int64
        assert ctx.trace_table.dtype == np.uint8
        assert ctx.antilog_table.shape == (ctx.n_units,) and ctx.log_table[0] == -1
        for i in rng.sample(range(ctx.n_units), 300):
            x = _raw_pow(ctx.generator, i, modulus, 20)
            assert ctx.antilog_table[i] == x and ctx.log_table[x] == i
        for x in rng.sample(range(ctx.q), 300):
            assert ctx.trace_table[x] == oracles.raw_trace(x, modulus, 20)


def _mul_table(ctx) -> np.ndarray:
    xs = np.arange(ctx.q, dtype=np.int64)
    return np.stack([oracles.mul_vec(ctx, a, xs) for a in range(ctx.q)])


def test_field_axioms_exhaustive():
    """Associativity, commutativity, distributivity, identity, inverses.

    Checked over every pair/triple of elements for m up to 6 via the full
    multiplication table.
    """
    for m in range(2, 7):
        ctx = gf2m.build_field(m)
        q = ctx.q
        xs = np.arange(q, dtype=np.int64)
        t = _mul_table(ctx)
        assert np.array_equal(t, t.T)
        assert np.array_equal(t[1], xs)
        # (a*b)*c == a*(b*c) over all triples
        assert np.array_equal(t[t], t[:, t])
        # a*(b+c) == a*b + a*c
        xor = np.bitwise_xor.outer(xs, xs)
        assert np.array_equal(t[:, xor], t[:, :, None] ^ t[:, None, :])
        # every nonzero element has an inverse
        for a in range(1, q):
            assert oracles.mul(ctx, a, oracles.pow(ctx, a, q - 2)) == 1
        # squaring is additive
        sq = oracles.power_table(ctx, 2)
        assert np.array_equal(sq[xor], sq[:, None] ^ sq[None, :])


def test_trace_linearity_and_balance():
    for m in range(2, 11):
        ctx = gf2m.build_field(m)
        xs = np.arange(ctx.q, dtype=np.int64)
        tr = ctx.trace_table.astype(np.int64)
        xor = np.bitwise_xor.outer(xs, xs)
        assert np.array_equal(tr[xor], tr[:, None] ^ tr[None, :])
        assert int(tr.sum()) == ctx.q // 2


def test_trace_frobenius_invariance():
    for m in range(2, 13):
        ctx = gf2m.build_field(m)
        assert np.array_equal(ctx.trace_table[oracles.power_table(ctx, 2)], ctx.trace_table)


def test_relative_trace_lands_in_subfield():
    for m, hs in ((4, (1, 2)), (6, (1, 2, 3)), (8, (1, 2, 4))):
        ctx = gf2m.build_field(m)
        for h in hs:
            rt = np.array([oracles.relative_trace(x, h, ctx.modulus, m) for x in range(ctx.q)])
            # subfield elements are the fixed points of x -> x^(2^h)
            assert np.array_equal(oracles.power_table(ctx, 1 << h)[rt], rt)


def test_relative_trace_tower():
    # absolute trace = subfield trace composed with the relative trace
    for m, h in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4)):
        ctx = gf2m.build_field(m)
        for x in range(ctx.q):
            y = oracles.relative_trace(x, h, ctx.modulus, m)
            t = 0
            cur = y
            for _ in range(h):
                t ^= cur
                cur = oracles.mul(ctx, cur, cur)
            assert t == oracles.raw_trace(x, ctx.modulus, m)


def test_relative_trace_h_one_is_absolute():
    ctx = gf2m.build_field(6)
    for x in range(ctx.q):
        assert oracles.relative_trace(x, 1, ctx.modulus, 6) == oracles.raw_trace(x, ctx.modulus, 6)


def test_subfield_degree_validation():
    ctx = gf2m.build_field(6)
    for h in (0, 4, 5, 6, 7, -1, "2"):
        with pytest.raises(ValueError):
            gf2m._validate_subfield_degree(ctx.m, h)


# ---------------------------------------------------------------------------
# GF(2) linear algebra.
# ---------------------------------------------------------------------------

def _span(vecs) -> set[int]:
    out = {0}
    for v in vecs:
        out |= {w ^ v for w in out}
    return out


def _apply(cols, x: int) -> int:
    """M x for the GF(2) matrix M with the given columns."""
    r = 0
    for j, col in enumerate(cols):
        if (x >> j) & 1:
            r ^= col
    return r


def _solve(cols, rhs: int, m: int) -> tuple[int, list[int]] | None:
    """(particular_solution, kernel_basis) of M x = rhs from gf2_solve's
    reductions, or None when rhs is not in the image of M."""
    reductions, kernel = gf2m.gf2_solve(cols, m)
    r = _apply(reductions, rhs)  # the XOR of reductions over the set bits of rhs
    return None if r >> m else (r, kernel)


def _literal_reduction(cols, rhs: int, m: int) -> int:
    """rhs << m with each lead bit >= m of the tagged columns' basis cleared,
    one basis vector at a time from the top bit down."""
    basis = gf2m.gf2_basis((c << m) | 1 << j for j, c in enumerate(cols))
    r = rhs << m
    for bit in range(2 * m - 1, m - 1, -1):
        if r >> bit & 1 and bit in basis:
            r ^= basis[bit]
    return r


@given(st.data())
def test_gf2_rank_against_span_size(data):
    width = data.draw(st.integers(1, 8))
    vecs = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=11))
    span = _span(vecs)
    assert 1 << gf2m.gf2_rank(vecs, width) == len(span)
    basis = gf2m.gf2_basis(vecs)
    assert 1 << len(basis) == len(span)
    assert _span(basis.values()) == span
    for lead, v in basis.items():
        assert v.bit_length() - 1 == lead
        assert not any((v >> other) & 1 for other in basis if other != lead)


def test_gf2_solve_reproduces_solution_sets():
    rng = random.Random(12)
    m = 6
    for _ in range(60):
        cols = [rng.randrange(0, 1 << m) for _ in range(m)]
        rhs = rng.randrange(0, 1 << m)
        brute = {x for x in range(1 << m) if _apply(cols, x) == rhs}
        sol = _solve(cols, rhs, m)
        if sol is None:
            assert brute == set()
            continue
        x0, kernel = sol
        got = {x0 ^ v for v in _span(kernel)}
        assert got == brute


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m),
        st.booleans(),
        st.integers(0, (1 << m) - 1),
    ))
)
def test_gf2_solver_reduction_is_linear_and_decides_solvability(case):
    """The XOR of gf2_solve's reductions over the set bits of rhs is the
    literal reduction (rhs + M x) << m | x of every rhs, inconsistent ones
    included; its top part is zero exactly when M x = rhs has a solution,
    and its low bits then solve it.  Half the draws make M singular by
    setting its last column to a combination of the others."""
    m, cols, singular, combination = case
    if singular:
        cols[-1] = _apply(cols[:-1], combination)
    reductions, kernel = gf2m.gf2_solve(cols, m)
    assert type(reductions) is list and all(type(r) is int for r in reductions + kernel)
    images = {_apply(cols, v) for v in range(1 << m)}
    for rhs in range(1 << m):
        r = _apply(reductions, rhs)
        assert r == _literal_reduction(cols, rhs, m), (rhs, r)
        assert r >> m == rhs ^ _apply(cols, r & ((1 << m) - 1))  # reads (rhs + M x) << m | x
        assert (r >> m == 0) == (rhs in images)
        if r >> m == 0:
            assert _apply(cols, r) == rhs
    assert all(_apply(cols, v) == 0 for v in kernel)
    assert 1 << len(kernel) == sum(_apply(cols, v) == 0 for v in range(1 << m))
    if singular:
        assert kernel and len(images) < 1 << m


def _solutions(sol) -> set[int]:
    if sol is None:
        return set()
    x0, kernel = sol
    return {x0 ^ v for v in _span(kernel)}


def test_gram_kernel_is_the_radical_exhaustive(monkeypatch):
    """gf2_solve on the Gram rows that weil._coset reads off the field for
    Q(x) = Tr(a x^(2^h+1)) has the brute-force radical
    {x : Q(x+y) + Q(x) + Q(y) = 0 for all y} as its kernel, for every a:
    2^h elements when m/h is odd, and for even m/h either 2^(2h) or only
    x = 0, by whether a is a (2^h+1)-th power.  Its solution sets of
    B(., x) = Tr(v .) equal brute force for one v per a.  Only for a = g^j,
    j < d, is Q + t*Tr zero on the radical, so quadratic_form is not run."""
    import math
    forms = []

    def capture(diag, gram, trace):
        forms.append(gram)
        return [], 0, 0, 0

    monkeypatch.setattr(gf2m, "quadratic_form", capture)
    for m in (4, 6):
        ctx = gf2m.build_field(m)
        xs = np.arange(ctx.q, dtype=np.int64)
        for h in cases.divisors(m):
            power = oracles.power_table(ctx, (1 << h) + 1)
            d = math.gcd((1 << h) + 1, ctx.n_units)
            for a in range(1, ctx.q):
                forms.clear()
                weil._coset(ctx, h, int(ctx.log_table[a]))
                (gram,) = forms
                form = ctx.trace_table[oracles.mul_vec(ctx, a, power)]
                polar = form[xs[:, None] ^ xs] ^ form[:, None] ^ form
                radical = {x for x in range(ctx.q) if not polar[x].any()}
                assert _solutions(_solve(gram, 0, m)) == radical
                if (m // h) % 2:
                    assert len(radical) == 1 << h
                elif int(ctx.log_table[a]) % d == 0:
                    assert len(radical) == 1 << (2 * h)
                else:
                    assert radical == {0}
                v = (a * 7 + h) % ctx.q  # arbitrary deterministic v
                tr_v = ctx.trace_table[oracles.mul_vec(ctx, v, xs)]  # Tr(v y) for every y
                rhs = sum(int(tr_v[1 << i]) << i for i in range(m))
                sols = _solutions(_solve(gram, rhs, m))
                assert sols == {x for x in range(ctx.q) if np.array_equal(polar[x], tr_v)}


def _parities(m: int) -> np.ndarray:
    """popcount(x) mod 2 for every x < 2^m, as uint8."""
    par = np.zeros(1, dtype=np.uint8)
    for _ in range(m):
        par = np.concatenate([par, par ^ 1])
    return par


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda m: st.tuples(
        st.just(m),
        st.integers(0, (1 << (m * (m - 1) // 2)) - 1),
        st.integers(0, (1 << m) - 1),
        st.integers(0, (1 << m) - 1),
    ))
)
def test_quadratic_form_against_brute_force(case):
    """quadratic_form on a random form with no field behind it: a symmetric
    zero-diagonal gram from the upper-triangle bits, a diag and a trace mask.
    Q is tabulated at all 2^m points by Q(x + e_j) = Q(x) + Q(e_j) + B(x, e_j)
    for x < 2^j, and every output is held against that table."""
    m, upper, diag, trace = case
    gram = [0] * m
    pairs = [(i, k) for i in range(m) for k in range(i + 1, m)]
    for bit, (i, k) in enumerate(pairs):
        if upper >> bit & 1:
            gram[i] |= 1 << k
            gram[k] |= 1 << i
    par, xs = _parities(m), np.arange(1 << m, dtype=np.int64)
    form = np.zeros(1, dtype=np.uint8)
    for j in range(m):
        form = np.concatenate([form, form ^ (diag >> j & 1) ^ par[xs[:1 << j] & gram[j]]])
    polar = form[xs[:, None] ^ xs] ^ form[:, None] ^ form
    radical = [x for x in range(1 << m) if not polar[x].any()]
    t = int(any(form[w] for w in radical))  # Q is linear on W, so nonzero there or zero
    shifted = form ^ t * par[xs & trace]  # Q' = Q + t*<., trace>
    if any(shifted[w] for w in radical):
        with pytest.raises(RuntimeError, match="radical"):
            gf2m.quadratic_form(diag, gram, trace)
        return
    reductions, got_t, arf, dim = gf2m.quadratic_form(diag, gram, trace)
    assert all(type(v) is int for v in reductions + [got_t, arf, dim])
    assert 1 << dim == len(radical) and got_t == t
    images = {_apply(gram, x) for x in range(1 << m)}
    for rhs in range(1 << m):
        r = _apply(reductions, rhs)
        assert (r >> m == 0) == (rhs in images), rhs
        if r >> m == 0:
            assert _apply(gram, r) == rhs
    assert (1 << m) - 2 * int(shifted.sum()) == (1 - 2 * arf) << ((m + dim) // 2)


# ---------------------------------------------------------------------------
# Cached vector tables.
# ---------------------------------------------------------------------------

def test_power_table_and_mul_vec():
    ctx = gf2m.build_field(6)
    xs = np.arange(ctx.q, dtype=np.int64)
    for t in (1, 2, 3, 5, 9):
        pt = oracles.power_table(ctx, t)
        for x in (0, 1, 2, 17, 63):
            assert int(pt[x]) == oracles.pow(ctx, x, t)
    for c in (0, 1, 5, 40):
        mv = oracles.mul_vec(ctx, c, xs)
        for x in (0, 1, 3, 62):
            assert int(mv[x]) == oracles.mul(ctx, c, x)


def test_exponents_must_be_integers():
    ctx = gf2m.build_field(5)
    with pytest.raises(ValueError, match="not an integer"):
        oracles.pow(ctx, 3, 2.5)
    with pytest.raises(ValueError, match="not an integer"):
        gf2m.exponent_table(ctx, 3.0)
    assert oracles.pow(ctx, 3, np.int64(7)) == oracles.pow(ctx, 3, 7)
    assert np.array_equal(oracles.power_table(ctx, np.int32(3)), oracles.power_table(ctx, 3))


def test_exponent_table_against_literal_powers():
    for m in range(2, 11):
        ctx = gf2m.build_field(m)
        n = ctx.n_units
        tr = gf2m.trace_of_antilog(ctx)
        assert tr.shape == (2 * n - 1,) and tr.dtype == np.uint8
        assert all(tr[i] == oracles.raw_trace(int(ctx.antilog_table[i % n]), ctx.modulus, m)
                   for i in range(2 * n - 1))
        for h in cases.divisors(m):
            t = (1 << h) + 1
            e = gf2m.exponent_table(ctx, t)
            assert e.shape == (n,) and 0 <= e.min() and e.max() < n
            for i in range(n):
                assert ctx.antilog_table[e[i]] == oracles.pow(ctx, int(ctx.antilog_table[i]), t)
            assert gf2m.exponent_table(ctx, t) is e


def test_exponent_table_m20_against_the_remainder():
    ctx = gf2m.build_field(20)
    n = ctx.n_units
    for t in (3, 17, 33, 1025):
        e = gf2m.exponent_table(ctx, t)
        assert e.dtype == np.int64 and e.shape == (n,)
        assert np.array_equal(e, np.arange(n, dtype=np.int64) * t % n), t


def _literal_quadratic(m, pairs, linear, const):
    """f(x) = const + sum of linear[i] over bits x_i + sum of pairs[i, j] over
    bit pairs x_i x_j, i < j, evaluated bit by bit at every x < 2^m."""
    xs = np.arange(1 << m, dtype=np.int64)
    x_bits = [(xs >> i) & 1 == 1 for i in range(m)]
    out = np.full(1 << m, const, dtype=np.int64)
    for i in range(m):
        out ^= np.where(x_bits[i], linear[i], 0)
        for j in range(i + 1, m):
            out ^= np.where(x_bits[i] & x_bits[j], pairs[i][j], 0)
    return out


def test_quadratic_table_against_literal_evaluation():
    rng = random.Random(11)
    for m in range(2, 15):
        for dtype, width, const in ((np.uint8, 1, 1), (np.uint8, 1, 0), (np.int32, 20, 0xABCDE)):
            pairs = [[rng.getrandbits(width) for _ in range(m)] for _ in range(m)]
            linear = [rng.getrandbits(width) for _ in range(m)]
            literal = _literal_quadratic(m, pairs, linear, const)
            calls = []

            def f(points):
                calls.append(points.size)
                return literal[points]

            table = gf2m.quadratic_table(f, m, dtype)
            assert table.dtype == dtype and table.shape == (1 << m,)
            assert np.array_equal(table, literal), (m, dtype)
            k = m // 2
            assert calls == [(1 << k) + (1 << (m - k)) + k * (m - k)]


def test_quadratic_table_of_a_field_map():
    # x -> a*x^(2^h+1) + b*x + c, with f(0) = c != 0, against scalar arithmetic
    for m in (5, 8, 9):
        ctx = gf2m.build_field(m)
        for h in range(m):
            a, b, c = 3 + h, 7 * h + 1, ctx.q - 1 - h
            literal = np.array([
                oracles.mul(ctx, a, oracles.pow(ctx, x, (1 << h) + 1)) ^ oracles.mul(ctx, b, x) ^ c
                for x in range(ctx.q)])
            table = gf2m.quadratic_table(lambda p: literal[p], m, np.int64)
            assert np.array_equal(table, literal), (m, h)


def _assert_power_map_tables(ctx, hs):
    for h in hs:
        table = gf2m.power_map_table(ctx, h)
        assert table.dtype == np.int32 and table.shape == (ctx.q,), (ctx.m, h)
        assert np.array_equal(table, oracles.power_table(ctx, (1 << h) + 1)), (ctx.m, ctx.modulus, h)


def test_power_map_table_every_divisor_m2_to_m20():
    for m in range(2, 21):
        ctx = gf2m.build_field(m)
        _assert_power_map_tables(ctx, cases.divisors(m))


@settings(max_examples=30, deadline=None)
@given(cases.irreducible_modulus(12))
def test_power_map_table_in_a_random_basis(modulus):
    ctx = gf2m.build_field(gf2m.poly_degree(modulus), modulus)
    _assert_power_map_tables(ctx, range(ctx.m))


def test_power_map_table_validation():
    ctx = gf2m.build_field(6)
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="must be in"):
            gf2m.power_map_table(ctx, bad)
    with pytest.raises(ValueError, match="not an integer"):
        gf2m.power_map_table(ctx, 2.0)
    assert np.array_equal(gf2m.power_map_table(ctx, np.int64(2)), gf2m.power_map_table(ctx, 2))


def test_power_map_table_holds_the_latest_h():
    ctx = gf2m.build_field(8)
    t1 = gf2m.power_map_table(ctx, 1)
    assert gf2m.power_map_table(ctx, 1) is t1
    t2 = gf2m.power_map_table(ctx, 2)
    assert gf2m.power_map_table(ctx, 2) is t2
    again = gf2m.power_map_table(ctx, 1)
    assert again is not t1 and np.array_equal(again, t1)
    assert gf2m.power_map_table(gf2m.build_field(8), 1) is not again  # one table per field


def _literal_wht(v: np.ndarray) -> np.ndarray:
    z = np.arange(v.size)
    masked = np.bitwise_and.outer(z, z)
    parity = np.zeros_like(masked)
    while masked.any():
        parity ^= masked & 1
        masked >>= 1
    return np.where(parity == 1, -v, v).sum(axis=1)


def test_wht_against_literal_transform():
    rng = np.random.default_rng(8)
    for m in range(0, 9):
        v = rng.choice(np.array([-1, 1]), size=1 << m)
        w = gf2m.wht(v)
        assert w.dtype == np.int64 and np.array_equal(w, _literal_wht(v))
        assert np.array_equal(oracles.wht(v), w)
        counts = rng.integers(0, 50, size=1 << m)
        assert np.array_equal(gf2m.wht(counts), _literal_wht(counts))
        assert np.array_equal(oracles.wht(counts), _literal_wht(counts))
    with pytest.raises(ValueError, match="power-of-two"):
        gf2m.wht(np.ones(6, dtype=np.int64))
    # the transform of [0.5, 0.25] is [0.75, 0.25], which int64 cannot hold
    for v in (np.array([0.5, 0.25]), np.ones(4, dtype=np.float32), np.ones(2, dtype=complex)):
        with pytest.raises(ValueError, match="integer or bool"):
            gf2m.wht(v)
    flags = rng.integers(0, 2, size=64).astype(bool)
    assert np.array_equal(gf2m.wht(flags), _literal_wht(flags.astype(np.int64)))


def test_wht_against_the_butterfly_m0_to_m20():
    # +-1 vectors as the all-b Weil kernel passes them, and the column counts of
    # real codes: d0 (h = 1), and the even-regime full code at h = m/2, where
    # each column repeats gcd(2^h+1, 2^m-1) = 2^h+1 times; and small ints with
    # one entry 2^24 + 1, so sum |v| > 2^24 runs the float64 steps at every m
    rng, wide_rng = np.random.default_rng(13), np.random.default_rng(53)
    for m in range(0, 21):
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << m)
        w = gf2m.wht(signs)
        assert w.dtype == np.int64 and np.array_equal(w, oracles.wht(signs))
        wide = wide_rng.integers(-3, 4, size=1 << m)
        wide[wide_rng.integers(1 << m)] = (1 << 24) + 1
        assert np.array_equal(gf2m.wht(wide), oracles.wht(wide)), m
        if m < 2:
            continue
        ctx = gf2m.build_field(m)
        count_vectors = [np.bincount(code_mod.make_code(ctx, 1, code_mod.D0).phis, minlength=ctx.q)]
        if m % 2 == 0:
            full = code_mod.make_code(ctx, m // 2, code_mod.FULL_STAR)
            count_vectors.append(np.bincount(full.phis, minlength=ctx.q))
            assert count_vectors[-1].max() == (1 << m // 2) + 1
        for counts in count_vectors:
            assert np.array_equal(gf2m.wht(counts), oracles.wht(counts)), m


def test_wht_is_exact_to_2_24_in_float32_and_below_2_53_in_float64():
    size = 1 << 20
    for sign in (1, -1):
        w = gf2m.wht(np.full(size, sign, dtype=np.int64))
        assert w.dtype == np.int64
        assert w[0] == sign * size and not w[1:].any()
    # a bound of 2^31 or more is exact too, where int32 stages would wrap
    big = np.zeros(4, dtype=np.int64)
    big[:2] = 1 << 31
    assert list(gf2m.wht(big)) == [1 << 32, 0, 1 << 32, 0]
    # sum |v| = 2^24 is exact in float32, with signs in any place
    rng = np.random.default_rng(24)
    v = rng.multinomial(1 << 24, np.full(1 << 10, 1 / 1024)) * rng.choice([-1, 1], size=1 << 10)
    assert np.abs(v).sum() == 1 << 24
    assert np.array_equal(gf2m.wht(v), oracles.wht(v))
    # one more and float32 would round 2^24 + 1; the transform goes to float64
    assert list(gf2m.wht([1 << 24, 1, 0, 0])) == [(1 << 24) + 1, (1 << 24) - 1] * 2
    assert list(gf2m.wht([-(1 << 24), -1, 0, 0])) == [-(1 << 24) - 1, 1 - (1 << 24)] * 2
    # |-128| wraps in int8, so sum |v| is read unsigned: 2^24 + 1 here, not 1 - 2^24
    v = np.zeros(1 << 18, dtype=np.int8)
    v[0], v[1::2] = 1, -128
    w = gf2m.wht(v)
    assert w[1] == (1 << 24) + 1 and np.array_equal(w, oracles.wht(v))
    assert list(gf2m.wht([(1 << 53) - 1, 0])) == [(1 << 53) - 1] * 2
    for past in ([1 << 53, 0], [1 << 52, -(1 << 52)], [-(1 << 63), 0]):
        with pytest.raises(ValueError, match="2\\^53"):
            gf2m.wht(np.array(past, dtype=np.int64))


def test_dual_coordinates_pairing():
    for m in range(2, 9):
        ctx = gf2m.build_field(m)
        xs = np.arange(ctx.q, dtype=np.int64)
        dual = gf2m.dual_coordinates(ctx)
        assert sorted(int(v) for v in dual) == list(range(ctx.q))
        masked = np.bitwise_and.outer(xs, dual)
        parity = np.zeros_like(masked)
        for i in range(m):
            parity ^= (masked >> i) & 1
        expect = np.stack([ctx.trace_table[oracles.mul_vec(ctx, b, xs)] for b in range(ctx.q)])
        assert np.array_equal(parity, expect.astype(np.int64))
