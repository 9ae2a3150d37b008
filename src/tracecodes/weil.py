"""Weil sums S_h(a, b) = sum over x in GF(2^m) of (-1)^Tr(a*x^(2^h+1) + b*x).

Two independent evaluation routes are kept side by side on purpose:

* weil_sum_direct literally sums the character over the field;
* weil_sum_closed evaluates the known closed form off a per-coset cache.

The direct route walks the field in log order: x = 0, then x = g^i for
i < 2^m - 1.  The character bit of a*x^(2^h+1) is Tr(g^(log a + E[i])), with
E[i] = (2^h+1)*i mod (2^m-1) from gf2m.exponent_table, and that of b*x is
Tr(g^(log b + i)); both are gathers from gf2m.trace_of_antilog, so no field
multiplication runs.  It stays a literal sum: every x contributes its own
term exactly once, read from the core tables alone, and no closed-route
function (_regime, _character, gf2m.quadratic_form, gf2m.gf2_solve,
quadratic_table) is called, so the routes remain independent checks of each
other.  The all-b direct kernel scatters the same log-order bits into x
order through the antilog table, then into Walsh bins through
gf2m.dual_coordinates.

The closed form is one computation in every regime.  With q = 2^h and
d = gcd(q+1, 2^m-1), write a = g^j * c^(q+1) with j = log a mod d.  The
substitution x -> x/c gives S_h(a, b) = S_h(g^j, b/c) (R. S. Coulter, "On
the evaluation of a class of Weil sums in characteristic 2", New Zealand J.
Math., 1999), so the inputs are normalised to (a', b') = (g^j, b/c), of
which there are d values of a'.  Q(x) = Tr(a'*x^(q+1)) is a quadratic form
with the Gram matrix B(e_i, e_k) = Q(e_i + e_k) + Q(e_i) + Q(e_k), whose
kernel is the radical W.  On W, Q is linear and equals t*Tr for one t in
{0, 1}, so Q' = Q + t*Tr vanishes on W and the scale sum (-1)^Q'(x) is
(-1)^Arf(Q') * 2^((m + dim W)/2) (Lidl and Niederreiter, Finite Fields,
ch. 6).  With v = b' + t, S_h(a, b) sums (-1)^(Q'(x) + Tr(v*x)), and Q' has
Q's polar form B, so completing the square with an x0 such that
B(x, x0) = Tr(v*x) for every x gives S_h(a, b) = scale * (-1)^Q'(x0), and
S_h(a, b) = 0 when there is no x0.  Q'(x0) is the same at every solution,
so any x0 serves, and b = 0 needs no case of its own.

Everything but b' = u*b (u = 1/c) depends on (h, j) alone, so _coset
computes it once per field, h and j, from Q(e_i), the Gram rows and the
m^2 traces Tr(e_k*e_i), read off the field's log, antilog and trace tables.
gf2m.quadratic_form returns the Gram matrix's reductions of the e_i, t,
Arf(Q') and dim W.  The right side, bit i = Tr(v*e_i), is linear in v, so
x0 is too: _coset caches sol[k] = x0(e_k), the XOR of the reductions over
the i with Tr(e_k*e_i) = 1 (2^m or more: no solution), and both closed
kernels reach x0 only by applying sol to v = u*b + t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2m


@dataclass(frozen=True)
class WeilSumValue:
    """A closed-form value.  Every value is exact and signed, so is_exact is
    always True; the benchmark reads .value and .is_exact."""

    value: int
    is_exact = True


def _validate_query(ctx: gf2m.FieldCtx, h: int, a: int, b: int) -> tuple[int, int, int]:
    h = gf2m._validate_subfield_degree(ctx.m, h)
    a = gf2m._check_element(ctx, a, "a")
    b = gf2m._check_element(ctx, b, "b")
    if a == 0:
        raise ValueError("a must be nonzero")
    return h, a, b


def _power_character(ctx: gf2m.FieldCtx, h: int, a: int) -> np.ndarray:
    """Tr(a*x^(2^h+1)) at x = g^i for every i < q-1, as uint8 in log order."""
    chi = gf2m.trace_of_antilog(ctx)[int(ctx.log_table[a]):]  # chi[k] = Tr(a * g^k)
    return chi[gf2m.exponent_table(ctx, (1 << h) + 1)]


def weil_sum_direct(ctx: gf2m.FieldCtx, h: int, a: int, b: int = 0) -> int:
    """S_h(a, b) by direct summation over all 2^m field elements.

    x = 0 adds 1; x = g^i adds (-1)^(Tr(a*x^(2^h+1)) + Tr(b*x)), whose second
    bit is the slice of trace_of_antilog that starts at log b.
    """
    h, a, b = _validate_query(ctx, h, a, b)
    bits = _power_character(ctx, h, a)
    if b:
        lb = int(ctx.log_table[b])
        bits ^= gf2m.trace_of_antilog(ctx)[lb:lb + ctx.n_units]
    return ctx.q - 2 * int(np.count_nonzero(bits))


def _character(ctx: gf2m.FieldCtx, h: int, j: int, t: int, x):
    """Q'(x) = Tr(g^j * x^(2^h+1) + t*x) at an int64 x or array of x, by the log tables."""
    logs = (j + ctx.log_table[x] * ((1 << h) + 1)) % ctx.n_units
    bits = ctx.trace_table[ctx.antilog_table[logs]] & (x != 0)  # Tr(0) = 0
    return bits ^ ctx.trace_table[x] if t else bits


def _coset(ctx: gf2m.FieldCtx, h: int, j: int):
    """(sol, t, scale) for a' = g^j from gf2m.quadratic_form, fed with bit i
    of diag = Q(e_i), bit k of gram[i] = Q(e_i + e_k) + Q(e_i) + Q(e_k) and
    bit i of trace = Tr(e_i), for Q(x) = Tr(g^j * x^(2^h+1)); sol[k] is the
    XOR of the reductions over the bits i of Tr(e_k * e_i), trace for k = 0."""
    e = 1 << np.arange(ctx.m, dtype=np.int64)
    quad = _character(ctx, h, j, 0, e)
    gram = ((_character(ctx, h, j, 0, e[:, None] ^ e) ^ quad[:, None] ^ quad) @ e).tolist()
    logs = ctx.log_table[e]
    traces = ctx.trace_table[ctx.antilog_table[(logs[:, None] + logs) % ctx.n_units]]
    cols, t, arf, dim = gf2m.quadratic_form(int(quad @ e), gram, int(traces[0] @ e))
    sol = np.bitwise_xor.reduce(traces * cols, axis=1).tolist()
    return sol, t, (1 - 2 * arf) << ((ctx.m + dim) // 2)


def _regime(ctx: gf2m.FieldCtx, h: int, a: int) -> tuple:
    """(u, j) of a = g^j * c^(q+1), u = 1/c, and _coset(j), cached as plain data."""
    n, q = ctx.n_units, 1 << h
    d = math.gcd(q + 1, n)
    log_a = int(ctx.log_table[a])
    j = log_a % d  # log a' for a = a' * c^(q+1)
    s = pow((q + 1) // d, -1, n // d)  # c = g^(s*(log a - j)/d) has c^(q+1) = a/a'
    u = int(ctx.antilog_table[(-s * ((log_a - j) // d)) % n])  # 1/c
    return (u, j) + gf2m._cached(ctx, ("coset", h, j), lambda: _coset(ctx, h, j))


def weil_sum_closed(ctx: gf2m.FieldCtx, h: int, a: int, b: int = 0) -> WeilSumValue:
    """Closed-form S_h(a, b), signed in every regime; see the module docstring."""
    h, a, b = _validate_query(ctx, h, a, b)
    u, j, sol, t, scale = _regime(ctx, h, a)
    n, log, x0 = ctx.n_units, ctx.log_table, 0
    v = int(ctx.antilog_table[(int(log[u]) + int(log[b])) % n]) ^ t if b else t  # u*b + t
    for k, s in enumerate(sol):  # x0(v), a solution if < 2^m
        if v >> k & 1:
            x0 ^= s
    return WeilSumValue(0 if x0 >= ctx.q else -scale if _character(ctx, h, j, t, x0) else scale)


# ---------------------------------------------------------------------------
# Batch kernels: evaluate S_h(a, b) for a fixed a and every b at once.
# These power the exhaustive oracle-equivalence sweeps.
# ---------------------------------------------------------------------------

def weil_sum_direct_all_b(ctx: gf2m.FieldCtx, h: int, a: int) -> np.ndarray:
    """Exact S_h(a, b) for every b, as int64[q].

    Tr(b*x) = parity(bits(b) & B[x]) for the dual-coordinate map B, so the
    sum over x becomes a Walsh transform of the character values binned by
    B[x]: the log-order bits of weil_sum_direct are scattered into x order
    through the antilog table (x = 0 keeps bit 0), then into the bins B[x]
    through gf2m.dual_coordinates.  This is still a direct evaluation (every
    x contributes exactly once); only the summation order changes.
    """
    h, a, _ = _validate_query(ctx, h, a, 0)
    by_x = np.zeros(ctx.q, dtype=np.uint8)
    by_x[ctx.antilog_table] = _power_character(ctx, h, a)
    bits = np.empty_like(by_x)
    bits[gf2m.dual_coordinates(ctx)] = by_x  # B is a bijection: one x per bin
    signs = bits.view(np.int8)
    signs *= -2
    signs += 1  # (-1)^bit
    return gf2m.wht(signs)


def weil_sum_closed_all_b(
    ctx: gf2m.FieldCtx, h: int, a: int
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form values for every b: (values int64[q], exact bool[q]).

    The same closed form as weil_sum_closed, for all b at once: the coset's
    map sol is GF(2)-linear, so x0(b) = sol(u*b) + t*sol[0] is affine in b
    and is tabulated by linear_table from the m images sol(u*e_k).  The
    character bit b -> Tr(a'*x0(b)^(q+1) + t*x0(b)) is then GF(2)-quadratic
    in b, and gf2m.quadratic_table fills it from about 2^(m/2+1) values
    taken by the log route.  Every entry is exact and signed, so exact is
    all True; the benchmark reads the (values, exact) pair.
    """
    h, a, _ = _validate_query(ctx, h, a, 0)
    u, j, sol, t, scale = _regime(ctx, h, a)
    ue = ctx.antilog_table[(ctx.log_table[u] + ctx.log_table[1 << np.arange(ctx.m)]) % ctx.n_units]
    by_bit = ue[:, None] >> np.arange(ctx.m) & 1  # the bits of each u*e_k
    x0 = gf2m.linear_table(np.bitwise_xor.reduce(by_bit * sol, axis=1)) ^ t * sol[0]
    bits = gf2m.quadratic_table(
        lambda bs: _character(ctx, h, j, t, x0[bs] & (ctx.q - 1)), ctx.m, np.uint8)
    values = np.where(bits, -scale, scale) * (x0 < ctx.q)
    return values, np.ones(ctx.q, dtype=bool)
