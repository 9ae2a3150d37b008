"""Weil sums S_h(a, b) = sum over x in GF(2^m) of (-1)^Tr(a*x^(2^h+1) + b*x).

Two independent evaluation routes are kept side by side on purpose:

* weil_sum_direct literally sums the character over the field;
* weil_sum_closed evaluates the known closed form, in O(m^2) bit operations.

The direct route walks the field in log order: x = 0, then x = g^i for
i < 2^m - 1.  The character bit of a*x^(2^h+1) is Tr(g^(log a + E[i])), with
E[i] = (2^h+1)*i mod (2^m-1) from gf2m.exponent_table, and that of b*x is
Tr(g^(log b + i)); both are gathers from gf2m.trace_of_antilog, so no field
multiplication runs.  It stays a literal sum: every x contributes its own
term exactly once, read from the core tables alone, and nothing of the
closed route (_regime, gf2m.gf2_solver, gf2m.quadratic_table) is called, so
the two routes remain independent checks of each other.  The all-b direct
kernel scatters the same log-order bits into x order through the antilog
table, then into Walsh bins through gf2m.dual_coordinates.

Both regimes of the closed form are one computation.  With q = 2^h and
d = gcd(q+1, 2^m-1), write a = g^j * c^(q+1) with j = log a mod d.  The
substitution x -> x/c gives S_h(a, b) = S_h(g^j, b/c) (R. S. Coulter, "On
the evaluation of a class of Weil sums in characteristic 2", New Zealand J.
Math., 1999), so the inputs are normalised to (a', b') = (g^j, b/c), of
which there are d values of a'.  With a constant t in {0, 1}, completing
the square turns the sum into a character value at a solution x0 of the
affine equation

    a'^q * x^(q^2) + a' * x = (b' + t)^q,

namely S_h(a, b) = scale * chi(a'*x0^(q+1) + t*x0), and S_h(a, b) = 0 when
the equation has no solution.  The character factor is the same at every
solution, so any x0 serves, and b = 0 needs no case of its own.  _regime
holds the normalisation, the character and the signed values once; the two
closed kernels differ only in how they reach x0(b).  weil_sum_closed
reduces its one right-hand side.  weil_sum_closed_all_b tabulates the
affine map b -> x0(b) with gf2m.linear_table, so b -> chi(a'*x0^(q+1) +
t*x0) is GF(2)-quadratic in b and gf2m.quadratic_table fills it from
about 2^(m/2+1) values.  The regime sets only t and the scale:

* m/h odd: d = 1, so j = 0 and a' = 1.  t = 1 and the scale is
  (2 | m/h)^h * 2^((m+h)/2), where (2 | m/h) is the Jacobi symbol
  (Coulter 1999).  The equation is solvable exactly when Tr_h(b/c) = 1.
* m/h even (m = 2e, eps = (-1)^(e/h)): t = 0.  When j != 0, a is not a
  (q+1)-th power, the left side is a permutation (so a solution always
  exists) and the scale is eps*2^e; when j = 0 it is -eps*2^(e+h).  One
  published statement of the power branch splits it further on Tr_h(a);
  that split contradicts direct evaluation already at m=4, h=1, a=g^3 and
  is not reproduced here.
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


def epsilon(m: int, h: int) -> int:
    """(-1)^(e/h) with e = m/2; only meaningful when m/h is even."""
    return -1 if ((m // 2) // h) % 2 else 1


def _regime(ctx: gf2m.FieldCtx, h: int, a: int):
    """(u, t, reduce, character, signed): the normalisation of the module docstring.

    u = 1/c, so b' = u*b and S_h(a, b) = scale * chi(a'*x0^(q+1) + t*x0) at
    any solution x0 of a'^q x^(q^2) + a' x = (u*b + t)^q, and 0 when there
    is none.  reduce is the gf2m.gf2_solver reduction of the left side,
    which depends on a' = g^j alone, so it is eliminated once per field, h
    and j: at most d times per field and h, and once when m/h is odd.
    character(x0) is Tr(a'*x0^(q+1) + t*x0) at an int64 x0 or array of x0.
    signed(bits, unsolvable) returns scale * (-1)^bit, and 0 where
    unsolvable; in the permutation branch (unique) every right-hand side is
    solvable, so an unsolvable one there is a RuntimeError.
    """
    m, n, q = ctx.m, ctx.n_units, 1 << h
    d = math.gcd(q + 1, n)
    log_a = int(ctx.log_table[a])
    j = log_a % d  # log a' for a = a' * c^(q+1)
    s = pow((q + 1) // d, -1, n // d)  # c = g^(s*(log a - j)/d) has c^(q+1) = a/a'
    u = int(ctx.antilog_table[(-s * ((log_a - j) // d)) % n])  # 1/c
    if (m // h) % 2:
        jacobi = -1 if h % 2 and (m // h) % 8 in (3, 5) else 1  # (2 | m/h)^h
        t, scale, unique = 1, jacobi << ((m + h) // 2), False
    else:
        e, eps = m // 2, epsilon(m, h)
        unique = j != 0  # a is not a (q+1)-th power: the left side has no kernel
        t, scale = 0, (eps << e if unique else -eps << (e + h))
    reduce = gf2m._cached(ctx, ("reduce", h, j), lambda: gf2m.gf2_solver(
        gf2m.linearized_columns(ctx, h, int(ctx.antilog_table[j])), m)[0])

    def character(x0):
        logs = (j + ctx.log_table[x0] * (q + 1)) % n  # log(a'*x0^(q+1))
        bits = ctx.trace_table[ctx.antilog_table[logs]] & (x0 != 0)  # Tr(0) = 0
        return bits ^ ctx.trace_table[x0] if t else bits

    def signed(bits, unsolvable):
        if unique and unsolvable.any():  # a table-construction bug
            raise RuntimeError(f"permutation branch unsolvable for m={m} h={h} a={a}")
        return np.where(bits, -scale, scale) * ~unsolvable

    return u, t, reduce, character, signed


def weil_sum_closed(ctx: gf2m.FieldCtx, h: int, a: int, b: int = 0) -> WeilSumValue:
    """Closed-form S_h(a, b), signed in both regimes; see the module docstring.

    m/h odd: 0 when Tr_h(b/c) != 1 (in particular at b = 0), otherwise
    (2 | m/h)^h * chi(x0^(2^h+1) + x0) * 2^((m+h)/2) with x0 a solution of
    x^(2^(2h)) + x = (b/c + 1)^(2^h) (Coulter 1999).  m/h even: 0 when
    a^(2^h) x^(2^(2h)) + a x = b^(2^h) has no solution, otherwise
    chi(a*x0^(2^h+1)) times eps*2^e (permutation branch) or -eps*2^(e+h)
    (power branch).
    """
    h, a, b = _validate_query(ctx, h, a, b)
    u, t, reduce, character, signed = _regime(ctx, h, a)
    x0 = np.int64(reduce(gf2m.pow(ctx, gf2m.mul(ctx, u, b) ^ t, 1 << h)))  # a solution if < 2^m
    return WeilSumValue(int(signed(character(x0 & (ctx.q - 1)), x0 >= ctx.q)))


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

    The same closed form as weil_sum_closed, for all b at once: the
    right-hand side (u*b + t)^q = u^q * b^q + t is GF(2)-linear in b up to
    the constant t, so its reduction is tabulated from the reductions of m
    basis images and of t.  The solution x0(b) is then affine in b, so the
    character bit b -> Tr(a'*x0(b)^(q+1) + t*x0(b)) is GF(2)-quadratic in b,
    and gf2m.quadratic_table fills it from about 2^(m/2+1) values taken by
    the log route.  Every entry is exact and signed, so exact is all True;
    the benchmark reads the (values, exact) pair.
    """
    h, a, _ = _validate_query(ctx, h, a, 0)
    u, t, reduce, character, signed = _regime(ctx, h, a)
    images = gf2m.basis_images(ctx, gf2m.pow(ctx, u, 1 << h), h)
    reduced = gf2m.linear_table([reduce(int(c)) for c in images]) ^ reduce(t)
    bits = gf2m.quadratic_table(lambda bs: character(reduced[bs] & (ctx.q - 1)), ctx.m, np.uint8)
    return signed(bits, reduced >= ctx.q), np.ones(ctx.q, dtype=bool)
