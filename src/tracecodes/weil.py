"""Weil sums S_h(a, b) = sum over x in GF(2^m) of (-1)^Tr(a*x^(2^h+1) + b*x).

Two independent evaluation routes are kept side by side on purpose:

* weil_sum_direct literally sums the character over the field;
* weil_sum_closed dispatches on the parity of m/h and evaluates the known
  closed forms.

When m/h is odd and the sum is nonzero, the closed form pins down only the
magnitude 2^((m+h)/2); the sign is not determined by the general theory.
That case is returned as a MagnitudeOnly value and callers needing the sign
(e.g. the per-codeword weight formula) fall back to direct summation.
Signs are never guessed.

For the even case m = 2e the value depends on whether a is a (2^h+1)-th
power: the affine equation a^(2^h) x^(2^(2h)) + a x = b^(2^h) is either
uniquely solvable (permutation branch) or solvable for a fraction of the
right-hand sides, and completing the square gives

    S_h(a, b) = chi(a*x0^(2^h+1)) * S_h(a, 0)

at any solution x0 (the cross term Tr(b*x0) cancels identically), with
S_h(a, b) = 0 when there is no solution.  One published statement of the
power branch splits it further on Tr_h(a); that split contradicts direct
evaluation already at m=4, h=1, a=g^3 and is not reproduced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2m

EXACT = "exact"
MAGNITUDE_ONLY = "magnitude-only"


@dataclass(frozen=True)
class WeilSumValue:
    """Either an exact signed value or a magnitude with undetermined sign."""

    kind: str
    value: int

    @classmethod
    def exact(cls, v: int) -> "WeilSumValue":
        return cls(EXACT, int(v))

    @classmethod
    def magnitude_only(cls, mag: int) -> "WeilSumValue":
        if mag < 0:
            raise ValueError("magnitude must be non-negative")
        return cls(MAGNITUDE_ONLY, int(mag))

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT

    @property
    def magnitude(self) -> int:
        return abs(self.value)

    def __str__(self) -> str:
        return str(self.value) if self.is_exact else f"+/-{self.value}"


def _validate_query(ctx: gf2m.FieldCtx, h: int, a: int, b: int) -> tuple[int, int]:
    gf2m._validate_subfield_degree(ctx, h)
    a = gf2m._check_element(ctx, a, "a")
    b = gf2m._check_element(ctx, b, "b")
    if a == 0:
        raise ValueError("a must be nonzero")
    return a, b


def weil_sum_direct(ctx: gf2m.FieldCtx, h: int, a: int, b: int = 0) -> int:
    """S_h(a, b) by direct summation over all 2^m field elements."""
    a, b = _validate_query(ctx, h, a, b)
    powers = gf2m.power_table(ctx, (1 << h) + 1)
    arg = gf2m.mul_vec(ctx, a, powers)
    if b:
        arg = arg ^ gf2m.mul_vec(ctx, b, np.arange(ctx.q, dtype=np.int64))
    ones = int(ctx.trace_table[arg].sum())
    return ctx.q - 2 * ones


def is_power_2h_plus_1(ctx: gf2m.FieldCtx, h: int, a: int) -> bool:
    """True iff a = c^(2^h+1) for some c; for m/h odd this holds for all a != 0."""
    a, _ = _validate_query(ctx, h, a, 0)
    d = math.gcd((1 << h) + 1, ctx.n_units)
    return int(ctx.log_table[a]) % d == 0


def epsilon(m: int, h: int) -> int:
    """(-1)^(e/h) with e = m/2; only meaningful when m/h is even."""
    return -1 if ((m // 2) // h) % 2 else 1


def _chi(ctx: gf2m.FieldCtx, x: int) -> int:
    return 1 - 2 * gf2m.trace(ctx, x)


def weil_sum_closed(ctx: gf2m.FieldCtx, h: int, a: int, b: int = 0) -> WeilSumValue:
    """Closed-form S_h(a, b); O(m^2) bit operations instead of O(2^m).

    Odd m/h:  S_h(a, 0) = 0.  For b != 0 write a = c^(2^h+1) (the power map
    is a bijection); then S_h(a, b) = 0 when Tr_h(b/c) != 1 and otherwise
    has magnitude 2^((m+h)/2) with sign undetermined (MagnitudeOnly).

    Even m/h (m = 2e, eps = (-1)^(e/h)):  for b = 0 the value is eps*2^e
    when a is not a (2^h+1)-th power and -eps*2^(e+h) when it is.  For
    b != 0 solve a^(2^h) x^(2^(2h)) + a x = b^(2^h): no solution gives 0;
    otherwise the value is chi(a*x0^(2^h+1)) times the b = 0 value, i.e.
    times eps*2^e in the permutation branch and -eps*2^(e+h) in the power
    branch.
    """
    a, b = _validate_query(ctx, h, a, b)
    if (ctx.m // h) % 2 == 1:
        return _closed_odd(ctx, h, a, b)
    return _closed_even(ctx, h, a, b)


def _closed_odd(ctx: gf2m.FieldCtx, h: int, a: int, b: int) -> WeilSumValue:
    if b == 0:
        return WeilSumValue.exact(0)
    n = ctx.n_units
    s = pow((1 << h) + 1, -1, n)  # gcd(2^h+1, 2^m-1) = 1 in this regime
    c = int(ctx.antilog_table[(s * int(ctx.log_table[a])) % n])
    arg = gf2m.mul(ctx, b, gf2m.inv(ctx, c))
    if gf2m.relative_trace(ctx, h, arg) != 1:
        return WeilSumValue.exact(0)
    return WeilSumValue.magnitude_only(1 << ((ctx.m + h) // 2))


def _closed_even(ctx: gf2m.FieldCtx, h: int, a: int, b: int) -> WeilSumValue:
    m = ctx.m
    e = m // 2
    eps = epsilon(m, h)
    apower = is_power_2h_plus_1(ctx, h, a)
    if b == 0:
        return WeilSumValue.exact(-eps << (e + h) if apower else eps << e)

    # The character factor is constant on the solution coset, so any
    # solution x0 serves.
    sol = gf2m.solve_affine_linearized(ctx, h, a, gf2m.pow(ctx, b, 1 << h))
    if sol is None:
        if not apower:
            raise RuntimeError(
                f"permutation branch unsolvable for m={m} h={h} a={a} b={b}; "
                "this indicates a table-construction bug"
            )
        return WeilSumValue.exact(0)
    chi = _chi(ctx, gf2m.mul(ctx, a, gf2m.pow(ctx, sol[0], (1 << h) + 1)))
    return WeilSumValue.exact(-eps * chi << (e + h) if apower else eps * chi << e)


def subfield_image_counts(ctx: gf2m.FieldCtx, h: int) -> tuple[int, int]:
    """(T0, T1): how many x have Tr(x^(2^h+1)) equal to 0 resp. 1; m/h even.

    Counted directly over the field, then asserted against the closed forms
    T0 = 2^(m-1) - eps*2^(e+h-1), T1 = 2^(m-1) + eps*2^(e+h-1).
    """
    gf2m._validate_subfield_degree(ctx, h)
    m = ctx.m
    if (m // h) % 2:
        raise ValueError(f"subfield image counts need m/h even, got m={m} h={h}")
    powers = gf2m.power_table(ctx, (1 << h) + 1)
    t0 = int((ctx.trace_table[powers] == 0).sum())
    t1 = ctx.q - t0
    eps = epsilon(m, h)
    expect_t0 = (1 << (m - 1)) - eps * (1 << (m // 2 + h - 1))
    if t0 != expect_t0:
        raise RuntimeError(
            f"direct count T0={t0} disagrees with closed form {expect_t0} "
            f"for m={m} h={h}"
        )
    return t0, t1


# ---------------------------------------------------------------------------
# Batch kernels: evaluate S_h(a, b) for a fixed a and every b at once.
# These power the exhaustive oracle-equivalence sweeps.
# ---------------------------------------------------------------------------

def weil_sum_direct_all_b(ctx: gf2m.FieldCtx, h: int, a: int) -> np.ndarray:
    """Exact S_h(a, b) for every b, as int64[q].

    Tr(b*x) = parity(bits(b) & B[x]) for the dual-coordinate map B, so the
    sum over x becomes a Walsh transform of the character values binned by
    B[x].  This is still a direct evaluation (every x contributes exactly
    once); only the summation order changes.
    """
    a, _ = _validate_query(ctx, h, a, 0)
    powers = gf2m.power_table(ctx, (1 << h) + 1)
    sx = 1 - 2 * ctx.trace_table[gf2m.mul_vec(ctx, a, powers)].astype(np.int64)
    bins = gf2m.dual_coordinates(ctx)
    plus = np.bincount(bins[sx > 0], minlength=ctx.q)
    minus = np.bincount(bins[sx < 0], minlength=ctx.q)
    return gf2m.wht(plus - minus)


def weil_sum_closed_all_b(
    ctx: gf2m.FieldCtx, h: int, a: int
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form values for every b: (values int64[q], exact bool[q]).

    Where exact[b] is False the entry holds the predicted magnitude.
    """
    a, _ = _validate_query(ctx, h, a, 0)
    m = ctx.m
    q = ctx.q
    n = ctx.n_units
    values = np.zeros(q, dtype=np.int64)
    exact = np.ones(q, dtype=bool)
    xs = np.arange(q, dtype=np.int64)

    if (m // h) % 2 == 1:
        s = pow((1 << h) + 1, -1, n)
        c = int(ctx.antilog_table[(s * int(ctx.log_table[a])) % n])
        args = gf2m.mul_vec(ctx, gf2m.inv(ctx, c), xs)
        hit = gf2m.relative_trace_table(ctx, h)[args] == 1
        hit[0] = False
        values[hit] = 1 << ((m + h) // 2)
        exact[hit] = False
        return values, exact

    e = m // 2
    eps = epsilon(m, h)
    apower = is_power_2h_plus_1(ctx, h, a)

    a2h = gf2m.pow(ctx, a, 1 << h)
    frob2h = gf2m.power_table(ctx, 1 << ((2 * h) % m))
    lvals = gf2m.mul_vec(ctx, a2h, frob2h) ^ gf2m.mul_vec(ctx, a, xs)
    preimage = np.full(q, -1, dtype=np.int64)
    preimage[lvals] = xs

    chi = 1 - 2 * ctx.trace_table[
        gf2m.mul_vec(ctx, a, gf2m.power_table(ctx, (1 << h) + 1))
    ].astype(np.int64)
    rhs = gf2m.power_table(ctx, 1 << h)  # b^(2^h) for every b
    x0 = preimage[rhs]

    if not apower:
        if int((x0 < 0).sum()):
            raise RuntimeError("permutation branch left unsolvable right-hand sides")
        values = (eps << e) * chi[x0]
    else:
        solvable = x0 >= 0
        values = np.where(solvable, (-eps << (e + h)) * chi[np.clip(x0, 0, None)], 0)
    return values, exact
