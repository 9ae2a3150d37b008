"""Literal references that the tests hold the library against.

The whole-field ones, and the scalar product mul and power pow, are each one
gather from the field's log and antilog tables, with none of the linear or
quadratic table machinery of gf2m.  The other scalar ones use no table at
all: a shift-and-add product reduced by the modulus, and the absolute and
relative traces as sums of squarings.  The Walsh transform is the pair
butterfly in int64, with no floating point.
"""

from __future__ import annotations

import numpy as np

from tracecodes import gf2m


def power_table(ctx, t: int) -> np.ndarray:
    """x^t for every x in the field, as int64[q], t >= 1."""
    out = np.zeros(ctx.q, dtype=np.int64)
    out[1:] = ctx.antilog_table[(ctx.log_table[1:] * t) % ctx.n_units]
    return out


def mul_vec(ctx, c: int, v: np.ndarray) -> np.ndarray:
    """c * v elementwise for an array v of field elements."""
    out = np.zeros_like(v)
    if c:
        nz = v != 0
        # log c + log v < 2(q-1), so one wrap of the antilog table reduces it
        logs = int(ctx.log_table[c]) + ctx.log_table[v[nz]]
        out[nz] = ctx.antilog_table.take(logs, mode="wrap")
    return out


def mul(ctx, a: int, b: int) -> int:
    """a * b through the log and antilog tables; a and b are checked as field elements."""
    a, b = gf2m._check_element(ctx, a), gf2m._check_element(ctx, b)
    if a == 0 or b == 0:
        return 0
    return int(ctx.antilog_table[(int(ctx.log_table[a]) + int(ctx.log_table[b])) % ctx.n_units])


def pow(ctx, a: int, k: int) -> int:  # noqa: A001 - field exponentiation
    """a^k through the log and antilog tables, k >= 0; a is checked as a field
    element, and a negative or non-integer k is a ValueError."""
    a, k = gf2m._check_element(ctx, a), gf2m._as_int(k, "k")
    if k < 0:
        raise ValueError("negative exponents are not supported")
    if a == 0:
        return 1 if k == 0 else 0
    return int(ctx.antilog_table[(int(ctx.log_table[a]) * k) % ctx.n_units])


def raw_mul(a: int, b: int, modulus: int, m: int) -> int:
    """a * b in GF(2)[x] / (modulus), modulus of degree m, by shift and add."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= modulus
    return r


def raw_trace(x: int, modulus: int, m: int) -> int:
    """Tr(x) = x + x^2 + ... + x^(2^(m-1)), by m - 1 raw_mul squarings."""
    t = x
    for _ in range(m - 1):
        x = raw_mul(x, x, modulus, m)
        t ^= x
    assert t in (0, 1)
    return t


def relative_trace(x: int, h: int, modulus: int, m: int) -> int:
    """Tr_h(x) = x + x^(2^h) + ... + x^(2^(m-h)) onto GF(2^h), h dividing m,
    by raw_mul squarings."""
    t = 0
    for _ in range(m // h):
        t ^= x
        for _ in range(h):
            x = raw_mul(x, x, modulus, m)
    return t


def coulter_constants(m: int, h: int, j: int) -> tuple[int, int]:
    """(t, scale) of the closed form S_h(g^j, b) = scale * (-1)^Tr(g^j x0^(2^h+1) + t x0),
    as Coulter (New Zealand J. Math., 1999) states them per regime.

    m/h odd: t = 1 and scale (2 | m/h)^h * 2^((m+h)/2), with (2 | n) the
    Jacobi symbol, -1 exactly when n = 3 or 5 mod 8.  m/h even, with
    e = m/2 and eps = (-1)^(e/h): t = 0, and scale eps * 2^e when j != 0
    (g^j is not a (2^h+1)-th power), -eps * 2^(e+h) when j = 0.
    """
    if (m // h) % 2:
        jacobi = -1 if h % 2 and (m // h) % 8 in (3, 5) else 1
        return 1, jacobi << ((m + h) // 2)
    e = m // 2
    eps = -1 if (e // h) % 2 else 1
    return 0, (eps << e if j else -eps << (e + h))


def wht(v) -> np.ndarray:
    """Walsh-Hadamard transform W[b] = sum_z v[z] * (-1)^popcount(b & z), in int64.

    Each of the m stages (v.size = 2^m) writes the sums and differences of
    the pairs (2j, 2j+1) to the halves j and j + 2^(m-1) of a second buffer:
    it transforms the lowest index bit and rotates it to the top, so after m
    stages every bit is transformed and back in place.
    """
    v = np.array(v, dtype=np.int64)  # a copy: the stages write to both buffers
    out = np.empty_like(v)
    half = v.size // 2
    for _ in range(v.size.bit_length() - 1):
        pairs = v.reshape(-1, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[half:])
        v, out = out, v
    return v
