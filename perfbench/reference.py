"""Independent GF(2^m) arithmetic for checking the outputs of tracecodes.

Nothing here imports tracecodes or reads its tables.  Elements are ints, or
int64 numpy arrays of ints, in the polynomial basis: bit i holds the
coefficient of x^i, over the same modulus the library is given.  Scalars are
multiplied carry-less with reduction.  Every GF(2)-linear map the checks need
(multiplication by a constant, Frobenius powers, the absolute trace, the
dual-coordinate map) is applied to arrays from its images of the basis
1, x, ..., x^(m-1), which are computed with the scalar multiply.
"""

from __future__ import annotations

import random

import numpy as np

# ---------------------------------------------------------------------------
# Polynomials over GF(2) as ints.
# ---------------------------------------------------------------------------

def poly_mod(a: int, p: int) -> int:
    dp = p.bit_length()
    while a.bit_length() >= dp:
        a ^= p << (a.bit_length() - dp)
    return a


def poly_mulmod(a: int, b: int, p: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a = poly_mod(a << 1, p)
    return poly_mod(r, p)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """Ben-Or test: p of degree m is irreducible iff gcd(x^(2^k) - x, p) = 1
    for every k <= m/2."""
    m = p.bit_length() - 1
    if m < 1:
        return False
    s = 0b10
    for _ in range(m // 2):
        s = poly_mulmod(s, s, p)
        if poly_gcd(p, s ^ 0b10) != 1:
            return False
    return True


def random_irreducible(m: int, rng: random.Random) -> int:
    """A uniformly drawn irreducible polynomial of degree m."""
    while True:
        p = (1 << m) | rng.getrandbits(m) | 1
        if is_irreducible(p):
            return p


# ---------------------------------------------------------------------------
# The field.
# ---------------------------------------------------------------------------

class Field:
    """GF(2^m) over a given irreducible modulus, with array helpers."""

    def __init__(self, m: int, modulus: int):
        if modulus.bit_length() - 1 != m or not is_irreducible(modulus):
            raise ValueError(f"{modulus:#b} is not an irreducible polynomial of degree {m}")
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        basis = [1 << i for i in range(m)]
        self._trace_mask = sum(self.trace_scalar(e) << i for i, e in enumerate(basis))
        # bit j of _dual_masks[i] is Tr(x^i * x^j)
        self._dual_masks = [
            sum(self.trace_scalar(self.mul(ei, ej)) << j for j, ej in enumerate(basis))
            for ei in basis
        ]
        self._powers: dict[int, np.ndarray] = {}

    # scalars -------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        r = 0
        top = self.q
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.modulus
        return r

    def frobenius_scalar(self, a: int, k: int) -> int:
        """a^(2^k)."""
        for _ in range(k % self.m):
            a = self.mul(a, a)
        return a

    def trace_scalar(self, a: int) -> int:
        t, s = a, a
        for _ in range(self.m - 1):
            s = self.mul(s, s)
            t ^= s
        if t not in (0, 1):
            raise ArithmeticError(f"trace of {a} left GF(2): {t}")
        return t

    # arrays --------------------------------------------------------------
    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def linear(self, images: list[int], xs: np.ndarray) -> np.ndarray:
        """The GF(2)-linear map sending x^i to images[i], applied to xs."""
        out = np.zeros_like(xs)
        for i, img in enumerate(images):
            out ^= ((xs >> i) & 1) * img
        return out

    def mul_const(self, c: int, xs: np.ndarray) -> np.ndarray:
        return self.linear([self.mul(c, 1 << i) for i in range(self.m)], xs)

    def frobenius(self, xs: np.ndarray, k: int) -> np.ndarray:
        return self.linear([self.frobenius_scalar(1 << i, k) for i in range(self.m)], xs)

    def mul_arrays(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        r = np.zeros_like(xs)
        a = xs.copy()
        for i in range(self.m):
            r ^= ((ys >> i) & 1) * a
            a <<= 1
            a ^= ((a >> self.m) & 1) * self.modulus
        return r

    def trace(self, xs: np.ndarray) -> np.ndarray:
        return (np.bitwise_count(xs & self._trace_mask) & 1).astype(np.int64)

    def dual(self, xs: np.ndarray) -> np.ndarray:
        """B[x] with bit i = Tr(x^i * x), so Tr(b*x) = parity(b & B[x])."""
        out = np.zeros_like(xs)
        for i, mask in enumerate(self._dual_masks):
            out |= (np.bitwise_count(xs & mask).astype(np.int64) & 1) << i
        return out

    def power(self, xs: np.ndarray, h: int) -> np.ndarray:
        """x^(2^h + 1) elementwise."""
        return self.mul_arrays(self.frobenius(xs, h), xs)

    def powers(self, h: int) -> np.ndarray:
        """x^(2^h + 1) for every element x, cached per h."""
        if h not in self._powers:
            self._powers[h] = self.power(self.elements(), h)
        return self._powers[h]


# ---------------------------------------------------------------------------
# Codes and their weights.
# ---------------------------------------------------------------------------

def defining_set(f: Field, variant: str, h: int) -> np.ndarray:
    """The defining set in ascending order."""
    xs = f.elements()
    if variant == "d0":
        return xs[(f.trace(xs) == 0) & (xs > 0)]
    if variant == "d1":
        return xs[f.trace(xs) == 1]
    if variant == "full":
        return xs[1:]
    if variant == "punctured":
        return np.unique(f.powers(h)[1:])
    raise ValueError(f"unknown variant {variant!r}")


def columns(f: Field, variant: str, h: int) -> np.ndarray:
    """Column multipliers: d^(2^h+1) over D, or D itself for the punctured code."""
    d = defining_set(f, variant, h)
    return d if variant == "punctured" else f.powers(h)[d]


def walsh(v: np.ndarray) -> np.ndarray:
    """W[b] = sum_z v[z] * (-1)^popcount(b & z), by butterflies on bit planes."""
    w = np.array(v, dtype=np.int64)
    n = w.size
    half = 1
    while half < n:
        w = w.reshape(-1, 2, half)
        w = np.stack((w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]), axis=1)
        half <<= 1
    return w.reshape(n)


def weights_by_message(f: Field, cols: np.ndarray) -> np.ndarray:
    """Weight of the codeword (Tr(x*c))_c for every message x (index = bits of x)."""
    hist = np.bincount(f.dual(cols), minlength=f.q)
    return (cols.size - walsh(hist)) // 2


def distribution(f: Field, cols: np.ndarray) -> dict[int, int]:
    """Message-indexed weight counts: weight -> number of messages."""
    counts = np.bincount(weights_by_message(f, cols))
    return {int(w): int(c) for w, c in enumerate(counts) if c}


def rank_from_distribution(m: int, counts: dict[int, int]) -> int:
    """k from the 2^(m-k) messages that map to the zero codeword."""
    zero = counts.get(0, 0)
    if zero < 1 or zero & (zero - 1):
        raise ArithmeticError(f"zero-weight count {zero} is not a power of two")
    return m - (zero.bit_length() - 1)


def codeword_weight(f: Field, h: int, trace_bit: int, b: int) -> int:
    """Literal weight of message b in the trace-`trace_bit` code: the number of
    d != 0 with Tr(d) = trace_bit and Tr(b * d^(2^h+1)) = 1."""
    d = defining_set(f, "d0" if trace_bit == 0 else "d1", h)
    return int(f.trace(f.mul_const(b, f.powers(h)[d])).sum())


def weil_sum(f: Field, h: int, a: int, b: int) -> int:
    """S_h(a, b) = sum over x of (-1)^Tr(a*x^(2^h+1) + b*x), term by term."""
    arg = f.mul_const(a, f.powers(h)) ^ f.mul_const(b, f.elements())
    return f.q - 2 * int(f.trace(arg).sum())


def weil_sums_all_b(f: Field, h: int, a: int) -> np.ndarray:
    """S_h(a, b) for every b: the characters chi(a*x^(2^h+1)) binned by the
    dual coordinates of x, then Walsh-transformed over b."""
    chi = 1 - 2 * f.trace(f.mul_const(a, f.powers(h)))
    bins = f.dual(f.elements())
    hist = np.bincount(bins[chi > 0], minlength=f.q) - np.bincount(bins[chi < 0], minlength=f.q)
    return walsh(hist)


def codeword_rows(f: Field, cols: np.ndarray) -> list[int]:
    """Codewords of the messages 1, x, ..., x^(m-1), each packed into an int
    whose bit j is coordinate j."""
    rows = []
    for i in range(f.m):
        bits = f.trace(f.mul_const(1 << i, cols)).astype(np.uint8)
        rows.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    return rows


def gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)
