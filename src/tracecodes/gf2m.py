"""Exact arithmetic in GF(2^m) for 2 <= m <= 20.

Field elements are plain Python ints in the polynomial basis: bit i of an
element holds the coefficient of x^i, so addition is XOR and the constants
0 and 1 are the additive and multiplicative identities.  The same encoding
is used for polynomials over GF(2), e.g. x^3 + x + 1 <-> 0b1011 = 11.

A FieldCtx bundles the irreducible modulus, the smallest primitive element,
and the log/antilog/trace tables that every downstream enumeration leans on.
Tables are numpy arrays so batch kernels can index them directly.  They are
built from GF(2)-linear maps (multiplication by a constant, the trace)
tabulated by linear_table, so a field costs O(2^m) array work and about
2^(m/2) Python steps.

The GF(2) linear algebra reads no field table: gf2_basis eliminates,
gf2_solve solves M x = rhs for every rhs at once, and quadratic_form reads
the radical, t and the Arf invariant off a quadratic form given as ints.

GF(2)-quadratic maps, such as x -> x^(2^h+1) and the closed Weil sums'
character, are tabulated the same way by quadratic_table: the map itself is
evaluated at about 2^(m/2+1) points, and XOR doublings of its polar form
fill in the rest, so no whole-field remainder or random gather is needed.

The Walsh-Hadamard transform, wht, is about m/5 matrix products with the
Sylvester matrix of order 2^r, r <= 5, each over r of the m index bits on
their own axis of the array, so no step transposes or rotates it.  They run
in float32 or float64, whichever holds every intermediate value as an exact
integer.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

MIN_DEGREE = 2
MAX_DEGREE = 20


# ---------------------------------------------------------------------------
# Polynomials over GF(2), encoded as ints (bit i = coefficient of x^i).
# ---------------------------------------------------------------------------

def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, mod: int) -> int:
    dm = poly_degree(mod)
    da = poly_degree(a)
    while da >= dm:
        a ^= mod << (da - dm)
        da = poly_degree(a)
    return a


def _raw_mul(a: int, b: int, modulus: int, m: int) -> int:
    # Table-free a * b mod modulus, for a and b of degree < m.
    r = 0
    top = 1 << m
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_str(p: int) -> str:
    """Human-readable form of a bit-encoded polynomial, e.g. 11 -> 'x^3 + x + 1'."""
    if p == 0:
        return "0"
    terms = []
    for i in range(poly_degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("x^%d" % i if i > 1 else ("x" if i == 1 else "1"))
    return " + ".join(terms)


def irreducibility_witness(p: int) -> tuple[int, int] | None:
    """Return (k, g) showing p reducible, or None when p is irreducible.

    A polynomial of degree d is reducible iff it shares a factor with
    x^(2^k) - x for some k <= d/2, because that product covers every
    irreducible polynomial of degree <= d/2.  The witness g is the
    offending gcd.
    """
    d = poly_degree(p)
    s = 0b10  # the polynomial x
    for k in range(1, d // 2 + 1):
        s = _raw_mul(s, s, p, d)  # x^(2^k) mod p
        g = poly_gcd(p, s ^ 0b10)
        if g != 1:
            return k, g
    return None


def is_irreducible(p: int) -> bool:
    return p > 1 and irreducibility_witness(p) is None  # a negative int encodes no polynomial


@functools.cache
def smallest_irreducible(m: int) -> int:
    """Smallest (by integer encoding) irreducible polynomial of degree m,
    searched once per m."""
    for p in range(1 << m, 1 << (m + 1)):
        if irreducibility_witness(p) is None:
            return p
    raise AssertionError("irreducible polynomials exist for every degree")


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-packed vectors.
# ---------------------------------------------------------------------------

def gf2_basis(vecs, width: int | None = None) -> dict[int, int]:
    """Fully reduced echelon basis over GF(2) of bit-packed vectors.

    Keys are lead bits (the highest set bit of each basis vector), and every
    basis vector is zero at every other vector's lead bit.  The scan stops
    once the basis has width vectors, the most that vectors below 2^width
    can span.  This is the one GF(2) elimination of the package.
    """
    basis: dict[int, int] = {}
    for v in vecs:
        v = int(v)
        # Clearing lead bits alone decides membership; a vector in the span stops here.
        while v and v.bit_length() - 1 in basis:
            v ^= basis[v.bit_length() - 1]
        if not v:
            continue
        for lead, b in basis.items():
            if (v >> lead) & 1:
                v ^= b
        top = v.bit_length() - 1
        for lead, b in basis.items():
            if (b >> top) & 1:
                basis[lead] = b ^ v
        basis[top] = v
        if len(basis) == width:
            break
    return basis


def gf2_rank(vecs, width: int) -> int:
    """Rank over GF(2) of a collection of bit-packed vectors below 2^width."""
    return len(gf2_basis(vecs, width))


def gf2_solve(cols: list[int], m: int) -> tuple[list[int], list[int]]:
    """Eliminate M once; return (reductions, kernel) for M x = rhs over GF(2).

    Bit i of cols[j] is M[i][j], i, j < m; solutions are ints with bit j = x_j,
    and kernel is a basis of the solutions of M x = 0.

    Column j is tagged with bit j below it, so every vector of the span
    reads (M x) << m | x.  Clearing the lead bits of rhs << m leaves
    (rhs + M x) << m | x: the top part is zero exactly when rhs is solvable,
    and the low m bits are then a solution.  The reduction is GF(2)-linear
    in rhs, the XOR of reductions[i] over its set bits i; reductions[i] is
    read off the basis, whose vectors are zero at each other's lead bits.
    """
    basis = gf2_basis((int(c) << m) | 1 << j for j, c in enumerate(cols))
    reductions = [basis.get(m + i, 0) ^ 1 << (m + i) for i in range(m)]
    return reductions, [v for lead, v in basis.items() if lead < m]


def quadratic_form(diag: int, gram: list[int], trace: int) -> tuple[list[int], int, int, int]:
    """(reductions, t, arf, dim W) of the quadratic form Q on m = len(gram) bits
    with Q(e_i) = bit i of diag and polar form B(e_i, e_k) = bit k of gram[i].

    gram is symmetric with zero diagonal, so gf2_solve(gram, m) solves
    B(., x) = <., rhs>, and its kernel is the radical W.  Q is linear on W,
    and t = 1 when it is nonzero there; Q' = Q + t*<., trace> must vanish on
    W, else RuntimeError.  Then sum (-1)^Q'(x) = (-1)^arf * 2^((m + dim W)/2),
    arf = Arf(Q') by symplectic reduction: each e_i pairs with the first w left
    where B(e_i, w) = 1, and every x left becomes x + B(x, w)*e_i + B(x, e_i)*w.
    """
    m, gram = len(gram), list(gram)  # a copy: the reduction rewrites its rows
    reductions, radical = gf2_solve(gram, m)

    def form(x: int) -> int:  # Q(x) = <x, diag> + B(e_i, e_k) over the pairs k < i in x
        q = (x & diag).bit_count()
        while x:
            i = x.bit_length() - 1
            x ^= 1 << i
            q += (gram[i] & x).bit_count()
        return q & 1

    on_w = [form(w) for w in radical]  # Q is linear on W: its values on W's basis
    t = int(any(on_w))
    if any(q ^ t & (w & trace).bit_count() & 1 for q, w in zip(on_w, radical)):
        raise RuntimeError(f"Q + t*Tr does not vanish on the radical of a form on {m} bits")
    quad, left, arf = [(diag ^ t * trace) >> i & 1 for i in range(m)], list(range(m)), 0
    while left:
        i = left.pop(0)
        k = next((k for k in left if gram[i] >> k & 1), None)
        if k is not None:  # else e_i now lies in the radical
            left.remove(k)
            arf ^= quad[i] & quad[k]
            for x in left:
                bw, bv = gram[x] >> k & 1, gram[x] >> i & 1  # B(x, w), B(x, e_i)
                gram[x] ^= bw * gram[i] ^ bv * gram[k]
                quad[x] ^= bw & quad[i] ^ bv & quad[k] ^ bw & bv
    return reductions, t, arf, len(radical)


# ---------------------------------------------------------------------------
# Field context.
# ---------------------------------------------------------------------------

def _raw_pow(a: int, k: int, modulus: int, m: int) -> int:
    r = 1
    while k:
        if k & 1:
            r = _raw_mul(r, a, modulus, m)
        a = _raw_mul(a, a, modulus, m)
        k >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldCtx:
    """GF(2^m) with precomputed tables; treat as immutable after build_field.

    Attributes:
        m: extension degree.
        modulus: bit-encoded irreducible polynomial of degree m.
        generator: smallest primitive element, as an integer.
        q: field size 2^m.
        n_units: multiplicative group order 2^m - 1.
        log_table: int64[q]; discrete log base `generator`, -1 at index 0.
        antilog_table: int64[n_units]; antilog_table[i] = generator^i.
        trace_table: uint8[q]; absolute trace to GF(2).
    """

    def __init__(self, m, modulus, generator, log_table, antilog_table, trace_table):
        self.m = m
        self.modulus = modulus
        self.generator = generator
        self.q = 1 << m
        self.n_units = self.q - 1
        self.log_table = log_table
        self.antilog_table = antilog_table
        self.trace_table = trace_table
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={self.modulus:#b}, generator={self.generator})"


def build_field(m: int, modulus: int | None = None) -> FieldCtx:
    """Construct GF(2^m), validating the modulus and choosing a generator.

    With no modulus, the smallest irreducible polynomial of degree m (by
    integer encoding) is used.  The generator is the smallest element of
    multiplicative order 2^m - 1.

    The antilog table is filled as a 2^(m/2)-wide grid: the first row by
    scalar products, every later row by one gather from the table of
    multiplication by g^(2^(m/2)); the log table is one scatter of it, and
    the trace table is linear_table of the traces of the basis elements.
    The build asserts that g^(2^m-1) = 1, that every unit gets a log and
    that the trace is balanced.
    """
    m = _validate_degree(m)
    if modulus is None:
        modulus = smallest_irreducible(m)
    else:
        modulus = _as_int(modulus, "modulus")
        if modulus < 0:
            raise ValueError(f"modulus {modulus} is negative; it must encode a polynomial")
        if poly_degree(modulus) != m:
            raise ValueError(
                f"modulus {poly_str(modulus)} has degree {poly_degree(modulus)}, expected {m}"
            )
        witness = irreducibility_witness(modulus)
        if witness is not None:
            k, g = witness
            raise ValueError(
                f"modulus {poly_str(modulus)} ({modulus:#b}) is reducible: "
                f"gcd with x^(2^{k}) - x is {poly_str(g)}"
            )
    q = 1 << m
    n_units = q - 1
    primes = _prime_factors(n_units)
    generator = next(
        a for a in range(2, q)
        if all(_raw_pow(a, n_units // p, modulus, m) != 1 for p in primes)
    )

    # Row r, column i holds g^(r*step + i): row 0 by scalar products, each later
    # row by one gather from the table of y -> g^step * y, which is linear.
    step = 1 << (m // 2)
    powers = np.empty((n_units // step + 1, step), dtype=np.int64)
    v = 1
    for i in range(step):
        powers[0, i] = v
        v = _raw_mul(v, generator, modulus, m)
    times_g_step = linear_table([_raw_mul(v, 1 << j, modulus, m) for j in range(m)])
    for r in range(1, len(powers)):
        powers[r] = times_g_step[powers[r - 1]]
    alog_np = powers.reshape(-1)[:n_units]
    log_np = np.full(q, -1, dtype=np.int64)
    log_np[alog_np] = np.arange(n_units, dtype=np.int64)
    if powers.flat[n_units] != 1 or (log_np[1:] < 0).any():
        raise AssertionError("generator order check failed")

    # The trace is linear too: Tr(e_j) is the XOR of the squares e_j^(2^i), i < m.
    logs = log_np[1 << np.arange(m)][:, None] << np.arange(m)
    tr = linear_table(np.bitwise_xor.reduce(alog_np[logs % n_units], axis=1))
    if not np.all((tr == 0) | (tr == 1)) or int((tr == 0).sum()) != q // 2:
        raise AssertionError("trace table failed its balance check")

    return FieldCtx(m, modulus, generator, log_np, alog_np, tr.astype(np.uint8))


def _as_int(value, name: str) -> int:
    """value as an int, numpy integers included; floats and the rest are a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} is not an integer") from None


def _validate_degree(m: int) -> int:
    """m as an int in [MIN_DEGREE, MAX_DEGREE], the degrees build_field admits,
    else ValueError."""
    m = _as_int(m, "m")
    if not MIN_DEGREE <= m <= MAX_DEGREE:
        raise ValueError(f"m must be an integer in [{MIN_DEGREE}, {MAX_DEGREE}], got {m!r}")
    return m


def _validate_subfield_degree(m: int, h: int) -> int:
    """h as an int that is a positive proper divisor of m, else ValueError."""
    h = _as_int(h, "h")
    if not 1 <= h < m or m % h:
        raise ValueError(f"h={h!r} must be a positive proper divisor of m={m}")
    return h


def _check_element(ctx: FieldCtx, a: int, name: str = "element") -> int:
    a = _as_int(a, name)
    if not 0 <= a < ctx.q:
        raise ValueError(f"{name}={a} is not an element of GF(2^{ctx.m})")
    return a


# ---------------------------------------------------------------------------
# Vectorized tables, cached per field.  These back the batch kernels in the
# weil and code modules; all of them are derived from the core tables above.
# ---------------------------------------------------------------------------

def _cached(ctx: FieldCtx, key, build):
    try:
        return ctx._cache[key]
    except KeyError:
        value = build()
        ctx._cache[key] = value
        return value


def trace_of_antilog(ctx: FieldCtx) -> np.ndarray:
    """Tr(g^i) for exponents i = 0 .. 2*(q-1)-2 (uint8), so log sums need no reduction.

    The q-1 traces of the antilog table, repeated: no int64 table of
    exponents is built for it."""
    def build():
        bits = ctx.trace_table[ctx.antilog_table]
        return np.concatenate([bits, bits[:-1]])
    return _cached(ctx, "tr_alog", build)


def exponent_table(ctx: FieldCtx, t: int) -> np.ndarray:
    """E[i] = t*i mod (q-1) for i < q-1: log(x^t) at x = g^i, in log order.

    With S = 2^(m/2) and i = r*S + c, E[i] is (r*S*t mod (q-1)) + (c*t mod (q-1)),
    less q-1 when the sum reaches it: about 2^(m/2+1) remainders and one
    broadcast add, with no division over the field.
    """
    t = _as_int(t, "t")

    def build():
        n = ctx.n_units
        step = 1 << (ctx.m // 2)
        rows = np.arange(-(-n // step), dtype=np.int64) * (step * t % n) % n
        cols = np.arange(step, dtype=np.int64) * (t % n) % n
        e = (rows[:, None] + cols).reshape(-1)[:n]
        np.subtract(e, n, out=e, where=e >= n)
        return e

    return _cached(ctx, ("exp", t), build)


def linear_table(images) -> np.ndarray:
    """f(x) for every x, as an array of length 2^m, for the GF(2)-linear map f
    with f(e_j) = images[j].

    images[j] may be an int or a vector of w ints, giving a table of shape
    (2^m, w) in the integer dtype of images.  The table for the first j
    basis elements doubles to the table for j + 1 by XOR with f(e_j), in
    O(2^m).
    """
    images = np.asarray(images)
    out = np.zeros((1 << len(images),) + images.shape[1:], dtype=images.dtype)
    for j, image in enumerate(images):
        np.bitwise_xor(out[:1 << j], image, out=out[1 << j:2 << j])
    return out


@functools.lru_cache(maxsize=None)
def _quadratic_points(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points quadratic_table evaluates at, k = m // 2: l < 2^k, then
    u << k for u < 2^(m-k), then e_i + e_(k+j) for i < k, j < m - k; and the
    places of e_i and e_(k+j) among them."""
    k = m // 2
    bits = 1 << np.arange(m, dtype=np.int64)
    points = np.concatenate([
        np.arange(1 << k, dtype=np.int64),
        np.arange(1 << (m - k), dtype=np.int64) << k,
        (bits[:k, None] | bits[k:]).reshape(-1),
    ])
    arrays = points, bits[:k, None], (1 << k) + bits[:m - k]
    for a in arrays:
        a.setflags(write=False)  # shared by every caller through the cache
    return arrays


def quadratic_table(f, m: int, dtype) -> np.ndarray:
    """f(x) for every x < 2^m, as dtype[2^m], for a GF(2)-quadratic map f.

    f takes an int64 array of points and returns their images, ints within
    the range of dtype (bits, or field elements).  f is quadratic when its
    polar form B(x, y) = f(x+y) + f(x) + f(y) + f(0) is bilinear, as for
    x -> x^(2^h+1), where (x+y)^(2^h+1) = x^(2^h+1) + y^(2^h+1) + x^(2^h) y +
    x y^(2^h), and for any quadratic map composed with an affine one.

    Split x = u << k | l with k = m // 2 and l < 2^k.  Then

        f(x) = f(l) + f(u << k) + f(0) + B(l, u << k),

    and B(l, u << k) is the sum of beta[i, j] = B(e_i, e_(k+j)) over the set
    bits l_i and u_j.  So f is called once, at l < 2^k, at u << k and at the
    k(m-k) points e_i + e_(k+j) that give beta: about 2^(m/2+1) + m^2/4
    points.  linear_table of beta gives, for every l, the images
    B(l, e_(k+j)) of the basis of u under the linear map u -> B(l, u << k),
    and m - k doublings of the row f(l), as in linear_table, fill in the
    rest.
    """
    k = m // 2
    points, at_low, at_high = _quadratic_points(m)
    vals = np.asarray(f(points)).astype(dtype, copy=False)
    f_low, f_high = vals[:1 << k], vals[1 << k:(1 << k) + (1 << (m - k))]
    f0 = f_low[0]
    beta = vals[len(f_low) + len(f_high):].reshape(k, m - k) ^ vals[at_low] ^ vals[at_high] ^ f0
    cols = linear_table(beta)  # cols[l, j] = B(l, e_(k+j))
    out = np.empty((1 << (m - k), 1 << k), dtype=dtype)
    out[0] = f_low
    for j in range(m - k):
        np.bitwise_xor(out[:1 << j], cols[:, j], out=out[1 << j:2 << j])
    out ^= (f_high ^ f0)[:, None]
    return out.reshape(-1)


def power_map_table(ctx: FieldCtx, h: int) -> np.ndarray:
    """x^(2^h+1) for every x in the field, as int32[q], 0 <= h < m.

    The map is GF(2)-quadratic, so quadratic_table fills it from about
    2^(m/2+1) powers taken by the log route; no remainder is taken and no
    table is gathered over the whole field.  The field holds the table of
    the latest h only: the codes of one h (d0, d1, full) share it, and at
    m = 20 a field holds 4 MB for it rather than 4 MB per h.
    """
    h = _as_int(h, "h")
    if not 0 <= h < ctx.m:
        raise ValueError(f"h={h!r} must be in [0, {ctx.m})")
    t = (1 << h) + 1

    def power(points):
        return np.where(points, ctx.antilog_table[ctx.log_table[points] * t % ctx.n_units], 0)

    held = ctx._cache.get("powmap")
    if held is None or held[0] != h:
        held = ctx._cache["powmap"] = (h, quadratic_table(power, ctx.m, np.int32))
    return held[1]


def dual_coordinates(ctx: FieldCtx) -> np.ndarray:
    """B[x] with bit i = trace(e_i * x); a GF(2)-linear bijection of the field.

    Writing b = sum b_i e_i in the polynomial basis gives
    trace(b*x) = parity(bits(b) & B[x]), which turns trace pairings into
    plain bit inner products for the Walsh transform kernels.

    B is linear, so linear_table builds it from the m^2 traces Tr(e_i * e_j).
    """
    def build():
        logs = ctx.log_table[1 << np.arange(ctx.m)]
        products = ctx.antilog_table[(logs[:, None] + logs) % ctx.n_units]  # e_i * e_j
        bits = ctx.trace_table[products].astype(np.int64) << np.arange(ctx.m)[:, None]
        return linear_table(bits.sum(axis=0))

    return _cached(ctx, "dual", build)


@functools.lru_cache(maxsize=None)
def _sylvester(r: int, dtype) -> np.ndarray:
    """The +-1 Sylvester matrix H[b, z] = (-1)^popcount(b & z) of order 2^r."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(r):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)  # shared by every caller through the cache
    return h


def wht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform W[b] = sum_z v[z] * (-1)^popcount(b & z), as int64.

    The m index bits (v.size = 2^m) are split as evenly as possible into
    ceil(m / 5) groups of r <= 5 bits, and H_(2^m) is the Kronecker product
    of one Sylvester matrix H = H_(2^r) per group.  Each group is one GEMM
    step that transforms its bits where they lie, on their own axis, into a
    second buffer: the lowest group is x viewed as (2^(m-r), 2^r) times H,
    and a group starting at bit low is H times each (2^r, 2^low) block of x.
    BLAS reads and writes only contiguous row-major blocks; no step
    transposes or rotates the array.

    Every intermediate value, each BLAS partial sum in any order and with or
    without FMA included, is a signed sum of distinct entries of v, so its
    magnitude is at most S = sum |v|.  Integers up to 2^24 are exact in
    float32 and below 2^53 in float64, so the steps run in float32 when
    S <= 2^24 and in float64 when S < 2^53; a larger S is a ValueError, and
    so is a v that is not of integers or bools.  S is summed only when its
    bound 2^m * max|v|, from one min and one max, exceeds 2^24, so +-1
    vectors and 0/1 counts take no sum.  The package's inputs stay in
    float32 up to m = 24: +-1 vectors have S = 2^m and the column counts of a
    code have S = n < 2^m.
    """
    v = np.asarray(v)
    if v.dtype.kind not in "biu":
        raise ValueError(f"wht needs integer or bool input, got dtype {v.dtype}")
    if v.size & (v.size - 1):
        raise ValueError(f"wht needs a power-of-two length, got {v.size}")
    lo, hi = int(v.min(initial=0)), int(v.max(initial=0))
    small = v.size * max(-lo, hi) <= 1 << 24
    if not small:
        mags = v
        if lo < 0:
            mags = np.abs(v)
            if mags.dtype.kind == "i":
                mags = mags.view(f"u{mags.itemsize}")  # |-2^(w-1)| wraps in w signed bits
        # a float64 sum of integers is exact to 2^53 and rounds no larger sum below it
        total = mags.sum(dtype=np.float64)
        if total >= 2.0 ** 53:
            raise ValueError(f"wht is exact only while sum |v| < 2^53, got {total:.17g}")
        small = total <= 1 << 24
    x = v.astype(np.float32 if small else np.float64)
    y = np.empty_like(x)
    m = v.size.bit_length() - 1
    steps = -(-m // 5)
    low = 0
    for i in range(steps):
        r = (m + i) // steps  # the even split, smaller groups first
        hadamard, size = _sylvester(r, x.dtype.type), 1 << r
        if low:
            np.matmul(hadamard, x.reshape(-1, size, 1 << low), out=y.reshape(-1, size, 1 << low))
        else:
            np.matmul(x.reshape(-1, size), hadamard, out=y.reshape(-1, size))  # H is symmetric
        x, y = y, x
        low += r
    del y  # free the spare buffer before the int64 copy
    return x.astype(np.int64)
