"""Defining-set code construction and exact weight enumeration.

A defining set D = {d_1 < ... < d_n} over GF(2^m) and an exponent map
phi(d) = d^(2^h+1) (or the identity for punctured codes) give the binary
code whose codeword for message x is (Tr(x * phi(d_1)), ..., Tr(x * phi(d_n))).

Weight distributions are message-indexed: counts[w] is the number of
messages x in GF(2^m) whose codeword has weight w, so the counts always
sum to 2^m and the weight-0 entry is 2^(m-k).  For full-rank codes (k = m,
the generic situation) this coincides with counting distinct codewords.
When m = 2h the power map lands inside the subfield GF(2^h) and the rank
genuinely drops to h; the enumeration does not mask that, it reports k and
the inflated zero-weight count as they are.

The columns phi(d) are gathered, in one pass over the defining set, from
gf2m.power_map_table, which tabulates the GF(2)-quadratic map x -> x^(2^h+1)
without a remainder or random gather over the field.

A built code's k (LinearCode) is the GF(2) rank of its columns, read off
a strided sample of about 8m columns first; a full-rank code reaches rank
m within that sample and touches no other column.  Only when the sample
falls short does the rank go on to the distinct nonzero columns, read off
one presence mask over the field in integer order (a code whose rank
collapses to k, as at m = 2h, has at most 2^k - 1 of them) and reduced
against the sample's basis in vectorised XORs, so that only columns
outside its span reach the elimination.

Enumeration takes one route, the Walsh route: one Walsh-Hadamard
transform of the column counts gives the weight of every message at once,
in O(n + m*2^m) operations, so every m the field module admits is
enumerated.  The transform runs in plain coordinates, where the weight of
message x sits at B[x] for the dual-coordinate bijection B; the weight
distribution is a histogram, so it needs no reindexing, and the counts need
no column order.  weight_distribution transforms one built code;
weight_distributions builds none.  On the cyclic group GF(2^m)^* the map
x -> x^(2^h+1) is d-to-1 onto the subgroup <g^d>, d = gcd(2^h+1, 2^m-1),
at every (m, h) (d = 1 where m/h is odd), so as column multisets
d0 + d1 = full = d * image.  The transform is linear in the column counts,
so it transforms d0 and the image, every d-th antilog entry, and takes
wt_d1 = d * wt_image - wt_d0 and the full histogram as the image's with
every weight scaled by d.  Every distribution reads its k off the
histogram, since the 2^(m-k) messages of weight 0 are the kernel of
x -> codeword, and a count that is no power of two is a RuntimeError; the
tests hold that k against LinearCode.k, the column rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import numpy as np

from . import gf2m, weil

D0 = "d0"
D1 = "d1"
FULL_STAR = "full"
PUNCTURED_IMAGE = "punctured"

KINDS = (D0, D1, FULL_STAR, PUNCTURED_IMAGE)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown defining-set kind {kind!r}; expected one of {KINDS}")


def _punctured_refusal(m: int, h: int) -> str:
    """Why the punctured image does not exist at (m, h), or "" where it does:
    it needs m > 2 and m/h even.  The one statement of that rule."""
    if m <= 2:
        return "punctured construction needs m > 2"
    if (m // h) % 2:
        return (f"punctured image needs m/h even; for m={m}, h={h} the map "
                f"x -> x^(2^{h}+1) is a bijection (gcd(2^{h}+1, 2^{m}-1) = 1)")
    return ""


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """Coordinate index set, elements (int64) in ascending integer order.

    elements is a 1-D sequence of integers that fit in int64 (Python ints
    or a numpy integer array); floats, other shapes and larger values are
    refused with ValueError rather than truncated, reshaped or overflowed.
    """

    elements: np.ndarray

    def __post_init__(self) -> None:
        els = np.asarray(self.elements)
        if els.size and els.dtype.kind not in "iu":
            # numpy stores ints it cannot hold in one integer dtype (2^63 beside
            # 3, say) as float or object; read each element as an int instead
            objs = np.asarray(self.elements, dtype=object)
            vals = [gf2m._as_int(v, "defining-set element") for v in objs.ravel()]
            if not all(-(1 << 63) <= v < 1 << 63 for v in vals):
                raise ValueError("defining-set elements must fit in int64")
            els = np.array(vals, dtype=np.int64).reshape(objs.shape)
        elif els.size and els.dtype.kind == "u" and els.max() > np.iinfo(np.int64).max:
            raise ValueError("defining-set elements must fit in int64")
        if els.ndim != 1:
            raise ValueError(f"defining-set elements must be 1-D, got shape {els.shape}")
        object.__setattr__(self, "elements", els.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return len(self.elements)


def defining_set(ctx: gf2m.FieldCtx, kind: str, h: int = 0) -> DefiningSet:
    """Build one of the four defining sets.

    d0 / d1: nonzero elements of absolute trace 0 resp. 1 (sizes
    2^(m-1) - 1 and 2^(m-1)).  full: all of GF(2^m)^*.  punctured: the image
    {x^(2^h+1) : x != 0} as a set, which needs m > 2 and m/h even (the one
    check that it exists); when m/h is odd the power map is a bijection
    (gcd(2^h+1, 2^m - 1) = 1) and there is nothing to puncture.  On the
    cyclic group <g> of order 2^m - 1 the image of x -> x^t is the subgroup
    <g^d>, d = gcd(t, 2^m - 1), so the punctured set is every d-th antilog
    entry, sorted, with no power table.

    d0, d1 and full depend on the field alone, so each is built once per
    field and shared by every later call, with read-only elements.
    """
    if kind == PUNCTURED_IMAGE:
        h = gf2m._validate_subfield_degree(ctx.m, h)
        if reason := _punctured_refusal(ctx.m, h):
            raise ValueError(reason)
        return DefiningSet(np.sort(ctx.antilog_table[:: gcd((1 << h) + 1, ctx.n_units)]))
    _check_kind(kind)

    def build():
        if kind == D0:
            els = np.flatnonzero(ctx.trace_table == 0)[1:]  # Tr(0) = 0, and 0 comes first
        elif kind == D1:
            els = np.flatnonzero(ctx.trace_table == 1)
        else:
            els = np.arange(1, ctx.q, dtype=np.int64)
        ds = DefiningSet(els)
        ds.elements.setflags(write=False)  # shared by every caller through the cache
        return ds

    return gf2m._cached(ctx, ("defset", kind), build)


def _distinct_nonzero(ctx: gf2m.FieldCtx, values: np.ndarray) -> np.ndarray:
    """The distinct nonzero values among field elements, in integer order,
    marked in one bool[q] presence mask, O(q)."""
    present = np.zeros(ctx.q, dtype=bool)
    present[values] = True
    return np.flatnonzero(present[1:]) + 1


def _rank(ctx: gf2m.FieldCtx, cols: np.ndarray) -> int:
    """GF(2) rank of the columns, exactly.

    A strided sample of about 8m columns is eliminated first; a sample that
    reaches rank m never builds the O(q) presence mask.  Otherwise the
    distinct nonzero columns are reduced against the sample's basis, one
    vectorised XOR per basis vector: the basis is fully reduced, so a column
    ends at zero exactly when it lies in the sample's span, and only the
    survivors go on to the elimination beside the basis.
    """
    basis = gf2m.gf2_basis(cols[:: max(1, len(cols) // (8 * ctx.m))].tolist(), ctx.m)
    if len(basis) == ctx.m:
        return ctx.m
    rest = _distinct_nonzero(ctx, cols)
    for lead, b in basis.items():
        rest ^= np.where((rest >> lead) & 1, b, 0)
    return gf2m.gf2_rank([*basis.values(), *rest[rest != 0].tolist()], ctx.m)


@dataclass(eq=False)
class LinearCode:
    """A constructed code: its field, h and columns phis (int64, in
    defining-set order).  The length n = len(phis) and the dimension k, the
    GF(2) rank of the columns (_rank), are derived from the columns when the
    code is built.
    """

    ctx: gf2m.FieldCtx
    h: int
    phis: np.ndarray
    k: int = field(init=False)

    def __post_init__(self) -> None:
        self.k = _rank(self.ctx, self.phis)

    @property
    def n(self) -> int:
        return len(self.phis)


@dataclass(frozen=True)
class WeightDistribution:
    """Message-indexed weight counts; see the module docstring."""

    counts: dict[int, int]
    n: int
    k: int
    d_min: int

    @property
    def nonzero(self) -> dict[int, int]:
        return {w: c for w, c in self.counts.items() if w > 0}

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def build_code(ctx: gf2m.FieldCtx, h: int, defset: DefiningSet) -> LinearCode:
    """Code with columns phi(d) = d^(2^h+1) over the given defining set.

    The elements must lie in 1..2^m - 1; the first one that does not is
    named in the ValueError.  The columns are one gather from
    gf2m.power_map_table, widened to int64.
    """
    h = gf2m._validate_subfield_degree(ctx.m, h)
    if len(defset) == 0:
        raise ValueError("defining set is empty")
    els = defset.elements
    if els.min() < 1 or els.max() >= ctx.q:
        bad = els[(els < 1) | (els >= ctx.q)]
        raise ValueError(
            f"defining-set element {int(bad[0])} is not a nonzero element of GF(2^{ctx.m})"
        )
    return LinearCode(ctx, h, gf2m.power_map_table(ctx, h)[els].astype(np.int64))


def punctured_code(ctx: gf2m.FieldCtx, h: int) -> LinearCode:
    """Code of length (2^m - 1)/(2^h + 1) on the power-map image, identity columns."""
    h = gf2m._validate_subfield_degree(ctx.m, h)
    return LinearCode(ctx, h, defining_set(ctx, PUNCTURED_IMAGE, h).elements)


def variants(m: int, h: int) -> tuple[str, ...]:
    """The kinds of code defined at (m, h): d0, d1 and full, and punctured
    when m/h is even and m > 2."""
    h = gf2m._validate_subfield_degree(m, h)
    return KINDS[:3] if _punctured_refusal(m, h) else KINDS


def make_code(ctx: gf2m.FieldCtx, h: int, kind: str) -> LinearCode:
    """The code of one kind at h: punctured_code for the punctured image,
    build_code on its defining set for the others."""
    if kind == PUNCTURED_IMAGE:
        return punctured_code(ctx, h)
    return build_code(ctx, h, defining_set(ctx, kind))


def codeword_weight_formula(ctx: gf2m.FieldCtx, h: int, a: int, b: int) -> int:
    """Weight of the codeword of message b in the trace-a code, via Weil sums.

    wt = 2^(m-2) - (S_h(b, 0) + (-1)^a * S_h(b, 1)) / 4, with both sums taken
    from the signed closed form: after the one elimination weil caches per
    coset of b, each call costs O(m) bit operations at every m.
    """
    if gf2m._as_int(a, "a") not in (0, 1):
        raise ValueError("a selects the trace-0 or trace-1 defining set; use 0 or 1")
    b = gf2m._check_element(ctx, b, "b")
    if b == 0:
        raise ValueError("b = 0 is the zero codeword; its weight is 0 by definition")
    v0, v1 = weil.weil_sum_closed(ctx, h, b, 0).value, weil.weil_sum_closed(ctx, h, b, 1).value
    num = v0 + (v1 if a == 0 else -v1)
    if num % 4:
        raise RuntimeError(f"character-sum combination {num} is not divisible by 4")
    return (1 << (ctx.m - 2)) - num // 4


def _weights(ctx: gf2m.FieldCtx, cols: np.ndarray) -> np.ndarray:
    """int64[q] with entry y = weight of the codeword of the message x with B[x] = y.

    Tr(x*phi) = parity(bits(phi) & B[x]) for the dual-coordinate map B, so
    wt(x) = (n - W[B[x]]) / 2 where W is the Walsh transform of the column
    counts in plain coordinates.  Every column still contributes exactly
    once; only the summation order differs from a per-coordinate count.
    """
    w = gf2m.wht(np.bincount(cols, minlength=ctx.q))
    np.subtract(len(cols), w, out=w)
    w >>= 1
    return w


def _weights_by_message(code: LinearCode) -> np.ndarray:
    """int64[q] with entry x = weight of the codeword of message x."""
    return _weights(code.ctx, code.phis)[gf2m.dual_coordinates(code.ctx)]


def _distribution(weights: np.ndarray, n: int) -> WeightDistribution:
    """The histogram of weights; k from the kernel, its 2^(m-k) messages of weight 0."""
    counts = np.bincount(weights)
    zeros = int(counts[0])
    if zeros & (zeros - 1) or not zeros:
        raise RuntimeError(f"{zeros} messages of weight 0 is no power of two, so no kernel")
    k = weights.size.bit_length() - zeros.bit_length()
    ws = np.flatnonzero(counts)
    table = dict(zip(ws.tolist(), counts[ws].tolist()))
    d_min = min((x for x in table if x > 0), default=0)
    return WeightDistribution(counts=table, n=n, k=k, d_min=d_min)


def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact message-indexed weight counts by full enumeration.

    The weights are counted as _weights indexes them, by B[x] rather than
    by x; B is a bijection of the field, so the histogram is the same.
    """
    return _distribution(_weights(code.ctx, code.phis), code.n)


def _derived_weights(ctx: gf2m.FieldCtx, h: int) -> dict[str, np.ndarray]:
    """The weights, as _weights indexes them, of d0, of d1 and of the image
    <g^d>, from the transforms of d0 and the image alone: as column
    multisets d0 + d1 = d * image, so wt_d1 = d * wt_image - wt_d0."""
    d = gcd((1 << h) + 1, ctx.n_units)
    w0 = _weights(ctx, gf2m.power_map_table(ctx, h)[defining_set(ctx, D0).elements])
    wi = _weights(ctx, ctx.antilog_table[::d])
    w1 = wi * d
    w1 -= w0
    return {D0: w0, D1: w1, PUNCTURED_IMAGE: wi}


def weight_distributions(ctx: gf2m.FieldCtx, h: int) -> dict[str, WeightDistribution]:
    """The distribution of every kind at h, keyed in variants(m, h) order,
    from _derived_weights; no code is built and no rank is taken.  The full
    histogram is the image's with every weight scaled by d, and the image's
    own row is reported only where the punctured code exists.
    """
    kinds = variants(ctx.m, h)  # refuses a bad h before any table is built
    d = gcd((1 << h) + 1, ctx.n_units)
    n = {D0: ctx.q // 2 - 1, D1: ctx.q // 2, PUNCTURED_IMAGE: ctx.n_units // d}
    dists = {kind: _distribution(w, n[kind]) for kind, w in _derived_weights(ctx, h).items()}
    image = dists[PUNCTURED_IMAGE]
    dists[FULL_STAR] = WeightDistribution({d * w: c for w, c in image.counts.items()},
                                          ctx.n_units, image.k, d * image.d_min)
    return {kind: dists[kind] for kind in kinds}


def generator_matrix(code: LinearCode) -> np.ndarray:
    """k x n generator matrix (uint8), rows in reduced row-echelon form.

    Rows start as the codewords of the message basis 1, x, ..., x^(m-1),
    Tr(x^i * phi_j) = bit i of B[phi_j] (gf2m.dual_coordinates), packed into
    ints with coordinate 0 as the top bit, so that the reduced basis read in
    descending lead order is the reduced row-echelon form.
    """
    ctx = code.ctx
    bins = gf2m.dual_coordinates(ctx)[code.phis]
    rows = ((bins >> np.arange(ctx.m)[:, None]) & 1).astype(np.uint8)
    nbytes = (code.n + 7) // 8
    packed = np.packbits(rows, axis=1)
    basis = gf2m.gf2_basis(int.from_bytes(r.tobytes(), "big") for r in packed)
    if len(basis) != code.k:
        raise RuntimeError("generator rank disagrees with the span rank")
    rref = b"".join(basis[lead].to_bytes(nbytes, "big") for lead in sorted(basis, reverse=True))
    reduced = np.frombuffer(rref, dtype=np.uint8).reshape(code.k, nbytes)
    return np.unpackbits(reduced, axis=1, count=code.n)


def write_generator_matrix(code: LinearCode, dest) -> None:
    """Export the generator matrix as text: header 'n k m h modulus', then
    one '0'/'1' row per line.  dest is a path or a writable file object.

    The rows are rendered as one uint8 array of ASCII digits with a newline
    column, decoded once."""
    g = generator_matrix(code)
    rows = np.full((code.k, code.n + 1), ord("\n"), dtype=np.uint8)
    rows[:, :-1] = g + ord("0")
    header = f"{code.n} {code.k} {code.ctx.m} {code.h} {code.ctx.modulus}\n"
    text = header + rows.tobytes().decode("ascii")
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)
