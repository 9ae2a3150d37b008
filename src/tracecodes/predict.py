"""Closed-form weight tables, verification against enumeration, power
moments, and the secret-sharing suitability test.

Prediction sources, keyed by the parameter regime they cover; only
predict_distribution tests it, and check_case takes the first of a kind's
_TABLES that predict_distribution does not refuse with Inapplicable:

    T1   m/h odd,  trace-0 set,   length 2^(m-1) - 1, three weights
    T2   m/h odd,  trace-1 set,   length 2^(m-1), as printed upstream
    T2C  m/h odd,  trace-1 set,   multiplicities re-derived from the first
         two power moments given the middle-weight count
    T3   m/h even > 2, trace-0 set (two multiplicities re-derived; one
         published statement misplaces the sign factor, see the inline note)
    T4   m/h even > 2, trace-1 set
    T5   m/h even, m > 2, all of GF(2^m)^*
    C6   m/h even, m > 2, punctured image (T5 weights / (2^h + 1))

T2 as printed fails the second power moment (e.g. (5,1): 252 != 256) and
at (3,1) even evaluates to non-integer multiplicities, so it is shipped for
documentation and adjudication only; T2C is what sweeps and acceptance use.

When m = 2h the power map is the norm onto GF(2^h), the code rank drops to
h, and the T5/C6 tables evaluate with a zero-weight row whose multiplicity
is exactly the number of extra messages mapping to the zero codeword.
Verification merges that row with the zero codeword and still compares
exactly; the rank discrepancy is surfaced in the report, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable

from . import code as code_mod
from . import gf2m

T1 = "T1"
T2 = "T2"
T2C = "T2C"
T3 = "T3"
T4 = "T4"
T5 = "T5"
C6 = "C6"
SOURCES = (T1, T2, T2C, T3, T4, T5, C6)

_TABLES = {code_mod.D0: (T1, T3), code_mod.D1: (T2C, T4),  # each kind's, in the order tried
           code_mod.FULL_STAR: (T5,), code_mod.PUNCTURED_IMAGE: (C6,)}

MATCH = "match"
MISMATCH = "mismatch"
INAPPLICABLE = "inapplicable"


class Inapplicable(ValueError):
    """The requested table's hypothesis does not hold for these parameters."""


@dataclass(frozen=True)
class TheoremPrediction:
    """An evaluated closed-form table: weight -> multiplicity.

    Zero-multiplicity rows are dropped and numerically coinciding weights
    are merged.  Multiplicities are ints except for T2 as printed, which can
    evaluate to exact rationals (one symptom of its defect).  counts never
    include the zero codeword itself; a weight-0 entry, possible only when
    m = 2h, counts additional messages predicted to hit the zero codeword.
    """

    source: str
    m: int
    h: int
    n: int
    counts: dict


@dataclass
class VerificationReport:
    m: int
    h: int
    variant: str
    prediction: TheoremPrediction | None  # the table checked against; None if none applies
    status: str
    n: int
    k: int
    d_min: int
    counts: dict[int, int]
    details: list[tuple[int, object, int]] = field(default_factory=list)
    moment_check: str = "n/a"
    ss_ratio: Fraction | None = None
    ss_suitable: bool | None = None
    informational: bool = False
    note: str = ""

    @property
    def source(self) -> str:
        return self.prediction.source if self.prediction else ""


def _validate_params(m: int, h: int) -> tuple[int, int]:
    # no MAX_DEGREE bound: tables are evaluated past the fields gf2m builds
    m = gf2m._as_int(m, "m")
    if m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    return m, gf2m._validate_subfield_degree(m, h)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"table arithmetic: {num} is not divisible by {den}")
    return q


def _merge(rows: Iterable[tuple[int, object]]) -> dict:
    out: dict = {}
    for w, a in rows:
        if a < 0:
            raise RuntimeError(f"table arithmetic: negative multiplicity {a} at weight {w}")
        if a:
            out[w] = out.get(w, 0) + a
    return dict(sorted(out.items()))


def predict_distribution(m: int, h: int, source: str) -> TheoremPrediction:
    """Evaluate the named table for (m, h); Inapplicable when its hypothesis fails."""
    m, h = _validate_params(m, h)
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {SOURCES}")
    mh = m // h

    if source in (T1, T2, T2C):
        if mh % 2 == 0:
            raise Inapplicable(f"{source} needs m/h odd; m={m}, h={h} gives m/h={mh}")
        w_mid = 1 << (m - 2)
        spread = 1 << ((m + h - 4) // 2)
        a_mid = (1 << m) - 1 - (1 << (m - h))
        half = 1 << (m - h - 1)
        n = 1 << (m - 1)
        dev = 1 << ((m - h - 2) // 2)
        if source == T1:  # one word shorter, and the deviation changes sign
            n, dev = n - 1, -dev
        elif source == T2:  # 2^((m-h-4)/2), an exact Fraction 1/2 when m - h = 2
            dev = dev // 2 or Fraction(1, 2)
        rows = [(w_mid - spread, half - dev), (w_mid, a_mid), (w_mid + spread, half + dev)]
        return TheoremPrediction(source, m, h, n, _merge(rows))

    if mh % 2:
        raise Inapplicable(f"{source} needs m/h even; m={m}, h={h} gives m/h={mh}")
    e = m // 2
    eps = -1 if (e // h) % 2 else 1  # (-1)^(e/h)
    den = (1 << h) + 1

    if source in (T3, T4):
        if mh == 2:
            raise Inapplicable(f"{source} needs m/h > 2; m={m}, h={h} gives m/h=2")
        w1 = (1 << (m - 2)) + eps * (1 << (e + h - 1))
        w2 = (1 << (m - 2)) + eps * (1 << (e + h - 2))
        w3 = 1 << (m - 2)
        w4 = (1 << (m - 2)) - eps * (1 << (e - 1))
        a2 = ((1 << h) - 1) << (m - 2 * h)
        if source == T3:
            n = (1 << (m - 1)) - 1
            a1 = _exact_div((1 << (m - 2 * h - 1)) - 1 - eps * (1 << (e - h - 1)), den)
            # One published statement of this table applies the sign factor to
            # both terms of the 2^(m-2) multiplicity (and compensates in the
            # low-weight row).  That version fails the first power moment and
            # enumeration whenever the sign is negative, e.g. (6,1): it gives
            # {16: 42, 20: 2} where the code has {16: 26, 20: 18}.  The sign
            # belongs on the 2^(e-h-1) term only; the low-weight multiplicity
            # then collapses to the simple quotient below.
            a3 = (1 << (m - 1)) - ((1 << h) - 1) * (
                (1 << (m - 2 * h - 1)) + eps * (1 << (e - h - 1))
            )
            a4 = _exact_div(((1 << (m - 1)) - 1 + eps * (1 << (e - 1))) << h, den)
        else:
            n = 1 << (m - 1)
            a1 = _exact_div((1 << (m - 2 * h - 1)) + eps * (1 << (e - h - 1)), den)
            a3 = (
                (1 << (m - 1))
                - 1
                + eps * ((1 << h) - 1) * (1 << (e - h - 1))
                - ((1 << h) - 1) * (1 << (m - 2 * h - 1))
            )
            a4 = _exact_div(((1 << e) - eps) << (e + h - 1), den)
        rows = [(w1, a1), (w2, a2), (w3, a3), (w4, a4)]
        return TheoremPrediction(source, m, h, n, _merge(rows))

    # T5 / C6
    if m <= 2:
        raise Inapplicable(f"{source} needs m > 2, got m={m}")
    units = (1 << m) - 1
    w_low = (1 << (m - 1)) - eps * (1 << (e - 1))
    w_high = (1 << (m - 1)) + eps * (1 << (e + h - 1))
    a_low = _exact_div(units << h, den)
    a_high = _exact_div(units, den)
    if source == T5:
        return TheoremPrediction(T5, m, h, units, _merge([(w_low, a_low), (w_high, a_high)]))
    rows = [(_exact_div(w_low, den), a_low), (_exact_div(w_high, den), a_high)]
    return TheoremPrediction(C6, m, h, _exact_div(units, den), _merge(rows))


def pless_check(dist) -> bool:
    """First two power-moment identities for a distribution of full rank.

    Accepts a WeightDistribution (dimension = its k) or a TheoremPrediction
    (dimension = its m): sum of nonzero-weight multiplicities must be
    2^dim - 1 and their weighted sum must be n * 2^(dim-1).
    """
    dim = dist.m if isinstance(dist, TheoremPrediction) else dist.k
    nz = {w: c for w, c in dist.counts.items() if w > 0}
    if sum(nz.values()) != (1 << dim) - 1:
        return False
    return sum(w * c for w, c in nz.items()) == dist.n * (1 << (dim - 1))


def secret_sharing_ratio(dist) -> tuple[Fraction, bool]:
    """(w_min / w_max, ratio > 1/2) over nonzero weights, exact arithmetic.

    A ratio above 1/2 makes every nonzero codeword of the code C minimal
    (Ashikhmin and Barg), so the secret-sharing scheme built on C's dual
    has a clean access structure; at or below 1/2 the code is reported as
    unsuitable.
    """
    nz = [w for w, c in dist.counts.items() if w > 0 and c > 0]
    if not nz:
        raise ValueError("distribution has no nonzero weights")
    ratio = Fraction(min(nz), max(nz))
    return ratio, ratio > Fraction(1, 2)


def verify(
    pred: TheoremPrediction,
    dist: code_mod.WeightDistribution,
    variant: str = "",
) -> VerificationReport:
    """Compare a predicted table with an enumerated distribution, exactly."""
    return _report(pred.m, pred.h, variant, dist, **_compare(pred, dist))


def _compare(pred: TheoremPrediction, dist: code_mod.WeightDistribution) -> dict:
    """The report fields prediction, status and details of pred against dist.

    The prediction covers nonzero messages; the implicit zero codeword is
    added to its weight-0 entry before comparison.  Multiplicities are
    message-indexed on both sides.
    """
    if pred.n != dist.n:
        raise ValueError(f"parameter mismatch: predicted n={pred.n}, enumerated n={dist.n}")
    if dist.total != 1 << pred.m:
        raise ValueError(
            f"parameter mismatch: distribution covers {dist.total} messages, "
            f"expected 2^{pred.m}"
        )
    expected = dict(pred.counts)
    expected[0] = expected.get(0, 0) + 1
    keys = sorted(set(expected) | set(dist.counts))
    details = [(w, expected.get(w, 0), dist.counts.get(w, 0)) for w in keys]
    status = MATCH if all(e == a for _, e, a in details) else MISMATCH
    return dict(prediction=pred, status=status, details=details)


def _report(m, h, variant, dist, status, **fields) -> VerificationReport:
    """Report on an enumerated distribution: the power-moment check (skipped
    and noted as a rank collapse when k < m), the secret-sharing ratio and
    the nonzero counts.  fields sets the rest and may replace the note."""
    if dist.k == m:
        moment, note = ("pass" if pless_check(dist) else "fail"), ""
    else:
        moment = f"skipped (rank {dist.k} < m={m})"
        note = f"rank collapse: enumerated k={dist.k}, table assumes {m}"
    ratio, suitable = secret_sharing_ratio(dist)
    fields.setdefault("note", note)
    return VerificationReport(
        m=m,
        h=h,
        variant=variant,
        status=status,
        n=dist.n,
        k=dist.k,
        d_min=dist.d_min,
        counts=dist.nonzero,
        moment_check=moment,
        ss_ratio=ratio,
        ss_suitable=suitable,
        **fields,
    )


def check_case(dist: code_mod.WeightDistribution, m: int, h: int, variant: str,
               source: str | None = None) -> VerificationReport:
    """Verify one enumerated code against its table: source when given (an
    Inapplicable one raises), otherwise the first of the variant's _TABLES
    that predict_distribution does not refuse.  When none applies the report
    is inapplicable and its note says so.  A variant that is not one of
    code.KINDS is a ValueError."""
    m, h = _validate_params(m, h)
    code_mod._check_kind(variant)
    for src in [source] if source else _TABLES[variant]:
        try:
            return verify(predict_distribution(m, h, src), dist, variant)
        except Inapplicable:
            if source:
                raise
    return _report(m, h, variant, dist, INAPPLICABLE, prediction=None,
                   note=f"no table covers variant={variant} at m={m} h={h}")


def sweep(
    ms: Iterable[int], moduli: dict[int, int] | None = None
) -> list[VerificationReport]:
    """Construct, enumerate and verify every variant for every (m, h).

    For each m in ms and each proper divisor h, code.weight_distributions
    enumerates every kind that code.variants lists, from two Walsh
    transforms, and each is checked with check_case; each row
    checked against T2C adds an informational row, the main row compared
    with the table as printed.  Failures are collected in the reports,
    not raised.  Every m is checked against the degrees gf2m.build_field
    admits before the first field is built, so an out-of-range m costs no work.
    """
    reports: list[VerificationReport] = []
    for m in sorted({gf2m._validate_degree(m) for m in ms}):
        ctx = gf2m.build_field(m, (moduli or {}).get(m))
        for h in [h for h in range(1, m) if m % h == 0]:
            for variant, dist in code_mod.weight_distributions(ctx, h).items():
                reports.append(check_case(dist, m, h, variant))
                if reports[-1].source == T2C:
                    printed = _compare(predict_distribution(m, h, T2), dist)
                    reports.append(replace(reports[-1], informational=True, **printed))
    return reports


def format_sweep(reports: list[VerificationReport]) -> str:
    """Deterministic text report: one line per case, then adjudication and
    summary comment blocks.  Line fields: m h variant status n k d w:count...
    """
    lines = []
    for r in reports:
        if r.informational:
            continue
        weights = " ".join(f"{w}:{c}" for w, c in sorted(r.counts.items()))
        lines.append(f"{r.m} {r.h} {r.variant} {r.status} {r.n} {r.k} {r.d_min} {weights}")

    adj = [r for r in reports if r.informational]
    if adj:
        lines.append("# table2-as-printed adjudication (expected mismatches):")
        for r in adj:
            moment = "pass" if pless_check(r.prediction) else "fail"
            expected = " ".join(f"{w}:{c}" for w, c in r.prediction.counts.items())
            lines.append(
                f"# {r.m} {r.h} {r.variant} {r.status} moment={moment} expected {expected}"
            )
        failures = sum(1 for r in adj if r.status == MISMATCH)
        corrected = [r for r in reports if r.source == T2C]
        matched = sum(1 for r in corrected if r.status == MATCH)
        lines.append(
            f"# table2-as-printed mismatched enumeration in {failures}/{len(adj)} odd "
            f"cases; moment-corrected variant matched in {matched}/{len(corrected)}"
        )

    st = [r.status for r in reports if not r.informational]
    lines.append(f"# summary cases={len(st)} match={st.count(MATCH)} "
                 f"mismatch={st.count(MISMATCH)} inapplicable={st.count(INAPPLICABLE)}")
    return "\n".join(lines) + "\n"
