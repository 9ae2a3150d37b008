"""The parameter grid the tests walk: proper divisors, moduli and codes."""

from __future__ import annotations

from itertools import chain

from hypothesis import strategies as st

from tracecodes import code as code_mod
from tracecodes import gf2m


def divisors(m: int) -> list[int]:
    """The proper divisors h of m, ascending."""
    return [h for h in range(1, m) if m % h == 0]


def largest_irreducible(m: int) -> int:
    """The largest irreducible polynomial of degree m."""
    return next(p for p in range((2 << m) - 1, 1 << m, -1) if gf2m.is_irreducible(p))


@st.composite
def irreducible_modulus(draw, max_degree: int) -> int:
    """The first irreducible polynomial of a random degree m <= max_degree at or
    after a random start, wrapping around within degree m."""
    m = draw(st.integers(2, max_degree))
    start = draw(st.integers(1 << m, (2 << m) - 1))
    return next(p for p in chain(range(start, 2 << m), range(1 << m, start))
                if gf2m.is_irreducible(p))


def expected_source(m: int, h: int, variant: str) -> str | None:
    """The table whose hypotheses cover variant at (m, h), or None.

    Written from the paper's statements, not from predict, so that the
    sweep's choice of table is checked against an independent rule.
    """
    odd, even = (m // h) % 2 == 1, (m // h) % 2 == 0
    covered = {
        ("d0", "T1"): odd,
        ("d0", "T3"): even and m // h > 2,
        ("d1", "T2C"): odd,
        ("d1", "T4"): even and m // h > 2,
        ("full", "T5"): even and m > 2,
        ("punctured", "C6"): even and m > 2,
    }
    return next((src for (kind, src), holds in covered.items() if kind == variant and holds), None)


def distribution(m: int, h: int, kind: str, modulus: int | None = None):
    """The enumerated weight distribution of one code."""
    return code_mod.weight_distribution(code_mod.make_code(gf2m.build_field(m, modulus), h, kind))


def every_code(ctx):
    """(h, kind, code) for every proper divisor h and every variant defined there."""
    for h in divisors(ctx.m):
        for kind in code_mod.variants(ctx.m, h):
            yield h, kind, code_mod.make_code(ctx, h, kind)
