"""Spans around the public functions of tracecodes, recorded from outside.

Tracer.install replaces each traced function in its module's namespace with
a wrapper that records a span (name, start, end, parent).  The library calls
these functions through module attributes (``gf2m.gf2_rank(...)`` from
``code``) or through its own module globals (``verify(...)`` inside
``predict.sweep``), so nested calls are caught as well as the benchmark's own.
Spans stay in memory; layer_metrics turns them into per-round self times and
counters once the run ends.  This module imports nothing heavy, so a worker
can install it before its timed set-up.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

#: Traced functions, by module of tracecodes.
LAYERS = {
    "gf2m": ("build_field", "dual_coordinates", "gf2_rank", "gf2_solve"),
    "code": (
        "defining_set",
        "build_code",
        "punctured_code",
        "weight_distribution",
        "codeword_weight_formula",
        "generator_matrix",
    ),
    "weil": (
        "weil_sum_direct",
        "weil_sum_closed",
        "weil_sum_direct_all_b",
        "weil_sum_closed_all_b",
    ),
    "predict": ("sweep", "predict_distribution", "verify", "format_sweep"),
}

SETUP = "setup"
RUN = "run"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a span no other span covers
    phase: str
    round: int
    error: str = ""  # exception type name when the call raised
    items: int = 0  # magnitude-only entries returned by weil_sum_closed_all_b


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = SETUP
        self.round = -1
        self.epoch = time.perf_counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, names in LAYERS.items():
            module = modules[mod_name]
            for fn_name in names:
                original = getattr(module, fn_name)
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))
                self._saved.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                        self.phase, self.round)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "weil.weil_sum_closed_all_b":
                span.items = int((~result[1]).sum())
            return result

        return traced

    def dump(self) -> list[dict]:
        """Spans as dicts, times in seconds from the tracer's creation."""
        out = []
        for s in self.spans:
            d = asdict(s)
            d["start"] -= self.epoch
            d["end"] -= self.epoch
            out.append(d)
        return out


def metric_names() -> list[str]:
    """Every per-layer metric layer_metrics reports, in its order."""
    return list(layer_metrics([], 1, 0.0))


def layer_metrics(spans: list[Span], rounds: int, ops_wall_s: float) -> dict[str, float]:
    """Per-round layer metrics of the timed phase, plus the set-up's build_field.

    ops_wall_s is the summed wall time of every timed operation over all
    rounds.  A span's self time is its duration minus its children's; the
    self times of all timed-phase spans plus bench.unspanned_s add up to
    bench.traced_run_s.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    covered = 0.0
    setup_build_field = 0.0
    refused = fallbacks = magnitude_only = 0
    for i, s in enumerate(spans):
        own = s.end - s.start - child[i]
        if s.phase == SETUP:
            if s.name == "gf2m.build_field":
                setup_build_field += own
            continue
        self_s[s.name] += own
        calls[s.name] += 1
        if s.parent < 0:
            covered += s.end - s.start
        if s.name == "code.weight_distribution" and s.error == "ValueError":
            refused += 1
        if s.name == "weil.weil_sum_direct" and _under(spans, s, "code.codeword_weight_formula"):
            fallbacks += 1
        magnitude_only += s.items

    def per_round(x):
        v = x / rounds
        return int(v) if isinstance(x, int) and x % rounds == 0 else v

    out = {f"{mod}.{fn}.self_s": per_round(self_s[f"{mod}.{fn}"])
           for mod, fns in LAYERS.items() for fn in fns}
    out.update({
        "gf2m.build_field.calls": per_round(calls["gf2m.build_field"]),
        "gf2m.build_field.setup_s": setup_build_field,
        "gf2m.gf2_solve.calls": per_round(calls["gf2m.gf2_solve"]),
        "code.weight_distribution.refused": per_round(refused),
        "code.codeword_weight_formula.calls": per_round(calls["code.codeword_weight_formula"]),
        "code.codeword_weight_formula.direct_fallbacks": per_round(fallbacks),
        "weil.weil_sum_closed_all_b.magnitude_only": per_round(magnitude_only),
        "bench.unspanned_s": per_round(ops_wall_s - covered),
        "bench.traced_run_s": per_round(ops_wall_s),
    })
    return out


def _under(spans: list[Span], s: Span, ancestor: str) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name == ancestor:
            return True
        p = spans[p].parent
    return False
