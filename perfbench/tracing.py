"""Outside-in span tracing of the siegelsums layers.

The tracer replaces module attributes with timing wrappers, on the names
as the *calling* module binds them: ``petersson.salie`` rather than
``expsums.salie``, because ``petersson`` imported the function by name and
never looks it up in ``expsums`` again.  Library code is not modified;
:meth:`Tracer.installed` restores every original on exit.

Each span records its name, start, end, parent span and the operation it
belongs to, plus per-name extras (summand counts, cache hit or miss).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    op: int
    extra: dict = field(default_factory=dict)


def _terms(args, result) -> dict:
    return {"terms": result.terms}


def _points(args, result) -> dict:
    return {"points": len(args[0])}


def _cosets(args, result) -> dict:
    return {"cosets": result.count}


def wrap_targets(sp4, petersson, expsums):
    """(module, attribute, span name, extra-recorder) for every traced call.

    The extra-recorder receives (args, result) and returns span extras.
    """
    return [
        (petersson, "h_fourier", "petersson.h_fourier", None),
        (petersson, "leading_coeff_fit", "petersson.leading_coeff_fit", None),
        (petersson, "main_term_residue", "petersson.main_term_residue", None),
        (petersson, "kloosterman", "expsums.kloosterman", _terms),
        (expsums, "kloosterman", "expsums.kloosterman", _terms),
        (petersson, "salie", "expsums.salie", _terms),
        (petersson, "script_j", "kernels.script_j", None),
        (petersson, "script_j_for_forms", "kernels.script_j_for_forms", None),
        (petersson, "bessel_j", "kernels.bessel_j", None),
        (petersson, "truncation_set", "kernels.truncation_set", None),
        (petersson, "shell_matrices", "kernels.shell_matrices", None),
        (petersson, "representations", "matcore.representations", None),
        (petersson, "elementary_divisors", "matcore.elementary_divisors",
         None),
        (petersson, "dirichlet_l_vec", "lfun.dirichlet_l_vec", _points),
        (petersson, "_script_j_cached", "petersson._script_j_cached", None),
        (sp4, "coset_data", "sp4.coset_data", _cosets),
        (sp4, "solve_integer_system", "matcore.solve_integer_system", None),
    ]


class Tracer:
    """Collects spans for the calls routed through its wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, fn, name, record=None):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            before = cache_info() if cache_info else None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # the enumeration runs on first iteration; run it here
                    # so that the span covers the work
                    result = iter(list(result))
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if before is not None:
                span.extra["hit"] = cache_info().hits > before.hits
            if record is not None:
                span.extra.update(record(args, result))
            return result

        # lru_cache keeps these on the type, so functools.wraps misses them;
        # without them sp4.clear_caches() fails while tracing is installed
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        saved = []
        try:
            for module, attr, name, record in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, record))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def operation(self, op: int, name: str):
        """Root span for one benchmark operation."""
        self.op = op
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, -1, op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out


LAYER_METRICS = [
    ("sp4.coset_tables_built", "count"),
    ("sp4.cosets_enumerated", "count"),
    ("sp4.coset_build_s", "s"),
    ("sp4.coset_table_hit_ratio", "ratio"),
    ("matcore.solve_integer_system_calls", "count"),
    ("matcore.solve_integer_system_s", "s"),
    ("matcore.representations_calls", "count"),
    ("matcore.representations_s", "s"),
    ("matcore.elementary_divisors_calls", "count"),
    ("matcore.elementary_divisors_s", "s"),
    ("expsums.salie_calls", "count"),
    ("expsums.salie_terms", "count"),
    ("expsums.salie_s", "s"),
    ("expsums.salie_nonzero_ratio", "ratio"),
    ("expsums.kloosterman_calls", "count"),
    ("expsums.kloosterman_terms", "count"),
    ("expsums.kloosterman_self_s", "s"),
    ("expsums.kloosterman_serial_s", "s"),
    ("expsums.kloosterman_threaded_s", "s"),
    ("kernels.script_j_calls", "count"),
    ("kernels.script_j_s", "s"),
    ("kernels.script_j_cache_hit_ratio", "ratio"),
    ("kernels.script_j_for_forms_s", "s"),
    ("kernels.bessel_j_calls", "count"),
    ("kernels.bessel_j_s", "s"),
    ("kernels.box_enum_s", "s"),
    ("lfun.dirichlet_l_vec_calls", "count"),
    ("lfun.dirichlet_l_vec_points", "count"),
    ("lfun.dirichlet_l_vec_s", "s"),
    ("petersson.h_fourier_calls", "count"),
    ("petersson.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Counts and self times per layer, summed over the tracer's spans;
    ``sp4.coset_build_s`` is the whole time of the table builds.

    ``expsums.kloosterman_serial_s``, ``expsums.kloosterman_threaded_s``
    and ``trace.overhead_s`` are not span data; the caller fills them in.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    extra: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        for key, val in span.extra.items():
            k = f"{span.name}:{key}"
            extra[k] = extra.get(k, 0) + val
        if span.name == "sp4.coset_data" and not span.extra["hit"]:
            extra["cosets_built"] = extra.get("cosets_built", 0) + span.extra["cosets"]
            extra["build_s"] = extra.get("build_s", 0.0) + span.end - span.start
        if span.name == "expsums.salie" and span.extra["terms"]:
            extra["salie_nonzero"] = extra.get("salie_nonzero", 0) + 1

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    lookups = n("sp4.coset_data")
    hits = extra.get("sp4.coset_data:hit", 0)
    j_lookups = n("petersson._script_j_cached")
    return {
        "sp4.coset_tables_built": lookups - hits,
        "sp4.cosets_enumerated": extra.get("cosets_built", 0),
        # inclusive: the generic completion it calls is reported on its
        # own as matcore.solve_integer_system_s
        "sp4.coset_build_s": extra.get("build_s", 0.0),
        "sp4.coset_table_hit_ratio": _ratio(hits, lookups),
        "matcore.solve_integer_system_calls": n("matcore.solve_integer_system"),
        "matcore.solve_integer_system_s": s("matcore.solve_integer_system"),
        "matcore.representations_calls": n("matcore.representations"),
        "matcore.representations_s": s("matcore.representations"),
        "matcore.elementary_divisors_calls": n("matcore.elementary_divisors"),
        "matcore.elementary_divisors_s": s("matcore.elementary_divisors"),
        "expsums.salie_calls": n("expsums.salie"),
        "expsums.salie_terms": extra.get("expsums.salie:terms", 0),
        "expsums.salie_s": s("expsums.salie"),
        "expsums.salie_nonzero_ratio": _ratio(extra.get("salie_nonzero", 0),
                                              n("expsums.salie")),
        "expsums.kloosterman_calls": n("expsums.kloosterman"),
        "expsums.kloosterman_terms": extra.get("expsums.kloosterman:terms", 0),
        "expsums.kloosterman_self_s": s("expsums.kloosterman"),
        "kernels.script_j_calls": n("kernels.script_j"),
        "kernels.script_j_s": s("kernels.script_j"),
        "kernels.script_j_cache_hit_ratio": _ratio(
            extra.get("petersson._script_j_cached:hit", 0), j_lookups),
        "kernels.script_j_for_forms_s": s("kernels.script_j_for_forms"),
        "kernels.bessel_j_calls": n("kernels.bessel_j"),
        "kernels.bessel_j_s": s("kernels.bessel_j"),
        "kernels.box_enum_s": s("kernels.truncation_set") + s("kernels.shell_matrices"),
        "lfun.dirichlet_l_vec_calls": n("lfun.dirichlet_l_vec"),
        "lfun.dirichlet_l_vec_points": extra.get("lfun.dirichlet_l_vec:points", 0),
        "lfun.dirichlet_l_vec_s": s("lfun.dirichlet_l_vec"),
        "petersson.h_fourier_calls": n("petersson.h_fourier"),
        "petersson.self_s": sum(v for k, v in self_s.items()
                                if k.startswith("petersson.")),
    }
