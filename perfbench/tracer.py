"""Per-layer timing for the traced run, from wrappers around qibg's calls.

The library itself is not instrumented.  Instead, while a ``Tracer`` is
active, every binding site a caller actually goes through is replaced by a
timing wrapper: ``qibg.decompose.multiply`` and ``qibg.bigcell.multiply``
are the same function reached from two modules, and each is timed as its
own layer.  A site's self time is its duration minus the wrapped calls
nested inside it.  Everything is kept in memory and turned into metrics
only when the run ends.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer).  Several sites may feed one layer.
SITES = (
    ("qibg.decompose", "multiply", "exactmat.multiply.verify"),
    ("qibg.bigcell", "multiply", "exactmat.multiply.bigcell"),
    ("qibg.exactmat", "determinant", "exactmat.determinant"),
    ("qibg.bigcell", "determinant", "exactmat.determinant"),
    ("qibg.decompose", "determinant", "exactmat.determinant"),
    ("qibg.decompose", "check_unimodular", "exactmat.check_unimodular"),
    ("qibg.harness", "random_word", "exactmat.random_word"),
    ("qibg.decompose", "gcd_transform", "sl2.gcd_transform"),
    ("qibg.decompose", "decompose_column_major", "decompose.decompose_column_major"),
    ("qibg.decompose", "clockwise_with_diagnostics",
     "decompose.clockwise_with_diagnostics"),
    ("qibg.decompose", "embed", "decompose.embed"),
    ("qibg.decompose", "verify", "decompose.verify"),
    ("qibg.decompose", "quasi_isometry_stats", "decompose.quasi_isometry_stats"),
    ("qibg.decompose", "ul_factorize", "bigcell.ul_factorize"),
    ("qibg.bigcell", "ul_factorize", "bigcell.ul_factorize"),
    ("qibg.bigcell", "corner_minors", "bigcell.corner_minors"),
    ("qibg.bigcell", "in_big_cell", "bigcell.in_big_cell"),
    ("qibg.bigcell", "denominator_and_norm_check", "bigcell.denominator_and_norm_check"),
    ("qibg.bigcell", "unipotent_class_split", "bigcell.unipotent_class_split"),
    ("qibg.rootsys", "build", "rootsys.build"),
    ("qibg.rootsys", "root_images", "rootsys.root_images"),
    ("qibg.rootsys", "is_valid_projection", "rootsys.is_valid_projection"),
    ("qibg.rootsys", "sample_projection", "rootsys.sample_projection"),
    ("qibg.rootsys", "class_ordering", "rootsys.class_ordering"),
    ("qibg.rootsys", "verify_notation_invariants", "rootsys.verify_notation_invariants"),
    ("qibg.harness", "run_campaign", "harness.run_campaign"),
    ("qibg.harness", "compare_strategies", "harness.compare_strategies"),
)

# Spans the benchmark opens itself, around steps with no call of their own
# to wrap: the first call that builds a root system's lookup tables.
MANUAL_LAYERS = ("rootsys.tables",)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SITES)) + MANUAL_LAYERS


def _count_factors(counters, fac) -> None:
    counters["factors"] += len(fac.factors)
    counters["factor_slots"] += fac.n * fac.n - fac.n


def _on_clockwise(counters, result) -> None:
    fac, diag = result
    _count_factors(counters, fac)
    counters["classes_annihilated"] += diag.classes_annihilated
    counters["omega_fallbacks"] += int(diag.omega_fallback)
    counters["reannihilations"] += diag.reannihilations


def _on_verify(counters, report) -> None:
    counters["max_norm_ratio"] = max(counters["max_norm_ratio"], report.stats.max_ratio)


# Counters read from return values, keyed by site.
HOOKS = {
    "qibg.decompose.decompose_column_major": _count_factors,
    "qibg.decompose.clockwise_with_diagnostics": _on_clockwise,
    "qibg.decompose.verify": _on_verify,
}


class Tracer:
    def __init__(self):
        self.stats = {}          # site -> [calls, self_s, raised]
        self.nested = Counter()  # (parent site, site) -> calls
        self.counters = Counter()
        self._stack = []         # [site, time spent in wrapped children]

    def _stat(self, site):
        return self.stats.setdefault(site, [0, 0.0, 0])

    def _wrap(self, site, fn):
        stat = self._stat(site)
        hook = HOOKS.get(site)

        def traced(*args, **kwargs):
            frame = self._open(site)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                self._close(stat, frame, perf_counter() - t0)
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    def _open(self, site):
        if self._stack:
            self.nested[self._stack[-1][0], site] += 1
        frame = [site, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, stat, frame, dt) -> None:
        self._stack.pop()
        stat[0] += 1
        stat[1] += dt - frame[1]
        if self._stack:
            self._stack[-1][1] += dt

    @contextmanager
    def active(self):
        """Install the wrappers at every site, and restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, _ in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def span(self, layer):
        """Time a step the benchmark runs itself, as a span of its own."""
        stat = self._stat(layer)
        frame = self._open(layer)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(stat, frame, perf_counter() - t0)

    def self_total(self) -> float:
        return sum(s[1] for s in self.stats.values())

    def _layer(self, layer, field):
        return sum(stat[field] for site, stat in self.stats.items()
                   if _layer_of(site) == layer)

    def _site(self, site, field):
        return self.stats.get(site, (0, 0.0, 0))[field]

    def layer_metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self._layer(layer, 0), "count")
            out[f"{layer}.self_s"] = (self._layer(layer, 1), "s")
        c = self.counters
        ul_calls = self._layer("bigcell.ul_factorize", 0)
        ul_from_decompose = self._site("qibg.decompose.ul_factorize", 0)
        projections = self._site("qibg.rootsys.sample_projection", 0)
        tried = self.nested["qibg.rootsys.sample_projection",
                            "qibg.rootsys.is_valid_projection"]
        out.update({
            "decompose.factors": (c["factors"], "count"),
            "decompose.factor_fill": (_ratio(c["factors"], c["factor_slots"]), "ratio"),
            "decompose.classes_annihilated": (c["classes_annihilated"], "count"),
            "decompose.annihilation_yield": (
                _ratio(c["classes_annihilated"], ul_from_decompose), "ratio"),
            "decompose.omega_fallbacks": (c["omega_fallbacks"], "count"),
            "decompose.reannihilations": (c["reannihilations"], "count"),
            "decompose.max_norm_ratio": (float(c["max_norm_ratio"]), "ratio"),
            "bigcell.not_in_big_cell": (
                _ratio(self._layer("bigcell.ul_factorize", 2), ul_calls), "ratio"),
            "rootsys.root_images.per_projection": (
                _ratio(self._layer("rootsys.root_images", 0), projections),
                "calls/projection"),
            "rootsys.projection_acceptance": (_ratio(projections, tried), "ratio"),
        })
        return out


_SITE_LAYER = {f"{m}.{a}": layer for m, a, layer in SITES}


def _layer_of(site):
    return _SITE_LAYER.get(site, site)


def _ratio(num, den) -> float:
    return num / den if den else 0.0
