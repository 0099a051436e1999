"""Out-of-process tracer: spans around the program's public entry points.

The tracer patches, from outside the package, each public function at the
name its caller looks up (``antinef.cli.unload`` and
``antinef.filtration.unload`` are two patches of one layer entry).  Spans
are kept in memory; :meth:`Tracer.summary` turns them into per-layer self
times and counts.  Nothing in ``src/`` knows about it.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict

# (module attribute path, span name).  A dotted path names the object whose
# attribute is replaced; the span name is the layer entry the metric uses.
PATCHES = (
    ("antinef.cli:main", "cli.render"),
    ("antinef.cli:parse_scenario", "scenario.parse"),
    ("antinef.scenario:parse_poly", "curves.parse"),
    ("antinef.cluster:Cluster.add_free_point", "cluster.build"),
    ("antinef.cluster:Cluster.add_satellite_point", "cluster.build"),
    ("antinef.cluster:Cluster.intersection_matrix", "cluster.form"),
    ("antinef.cli:unload", "divisor.unload"),
    ("antinef.filtration:unload", "divisor.unload"),
    ("antinef.cli:nef_envelope", "divisor.envelope"),
    ("antinef.filtration:nef_envelope", "divisor.envelope"),
    ("antinef.cli:intersect", "divisor.intersect"),
    ("antinef.filtration:intersect", "divisor.intersect"),
    ("antinef.cli:value_vector", "curves.value_vector"),
    ("antinef.filtration:value_vector", "curves.value_vector"),
    ("antinef.filtration:_is_squarefree", "curves.squarefree"),
    ("antinef.filtration:realize", "filtration.realize"),
    ("antinef.filtration:multiplicity_sequence", "filtration.family"),
    ("antinef.filtration:degree_limit", "filtration.family"),
    ("antinef.filtration:commutation_report", "filtration.family"),
    ("antinef.filtration:rees_union", "filtration.family"),
)


def _resolve(path: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module, _, attrs = path.partition(":")
    owner = importlib.import_module(module)
    *chain, name = attrs.split(".")
    for part in chain:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records nested spans of one thread; install/uninstall are symmetric."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.raise_steps = 0
        self.realized: set[tuple[int, int]] = set()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans.clear()
        self.raise_steps = 0
        self.realized.clear()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return wrapper

    def _hooked(self, name: str, fn):
        """Extra bookkeeping for the two entries that count more than calls."""
        if name == "divisor.unload":

            def counting(violated):
                self.raise_steps += 1
                return violated[0]  # the default choice

            def unload(d, select=None):
                return fn(d, counting if select is None else select)

            return unload
        if name == "filtration.realize":

            def realize(spec, n):
                self.realized.add((id(spec), n))
                return fn(spec, n)

            return realize
        return fn

    def install(self):
        for path, name in PATCHES:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(name, self._hooked(name, original)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Self time and call count per span name, plus the hook counters."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            out[name + "_s"] += (end - start) - child_time[sid]
            out[name + "_calls"] += 1
        out["divisor.raise_steps"] = self.raise_steps
        out["filtration.realize_distinct"] = len(self.realized)
        return dict(out)
