"""Per-layer tracing of linesys from outside the package.

Each layer boundary is a name that callers look up at call time: a
module attribute (``linesys.sweeps.line_mask_set``) or a class attribute
(``Graph.__init__``).  The tracer replaces every such name with a
wrapper that aggregates, per boundary, the number of calls, the busy
time, the time spent in wrapped children and the calls that raised.
Self time is busy time minus child time.  Nothing is recorded per call,
so millions of calls cost only the wrapper overhead.

Tracing assumes one thread and one process: forked workers would keep
their own aggregates, so traced sweeps run with ``--workers 1``.
"""

from __future__ import annotations

import importlib
import time


class Span:
    __slots__ = ("calls", "busy", "child", "raised")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.raised = 0

    @property
    def self_s(self) -> float:
        return self.busy - self.child


# (span name, lookup site, attribute, how it is called).  The site is a
# module name or "module:Class"; "iter" marks a generator whose time
# inside each next() is the span.  One span may have several sites when
# several modules import the same function.
SITES = (
    ("cli.main", "linesys.cli", "main", "call"),
    ("sweeps.run_sweep", "linesys.cli", "run_sweep", "call"),
    ("sweeps.graph_report", "linesys.sweeps", "graph_report", "call"),
    ("sweeps.poset_report", "linesys.sweeps", "poset_report", "call"),
    ("sweeps.metric_report", "linesys.sweeps", "metric_report", "call"),
    ("sweeps.json_line", "linesys.sweeps:VerificationReport", "json_line", "call"),
    ("enumeration.graph_from_mask", "linesys.graphs:Graph", "from_mask", "classmethod"),
    ("enumeration.iter_states", "linesys.sweeps", "_iter_states", "iter"),
    ("enumeration.poset_from_state", "linesys.sweeps", "poset_from_state", "call"),
    ("graphs.Graph_init", "linesys.graphs:Graph", "__init__", "call"),
    ("graphs.graph_betweenness", "linesys.sweeps", "graph_betweenness", "call"),
    ("graphs.graph_betweenness", "linesys.cli", "graph_betweenness", "call"),
    ("graphs.is_extremal_graph", "linesys.sweeps", "is_extremal_graph", "call"),
    ("posets.Poset_init", "linesys.posets:Poset", "__init__", "call"),
    ("posets.poset_betweenness", "linesys.sweeps", "poset_betweenness", "call"),
    ("posets.poset_betweenness", "linesys.construct", "poset_betweenness", "call"),
    ("posets.is_extremal_poset", "linesys.sweeps", "is_extremal_poset", "call"),
    ("metrics.graph_shortest_path_metric", "linesys.sweeps", "graph_shortest_path_metric", "call"),
    ("metrics.MetricSpace_init", "linesys.metrics:MetricSpace", "__init__", "call"),
    ("metrics.metric_betweenness", "linesys.sweeps", "metric_betweenness", "call"),
    ("core.BetweennessRelation_init", "linesys.core:BetweennessRelation", "__init__", "call"),
    ("core.line_mask_set", "linesys.sweeps", "line_mask_set", "call"),
    ("core.line_of", "linesys.construct", "line_of", "call"),
    ("core.all_lines", "linesys.cli", "all_lines", "call"),
    ("construct.build_certificate", "linesys.sweeps", "build_certificate", "call"),
    ("construct.certificate_issues", "linesys.sweeps", "certificate_issues", "call"),
    ("formats.parse_graph", "linesys.cli", "parse_graph", "call"),
    ("formats.render_line_system", "linesys.cli", "render_line_system", "call"),
)

# "cli.write" has no site: the benchmark wraps the write method of the
# output object it hands to ``cli.main``.
SPAN_NAMES = tuple(dict.fromkeys([*(name for name, *_ in SITES), "cli.write"]))


def _owner(site: str):
    module_name, _, class_name = site.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs wrappers at every site of ``SITES`` and restores them.

    Use as a context manager; ``spans`` maps span name to its Span.
    ``reset`` starts fresh aggregates, for example once per iteration.
    """

    def __init__(self):
        self.spans = {name: Span() for name in SPAN_NAMES}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for name in self.spans:
            self.spans[name] = Span()

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float, raised: bool) -> None:
        elapsed = time.perf_counter() - start
        span = self.spans[name]
        span.calls += 1
        span.busy += elapsed
        span.child += self._stack.pop()
        span.raised += raised
        if self._stack:
            self._stack[-1] += elapsed

    def wrap_call(self, name: str, fn):
        def traced(*args, **kwargs):
            start = self._enter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self._exit(name, start, raised)

        return traced

    def wrap_iter(self, name: str, fn):
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                start = self._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._exit(name, start, False)
                    return
                except BaseException:
                    self._exit(name, start, True)
                    raise
                self._exit(name, start, False)
                yield item

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for name, site, attr, how in SITES:
                owner = _owner(site)
                original = owner.__dict__[attr]
                if how == "classmethod":
                    wrapper = classmethod(self.wrap_call(name, original.__func__))
                elif how == "iter":
                    wrapper = self.wrap_iter(name, original)
                else:
                    wrapper = self.wrap_call(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def site_objects() -> dict[str, object]:
    """The object currently bound at every site, to check restoration."""
    return {f"{site}.{attr}": _owner(site).__dict__[attr] for _, site, attr, _ in SITES}
