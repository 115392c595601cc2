"""In-memory span tracer over public library callables.

The tracer replaces each callable named in :mod:`bench.layers` with a
wrapper that records one span per call: its layer, start, duration, the
time covered by its child spans, and the id of the span that called it.
Spans nest through one explicit stack (the workloads are single
threaded), so a layer's *self* time is its span duration minus the part
its child spans cover, and the self times of all spans plus the root's
add up to the root duration exactly.

Nothing is aggregated while the workload runs: a span is one tuple
appended to a list.  :meth:`Tracer.summary` folds the list into
per-layer numbers afterwards, and :meth:`Tracer.chrome_trace` writes it
as Chrome trace-event JSON (open it in https://ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of the span the benchmark opens around a workload body; its
#: self time is the part of the body no library span covers.
ROOT_LAYER = "root"


class TargetNotFound(LookupError):
    """A ``module:qualname`` target does not name a callable."""


def resolve(path: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, callable)`` for ``"module:qualname"``.

    ``owner`` is the module for a function and the defining class for a
    method; a method inherited from a base class is refused, because
    patching it on the subclass would change which object the name
    resolves to."""
    module_name, _, qualname = path.partition(":")
    if not module_name or not qualname:
        raise TargetNotFound(f"{path!r} is not 'module:qualname'")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetNotFound(f"{path!r}: {exc}") from exc
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TargetNotFound(f"{path!r}: no attribute {part!r}")
    if isinstance(owner, type):
        target = owner.__dict__.get(attr)
        if target is None:
            raise TargetNotFound(
                f"{path!r}: {owner.__name__} does not define {attr!r}")
    else:
        target = getattr(owner, attr, None)
    if not callable(target):
        raise TargetNotFound(f"{path!r} is not callable")
    return owner, attr, target


def bindings(owner: object, attr: str, target: Callable,
             package: str) -> List[Tuple[object, str]]:
    """Every ``(owner, attribute)`` that binds ``target``: the defining
    class for a method; for a function, every loaded module of
    ``package`` that holds the same object (``from x import f`` copies
    the binding, and a call through the copy must be caught too)."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    prefix = package + "."
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package
                                  or name.startswith(prefix)):
            continue
        for key, value in list(vars(module).items()):
            if value is target:
                found.append((module, key))
    return found


@dataclass
class LayerStats:
    """Per-layer fold of the span list."""

    #: calls of the outermost spans of this layer
    calls: int = 0
    #: inclusive seconds of the outermost spans (nested spans of the
    #: same layer are not counted twice)
    seconds: float = 0.0
    #: self seconds of every span of this layer
    self_seconds: float = 0.0
    #: durations of the outermost spans [s]
    durations: List[float] = field(default_factory=list)


class Tracer:
    """Records nested spans around patched callables.

    ``install(targets)`` patches, ``uninstall()`` restores every patched
    attribute to its original object.  ``targets`` are objects with
    ``layer``, ``path`` and optional ``observe(counts, args, kwargs,
    result)`` and ``probe`` attributes (see :class:`bench.layers.Target`);
    ``probes`` maps a probe name to a zero-argument counter read, whose
    difference over each outermost span of the layer is added to
    ``counts["<layer>.<probe name>"]``.
    """

    def __init__(self, package: str = "repro",
                 clock: Callable[[], float] = time.perf_counter,
                 probes: Optional[Dict[str, Callable[[], float]]] = None):
        self.package = package
        self.clock = clock
        self.probes = dict(probes or {})
        #: one tuple per finished span: name id, start [s], duration [s],
        #: time covered by child spans [s], span id, parent span id,
        #: raised, outermost span of its layer (no enclosing span of the
        #: same layer)
        self.spans: List[tuple] = []
        #: span name per name id, and its layer
        self.names: List[str] = []
        self.layers: List[str] = []
        #: counters filled by ``observe`` hooks and probes
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._stack: List[list] = [[0.0, 0]]
        self._active: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching --
    def install(self, targets) -> None:
        try:
            for target in targets:
                owner, attr, original = resolve(target.path)
                wrapper = self.wrap(original, target.path, target.layer,
                                    getattr(target, "observe", None),
                                    getattr(target, "probe", None))
                for where, name in bindings(owner, attr, original,
                                            self.package):
                    self._patches.append((where, name, original))
                    setattr(where, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            where, name, original = self._patches.pop()
            setattr(where, name, original)

    # -- recording --
    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self._active.setdefault(layer, 0)
        return len(self.names) - 1

    def wrap(self, fn: Callable, name: str, layer: str,
             observe: Optional[Callable] = None,
             probe: Optional[str] = None) -> Callable:
        """``fn`` wrapped to record one span per call."""
        name_id = self._name_id(name, layer)
        stack, spans, clock, ids = self._stack, self.spans, self.clock, \
            self._ids
        active, counts = self._active, self.counts
        read = self.probes[probe] if probe is not None else None
        counter = f"{layer}.{probe}"

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            depth = active[layer]
            active[layer] = depth + 1
            before = read() if read is not None and depth == 0 else None
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                duration = clock() - t0
                stack.pop()
                active[layer] = depth
                parent[0] += duration
                spans.append((name_id, t0, duration, frame[0], frame[1],
                              parent[1], raised, depth == 0))
            if before is not None:
                counts[counter] = counts.get(counter, 0) + read() - before
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- folding --
    def summary(self) -> Tuple[Dict[str, LayerStats], Dict[str, LayerStats]]:
        """``(per_layer, per_name)`` folds of the recorded spans."""
        per_layer: Dict[str, LayerStats] = {}
        per_name: Dict[str, LayerStats] = {}
        for layer in self.layers:
            per_layer.setdefault(layer, LayerStats())
        for name in self.names:
            per_name.setdefault(name, LayerStats())
        for name_id, _, duration, children, _, _, _, outermost in self.spans:
            for stats in (per_layer[self.layers[name_id]],
                          per_name[self.names[name_id]]):
                stats.self_seconds += duration - children
                if outermost:
                    stats.calls += 1
                    stats.seconds += duration
                    stats.durations.append(duration)
        return per_layer, per_name

    def errors(self, name: str) -> int:
        """Calls of span ``name`` that raised."""
        ids = {i for i, n in enumerate(self.names) if n == name}
        return sum(1 for span in self.spans
                   if span[0] in ids and span[6])

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (complete events,
        microseconds from the first span start)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [{"name": self.names[name_id],
                   "cat": self.layers[name_id], "ph": "X",
                   "ts": (start - origin) * 1e6, "dur": duration * 1e6,
                   "pid": 1, "tid": 1,
                   "args": {"id": span_id, "parent": parent}}
                  for name_id, start, duration, _, span_id, parent, _, _
                  in sorted(self.spans, key=lambda span: span[1])]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, 0 when empty;
    linear interpolation between order statistics."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(q) - 1])
