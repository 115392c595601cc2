"""Effort counters: which counts a run keeps, and how they fold.

The paper's Table 7 measures effort as a simulation count; a run here
also counts cache hits, fault-policy outcomes, warm-anchor lookups and
DC solves per homotopy strategy.  Each count is one key of one
:class:`Counters`, and an evaluation stack returns its groups by name
from ``counters()``:

* ``evaluator``: :class:`~repro.evaluation.evaluator.Evaluator`;
* ``policy``: :class:`~repro.runtime.tolerant.FaultTolerantEvaluator`;
* ``warm_cache`` and ``dc_effort``: the template's
  :class:`~repro.circuit.dc.WarmStartCache` and
  :class:`~repro.circuit.dc.DcEffort`.

A pool task and a yield estimate take a :func:`snapshot` of a stack,
the difference :func:`since` it, and fold a difference into another
stack with :func:`absorb`, without naming a counter.
"""

from __future__ import annotations

from typing import Dict, Mapping

#: ``group -> name -> count``: a stack's counts, or a difference of two
Snapshot = Dict[str, Dict[str, int]]


class Counters(dict):
    """Ordered ``name -> int`` counts.  Names keep their declaration
    order, so a report serializes the same under any hash seed."""

    def __init__(self, *names: str):
        super().__init__(dict.fromkeys(names, 0))

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the declared count ``name``."""
        self[name] += n

    def absorb(self, counts: Mapping[str, int]) -> None:
        """Add ``counts`` name by name (e.g. another stack's difference)."""
        for name, value in counts.items():
            self[name] = self.get(name, 0) + int(value)


def view(name: str, doc: str) -> property:
    """A read-only attribute holding ``self.counts[name]``."""
    return property(lambda self: self.counts[name], doc=doc)


def snapshot(groups: Mapping[str, Counters]) -> Snapshot:
    """A copy of every group's counts."""
    return {group: dict(counts) for group, counts in groups.items()}


def since(groups: Mapping[str, Counters], before: Snapshot) -> Snapshot:
    """Every group's counts minus its ``before`` snapshot."""
    return {group: {name: value - before[group].get(name, 0)
                    for name, value in counts.items()}
            for group, counts in groups.items()}


def absorb(groups: Mapping[str, Counters], spent: Snapshot) -> None:
    """Add the difference ``spent`` into the stack's ``groups``."""
    for group, counts in spent.items():
        groups[group].absorb(counts)
