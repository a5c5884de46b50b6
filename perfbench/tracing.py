"""Outside-in tracing: spans recorded around calls into each layer.

Everything here lives in the benchmark's own files.  Spans are opened
around the public functions the workloads call (wire codec, service
entry points, live-workspace writes) and, during a traced pass only,
around the estimator layer through three hooks that leave the program's
code paths unchanged:

* a timing ``estimator_factory=`` that returns ``make_estimator``'s
  result unchanged (construction time);
* a class-level wrap of the ``estimate`` method each concrete estimator
  class actually dispatches to, and of the
  ``SamplingEstimator.estimate_across`` classmethod (run time).  The wrap
  is installed on the class, never on instances: an instance attribute
  would change ``batch_key()`` and silently turn off micro-batching;
* ``repro.obs.observe()`` around the pass, which switches on the
  package's existing kernel phase timers (index build, probe, scale).

A span is ``[op, name, parent, start_ns, end_ns]``; spans of one client
op share ``op``, and ``parent`` indexes the span that caused it (-1 for
a root).  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

_now = time.perf_counter_ns


class NullTracer:
    """The untraced pass: no spans, wrapped functions returned as-is."""

    enabled = False
    op = 0

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer.stack
        self.index = len(tracer.spans)
        tracer.spans.append(
            [tracer.op, self.name, stack[-1] if stack else -1, _now(), 0]
        )
        stack.append(self.index)

    def __exit__(self, *exc_info: Any) -> None:
        tracer = self.tracer
        tracer.spans[self.index][4] = _now()
        tracer.stack.pop()


class Tracer:
    """Single-threaded span recorder (the workloads run one client)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        #: The client op the next spans belong to; set by the workload.
        self.op = 0

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` run inside a span; re-entrant calls are not re-spanned."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.stack and self.spans[self.stack[-1]][1] == name:
                return fn(*args, **kwargs)
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    # -- aggregation --------------------------------------------------

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[4] - s[3] for s in self.spans if s[1] == name) / 1e9

    def durations_s(self, name: str) -> list[float]:
        return [(s[4] - s[3]) / 1e9 for s in self.spans if s[1] == name]

    def self_s(self, name: str) -> float:
        """Summed self time of ``name`` spans: duration minus the part
        covered by their direct children."""
        child_time: dict[int, int] = {}
        for span in self.spans:
            if span[2] >= 0:
                child_time[span[2]] = (
                    child_time.get(span[2], 0) + span[4] - span[3]
                )
        return (
            sum(
                s[4] - s[3] - child_time.get(i, 0)
                for i, s in enumerate(self.spans)
                if s[1] == name
            )
            / 1e9
        )

    def write(self, path: Path) -> None:
        """Write the spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["op", "name", "parent", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def timing_factory(tracer: Tracer | NullTracer) -> Callable[..., Any]:
    """An ``estimator_factory=`` timing ``make_estimator``, result unchanged."""
    from repro.estimators.registry import make_estimator

    return tracer.wrap("estimators.construct", make_estimator)


@contextmanager
def instrument(
    tracer: Tracer, estimator_classes: Sequence[type]
) -> Iterator[Any]:
    """Class-level estimator wraps plus ``repro.obs.observe()``.

    Yields the ambient metrics registry the kernels record into.  Every
    wrap is removed on exit, so a later untraced pass runs the
    unmodified classes.
    """
    from repro import obs
    from repro.estimators.sampling_base import SamplingEstimator

    restore: list[tuple[type, str, Any]] = []
    owners: list[type] = []
    for cls in estimator_classes:
        owner = next(k for k in cls.__mro__ if "estimate" in k.__dict__)
        if owner not in owners:
            owners.append(owner)
    try:
        for owner in owners:
            original = owner.__dict__["estimate"]
            restore.append((owner, "estimate", original))
            setattr(owner, "estimate", tracer.wrap("estimators.run", original))
        across = SamplingEstimator.__dict__["estimate_across"]
        restore.append((SamplingEstimator, "estimate_across", across))
        SamplingEstimator.estimate_across = classmethod(  # type: ignore
            tracer.wrap("estimators.run", across.__func__)
        )
        with obs.observe() as registry:
            yield registry
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def phase_seconds(registry: Any, stage: str) -> float:
    """Summed ``phase.<estimator>.<stage>.seconds`` over every estimator."""
    suffix = f".{stage}.seconds"
    return sum(
        histogram.sum
        for name, histogram in registry.histograms().items()
        if name.startswith("phase.") and name.endswith(suffix)
    )
