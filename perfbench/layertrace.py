"""Per-layer tracing from outside the program.

:class:`LayerTracer` times a layer by replacing one public method on one
*instance* with a timing wrapper (an instance attribute shadows the class
method), so nothing in ``src/repro`` carries a span or a counter.  Each
wrapper records its span's *self* time: its wall time minus the wall
time of the wrapped calls made inside it.  The benchmark's tick loop
adds a root around each tick whose self time is ``unattributed_ms``, so
the self times of all spans plus the residual add up to the tick wall
exactly.

Wrappers can be installed and removed between ticks.  The traced run
alternates traced and plain ticks and reports the difference of their
medians as the tracing overhead, measured under the same host
conditions as the layer numbers themselves.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: Per-layer metrics: (name, unit, better, the end-to-end metric it
#: should move and the workload where that should show).  ``*_ms``
#: metrics are self time per tick, children excluded, so they sum with
#: ``unattributed_ms`` to ``trace.tick_ms``.
#: Counts are per tick (per cycle on fulltable-churn, where a tick is
#: one controller cycle plus its churn and safety check).
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("io.drain_ms", "ms", "lower",
     "tick_p50_ms, tick_tail_ms, delivered_spm on wire-ingest"),
    ("io.datagrams", "count/tick", "higher",
     "delivered_spm on wire-ingest"),
    ("io.queue_peak", "count", "lower", "tick_tail_ms on wire-ingest"),
    ("io.shed", "count", "lower", "delivered_spm on wire-ingest"),
    ("sflow.feed_ms", "ms", "lower",
     "tick_p50_ms on wire-ingest (most), pop-peak"),
    ("sflow.s_per_msample", "s/Msample", "lower",
     "tick_p50_ms on wire-ingest, pop-peak"),
    ("sflow.samples", "count/tick", "higher",
     "delivered_spm on wire-ingest"),
    ("sflow.decode_errors", "count/tick", "lower",
     "delivered_spm on wire-ingest"),
    ("sflow.encode_ms", "ms", "lower", "tick_p50_ms, sim_rate on pop-peak"),
    ("bmp.feed_ms", "ms", "lower",
     "setup_s, tick_p50_ms on pop-peak, wire-ingest"),
    ("bmp.heartbeat_ms", "ms", "lower", "tick_p50_ms on pop-peak"),
    ("bmp.messages", "count/tick", "lower",
     "tick_p50_ms on pop-peak, wire-ingest"),
    ("traffic.demand_ms", "ms", "lower", "sim_rate on pop-peak"),
    ("dataplane.tick_self_ms", "ms", "lower",
     "tick_p50_ms, sim_rate on pop-peak"),
    ("dataplane.specifics_ms", "ms", "lower",
     "tick_p50_ms, sim_rate on pop-peak"),
    ("dataplane.specifics_calls", "count/tick", "lower",
     "tick_p50_ms, sim_rate on pop-peak"),
    ("dataplane.specifics_hit_ratio", "ratio", "higher",
     "tick_p50_ms, sim_rate on pop-peak"),
    ("core.snapshot_ms", "ms", "lower", "cycle_p50_ms on fulltable-churn"),
    ("core.snapshot_dirty", "count/cycle", "lower",
     "cycle_p50_ms on fulltable-churn"),
    ("core.snapshot_full", "count/cycle", "lower",
     "cycle_p50_ms on fulltable-churn"),
    ("core.projection_apply_ms", "ms", "lower",
     "cycle_p50_ms on fulltable-churn; tick_p50_ms on pop-peak"),
    ("core.projection_rebuild_ms", "ms", "lower",
     "cycle_tail_ms, cold_cycle_s on fulltable-churn"),
    ("core.allocate_ms", "ms", "lower", "cycle_p50_ms on fulltable-churn"),
    ("core.detours", "count/cycle", "lower",
     "cycle_p50_ms on fulltable-churn"),
    ("core.reuse_ratio", "ratio", "higher",
     "cycle_p50_ms on fulltable-churn"),
    ("core.steering_ms", "ms", "lower", "tick_p50_ms on pop-peak-steering"),
    ("core.steering_transitions", "count/cycle", "lower",
     "tick_p50_ms on pop-peak-steering"),
    ("measurement.altpath_ms", "ms", "lower",
     "tick_tail_ms on pop-peak-steering"),
    ("core.overrides_ms", "ms", "lower", "cycle_p50_ms on fulltable-churn"),
    ("core.aggregate_ms", "ms", "lower", "cycle_p50_ms on fulltable-churn"),
    ("core.install_ratio", "ratio", "higher",
     "cycle_p50_ms on fulltable-churn"),
    ("core.injector_ms", "ms", "lower", "cycle_p50_ms on fulltable-churn"),
    ("core.announced", "count/cycle", "lower",
     "cycle_p50_ms on fulltable-churn"),
    ("core.withdrawn", "count/cycle", "lower",
     "cycle_p50_ms on fulltable-churn"),
    ("core.safety_ms", "ms", "lower",
     "tick_p50_ms on wire-ingest, pop-peak"),
    ("obs.audit_ms", "ms", "lower", "tick_p50_ms on wire-ingest, pop-peak"),
    ("obs.health_ms", "ms", "lower", "tick_p50_ms on wire-ingest"),
    ("core.cycle_self_ms", "ms", "lower", "cycle_p50_ms on every workload"),
    ("unattributed_ms", "ms", "lower", "tick_p50_ms on every workload"),
    ("trace.tick_ms", "ms", "lower",
     "mean traced tick wall that the *_ms rows add up to"),
    ("trace.overhead_ms", "ms", "lower",
     "traced minus plain tick p50 in the same run"),
    ("host.probe_ms", "ms", "lower",
     "host-speed diagnostic: the run's median probe, which scales the rest"),
]

#: Spans whose self time is reported; the wrapped method on each layer.
SPANS = [
    name[: -len("_ms")]
    for name, unit, _better, _moves in LAYER_METRICS
    if unit == "ms" and not name.startswith(("trace.", "host.", "unattributed"))
]


class LayerTracer:
    """Instance-level timing wrappers with self-time accounting."""

    def __init__(self) -> None:
        #: span -> [self seconds, inclusive seconds, calls, hits]
        self.spans: Dict[str, List[float]] = {
            name: [0.0, 0.0, 0, 0] for name in SPANS
        }
        # Child-time accumulators; slot 0 collects the time spent in
        # top-level wrapped calls during the current root (tick).
        self._stack: List[float] = [0.0]
        self._targets: List[Tuple[object, str, Callable]] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.installed = False
        self.root_ticks = 0
        self.root_wall = 0.0
        self.unattributed = 0.0

    # -- registering --------------------------------------------------------

    def add(
        self,
        obj: object,
        attr: str,
        span: str,
        observe: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time ``obj.attr`` as *span*; *observe* sees each result
        (outside the span's own time)."""
        acc = self.spans[span]
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                started = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    child = stack.pop()
                    stack[-1] += elapsed
                    acc[0] += elapsed - child
                    acc[1] += elapsed
                    acc[2] += 1
                if observe is not None:
                    observe(result)
                return result

            return wrapper

        self._targets.append((obj, attr, make))

    def add_leaf(self, obj: object, attr: str, span: str) -> None:
        """Time a hot one-argument call that makes no wrapped calls.

        The leaf skips the child-time stack push that nesting needs,
        which keeps a per-prefix call cheap to count.  Non-empty
        results are counted as hits.
        """
        acc = self.spans[span]
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def leaf(arg):
                started = clock()
                result = fn(arg)
                elapsed = clock() - started
                stack[-1] += elapsed
                acc[0] += elapsed
                acc[1] += elapsed
                acc[2] += 1
                if result:
                    acc[3] += 1
                return result

            return leaf

        self._targets.append((obj, attr, make))

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            return
        for obj, attr, make in self._targets:
            self._saved.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
            setattr(obj, attr, make(getattr(obj, attr)))
        self.installed = True

    def remove(self) -> None:
        if not self.installed:
            return
        for obj, attr, previous in reversed(self._saved):
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)
        self._saved.clear()
        self.installed = False

    # -- roots --------------------------------------------------------------

    def begin_root(self) -> None:
        self._stack[:] = [0.0]

    def end_root(self, wall: float) -> None:
        """Close a traced tick of *wall* seconds; what no span covered
        is the residual."""
        self.root_ticks += 1
        self.root_wall += wall
        self.unattributed += wall - self._stack[0]

    def self_ms(self, span: str) -> float:
        """Mean self time per traced tick, in ms."""
        if not self.root_ticks:
            return 0.0
        return self.spans[span][0] * 1000.0 / self.root_ticks
