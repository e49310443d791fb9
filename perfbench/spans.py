"""Layer-attributed span recording for the benchmark's traced run.

The benchmark measures layers from the outside: :class:`SpanRecorder`
replaces the public entry points listed in :data:`LAYERS` with wrappers that
time each call and restores the originals afterwards.  Nothing under ``src/``
is changed, and an untraced run executes the unwrapped code.

Every span knows its parent span (the innermost wrapped call that was active
when it started) and the id of the unit of driver work in progress: an
iteration, a streaming round, a served job, or ``drain`` while the driver
waits for the simulation.  Spans are folded into aggregates as they close:

* per layer: calls, inclusive seconds and self seconds (inclusive minus the
  time covered by child spans);
* per (parent layer, layer) edge: calls;
* per span id: spans and self seconds.

Code that no wrapper covers is charged to the innermost wrapped caller.  Work
run by engine event callbacks that are not public calls (link wake-ups,
executor payloads) therefore lands in ``simulator.engine``, whose span is
``Engine.run``.  Time outside every span is reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import time

#: layer -> ((module, class, methods), ...); the public calls each layer's
#: span wraps.
LAYERS = {
    "core.expr": (
        ("repro.core.expr.lowering", "ExprEngine",
         ("evaluate", "force_pending", "force_before_launch")),
    ),
    "planning.planner": (
        ("repro.core.planning.planner", "Planner",
         ("prepare_launch", "plan_create_array", "plan_gather", "plan_delete_array")),
    ),
    "planning.window": (
        ("repro.core.planning.window", "LaunchWindow", ("flush",)),
    ),
    "planning.stamp": (
        ("repro.core.planning.planner", "Planner", ("stamp_launch", "stamp_fused")),
    ),
    "planning.memplan": (
        ("repro.core.planning.memplan", "WindowMemoryPlanner", ("plan_group",)),
    ),
    "runtime.system": (
        ("repro.runtime.system", "RuntimeSystem",
         ("submit_plan", "subscribe", "notify_completion", "run_until_idle")),
    ),
    "runtime.scheduler": (
        ("repro.runtime.scheduler", "Scheduler", ("submit",)),
    ),
    "runtime.memory": (
        ("repro.runtime.memory", "MemoryManager",
         ("stage", "unstage", "reserve", "release", "register", "delete")),
    ),
    "runtime.executors": (
        ("repro.runtime.executors", "TaskExecutor", ("execute",)),
    ),
    "simulator.engine": (
        ("repro.simulator.engine", "Engine", ("run",)),
    ),
    "simulator.resources": (
        ("repro.simulator.resources", "BandwidthResource", ("request",)),
        ("repro.simulator.resources", "ChannelResource", ("request",)),
    ),
    "simulator.trace": (
        ("repro.simulator.trace", "Trace", ("record", "busy_time", "summary")),
    ),
    "runtime.serving": (
        ("repro.runtime.serving", "FairShareClock", ("select", "charge")),
        ("repro.runtime.serving", "ServingSystem", ("run",)),
    ),
}

#: lane classes of the simulated resources, by the last part of a resource
#: name (``w0.gpu1.dtod`` -> ``dtod``); unlisted resources (cpu, sched,
#: driver.plan) belong to no lane class
LANE_OF_SUFFIX = {
    "compute": "compute",
    "dtod": "dtod",
    "pcie": "pcie",
    "nic": "nic",
    "disk": "disk",
    "disk_read": "disk",
    "disk_write": "disk",
    "compress": "codec",
    "decompress": "codec",
}

LANES = tuple(dict.fromkeys(LANE_OF_SUFFIX.values()))


def lane_of(resource_name: str):
    """The lane class of a simulated resource, or ``None``."""
    return LANE_OF_SUFFIX.get(resource_name.rsplit(".", 1)[-1])


class SpanRecorder:
    """Wraps the calls in :data:`LAYERS` and aggregates their spans.

    Use as a context manager around one traced repetition; spans are only
    recorded while :attr:`armed` is true, so set-up inside the ``with`` block
    runs through the wrappers without being counted.
    """

    def __init__(self):
        #: layer -> [calls, inclusive seconds, self seconds]
        self.layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        #: (parent layer or None, layer) -> calls
        self.edges = {}
        #: span id -> [spans, self seconds]
        self.by_id = {}
        #: "Class.method" -> calls
        self.method_calls = {}
        #: lane class -> resource requests
        self.lane_requests = {lane: 0 for lane in LANES}
        #: tasks handed to Scheduler.submit / stamped into plans
        self.scheduler_tasks = 0
        self.tasks_stamped = 0
        #: id of the unit of driver work in progress
        self.span_id = None
        #: optional tenant -> job id mapping, set by the serving workload so
        #: a fair-share quantum's spans carry the id of the job it advances
        self.job_of_tenant = None
        self.armed = False
        self._stack = []
        self._originals = []

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def __enter__(self):
        for layer, targets in LAYERS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._originals.append((cls, method, original))
                    setattr(cls, method, self._wrap(layer, cls, method, original))
        return self

    def __exit__(self, exc_type, exc, tb):
        self.armed = False
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()
        return False

    def _wrap(self, layer, cls, method, original):
        recorder = self
        agg = self.layers[layer]
        qualname = f"{cls.__name__}.{method}"
        self.method_calls[qualname] = 0
        extra = _EXTRA.get(qualname)
        before = _BEFORE.get(qualname)
        stack = self._stack
        edges = self.edges
        by_id = self.by_id
        method_calls = self.method_calls
        clock = time.perf_counter

        @functools.wraps(original)
        def span(*args, **kwargs):
            if not recorder.armed:
                return original(*args, **kwargs)
            if before is not None:
                before(recorder, args)
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            span_id = recorder.span_id
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += own
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else None, layer)
                edges[key] = edges.get(key, 0) + 1
                per_id = by_id.get(span_id)
                if per_id is None:
                    by_id[span_id] = [1, own]
                else:
                    per_id[0] += 1
                    per_id[1] += own
            method_calls[qualname] += 1
            if extra is not None:
                extra(recorder, args, result)
            return result

        return span

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def self_seconds(self) -> float:
        """Self time summed over every layer."""
        return sum(agg[2] for agg in self.layers.values())

    def to_dict(self) -> dict:
        """JSON-serialisable aggregate of every recorded span."""
        return {
            "layers": {
                layer: {"calls": agg[0], "inclusive_s": agg[1], "self_s": agg[2]}
                for layer, agg in self.layers.items()
            },
            "edges": [
                {"parent": parent, "layer": layer, "calls": calls}
                for (parent, layer), calls in sorted(
                    self.edges.items(), key=lambda item: (str(item[0][0]), item[0][1]))
            ],
            "by_id": {
                str(span_id): {"spans": spans, "self_s": own}
                for span_id, (spans, own) in self.by_id.items()
            },
            "method_calls": dict(self.method_calls),
            "lane_requests": dict(self.lane_requests),
        }


# ---------------------------------------------------------------------- #
# per-call counters taken at the same boundaries as the spans
# ---------------------------------------------------------------------- #
def _count_request(recorder, args, result):
    lane = lane_of(args[0].name)
    if lane is not None:
        recorder.lane_requests[lane] += 1


def _count_submitted(recorder, args, result):
    recorder.scheduler_tasks += len(args[1])


def _count_stamped(recorder, args, result):
    recorder.tasks_stamped += result[0].task_count


def _select_job(recorder, args, result):
    if result is not None and recorder.job_of_tenant is not None:
        recorder.span_id = recorder.job_of_tenant(result)


def _enter_drain(recorder, args):
    # Engine.run called while the serving loop waits for completions: the
    # simulation it advances belongs to no single job.
    if recorder.job_of_tenant is not None:
        recorder.span_id = "drain"


_EXTRA = {
    "BandwidthResource.request": _count_request,
    "ChannelResource.request": _count_request,
    "Scheduler.submit": _count_submitted,
    "Planner.stamp_launch": _count_stamped,
    "Planner.stamp_fused": _count_stamped,
    "FairShareClock.select": _select_job,
}

_BEFORE = {
    "Engine.run": _enter_drain,
}
