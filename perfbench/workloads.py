"""The benchmark's three workloads, each with a scaled-down functional twin.

Every workload runs in simulate mode and splits one repetition into

* ``setup(seed, index)``: everything before the timed phase (construction,
  array allocation, kernel compile and, for chain_stencil, the warm-up
  iterations that fill the plan cache);
* ``timed(state, recorder)``: the driver calls whose host time is measured;
* ``result(state)``: the virtual makespan, job count, job latencies and
  queue delays, read after timing.

``variants`` is the number of distinct inputs one seed makes; repetition
``index`` runs input ``index % variants``.  ``twin(seed)`` runs a small
functional-mode copy whose results are checked against NumPy and returns
``(operations attempted, operations failed)``.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np

import repro.apps  # noqa: F401  (registers the cgc workload)
from repro import BlockDist, BlockWorkDist, Context, KernelCost, KernelDef
from repro.hardware import DeviceId, MemoryKind, MemorySpace, azure_nc24rsv2
from repro.kernels import create_workload
from repro.runtime.serving import DEFAULT_MIX, JobSpec, ServingSystem

from spans import LANES, lane_of

MB = 1 << 20


# ---------------------------------------------------------------------- #
# counters shared by every workload
# ---------------------------------------------------------------------- #
def counters(runtime, contexts) -> dict:
    """Flat, deterministic counters of one runtime and its driver contexts."""
    stats = runtime.stats()
    memory = list(stats.memory.values())
    out = {
        "events": stats.events_processed,
        "events_cancelled": stats.events_cancelled,
        "tasks_completed": stats.tasks_completed,
        "network_bytes": stats.network_bytes,
        "evictions_to_host": sum(m.evictions_to_host for m in memory),
        "evictions_to_disk": sum(m.evictions_to_disk for m in memory),
        "staging_stalls": stats.staging_stalls,
        "staging_stalls_avoided": stats.staging_stalls_avoided,
        "bytes_to_disk": sum(m.bytes_to_disk for m in memory),
        "bytes_from_disk": sum(m.bytes_from_disk for m in memory),
        "disk_stored_bytes": stats.disk_stored_bytes_written + stats.disk_stored_bytes_read,
        "chunks_preevicted": stats.chunks_preevicted,
        "prefetch_promotions": stats.prefetch_promotions,
    }
    for lane in LANES:
        out[f"{lane}.events"] = 0
        out[f"{lane}.busy"] = 0.0
    for name, events in stats.resource_events.items():
        lane = lane_of(name)
        if lane is not None:
            out[f"{lane}.events"] += events
    for name, busy in stats.resource_busy.items():
        lane = lane_of(name)
        if lane is not None:
            out[f"{lane}.busy"] += busy
    for key in ("launches", "window_flushes", "launches_fused", "transfers_prefetched",
                "disk_promotions_staged", "expr_nodes_fused", "temporaries_elided_bytes",
                "expr_bytes_allocated", "plan_lookups_hit", "plan_lookups_missed"):
        out[key] = 0
    for ctx in contexts:
        out["launches"] += sum(kernel.launches for kernel in ctx.kernels.values())
        out["window_flushes"] += ctx.window.flushes
        out["launches_fused"] += ctx.window.launches_fused
        out["transfers_prefetched"] += ctx.window.transfers_prefetched
        out["disk_promotions_staged"] += ctx.window.staged_promotions
        out["expr_nodes_fused"] += ctx.expr.expr_nodes_fused
        out["temporaries_elided_bytes"] += ctx.expr.temporaries_elided_bytes
        out["expr_bytes_allocated"] += ctx.expr.expr_bytes_allocated
        out["plan_lookups_hit"] += ctx.planner.cache.hits
        out["plan_lookups_missed"] += ctx.planner.cache.misses
    return out


def difference(after: dict, before: dict) -> dict:
    """Counter deltas of the timed phase."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _batch_result(state) -> dict:
    # A batch workload is one job, alone on the cluster from virtual_start:
    # its latency is its makespan and it never queues.
    virtual_s = state.runtime.engine.now - state.virtual_start
    return {"virtual_s": virtual_s, "jobs": 1, "latencies": [virtual_s],
            "queue_delays": [0.0]}


def _state(runtime, contexts, **extra) -> SimpleNamespace:
    """Everything one repetition carries from set-up to collection."""
    return SimpleNamespace(runtime=runtime, contexts=contexts,
                           virtual_start=runtime.engine.now, **extra)


# ---------------------------------------------------------------------- #
# chain_stencil
# ---------------------------------------------------------------------- #
class ChainStencil:
    """hotspot3 (three launches per iteration) on 2 nodes x 2 GPUs.

    The planner/engine hot path: chain fusion on (a lookahead of two whole
    iterations), a warm plan cache, halo exchange across the NIC, nothing
    spilled.  The seed draws the grid side: one of 13 multiples of 16 at or
    below the side of 2.7e8 elements per GPU, all chunked alike (1520-row
    chunks, the same tasks and events per iteration).
    """

    name = "chain_stencil"
    op = "launch"
    variants = 1
    min_reps = 3
    NODES, GPUS_PER_NODE = 2, 2
    ELEMS_PER_GPU = 270_000_000
    WARMUP, ITERATIONS = 2, 20
    LOOKAHEAD = 6

    def side(self, seed: int) -> int:
        elems = self.ELEMS_PER_GPU * self.NODES * self.GPUS_PER_NODE
        top = -(-math.isqrt(elems) // 16) * 16
        return top - 16 * random.Random(f"{self.name}:{seed}").randrange(13)

    def setup(self, seed: int, index: int) -> SimpleNamespace:
        ctx = Context(azure_nc24rsv2(nodes=self.NODES, gpus_per_node=self.GPUS_PER_NODE),
                      mode="simulate", lookahead=self.LOOKAHEAD)
        side = self.side(seed)
        workload = create_workload("hotspot3", ctx, side * side,
                                   iterations=self.WARMUP + self.ITERATIONS)
        workload.prepare()
        steps = workload.steps()
        for _ in range(self.WARMUP):
            next(steps)
        ctx.synchronize()
        return _state(ctx.runtime, [ctx], ctx=ctx, steps=steps)

    def timed(self, state, recorder) -> None:
        iteration = self.WARMUP
        while True:
            if recorder is not None:
                recorder.span_id = f"iteration{iteration}"
            try:
                next(state.steps)
            except StopIteration:
                break
            iteration += 1
        if recorder is not None:
            recorder.span_id = "drain"
        state.ctx.synchronize()

    def result(self, state) -> dict:
        return _batch_result(state)

    def twin(self, seed: int):
        """4 functional iterations of a 64 x 64 grid, checked by ``verify()``."""
        ctx = Context(azure_nc24rsv2(nodes=self.NODES, gpus_per_node=self.GPUS_PER_NODE),
                      mode="functional", lookahead=self.LOOKAHEAD)
        workload = create_workload("hotspot3", ctx, 64 * 64, chunk_elems=64 * 32,
                                   iterations=4, seed=seed)
        workload.run()
        launches = 3 * workload.iterations
        return launches, 0 if workload.verify() else launches


# ---------------------------------------------------------------------- #
# out_of_core
# ---------------------------------------------------------------------- #
def _stream_body(lc, n, data):
    i = lc.global_indices(0)
    i = i[i < n]
    data.scatter(i, (data.gather(i) * 1.5 + 1.0).astype(np.float32))


def _stream_kernel(ctx):
    return (
        KernelDef("stream_update", func=_stream_body)
        .param_value("n", "int64")
        .param_array("data", "float32")
        .annotate("global i => readwrite data[i]")
        .with_cost(KernelCost(flops_per_thread=80.0, bytes_per_thread=8.0))
        .compile(ctx)
    )


class OutOfCore:
    """A read-write update streamed round-robin over 64 x 64 MB arrays.

    One node x 4 GPUs with the compressed disk tier: 256 MB GPU pools and a
    2 GB host pool hold less than the 4 GB dataset, so chunks spill to disk
    while the window memory planner stages them back.  The seed draws the
    disk tier's per-chunk compression ratios.
    """

    name = "out_of_core"
    op = "launch"
    variants = 1
    min_reps = 2
    GPUS = 4
    ARRAYS, ARRAY_MB, CHUNK_MB = 64, 64, 4
    GPU_CAP_MB, HOST_CAP_MB, STAGE_MB = 256, 2048, 24
    ROUNDS = 20

    def _context(self, mode, seed, scale=1):
        caps = {DeviceId(0, i).memory_space: self.GPU_CAP_MB * MB // scale
                for i in range(self.GPUS)}
        caps[MemorySpace(0, MemoryKind.HOST)] = self.HOST_CAP_MB * MB // scale
        return Context(azure_nc24rsv2(nodes=1, gpus_per_node=self.GPUS), mode=mode,
                       memory_capacities=caps, stage_threshold=self.STAGE_MB * MB // scale,
                       disk=True, disk_seed=seed)

    def setup(self, seed: int, index: int) -> SimpleNamespace:
        ctx = self._context("simulate", seed)
        kernel = _stream_kernel(ctx)
        elems = self.ARRAY_MB * MB // 4
        arrays = [ctx.zeros(elems, BlockDist(self.CHUNK_MB * MB // 4), name=f"batch{j}")
                  for j in range(self.ARRAYS)]
        ctx.synchronize()
        return _state(ctx.runtime, [ctx], ctx=ctx, kernel=kernel, arrays=arrays, elems=elems)

    def timed(self, state, recorder) -> None:
        elems = state.elems
        work = BlockWorkDist(self.CHUNK_MB * MB // 4)
        for round_ in range(self.ROUNDS):
            if recorder is not None:
                recorder.span_id = f"round{round_}"
            for array in state.arrays:
                state.kernel.launch(elems, 256, work, (elems, array))
        if recorder is not None:
            recorder.span_id = "drain"
        state.ctx.synchronize()

    def result(self, state) -> dict:
        return _batch_result(state)

    def twin(self, seed: int):
        """The same stream scaled by 1/64, functional, checked bit for bit.

        Three rounds over 64 x 1 MB arrays; the 32 MB host pool still holds
        only half the dataset, so the check also covers disk spills.
        """
        scale = 64
        ctx = self._context("functional", seed, scale)
        kernel = _stream_kernel(ctx)
        elems = self.ARRAY_MB * MB // 4 // scale
        chunk = self.CHUNK_MB * MB // 4 // scale
        rng = np.random.RandomState(seed)
        data = [rng.rand(elems).astype(np.float32) for _ in range(self.ARRAYS)]
        arrays = [ctx.from_numpy(values, BlockDist(chunk), name=f"batch{j}")
                  for j, values in enumerate(data)]
        rounds = 3
        for _ in range(rounds):
            for array in arrays:
                kernel.launch(elems, 256, BlockWorkDist(chunk), (elems, array))
        ctx.synchronize()
        spilled = ctx.stats().memory[0].evictions_to_disk > 0
        failed = 0
        for values, array in zip(data, arrays):
            for _ in range(rounds):
                values = (values * 1.5 + 1.0).astype(np.float32)
            if not (spilled and np.array_equal(ctx.gather(array), values)):
                failed += rounds
        return rounds * len(arrays), failed


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
class Serving:
    """4 tenants on 2 x 2 GPUs fed by a seeded Poisson open loop.

    Each trace sends 200 jobs at 100 jobs per virtual second.  Tenant i
    submits every fourth job and each block of four consecutive jobs holds
    one job of each type in seeded order, so traces of different seeds share
    the same mix and differ only in arrival times and order.  A seed makes
    six traces; their latencies are pooled (1200 jobs).  Arrivals are virtual
    times the serving loop admits when the engine reaches them, so the
    generator is never late.
    """

    name = "serving"
    op = "job"
    variants = 6
    min_reps = 7
    NODES, GPUS_PER_NODE = 2, 2
    TENANTS = 4
    JOBS, RATE = 200, 100.0
    MIX = list(DEFAULT_MIX) + [("expressions", 1_000_000, {})]
    #: the twin's mix: the same four workloads at functional-mode sizes
    TWIN_MIX = [
        ("hotspot3", 64 * 64, {"chunk_elems": 64 * 32, "iterations": 2}),
        ("kmeans2", 8192, {"quantize": True, "iterations": 2}),
        ("cgc", 32 * 32, {"iterations": 1}),
        ("expressions", 4096, {}),
    ]

    def trace(self, seed: int, variant: int, mix, jobs: int, rate: float):
        """One seeded trace: Poisson arrivals, balanced tenants and types."""
        rng = random.Random(f"{self.name}:{seed}:{variant}")
        kinds = []
        while len(kinds) < jobs:
            block = list(range(len(mix)))
            rng.shuffle(block)
            kinds.extend(block)
        # A Poisson process conditioned on ``jobs`` arrivals in [0, jobs/rate]
        # places them uniformly: every trace offers exactly the stated rate.
        arrivals = sorted(rng.uniform(0.0, jobs / rate) for _ in range(jobs))
        specs = []
        for index, (arrival, kind) in enumerate(zip(arrivals, kinds)):
            workload, n, params = mix[kind]
            specs.append(JobSpec(arrival=arrival, tenant=index % self.TENANTS,
                                 workload=workload, n=n, params=dict(params)))
        return specs

    def _system(self, mode, specs) -> ServingSystem:
        serving = ServingSystem(
            cluster=azure_nc24rsv2(nodes=self.NODES, gpus_per_node=self.GPUS_PER_NODE),
            mode=mode)
        for tenant in range(self.TENANTS):
            serving.add_tenant(f"tenant-{tenant}", memory_fraction=0.5)
        serving.submit_trace(specs)
        return serving

    def setup(self, seed: int, index: int) -> SimpleNamespace:
        specs = self.trace(seed, index % self.variants, self.MIX, self.JOBS, self.RATE)
        serving = self._system("simulate", specs)
        return _state(serving.runtime, serving.contexts, serving=serving, specs=specs)

    def timed(self, state, recorder) -> None:
        if recorder is not None:
            recorder.span_id = "serving-loop"
            recorder.job_of_tenant = _JobTracker(state.serving, state.specs)
        state.report = state.serving.run()

    def result(self, state) -> dict:
        jobs = state.report.jobs
        return {
            "virtual_s": state.report.makespan,
            "jobs": len(jobs),
            "latencies": [job.latency for job in jobs],
            "queue_delays": [job.queue_delay for job in jobs],
        }

    def twin(self, seed: int):
        """8 functional jobs on the same cluster, each checked by ``verify()``."""
        # The expressions workload prices fixed inputs and takes no seed.
        mix = [(workload, n, params if workload == "expressions" else dict(params, seed=seed))
               for workload, n, params in self.TWIN_MIX]
        report = self._system("functional", self.trace(seed, 0, mix, 8, self.RATE)).run()
        return len(report.jobs), sum(1 for job in report.jobs if not job.workload.verify())


class _JobTracker:
    """Maps a tenant picked by the fair-share clock to the job it runs.

    Each tenant serves its jobs one at a time in arrival order, so its
    running job is its earliest job not yet in ``serving.completed``.  Job
    ids are trace positions: the serving system numbers jobs in submission
    order, and traces are submitted in arrival order.
    """

    def __init__(self, serving, specs):
        self.serving = serving
        self.queues = {}
        for job_id, spec in enumerate(specs):
            self.queues.setdefault(spec.tenant, []).append(job_id)
        self.heads = {tenant: 0 for tenant in self.queues}
        self.done = set()
        self.seen = 0

    def __call__(self, tenant: int) -> str:
        completed = self.serving.completed
        for record in completed[self.seen:]:
            self.done.add(record.job_id)
        self.seen = len(completed)
        queue = self.queues[tenant]
        while queue[self.heads[tenant]] in self.done:
            self.heads[tenant] += 1
        return f"job{queue[self.heads[tenant]]}"


WORKLOADS = {cls.name: cls for cls in (ChainStencil, OutOfCore, Serving)}
