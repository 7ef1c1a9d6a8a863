"""Counterfactual latency estimation over captured task DAGs.

The critical path (:mod:`repro.obs.critical_path`) says which tasks
gated a request; this module answers the next question — *what would
have happened* if an operator ran 2x faster, a stage moved to another
processor, or DMA/compute overlap were enabled.  It captures the exact
task DAG an engine would schedule (prefill subgraphs, shadow and sync
tasks, plus a synthetic decode chain gated on the prefill sinks),
applies typed perturbations, and replays the schedule through an
**independent** event loop that mirrors the simulator's dispatch
semantics — processor declaration order, one task per newly-idle
processor, co-terminating completion draining, policy tie-breaks.

Because the replay is a separate implementation, validating its
predictions against an actual re-simulation
(:func:`resimulate` runs the perturbed DAG through the real
:class:`~repro.hw.sim.Simulator`) is a meaningful check, and the tests
pin agreement within 1e-9 s on golden workloads for all three
perturbation classes: operator speedup, processor reassignment, and
DMA overlap.  On simulated hardware the re-simulation is ground truth
— a luxury profilers of physical devices never have.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.hw.sim import SimContext, Simulator, Task

#: Maximum tolerated |prediction - re-simulation| the tests enforce.
WHATIF_TOL_S = 1e-9


class WhatIfError(ReproError):
    """Capture, perturbation, or replay failure."""


def tag_matches(task_tag: str, pattern: str) -> bool:
    """A perturbation tag matches exactly or on a dotted prefix, so
    ``sg1`` also covers ``sg1.float`` but not ``sg10``."""
    return task_tag == pattern or task_tag.startswith(pattern + ".")


@dataclass(frozen=True)
class OperatorSpeedup:
    """"Operator X became ``factor`` times faster" (tag-matched)."""

    tag: str
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise WhatIfError(f"speedup factor must be positive, "
                              f"got {self.factor!r}")

    @property
    def label(self) -> str:
        return f"{self.tag} {self.factor:g}x faster"

    def apply(self, task: Task) -> Task:
        if not tag_matches(task.tag, self.tag):
            return task
        return replace(task, duration_s=task.duration_s / self.factor)


@dataclass(frozen=True)
class ProcessorReassign:
    """"Stage X runs on processor P instead" (tag-matched).

    ``duration_scale`` rescales the matched durations for the new
    processor's speed (1.0 keeps them — a pure placement change).
    """

    tag: str
    proc: str
    duration_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.proc:
            raise WhatIfError("reassignment needs a target processor")
        if self.duration_scale <= 0:
            raise WhatIfError(f"duration_scale must be positive, "
                              f"got {self.duration_scale!r}")

    @property
    def label(self) -> str:
        scale = ("" if self.duration_scale == 1.0
                 else f" at {self.duration_scale:g}x duration")
        return f"{self.tag} -> {self.proc}{scale}"

    def apply(self, task: Task) -> Task:
        if not tag_matches(task.tag, self.tag):
            return task
        return replace(task, proc=self.proc,
                       duration_s=task.duration_s * self.duration_scale)


@dataclass(frozen=True)
class DmaOverlap:
    """Per-task durations from a DMA-rebuilt engine (id-matched).

    Built by :func:`dma_overlap_perturbation`: the task graph's ids and
    dependencies are a pure function of the chunk plan shapes, so a
    :class:`~repro.hw.dma.DmaConfig` rebuild changes only subgraph
    latencies — captured here as an id -> new-duration mapping.
    """

    durations: Dict[str, float] = field(default_factory=dict)
    name: str = "dma-overlap"

    @property
    def label(self) -> str:
        return f"{self.name} ({len(self.durations)} tasks)"

    def apply(self, task: Task) -> Task:
        new = self.durations.get(task.task_id)
        if new is None:
            return task
        return replace(task, duration_s=new)


@dataclass(frozen=True)
class CapturedRun:
    """The exact DAG one engine inference would schedule."""

    source: str
    processors: Tuple[str, ...]
    policy: str
    tasks: Tuple[Task, ...]
    prefill_ids: frozenset
    extra_latency_s: float
    output_tokens: int
    decode_proc: str


@dataclass(frozen=True)
class WhatIfOutcome:
    """Predicted (or re-simulated) latency figures of one scenario."""

    ttft_s: float
    itl_s: float
    e2e_s: float

    def to_dict(self) -> dict:
        return {"ttft_s": self.ttft_s, "itl_s": self.itl_s,
                "e2e_s": self.e2e_s}


@dataclass(frozen=True)
class WhatIfReport:
    """Baseline vs counterfactual, with the deltas that matter."""

    source: str
    perturbations: Tuple[str, ...]
    baseline: WhatIfOutcome
    predicted: WhatIfOutcome

    @property
    def ttft_delta_s(self) -> float:
        return self.predicted.ttft_s - self.baseline.ttft_s

    @property
    def itl_delta_s(self) -> float:
        return self.predicted.itl_s - self.baseline.itl_s

    @property
    def e2e_delta_s(self) -> float:
        return self.predicted.e2e_s - self.baseline.e2e_s

    @property
    def ttft_speedup(self) -> float:
        if self.predicted.ttft_s <= 0:
            return float("inf")
        return self.baseline.ttft_s / self.predicted.ttft_s

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "perturbations": list(self.perturbations),
            "baseline": self.baseline.to_dict(),
            "predicted": self.predicted.to_dict(),
            "ttft_delta_s": self.ttft_delta_s,
            "itl_delta_s": self.itl_delta_s,
            "e2e_delta_s": self.e2e_delta_s,
            "ttft_speedup": self.ttft_speedup,
        }


# -- capture ------------------------------------------------------------------


def capture_engine_run(engine, prompt_tokens: int,
                       output_tokens: int = 0,
                       cached_tokens: int = 0) -> CapturedRun:
    """Capture the DAG ``engine.infer(prompt_tokens, output_tokens)``
    would schedule, without running the scheduler.

    Replicates the engine's plan construction exactly (chunk plans are
    memoized per builder, so latencies are bit-identical to what the
    engine itself would see) and appends one decode task per output
    token on the decode backend, gated on the prefill sinks — so decode
    perturbations move ITL and prefill perturbations move TTFT in one
    unified replay.
    """
    from repro.core.dependency import build_task_graph

    if prompt_tokens <= 0:
        raise WhatIfError("prompt_tokens must be positive")
    if output_tokens < 0 or cached_tokens < 0:
        raise WhatIfError("output/cached token counts must be "
                          "non-negative")
    cfg = engine.config
    include_shadow = cfg.quant_mode == "shadow"
    if cfg.chunking:
        plans = engine.graph.plans_for_prompt(prompt_tokens, cached_tokens)
        extra = 0.0
    else:
        rows = max(32, prompt_tokens)
        plans = [engine.builder.build_chunk(
            0, rows, engine.shadow_profiles if include_shadow else None)]
        extra = engine.graph.naive_per_prompt_preparation_s()
    tasks = list(build_task_graph(plans, float_proc=cfg.float_backend,
                                  include_shadow=include_shadow,
                                  shadow_proc=cfg.shadow_backend))
    processors = ["npu"]
    for proc in (cfg.float_backend, cfg.shadow_backend):
        if proc and proc not in processors:
            processors.append(proc)
    prefill_ids = frozenset(t.task_id for t in tasks)
    if output_tokens > 0:
        decode_s = engine.decode(cached_tokens + prompt_tokens,
                                 output_tokens)
        per_token = decode_s / output_tokens
        depended = set()
        for t in tasks:
            depended.update(t.deps)
        sinks = tuple(t.task_id for t in tasks
                      if t.task_id not in depended)
        prev: Tuple[str, ...] = sinks
        for i in range(output_tokens):
            tasks.append(Task(
                task_id=f"decode.t{i}", proc=cfg.decode_backend,
                duration_s=per_token, deps=prev, tag="decode",
            ))
            prev = (f"decode.t{i}",)
        if cfg.decode_backend not in processors:
            processors.append(cfg.decode_backend)
    return CapturedRun(
        source=f"{engine.model.name}/{engine.device.name} "
               f"prompt={prompt_tokens} out={output_tokens}",
        processors=tuple(processors),
        policy=cfg.policy,
        tasks=tuple(tasks),
        prefill_ids=prefill_ids,
        extra_latency_s=extra,
        output_tokens=output_tokens,
        decode_proc=cfg.decode_backend,
    )


# -- the independent replay ---------------------------------------------------


def _resolve_policy(policy):
    from repro.core.scheduler import get_policy
    if isinstance(policy, str):
        return get_policy(policy)
    return policy


def replay_schedule(tasks: Sequence[Task], processors: Sequence[str],
                    policy) -> Dict[str, Tuple[float, float]]:
    """Replay the scheduler's choices over a task list.

    An independent event loop mirroring
    :meth:`~repro.hw.sim.Simulator._run_generic` decision-for-decision:
    processors polled in declaration order, one task dispatched per
    newly-idle processor, the policy fed a copy of the ready list and a
    live :class:`~repro.hw.sim.SimContext`, co-terminating completions
    drained before dispatch (drained tasks fold their dependents first,
    the first-popped one after).  Returns ``{task_id: (start, end)}``.
    """
    policy = _resolve_policy(policy)
    processors = list(processors)
    by_id = {t.task_id: t for t in tasks}
    if len(by_id) != len(tasks):
        raise WhatIfError("duplicate task ids in replay")
    known = set(processors)
    for t in tasks:
        if t.proc not in known:
            raise WhatIfError(
                f"task {t.task_id}: unknown processor {t.proc!r}")
        for d in t.deps:
            if d not in by_id:
                raise WhatIfError(
                    f"task {t.task_id}: unknown dependency {d!r}")

    submit_index = {t.task_id: i for i, t in enumerate(tasks)}
    dependents: Dict[str, List[str]] = {t.task_id: [] for t in tasks}
    missing: Dict[str, int] = {}
    dup_deps = set()
    for t in tasks:
        unique = set(t.deps)
        missing[t.task_id] = len(unique)
        if len(unique) != len(t.deps):
            dup_deps.add(t.task_id)
        for d in unique:
            dependents[d].append(t.task_id)

    ready: Dict[str, List[Task]] = {p: [] for p in processors}
    for t in tasks:
        if missing[t.task_id] == 0:
            ready[t.proc].append(t)

    completed = set()
    context = SimContext(
        tasks=by_id,
        submit_index=submit_index,
        dependents={k: tuple(v) for k, v in dependents.items()},
        completed=completed,
        now_s=0.0,
        missing=missing,
        dup_deps=frozenset(dup_deps),
    )

    schedule: Dict[str, Tuple[float, float]] = {}
    running: List[Tuple[float, int, Task]] = []
    seq = itertools.count()
    proc_busy = {p: False for p in processors}
    now = 0.0
    n_done = 0

    def dispatch() -> None:
        context.now_s = now
        for proc in processors:
            if proc_busy[proc] or not ready[proc]:
                continue
            task = policy.select(proc, list(ready[proc]), context)
            if task is None:
                continue
            if task not in ready[proc]:
                raise WhatIfError(
                    f"policy {policy.name!r} selected a non-ready task")
            ready[proc].remove(task)
            proc_busy[proc] = True
            end = now + task.duration_s
            heapq.heappush(running, (end, next(seq), task))
            schedule[task.task_id] = (now, end)

    dispatch()
    while running:
        now, _, finished = heapq.heappop(running)
        proc_busy[finished.proc] = False
        completed.add(finished.task_id)
        n_done += 1
        while running and running[0][0] == now:
            _, _, other = heapq.heappop(running)
            proc_busy[other.proc] = False
            completed.add(other.task_id)
            n_done += 1
            for dep_id in dependents[other.task_id]:
                missing[dep_id] -= 1
                if missing[dep_id] == 0:
                    t = by_id[dep_id]
                    ready[t.proc].append(t)
        for dep_id in dependents[finished.task_id]:
            missing[dep_id] -= 1
            if missing[dep_id] == 0:
                t = by_id[dep_id]
                ready[t.proc].append(t)
        dispatch()

    if n_done != len(tasks):
        stuck = [t.task_id for t in tasks if t.task_id not in completed]
        raise WhatIfError(
            f"replay deadlock: {len(stuck)} tasks never became ready: "
            f"{stuck[:5]}")
    return schedule


# -- outcomes -----------------------------------------------------------------


def perturb_tasks(run: CapturedRun,
                  perturbations: Sequence) -> Tuple[Task, ...]:
    """Apply perturbations in order to every task of a captured run."""
    out = []
    for task in run.tasks:
        for p in perturbations:
            task = p.apply(task)
        out.append(task)
    return tuple(out)


def _extended_processors(run: CapturedRun,
                         tasks: Sequence[Task]) -> List[str]:
    """The run's processors plus any a reassignment introduced, in
    first-occurrence order (declaration order matters for dispatch)."""
    procs = list(run.processors)
    for t in tasks:
        if t.proc not in procs:
            procs.append(t.proc)
    return procs


def _outcome(schedule: Dict[str, Tuple[float, float]],
             run: CapturedRun) -> WhatIfOutcome:
    prefill_end = max(schedule[tid][1] for tid in schedule
                      if tid in run.prefill_ids)
    makespan = max(end for _start, end in schedule.values())
    if run.output_tokens > 0:
        decode = [(start, end) for tid, (start, end) in schedule.items()
                  if tid not in run.prefill_ids]
        span = (max(end for _s, end in decode)
                - min(start for start, _e in decode))
        itl = span / run.output_tokens
    else:
        itl = 0.0
    return WhatIfOutcome(
        ttft_s=prefill_end + run.extra_latency_s,
        itl_s=itl,
        e2e_s=makespan + run.extra_latency_s,
    )


def predict(run: CapturedRun, perturbations: Sequence) -> WhatIfReport:
    """Predicted TTFT/ITL/e2e deltas of a perturbed run (replay-based)."""
    baseline = _outcome(
        replay_schedule(run.tasks, run.processors, run.policy), run)
    tasks = perturb_tasks(run, perturbations)
    procs = _extended_processors(run, tasks)
    predicted = _outcome(replay_schedule(tasks, procs, run.policy), run)
    return WhatIfReport(
        source=run.source,
        perturbations=tuple(p.label for p in perturbations),
        baseline=baseline,
        predicted=predicted,
    )


def resimulate(run: CapturedRun,
               perturbations: Sequence) -> WhatIfOutcome:
    """Ground truth: the perturbed DAG through the real simulator."""
    tasks = list(perturb_tasks(run, perturbations))
    procs = _extended_processors(run, tasks)
    trace = Simulator(procs).run(tasks, _resolve_policy(run.policy))
    schedule = {e.task_id: (e.start_s, e.end_s) for e in trace.events}
    return _outcome(schedule, run)


# -- DMA overlap capture ------------------------------------------------------


def engine_with_dma(engine, dma):
    """A fresh engine identical to ``engine`` but built with an explicit
    :class:`~repro.hw.dma.DmaConfig` weight-streaming model."""
    from repro.core.engine import LlmNpuEngine
    from repro.graph.builder import GraphBuilder
    from repro.graph.chunk import ChunkSharingGraph

    clone = LlmNpuEngine(engine.model, engine.device, engine.config)
    clone.build_options = replace(clone.build_options, dma=dma)
    clone.builder = GraphBuilder(engine.model, engine.device,
                                 clone.build_options)
    cfg = clone.config
    max_chunks = min(cfg.max_chunks,
                     max(1, engine.model.max_context // cfg.chunk_len))
    clone.graph = ChunkSharingGraph(
        clone.builder, cfg.chunk_len, max_chunks,
        clone.shadow_profiles if cfg.quant_mode == "shadow" else None,
    )
    return clone


def dma_overlap_perturbation(engine, prompt_tokens: int, dma,
                             output_tokens: int = 0,
                             cached_tokens: int = 0):
    """The "DMA overlap on" perturbation for one engine + prompt.

    Rebuilds the engine with ``dma`` and diffs the two captured DAGs:
    ids and dependencies must be identical (the graph's shape is a pure
    function of the chunk plan ladder; only NPU linear latencies move),
    and the changed durations become a :class:`DmaOverlap`.  Returns
    ``(perturbation, clone)`` — the clone is the ground-truth engine
    for cross-checking measured deltas.
    """
    clone = engine_with_dma(engine, dma)
    base = capture_engine_run(engine, prompt_tokens,
                              output_tokens=output_tokens,
                              cached_tokens=cached_tokens)
    streamed = capture_engine_run(clone, prompt_tokens,
                                  output_tokens=output_tokens,
                                  cached_tokens=cached_tokens)
    base_ids = {t.task_id: t for t in base.tasks}
    new_ids = {t.task_id: t for t in streamed.tasks}
    if set(base_ids) != set(new_ids):
        raise WhatIfError(
            "DMA rebuild changed the task-graph shape "
            f"({len(base_ids)} vs {len(new_ids)} tasks)")
    durations = {}
    for tid, new in new_ids.items():
        old = base_ids[tid]
        if new.deps != old.deps or new.proc != old.proc:
            raise WhatIfError(
                f"DMA rebuild changed task {tid!r} structure")
        if new.duration_s != old.duration_s:
            durations[tid] = new.duration_s
    name = "dma-unbounded" if dma.buffers >= 2 ** 16 \
        else f"dma-buffers-{dma.buffers}"
    return DmaOverlap(durations=durations, name=name), clone


# -- CLI spec parsing ---------------------------------------------------------


def speedup_from_spec(spec: str) -> OperatorSpeedup:
    """Parse ``TAG=FACTOR`` (e.g. ``sg1=2`` — SG_QKV twice as fast)."""
    tag, sep, factor = spec.partition("=")
    if not sep or not tag:
        raise WhatIfError(
            f"speedup spec must be TAG=FACTOR, got {spec!r}")
    try:
        return OperatorSpeedup(tag=tag, factor=float(factor))
    except ValueError:
        raise WhatIfError(
            f"speedup factor in {spec!r} is not a number") from None


def reassign_from_spec(spec: str) -> ProcessorReassign:
    """Parse ``TAG=PROC[*SCALE]`` (e.g. ``sg2=npu*0.5`` — attention on
    the NPU at half duration)."""
    tag, sep, rest = spec.partition("=")
    if not sep or not tag or not rest:
        raise WhatIfError(
            f"reassign spec must be TAG=PROC[*SCALE], got {spec!r}")
    proc, star, scale = rest.partition("*")
    try:
        return ProcessorReassign(
            tag=tag, proc=proc,
            duration_scale=float(scale) if star else 1.0)
    except ValueError:
        raise WhatIfError(
            f"reassign scale in {spec!r} is not a number") from None
