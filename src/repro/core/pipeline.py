"""Prefill pipeline: lower chunk plans to tasks, simulate, summarize.

A prefill splits into a *schedule* — the simulated trace and the
numbers derived from it, a pure function of the chunk plans and the
scheduling arguments — and the per-prompt token accounting around it.
Static chunk shapes (§3.2) make the schedule independent of the prompt
length, so :data:`PREFILL_MEMO` can share one schedule between every
prefill that runs the same prepared chunk graphs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Tuple

from repro.core.dependency import build_task_graph
from repro.core.scheduler import get_policy
from repro.errors import EngineError
from repro.graph.builder import ChunkPlan
from repro.graph.chunk import padded_tokens
from repro.hw.sim import SchedulingPolicy, Simulator, Task
from repro.hw.soc import SocSpec
from repro.hw.trace import Trace
from repro.core.results import PrefillReport


@dataclass(frozen=True)
class PrefillSchedule:
    """The trace-derived part of a :class:`PrefillReport`.

    ``trace`` is frozen: a schedule may be shared between callers.
    """

    n_chunks: int
    chunk_len: int
    trace: Trace
    npu_busy_s: float
    float_busy_s: float
    npu_bubble_rate: float


def lower_prefill(
    plans: List[ChunkPlan],
    float_backend: str = "cpu",
    policy: str = "ooo",
    include_shadow: bool = True,
    shadow_backend: str = None,
) -> Tuple[List[Task], List[str], SchedulingPolicy]:
    """Lower ``plans`` to ``(tasks, processors, policy)``: the task
    graph, the processors in declaration order (NPU, float backend,
    shadow backend) and the resolved scheduling policy."""
    if not plans:
        raise EngineError("a prefill needs at least one chunk plan")
    tasks = build_task_graph(plans, float_proc=float_backend,
                             include_shadow=include_shadow,
                             shadow_proc=shadow_backend)
    processors = ["npu"]
    for proc in (float_backend, shadow_backend):
        if proc and proc not in processors:
            processors.append(proc)
    scheduling = policy if isinstance(policy, SchedulingPolicy) else get_policy(policy)
    return tasks, processors, scheduling


def simulate_prefill(
    plans: List[ChunkPlan],
    float_backend: str = "cpu",
    policy: str = "ooo",
    include_shadow: bool = True,
    shadow_backend: str = None,
) -> PrefillSchedule:
    """Lower ``plans`` to a task graph and simulate it."""
    tasks, processors, scheduling = lower_prefill(
        plans, float_backend=float_backend, policy=policy,
        include_shadow=include_shadow, shadow_backend=shadow_backend)
    trace = Simulator(processors).run(tasks, scheduling).freeze()
    return PrefillSchedule(
        n_chunks=len(plans),
        chunk_len=plans[0].chunk_len,
        trace=trace,
        npu_busy_s=trace.busy_seconds("npu"),
        float_busy_s=trace.busy_seconds(float_backend),
        npu_bubble_rate=trace.bubble_rate("npu"),
    )


def prefill_report(schedule: PrefillSchedule, prompt_tokens: int,
                   extra_latency_s: float = 0.0) -> PrefillReport:
    """The report of prefilling ``prompt_tokens`` with ``schedule``."""
    chunk_len = schedule.chunk_len
    return PrefillReport(
        prompt_tokens=prompt_tokens,
        padded_tokens=padded_tokens(prompt_tokens, chunk_len)
        if schedule.n_chunks * chunk_len >= prompt_tokens else 0,
        n_chunks=schedule.n_chunks,
        latency_s=schedule.trace.makespan_s + extra_latency_s,
        trace=schedule.trace,
        npu_busy_s=schedule.npu_busy_s,
        float_busy_s=schedule.float_busy_s,
        npu_bubble_rate=schedule.npu_bubble_rate,
    )


def run_prefill(
    plans: List[ChunkPlan],
    device: SocSpec,
    prompt_tokens: int,
    float_backend: str = "cpu",
    policy: str = "ooo",
    include_shadow: bool = True,
    extra_latency_s: float = 0.0,
    shadow_backend: str = None,
) -> PrefillReport:
    """Simulate the prefill of ``plans`` and summarize the trace.

    ``extra_latency_s`` is serial time added before execution (e.g. the
    per-prompt graph rebuild a naive engine pays).  ``shadow_backend``
    optionally runs the shadow MatMuls on a third processor.
    """
    if prompt_tokens <= 0:
        raise EngineError(f"prompt_tokens must be positive, got {prompt_tokens}")
    schedule = simulate_prefill(plans, float_backend=float_backend,
                                policy=policy, include_shadow=include_shadow,
                                shadow_backend=shadow_backend)
    return prefill_report(schedule, prompt_tokens, extra_latency_s)


class PrefillMemo:
    """Process-wide LRU memo of prefill schedules, keyed on content.

    A key is admitted on its **second** sighting: the first simulation
    of a shape is returned uncached and only remembered as seen, so a
    stream of one-off shapes (a cold design sweep) holds no traces.
    Admitted entries are evicted least-recently-used once their traces
    hold more than :attr:`MAX_EVENTS` events in total; the seen-once
    set keeps at most :attr:`MAX_SEEN` keys.  Both bounds are constants.
    """

    #: Total trace events held (~0.2 MiB per ~650-event trace).
    MAX_EVENTS = 16384
    #: Keys remembered as seen once, awaiting a second sighting.
    MAX_SEEN = 4096

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self._entries: "OrderedDict[Hashable, PrefillSchedule]" = OrderedDict()
        self._seen: "OrderedDict[Hashable, None]" = OrderedDict()
        self._events = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable,
               simulate: Callable[[], PrefillSchedule]
               ) -> Tuple[PrefillSchedule, bool]:
        """``(schedule, hit)``: the memoized schedule for ``key``, or a
        fresh ``simulate()`` (admitted if ``key`` was seen before)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry, True
        self.misses += 1
        schedule = simulate()
        size = len(schedule.trace.events)
        if key not in self._seen:
            self._seen[key] = None
            if len(self._seen) > self.MAX_SEEN:
                self._seen.popitem(last=False)
        elif size <= self.MAX_EVENTS:
            del self._seen[key]
            self._entries[key] = schedule
            self._events += size
            while self._events > self.MAX_EVENTS:
                old_key, old = self._entries.popitem(last=False)
                self._events -= len(old.trace.events)
                self._seen[old_key] = None  # re-admit on its next sighting
                self.evictions += 1
        return schedule, False

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries), "events": self._events,
                "evictions": self.evictions}


#: The memo :meth:`~repro.core.engine.LlmNpuEngine.prefill` consults.
PREFILL_MEMO = PrefillMemo()


def prefill_memo_stats() -> Dict[str, int]:
    """Process-wide prefill memo counters: ``hits``, ``misses`` (each a
    prefill simulation), ``entries``, ``events`` held, ``evictions``."""
    return PREFILL_MEMO.stats()


def clear_prefill_memo() -> None:
    """Drop every memoized schedule and reset the counters."""
    PREFILL_MEMO.clear()
