"""The vectorized simulator fast path vs the reference implementation.

``Simulator.run`` dispatches FIFO workloads through a batched,
heap-indexed fast path and everything else through the generic loop with
O(1) dependency bookkeeping; :class:`ReferenceSimulator` keeps the
original per-event implementation verbatim.  These tests pin the only
property that makes the speedup legitimate: *every* policy, on *every*
graph shape, produces a byte-identical trace from both simulators —
including error paths.
"""

import numpy as np
import pytest

from repro.core.scheduler import (
    ChunkOrderPolicy,
    HeadOfLinePolicy,
    LatencyGreedyPolicy,
    NormalizedOooPolicy,
    OutOfOrderPolicy,
)
from repro.errors import DependencyError
from repro.eval.simbench import SIM_SCENARIOS, synthetic_task_graph
from repro.hw.sim import FifoPolicy, ReferenceSimulator, Simulator, Task

POLICIES = [
    FifoPolicy,
    OutOfOrderPolicy,
    NormalizedOooPolicy,
    LatencyGreedyPolicy,
    ChunkOrderPolicy,
    HeadOfLinePolicy,
]

PROCS = ["cpu", "npu", "dsp"]


def random_graph(seed: int, n_tasks: int = 60):
    """A random dependency DAG with policy-relevant tags and durations."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        n_deps = int(rng.integers(0, min(i, 3) + 1)) if i else 0
        deps = tuple(sorted({
            f"t{int(j)}" for j in rng.integers(0, i, size=n_deps)
        })) if n_deps else ()
        tasks.append(Task(
            task_id=f"t{i}",
            proc=PROCS[int(rng.integers(0, len(PROCS)))],
            duration_s=float(rng.choice(
                [0.0, 1e-4, 1e-4, rng.uniform(1e-5, 2e-3)]
            )),
            deps=deps,
            tag=f"tag{i % 4}",
            chunk=int(rng.integers(0, 4)),
            subgraph=int(rng.integers(0, 6)),
            ops=float(rng.integers(0, 1000)),
        ))
    return tasks


class TestTraceEquivalence:
    @pytest.mark.parametrize("policy_cls", POLICIES,
                             ids=lambda p: p.__name__)
    def test_random_graphs_match_reference(self, policy_cls):
        for seed in range(10):
            tasks = random_graph(seed)
            fast = Simulator(PROCS).run(tasks, policy_cls())
            ref = ReferenceSimulator(PROCS).run(tasks, policy_cls())
            assert fast.events == ref.events, (
                f"{policy_cls.__name__} diverged on graph seed {seed}"
            )

    @pytest.mark.parametrize("scenario", SIM_SCENARIOS,
                             ids=lambda s: s.name)
    def test_benchmark_scenarios_match_reference(self, scenario):
        # The exact graphs the self-benchmark times must also agree —
        # the measured speedup is meaningless otherwise.
        procs, tasks = synthetic_task_graph(scenario)
        fast = Simulator(procs).run(tasks, FifoPolicy())
        ref = ReferenceSimulator(procs).run(tasks, FifoPolicy())
        assert fast.events == ref.events

    def test_captured_whatif_dag_matches_reference(self):
        # The engine-shaped DAG the what-if estimator simulates: ooo
        # policy, a decode chain on the prefill sinks, and a stage
        # reassigned to a processor the capture did not declare.
        from repro.core import LlmNpuEngine
        from repro.obs import (ProcessorReassign, capture_engine_run,
                               perturb_tasks)
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
        run = capture_engine_run(engine, 512, output_tokens=4)
        tasks = list(perturb_tasks(
            run, [ProcessorReassign("sg2.float", "gpu")]))
        procs = list(run.processors) + ["gpu"]
        assert "decode" in {t.tag for t in tasks}
        assert "gpu" not in run.processors
        fast = Simulator(procs).run(tasks, OutOfOrderPolicy())
        ref = ReferenceSimulator(procs).run(tasks, OutOfOrderPolicy())
        assert fast.events == ref.events

    def test_duplicate_duration_co_terminators(self):
        # Many tasks finishing at the same instant exercises the
        # co-terminator drain order on both paths.
        tasks = [Task(f"t{i}", PROCS[i % 3], 1e-3) for i in range(12)]
        tasks += [Task(f"d{i}", PROCS[i % 3], 1e-3,
                       deps=(f"t{i}", f"t{(i + 1) % 12}"))
                  for i in range(12)]
        fast = Simulator(PROCS).run(tasks, FifoPolicy())
        ref = ReferenceSimulator(PROCS).run(tasks, FifoPolicy())
        assert fast.events == ref.events

    def test_duplicate_deps_tuple(self):
        # deps with repeats hit the dup_deps recount fallback in the
        # generic path's O(1) bookkeeping.
        tasks = [
            Task("a", "cpu", 1e-4),
            Task("b", "npu", 1e-4, deps=("a", "a")),
            Task("c", "cpu", 1e-4, deps=("b", "a", "b")),
        ]
        for policy_cls in (FifoPolicy, OutOfOrderPolicy):
            fast = Simulator(PROCS).run(tasks, policy_cls())
            ref = ReferenceSimulator(PROCS).run(tasks, policy_cls())
            assert fast.events == ref.events


class TestFastPathGate:
    def test_fifo_subclass_uses_generic_path(self):
        # A FifoPolicy *subclass* may override select; the exact-type
        # gate must route it through the generic path so the override is
        # honored.
        class LifoPolicy(FifoPolicy):
            def select(self, proc, ready, context):
                return max(ready,
                           key=lambda t: context.submit_index[t.task_id])

        tasks = [Task(f"t{i}", "cpu", 1e-4) for i in range(6)]
        lifo = Simulator(["cpu"]).run(tasks, LifoPolicy())
        fifo = Simulator(["cpu"]).run(tasks, FifoPolicy())
        assert [e.task_id for e in lifo.events] == [
            f"t{i}" for i in reversed(range(6))
        ]
        assert [e.task_id for e in fifo.events] == [
            f"t{i}" for i in range(6)
        ]
        # and the subclass still matches the reference simulator
        ref = ReferenceSimulator(["cpu"]).run(tasks, LifoPolicy())
        assert lifo.events == ref.events


class TestErrorParity:
    @pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator],
                             ids=["fast", "reference"])
    def test_unknown_processor(self, sim_cls):
        with pytest.raises(DependencyError, match="unknown processor"):
            sim_cls(["cpu"]).run([Task("a", "gpu", 1.0)], FifoPolicy())

    @pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator],
                             ids=["fast", "reference"])
    def test_unknown_dependency(self, sim_cls):
        with pytest.raises(DependencyError, match="unknown dependency"):
            sim_cls(["cpu"]).run(
                [Task("a", "cpu", 1.0, deps=("ghost",))], FifoPolicy()
            )

    @pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator],
                             ids=["fast", "reference"])
    def test_cyclic_deadlock(self, sim_cls):
        tasks = [
            Task("a", "cpu", 1.0, deps=("b",)),
            Task("b", "cpu", 1.0, deps=("a",)),
        ]
        with pytest.raises(DependencyError, match="deadlock"):
            sim_cls(["cpu"]).run(tasks, FifoPolicy())
