"""The benchmark's own tests: the span fold, the tail rule, the wrapper
installation, and tiny runs of each workload traced and untraced.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import re
import sys
import time
import types

import pytest

from perfbench import layers, spans, stats
from perfbench.run import Pass
from perfbench.workloads import (
    FleetWorkload,
    SweepWorkload,
    TracedWorkload,
    no_span,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_units(workload, units, span=no_span, seed=3):
    inputs = workload.make_inputs(seed)
    return Pass(workload, inputs, span).run(
        lambda p: len(p.unit_digests) >= units)


def traced_units(workload, units, seed=3):
    recorder = spans.SpanRecorder()
    patches = spans.install(recorder, layers.TARGETS)
    try:
        done = run_units(workload, units, recorder.span, seed)
    finally:
        spans.uninstall(patches)
    return done, recorder


# -- self-time fold -----------------------------------------------------------


def test_self_time_fold_on_hand_built_tree():
    #   A [0,100]  ── B [10,40] ── D [15,20]
    #              └─ C [50,60]
    #   E [120,150]              window [0, 200]
    rec = spans.SpanRecorder()
    rows = [("A", 0, 100, -1), ("B", 10, 40, 0), ("D", 15, 20, 1),
            ("C", 50, 60, 0), ("E", 120, 150, -1)]
    for name, start, end, parent in rows:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    folded = spans.fold(rec, [(0, 110), (110, 200)])
    assert folded.self_ns == {"A": 60, "B": 25, "D": 5, "C": 10, "E": 30}
    assert folded.calls == {"A": 1, "B": 1, "D": 1, "C": 1, "E": 1}
    assert folded.unattributed_ns == 70
    assert folded.conservation_error_ns == 0


def test_self_time_merges_overlapping_children():
    # Children [10,40] and [30,60] cover 50 of the parent, not 60; a
    # child sticking out of its parent is clipped to it.
    self_ns = spans.self_times([0, 10, 30, 90], [100, 40, 60, 130],
                               [-1, 0, 0, 0])
    assert self_ns[0] == 100 - 50 - 10


def test_recorded_spans_nest_and_conserve():
    rec = spans.SpanRecorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = rec.wrap("leaf", leaf)

    def outer(n):
        return sum(wrapped_leaf(i) for i in range(n))

    wrapped_outer = rec.wrap("outer", outer)
    t0 = time.perf_counter_ns()
    assert wrapped_outer(5) == 15
    with rec.span("block"):
        wrapped_leaf(1)
    t1 = time.perf_counter_ns()
    assert rec.names == ["outer"] + ["leaf"] * 5 + ["block", "leaf"]
    assert rec.parents == [-1, 0, 0, 0, 0, 0, -1, 6]
    folded = spans.fold(rec, [(t0, t1)])
    assert folded.calls == {"outer": 1, "leaf": 6, "block": 1}
    assert folded.conservation_error_ns == 0
    assert all(v >= 0 for v in folded.self_ns.values())


# -- wrapper installation -----------------------------------------------------


def test_install_wraps_every_binding_and_uninstall_restores():
    def public(x):
        return 2 * x

    class Thing:
        def method(self, x):
            return x + 1

    home = types.ModuleType("pbfake.home")
    home.public = public
    home.Thing = Thing
    user = types.ModuleType("pbfake.user")
    user.public = public      # ``from pbfake.home import public``
    user.alias = public       # imported under another name
    package = types.ModuleType("pbfake")
    package.home = public     # a re-export shadowing the submodule name
    method = vars(Thing)["method"]
    sys.modules.update({"pbfake": package, "pbfake.home": home,
                        "pbfake.user": user})
    try:
        rec = spans.SpanRecorder()
        targets = [spans.Target("fake.public", "pbfake.home", "public"),
                   spans.Target("fake.method", "pbfake.home",
                                "Thing.method")]
        patches = spans.install(rec, targets, packages=("pbfake",))
        assert home.public(1) + user.public(1) + user.alias(1) \
            + package.home(1) == 8
        assert Thing().method(1) == 2
        assert rec.names == ["fake.public"] * 4 + ["fake.method"]
        spans.uninstall(patches)
        for binding in (home.public, user.public, user.alias,
                        package.home):
            assert binding is public
        assert vars(Thing)["method"] is method
    finally:
        for name in ("pbfake", "pbfake.home", "pbfake.user"):
            sys.modules.pop(name, None)


def test_every_target_resolves_and_belongs_to_a_layer():
    import repro.eval  # noqa: F401  (loads every module a target names)
    for target in layers.TARGETS:
        owner, attr, original = spans._resolve(target)
        assert callable(original), target
        assert layers.layer_of(target.name) in layers.LAYERS


# -- tail rule ----------------------------------------------------------------


@pytest.mark.parametrize("n, q", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q
    assert n * (1 - q / 100) >= 10 - 1e-9


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)
    assert stats.min_items_for(75.0) == 40
    assert stats.min_items_for(95.0) == 200


def test_percentile_interpolates():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50.5
    assert stats.percentile(samples, 0) == 1
    assert stats.percentile(samples, 100) == 100
    assert stats.summarize([5.0] * 40) == (5.0, 5.0, 75.0)


# -- workloads ----------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    for workload in (FleetWorkload(devices=3), SweepWorkload(),
                     TracedWorkload()):
        assert workload.make_inputs(5) == workload.make_inputs(5)
        assert workload.make_inputs(5) != workload.make_inputs(6)


def test_sweep_shapes_are_distinct_and_as_drawn():
    points = SweepWorkload().make_inputs(11)
    keys = [(p.model, p.device, p.config, p.reused_chunks, p.n_chunks)
            for p in points]
    assert len(set(keys)) == len(keys) == 5 * 2 * 4 * 36
    for p in points:
        length = 128 if p.config == "chunk128" else 256
        assert p.cached_tokens // length == p.reused_chunks
        rem = p.cached_tokens % length
        assert -(-(p.prompt_tokens + rem) // length) == p.n_chunks


@pytest.mark.parametrize("workload, units", [
    (FleetWorkload(devices=3), 1),
    (SweepWorkload(), 6),
    (TracedWorkload(), 2),
])
def test_tiny_run_passes_checks_and_tracing_keeps_the_digest(workload,
                                                              units):
    plain = run_units(workload, units)
    assert plain.failed == 0 and plain.attempted == len(plain.items)
    assert plain.attempted == units * workload.items_per_unit
    assert run_units(workload, units).digest(units) == plain.digest(units)
    traced, rec = traced_units(workload, units)
    assert traced.failed == 0
    assert traced.digest(units) == plain.digest(units)
    calls = spans.fold(rec, [(0, max(rec.ends))]).calls
    assert calls["hw.sim.run"] > 0 and rec.counters["hw.sim.events"] > 0
    assert calls["core.engine.prefill"] > 0


def test_uninstall_restores_the_program():
    import repro.core.dependency as dependency
    import repro.core.pipeline as pipeline
    from repro.hw.sim import Simulator
    original_run = vars(Simulator)["run"]
    traced_units(SweepWorkload(), 1)
    assert pipeline.build_task_graph is dependency.build_task_graph
    assert not hasattr(dependency.build_task_graph, "__wrapped__")
    assert vars(Simulator)["run"] is original_run


def test_prefill_repeats_show_on_fleet_and_not_on_sweep():
    def repeat_ratio(workload, units):
        done, rec = traced_units(workload, units)
        folded = spans.fold(rec, [(min(rec.starts), max(rec.ends))])
        values = layers.layer_metrics(folded, rec, len(done.items),
                                      {"hits": 0, "misses": 0}, 0.0)
        return values["core.engine.prefill.repeat_ratio"]

    assert repeat_ratio(FleetWorkload(devices=6), 1) > 0.9
    assert repeat_ratio(SweepWorkload(), 8) == 0.0


# -- the contract -------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == layers.METRICS
    assert len(per_layer) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    assert {w["name"] for w in bench["workloads"]} == {
        "fleet", "sweep", "traced"}


# -- known defect -------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="batched service timelines overlap "
                   "on the hardware tracks (open defect, see NOTES.md)")
def test_batched_service_timeline_validates():
    from repro.eval.service_eval import batched_golden_service
    from repro.obs import (Tracer, service_timeline, to_chrome_trace,
                           validate_timeline)
    service = batched_golden_service(seed=42, tracer=Tracer())
    validate_timeline(to_chrome_trace(service_timeline(service)))
