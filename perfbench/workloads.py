"""The benchmark's three workloads: inputs from a seed, one unit of work,
and the checks each unit's outputs must pass.

A *unit* is what one loop iteration runs; an *item* is what throughput
counts.  ``fleet`` runs a 12-device fleet per unit (an item is a
device), ``sweep`` one design point per unit, ``traced`` one golden
scenario per unit.  Every unit returns a digest of its simulated
outputs; simulated numbers are never reported as metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.engine import EngineConfig, LlmNpuEngine
from repro.eval.fleet import FLEET_SLOS, default_fleet, fleet_report
from repro.eval.service_eval import (
    batched_golden_service,
    service_golden_records,
)
from repro.hw.soc import DEVICES
from repro.model.config import PAPER_MODELS
from repro.obs import (
    WHATIF_TOL_S,
    MetricsRegistry,
    SloMonitor,
    StepLogger,
    Tracer,
    breakdown_requests,
    capture_engine_run,
    critpath_doc,
    diff_docs,
    explain_all,
    predict,
    request_critical_path,
    resimulate,
    service_timeline,
    speedup_from_spec,
    to_chrome_trace,
    validate_breakdowns,
    validate_critical_path,
    validate_diff,
    validate_explanations,
    validate_steps_doc,
    validate_timeline,
    validate_timeline_doc,
)

from perfbench.stats import min_items_for

#: ``span(name)`` returns a context manager timing benchmark-side work
#: (JSON encoding) in a traced pass, and a no-op otherwise.
SpanFn = Callable[[str], contextlib.AbstractContextManager]

#: ``mark()`` ends the current stretch of wall time and returns its
#: index (:meth:`perfbench.stats.Clock.mark`); a unit calls it when an
#: item ends, and the fleet also when a device starts.
MarkFn = Callable[[], int]


def no_span(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class CheckError(Exception):
    """An output failed one of the benchmark's own checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class UnitResult:
    """What one unit produced: the clock segment of each item, items
    failed, and a digest of the simulated outputs."""

    items: List[int]
    failed: int
    digest: str
    counters: Dict[str, int] = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _encode(doc, span: SpanFn) -> str:
    with span("serialize"):
        return json.dumps(doc, sort_keys=True, allow_nan=False)


# -- fleet --------------------------------------------------------------------

FLEET_DEVICES = 12     # four of each of the three device templates
FLEET_ROUNDS = 64      # fleets generated up front; reused if a run needs more


@dataclass(frozen=True)
class FleetRound:
    seed: int
    specs: tuple


class FleetWorkload:
    """``default_fleet`` (SplitMix seeds, Poisson arrivals) through
    ``fleet_report`` and JSON encoding, one 12-device fleet per unit.

    Its prefills repeat heavily (few distinct shapes per device and
    model), so a prefill memo or shared engine preparation shows here.
    """

    name = "fleet"
    min_items = min_items_for(75.0)
    prefix_units = 2

    def __init__(self, devices: int = FLEET_DEVICES) -> None:
        self.items_per_unit = devices

    def make_inputs(self, seed: int) -> List[FleetRound]:
        rng = random.Random(f"fleet/{seed}")
        rounds = []
        for _ in range(FLEET_ROUNDS):
            fleet_seed = rng.randrange(1 << 31)
            rounds.append(FleetRound(fleet_seed, default_fleet(
                self.items_per_unit, seed=fleet_seed)))
        return rounds

    def new_state(self) -> dict:
        return {}

    def run_unit(self, inputs: List[FleetRound], index: int, state: dict,
                 span: SpanFn, mark: MarkFn) -> UnitResult:
        fleet_round = inputs[index % len(inputs)]
        # Per-device wall time comes from the fleet's per-device work
        # unit; wrapping the module attribute is what fleet_report calls.
        fleet_mod = importlib.import_module("repro.eval.fleet")
        inner = fleet_mod._device_payload
        items: List[int] = []

        def timed(args):
            mark()
            try:
                return inner(args)
            finally:
                items.append(mark())

        fleet_mod._device_payload = timed
        try:
            report = fleet_report(specs=fleet_round.specs,
                                  seed=fleet_round.seed, workers=1)
        finally:
            fleet_mod._device_payload = inner
        text = _encode(report, span)
        failed = 0
        check(report["n_devices"] == len(fleet_round.specs),
              "fleet report lost devices")
        check(len(items) == len(fleet_round.specs),
              "fleet did not run every device once")
        validate_timeline_doc(report["alerts"])
        by_name = {spec.name: spec for spec in fleet_round.specs}
        for device in report["devices"]:
            spec = by_name[device["name"]]
            outcomes = (device["n_completed"] + device["n_rejected"]
                        + device["n_timeout"] + device["n_failed"])
            if (device["n_requests"] != spec.n_interactive
                    + spec.n_background or outcomes != device["n_requests"]):
                failed += 1
        return UnitResult(items, failed, _sha(text))


# -- sweep --------------------------------------------------------------------

#: The ``EngineConfig`` variants the sweep crosses with models and
#: devices; ``fifo`` is the only path into the simulator's FIFO fast path.
SWEEP_CONFIGS: Dict[str, EngineConfig] = {
    "default": EngineConfig(),
    "gpu": EngineConfig(float_backend="gpu"),
    "fifo": EngineConfig(policy="fifo"),
    "chunk128": EngineConfig(chunk_len=128),
}

#: Chunk slots every sweep engine prepares: ``EngineConfig.max_chunks``,
#: which every paper model's context admits at both chunk lengths.
SWEEP_MAX_CHUNKS = EngineConfig().max_chunks


@dataclass(frozen=True)
class DesignPoint:
    model: str
    device: str
    config: str
    reused_chunks: int
    n_chunks: int
    prompt_tokens: int
    cached_tokens: int
    output_tokens: int


class SweepWorkload:
    """A cold design sweep: paper models x devices x engine configs x
    seeded (prompt, cached) lengths, with a fresh engine per point.

    Each (model, device, config) draws its prefill shapes
    ``(reused_chunks, n_chunks)`` without replacement, so no shape
    repeats within a run: a shape memo has nothing to hit here.
    """

    name = "sweep"
    items_per_unit = 1
    min_items = min_items_for(95.0)
    prefix_units = 160     # the first 5 x 2 x 4 x 4 grid

    def make_inputs(self, seed: int) -> List[DesignPoint]:
        rng = random.Random(f"sweep/{seed}")
        combos = [(m, d, c) for m in PAPER_MODELS for d in DEVICES
                  for c in SWEEP_CONFIGS]
        shapes = [(r, n) for r in range(SWEEP_MAX_CHUNKS)
                  for n in range(1, SWEEP_MAX_CHUNKS - r + 1)]
        orders = [rng.sample(shapes, len(shapes)) for _ in combos]
        points = []
        for k in range(len(shapes)):
            for ci in rng.sample(range(len(combos)), len(combos)):
                model, device, config = combos[ci]
                reused, n = orders[ci][k]
                length = SWEEP_CONFIGS[config].chunk_len
                remainder = rng.randrange(length)
                prompt = rng.randint(max(1, (n - 1) * length + 1 - remainder),
                                     n * length - remainder)
                points.append(DesignPoint(
                    model, device, config, reused, n, prompt,
                    reused * length + remainder, rng.randint(1, 16)))
        return points

    def new_state(self) -> dict:
        return {}

    def run_unit(self, inputs: List[DesignPoint], index: int, state: dict,
                 span: SpanFn, mark: MarkFn) -> UnitResult:
        p = inputs[index % len(inputs)]
        engine = LlmNpuEngine(PAPER_MODELS[p.model], DEVICES[p.device],
                              SWEEP_CONFIGS[p.config])
        report = engine.infer(p.prompt_tokens, p.output_tokens,
                              cached_tokens=p.cached_tokens)
        prefill = report.prefill
        trace = prefill.trace
        check(prefill.n_chunks == p.n_chunks,
              f"point {index}: {prefill.n_chunks} chunks, "
              f"expected {p.n_chunks}")
        trace.validate_serial()
        check(prefill.latency_s == trace.makespan_s,
              f"point {index}: prefill latency is not the makespan")
        check(report.decode_latency_s > 0 and report.energy.total_j > 0,
              f"point {index}: empty decode or energy")
        line = (f"{p} {prefill.latency_s!r} {report.decode_latency_s!r} "
                f"{report.energy.total_j!r} {report.memory_bytes} "
                f"{len(trace.events)}")
        return UnitResult([mark()], 0, _sha(line))


# -- traced -------------------------------------------------------------------

WHATIF_MODEL = "Qwen1.5-1.8B"
WHATIF_DEVICE = "Redmi K70 Pro"
WHATIF_TAGS = ("sg1", "sg2", "sg3", "sg5", "shadow")
WHATIF_FACTORS = ("0.5", "2", "4")
TRACED_SCENARIOS = 256


@dataclass(frozen=True)
class Scenario:
    seed: int
    whatif_prompt_tokens: int
    whatif_output_tokens: int
    whatif_speedup: str


class TracedWorkload:
    """The golden two-tier service with every observer attached, then
    its artifacts: Perfetto export, critical paths, the batched run's
    breakdown and wait attribution, a verified what-if, and a diff
    against the previous scenario's critical paths.

    The batched run is reached only through its step log and
    breakdowns: its Perfetto timeline fails ``validate_timeline``
    (overlapping hardware events; see NOTES.md), so it is not exported.
    """

    name = "traced"
    items_per_unit = 1
    # A scenario takes over a second, so a run's ~20 scenarios support
    # only the median as the tail percentile.
    min_items = min_items_for(50.0)
    prefix_units = 8

    def make_inputs(self, seed: int) -> List[Scenario]:
        rng = random.Random(f"traced/{seed}")
        return [Scenario(rng.randrange(1 << 31), rng.randint(64, 2048),
                         rng.randint(1, 16),
                         f"{rng.choice(WHATIF_TAGS)}="
                         f"{rng.choice(WHATIF_FACTORS)}")
                for _ in range(TRACED_SCENARIOS)]

    def new_state(self) -> dict:
        return {"prev_critpath": None}

    def run_unit(self, inputs: List[Scenario], index: int, state: dict,
                 span: SpanFn, mark: MarkFn) -> UnitResult:
        sc = inputs[index % len(inputs)]
        parts = []
        tracer = Tracer()
        monitor = SloMonitor(FLEET_SLOS)
        steplog = StepLogger(source=f"golden-seed{sc.seed}")
        service = service_golden_records(
            seed=sc.seed, tracer=tracer, metrics=MetricsRegistry(),
            monitor=monitor, steplog=steplog)

        timeline = service_timeline(service)
        events = to_chrome_trace(timeline)
        validate_timeline(events)
        parts.append(_encode(events, span))
        steps = steplog.to_dict()
        validate_steps_doc(steps)
        parts.append(_encode(steps, span))
        alerts = monitor.timeline(source=f"golden-seed{sc.seed}")
        validate_timeline_doc(alerts)
        parts.append(_encode(alerts, span))
        parts.append(_encode(service.metrics_registry.snapshot(), span))

        backend = service.config.decode_backend
        paths = [request_critical_path(r, decode_backend=backend)
                 for r in service.requests
                 if r.status == "completed" and r.report is not None]
        for path in paths:
            validate_critical_path(path)
        critpath = critpath_doc(paths, source=f"golden seed={sc.seed}")
        parts.append(_encode(critpath, span))

        batched_log = StepLogger(source=f"golden-batched-seed{sc.seed}")
        batched = batched_golden_service(seed=sc.seed, steplog=batched_log)
        validate_breakdowns(breakdown_requests(batched.requests))
        batched_steps = batched_log.to_dict()
        validate_steps_doc(batched_steps)
        validate_explanations(explain_all(batched_steps))
        parts.append(_encode(batched_steps, span))

        engine = LlmNpuEngine.build(WHATIF_MODEL, WHATIF_DEVICE)
        run = capture_engine_run(engine, sc.whatif_prompt_tokens,
                                 output_tokens=sc.whatif_output_tokens)
        perturbation = [speedup_from_spec(sc.whatif_speedup)]
        predicted = predict(run, perturbation).predicted
        truth = resimulate(run, perturbation)
        error = max(abs(predicted.ttft_s - truth.ttft_s),
                    abs(predicted.itl_s - truth.itl_s),
                    abs(predicted.e2e_s - truth.e2e_s))
        check(error <= WHATIF_TOL_S,
              f"scenario {index}: what-if off by {error:.3e} s")
        parts.append(f"{predicted!r} {truth!r}")

        prev = state["prev_critpath"]
        if prev is not None:
            diff = diff_docs(prev, critpath)
            validate_diff(diff)
            parts.append(_encode(diff, span))
        state["prev_critpath"] = critpath

        return UnitResult(
            [mark()], 0, _sha("\n".join(parts)),
            {"obs.tracer.spans": len(tracer.events) + len(timeline.events)})


WORKLOADS = {w.name: w for w in (FleetWorkload(), SweepWorkload(),
                                 TracedWorkload())}
