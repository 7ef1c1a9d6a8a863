#!/usr/bin/env bash
# Determinism tripwire for the service scheduler: serve the golden
# two-tier workload (with seeded fault injection) twice in separate
# interpreter processes and require byte-identical reports.  Catches any
# nondeterminism that leaks into admission decisions, queue order,
# retry timing, or the underlying simulator (hash-order iteration,
# wall-clock reads, unseeded RNG...).
#
# The same pairing is applied to the *unified observability trace*: the
# merged service+hardware Perfetto export must also be byte-identical —
# the tracer stamps only sim-clock times and the exporter's pid/tid
# mapping and event order are sorted, so any diff means wall-clock or
# hash-order leakage into the observability layer.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# same A B MESSAGE: fail with MESSAGE unless files A and B are
# byte-identical.
same() {
    if ! cmp -s "$1" "$2"; then
        diff -u "$1" "$2" | head -n 40 >&2 || true
        echo "FAIL: $3" >&2
        exit 1
    fi
}

# twice NAME WHAT CODE: run CODE in two fresh interpreters, writing
# $tmp/NAME and $tmp/NAME.again, and require byte-identical output.
twice() {
    python -c "$3" > "$tmp/$1"
    python -c "$3" > "$tmp/$1.again"
    same "$tmp/$1" "$tmp/$1.again" "consecutive $2 differ"
}

twice snapshot "golden service runs" \
    'from repro.eval import service_golden_snapshot
print(service_golden_snapshot(seed=42))'
echo "OK: golden service report is byte-identical across runs" \
     "($(wc -l < "$tmp/snapshot") lines)"

twice trace "golden trace exports" \
    'from repro.eval import service_golden_trace
print(service_golden_trace(seed=42))'
echo "OK: golden unified trace is byte-identical across runs" \
     "($(wc -c < "$tmp/trace") bytes)"

# The profile report (repro.profile/v1) carries no timestamps and no
# environment capture, so the full attribution — busy/idle seconds,
# idle-cause classification, roofline numerators, per-event energy,
# flamegraph weights — must also serialize to identical bytes.
twice profile "golden profile reports" \
    'from repro.eval import golden_profile_json
print(golden_profile_json(seed=42))'
python scripts/check_trace_schema.py "$tmp/profile"
echo "OK: golden profile report is byte-identical across runs" \
     "($(wc -c < "$tmp/profile") bytes)"

# The fleet SLO report (repro.fleet/v1) rolls per-device monitors into
# merged quantile sketches, compliance counts, and burn-rate incident
# timelines — all sim-clock-stamped, so it too must be a pure function
# of the seed.
twice fleet "fleet SLO reports" \
    'from repro.eval import fleet_golden_json
print(fleet_golden_json(seed=42))'
python scripts/check_trace_schema.py "$tmp/fleet"
echo "OK: fleet SLO report is byte-identical across runs" \
     "($(wc -c < "$tmp/fleet") bytes)"

# Step-loop equivalence: the degenerate batching config (unbounded
# batch, concurrency 1) must route through the per-request path and
# reproduce the golden snapshot, trace, and profile byte-for-byte —
# the regression gate for the continuous-batching refactor.
for kind in snapshot trace profile; do
    case $kind in
        snapshot) fn=service_golden_snapshot ;;
        trace) fn=service_golden_trace ;;
        profile) fn=golden_profile_json ;;
    esac
    python -c "from repro.core import BatchConfig
from repro.eval import $fn
print($fn(seed=42, batching=BatchConfig(max_concurrency=1)))" \
        > "$tmp/seq.$kind"
    same "$tmp/$kind" "$tmp/seq.$kind" \
        "sequential batching config diverges from the per-request golden $kind"
done
echo "OK: sequential batching config reproduces the per-request" \
     "golden snapshot, trace, and profile byte-for-byte"

# The step loop proper is deterministic too: the batching snapshot
# (per-request timings + per-step batch digests + goodput) at two knob
# settings must be byte-identical across independent processes.
for p in 0.0 1.0; do
    twice "batching.$p" "step-loop runs (prefill_priority=$p)" \
        "from repro.eval import service_batching_golden_snapshot
print(service_batching_golden_snapshot(seed=42, prefill_priority=$p))"
    echo "OK: step-loop batching snapshot is byte-identical across" \
         "runs (prefill_priority=$p, $(wc -l < "$tmp/batching.$p") lines)"
done

# The scheduler step log (repro.steps/v1) — queue snapshots, typed
# decisions, embedded breakdowns — is itself a golden artifact: two
# independent evaluations must serialize to identical bytes, and the
# schema checker must accept it.
twice steps "golden step logs" \
    'from repro.eval import golden_steplog_json
print(golden_steplog_json(seed=42, batched=True))'
python scripts/check_trace_schema.py "$tmp/steps"
echo "OK: golden step log is byte-identical across runs" \
     "($(wc -c < "$tmp/steps") bytes)"

# Observation is a no-op: the golden snapshot with a StepLogger
# attached (decision emission enabled) must equal the unobserved one
# byte-for-byte.
python -c 'from repro.eval import service_golden_snapshot
from repro.obs import StepLogger
print(service_golden_snapshot(seed=42, steplog=StepLogger()))' \
    > "$tmp/observed"
same "$tmp/snapshot" "$tmp/observed" \
    "attaching a StepLogger changed the golden snapshot (observation must be a no-op)"
echo "OK: golden snapshot is unchanged with step logging attached" \
     "(observation is a no-op)"

# The parallel fleet fan-out is pure plumbing: fanning the per-device
# pipelines across a worker pool (and any submission order of the same
# specs) must reproduce the sequential report byte-for-byte, on both
# the legacy 3-device golden and a splitmix-seeded fleet.
python -c 'from repro.eval import fleet_golden_json
print(fleet_golden_json(seed=42, workers=4))' > "$tmp/fleet.parallel"
same "$tmp/fleet" "$tmp/fleet.parallel" \
    "parallel fleet report (workers=4) differs from sequential"
for workers in 1 3; do
    python -c "import json
from repro.eval import default_fleet, fleet_report
specs = default_fleet(n_devices=4, seed=42)
print(json.dumps(fleet_report(specs=specs, seed=42, workers=$workers)))" \
        > "$tmp/splitmix.$workers"
done
same "$tmp/splitmix.1" "$tmp/splitmix.3" \
    "splitmix fleet report changes with worker count"
echo "OK: parallel fleet fan-out is byte-identical to sequential" \
     "(legacy golden workers=4, splitmix workers=3)"

# The critical-path document (repro.critpath/v1) is derived purely
# from the golden workload's simulated timelines plus the service-side
# queueing facts, so it too must be a pure function of the seed — and
# the schema checker enforces per-path conservation (sum of waits +
# durations == e2e within 1e-9 s) on it.
twice critpath "golden critical-path documents" \
    'from repro.eval import golden_critpath_json
print(golden_critpath_json(seed=42))'
python scripts/check_trace_schema.py "$tmp/critpath"
echo "OK: golden critical-path document is byte-identical across runs" \
     "($(wc -c < "$tmp/critpath") bytes)"

# What-if predictions are simulator runs on the perturbed DAG, so check
# them against independent measurements: the captured baseline equals
# the engine's own inference, and a serial-DMA prediction equals the
# rebuilt engine's prefill within 1e-9 s.
python -c '
from repro.core.engine import LlmNpuEngine
from repro.hw.dma import DmaConfig
from repro.obs import (WHATIF_TOL_S, capture_engine_run,
                       dma_overlap_perturbation, predict)

engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
run = capture_engine_run(engine, 512, output_tokens=4)
report = engine.infer(512, output_tokens=4)
baseline = predict(run, []).baseline
assert baseline.ttft_s == report.ttft_s, (baseline, report.ttft_s)
assert baseline.e2e_s == report.e2e_latency_s, \
    (baseline, report.e2e_latency_s)
pert, clone = dma_overlap_perturbation(engine, 512, DmaConfig(buffers=1))
predicted = predict(run, [pert]).predicted.ttft_s
measured = clone.prefill(512).latency_s
assert abs(predicted - measured) <= WHATIF_TOL_S, (predicted, measured)
print("OK: what-if baseline equals engine.infer, and the serial-DMA",
      "prediction matches the rebuilt engine within", WHATIF_TOL_S, "s")
'

# The vectorized simulator fast path must make exactly the choices of
# the kept-verbatim reference implementation on the self-benchmark
# graphs (the speedup suite's correctness precondition).
python -c '
from repro.eval.simbench import SIM_SCENARIOS, synthetic_task_graph
from repro.hw.sim import FifoPolicy, ReferenceSimulator, Simulator

for scenario in SIM_SCENARIOS:
    procs, tasks = synthetic_task_graph(scenario)
    fast = Simulator(procs).run(tasks, FifoPolicy())
    ref = ReferenceSimulator(procs).run(tasks, FifoPolicy())
    assert fast.events == ref.events, scenario.name
print("OK: vectorized simulator matches the reference on",
      len(SIM_SCENARIOS), "benchmark graph shapes")
'

# The run-to-run diff layer (repro.diff/v1): diffing a run against
# itself must come back identical; the injected-slowdown golden pair
# must be a pure function of its arguments, rank exactly the injected
# operator as the top contributor, and telescope its per-segment deltas
# to the observed e2e delta (the schema checker enforces the residual
# bound per aligned request).
twice diff "injected-slowdown diffs" \
    'from repro.eval import golden_diff_json
print(golden_diff_json())'
python scripts/check_trace_schema.py "$tmp/diff"
python -c '
import json, sys
from repro.eval import INJECTED_TAG, injected_slowdown_docs
from repro.obs import diff_docs

doc = json.load(open(sys.argv[1]))
top = doc["top_contributors"][0]
assert top["tag"] == INJECTED_TAG, \
    f"top contributor is {top['\''tag'\'']!r}, not the injected {INJECTED_TAG!r}"
assert doc["e2e"]["delta_s"] > 0.0
worst = max(abs(r["residual_s"]) for r in doc["requests"])
assert worst <= doc["tol_s"], worst
base_doc, _ = injected_slowdown_docs()
self_doc = diff_docs(base_doc, base_doc)
assert self_doc["identical"], "self-diff is not identical"
assert self_doc["e2e"]["delta_s"] == 0.0
print(f"OK: injected slowdown attributes to {INJECTED_TAG!r} "
      f"(+{top['\''delta_s'\'']*1e3:.1f} ms, worst residual {worst:.3e} s) "
      f"and the self-diff is empty")
' "$tmp/diff"
echo "OK: injected-slowdown diff is byte-identical across runs" \
     "($(wc -c < "$tmp/diff") bytes)"

# The prefill memo is process-wide, so a run's artifacts must not
# depend on what the interpreter simulated before.  Warm the memo with a
# fleet of a different seed, then emit the golden service snapshot and
# critical-path document in that same interpreter: both must equal the
# cold outputs above byte-for-byte.
python -c '
import sys
from repro.core.pipeline import prefill_memo_stats
from repro.eval import (default_fleet, fleet_report, golden_critpath_json,
                        service_golden_snapshot)

fleet_report(specs=default_fleet(12, seed=7), seed=7)
warm = prefill_memo_stats()
assert warm["entries"] > 0, warm
with open(sys.argv[1], "w") as f:
    print(service_golden_snapshot(seed=42), file=f)
with open(sys.argv[2], "w") as f:
    print(golden_critpath_json(seed=42), file=f)
assert prefill_memo_stats()["hits"] > warm["hits"], "memo never hit"
' "$tmp/warm.snapshot" "$tmp/warm.critpath"
same "$tmp/snapshot" "$tmp/warm.snapshot" \
    "golden snapshot differs after warming the prefill memo"
same "$tmp/critpath" "$tmp/warm.critpath" \
    "golden critical-path document differs after warming the prefill memo"
echo "OK: golden snapshot and critical-path document are byte-identical" \
     "with a warm prefill memo"
