"""What-if estimator: capture fidelity and perturbation semantics.

A prediction is a :class:`~repro.hw.sim.Simulator` run on the perturbed
DAG, so these tests check it against what the simulator cannot assert
about itself: the unperturbed run reproduces the engine's own reported
latencies, a DMA prediction matches a rebuilt engine's prefill, and
each perturbation class moves the metrics it should, in the direction
it should.
"""

import pytest

from repro.core import LlmNpuEngine
from repro.hw.dma import DmaConfig
from repro.hw.sim import Task
from repro.obs import (
    WHATIF_TOL_S,
    DmaOverlap,
    OperatorSpeedup,
    ProcessorReassign,
    WhatIfError,
    capture_engine_run,
    dma_overlap_perturbation,
    predict,
    reassign_from_spec,
    speedup_from_spec,
)


@pytest.fixture(scope="module")
def engine():
    return LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")


@pytest.fixture(scope="module")
def run(engine):
    return capture_engine_run(engine, 512, output_tokens=4)


class TestCapture:
    def test_baseline_replay_matches_engine_report(self, engine, run):
        report = engine.infer(512, output_tokens=4)
        baseline = predict(run, []).baseline
        assert baseline.ttft_s == report.ttft_s
        assert baseline.e2e_s == report.e2e_latency_s

    def test_capture_rejects_bad_token_counts(self, engine):
        with pytest.raises(WhatIfError, match="positive"):
            capture_engine_run(engine, 0)
        with pytest.raises(WhatIfError, match="non-negative"):
            capture_engine_run(engine, 128, output_tokens=-1)

    def test_decode_chain_rides_on_prefill_sinks(self, run):
        decode = [t for t in run.tasks if t.tag == "decode"]
        assert len(decode) == 4
        # t0 gates on prefill, each later token on its predecessor
        assert all(d in run.prefill_ids for d in decode[0].deps)
        assert decode[1].deps == ("decode.t0",)


class TestPerturbationClasses:
    def test_operator_speedup_agrees_with_resimulation(self, run):
        perts = [OperatorSpeedup("sg1", 2.0)]
        report = predict(run, perts)
        assert report.predicted.ttft_s < report.baseline.ttft_s
        # a prefill operator leaves the decode chain alone
        assert abs(report.itl_delta_s) <= WHATIF_TOL_S

    def test_processor_reassign_agrees_with_resimulation(self, run):
        # attention moves off the busy CPU onto the idle GPU
        report = predict(run, [ProcessorReassign("sg2.float", "gpu")])
        assert report.predicted.ttft_s < report.baseline.ttft_s
        assert abs(report.itl_delta_s) <= WHATIF_TOL_S
        # reassigning a stage to the processor it already runs on is a
        # pure no-op
        same = predict(run, [ProcessorReassign("sg2.float", "cpu")])
        assert same.predicted == same.baseline

    def test_dma_overlap_agrees_with_resimulation(self, engine, run):
        pert, clone = dma_overlap_perturbation(
            engine, 512, DmaConfig(buffers=1))
        report = predict(run, [pert])
        # serial streaming can only slow the NPU stages down
        assert report.predicted.ttft_s >= report.baseline.ttft_s
        # and the prediction matches the rebuilt engine's measurement
        measured = clone.prefill(512).latency_s
        assert abs(report.predicted.ttft_s - measured) <= WHATIF_TOL_S

    def test_stacked_perturbations_agree(self, run):
        perts = [OperatorSpeedup("decode", 1.5),
                 ProcessorReassign("sg4.float", "gpu"),
                 OperatorSpeedup("sg5", 2.0)]
        report = predict(run, perts)
        # perturbations of disjoint tags commute
        assert predict(run, perts[::-1]).predicted == report.predicted
        assert report.predicted.ttft_s < report.baseline.ttft_s
        # the serial decode chain scales exactly with its speedup
        assert abs(report.predicted.itl_s
                   - report.baseline.itl_s / 1.5) <= WHATIF_TOL_S

    def test_decode_speedup_moves_itl_not_ttft(self, run):
        report = predict(run, [OperatorSpeedup("decode", 2.0)])
        assert report.predicted.itl_s < report.baseline.itl_s
        assert report.predicted.ttft_s == report.baseline.ttft_s


class TestPerturbationSemantics:
    def test_tag_match_is_exact_or_dotted_prefix(self):
        task = Task(task_id="t", proc="npu", duration_s=1.0,
                    tag="sg1.float")
        assert OperatorSpeedup("sg1", 2.0).apply(task).duration_s == 0.5
        assert OperatorSpeedup("sg1.float", 2.0).apply(task) \
            .duration_s == 0.5
        # no prefix match without the dot boundary: sg1 != sg10
        other = Task(task_id="u", proc="npu", duration_s=1.0, tag="sg10")
        assert OperatorSpeedup("sg1", 2.0).apply(other).duration_s == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WhatIfError, match="target processor"):
            ProcessorReassign("sg1", "")
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(WhatIfError, match="finite and positive"):
                OperatorSpeedup("sg1", bad)
            with pytest.raises(WhatIfError, match="finite and positive"):
                ProcessorReassign("sg1", "gpu", duration_scale=bad)

    def test_dma_overlap_is_id_matched(self):
        pert = DmaOverlap(durations={"a": 0.25})
        hit = Task(task_id="a", proc="npu", duration_s=1.0)
        miss = Task(task_id="b", proc="npu", duration_s=1.0)
        assert pert.apply(hit).duration_s == 0.25
        assert pert.apply(miss).duration_s == 1.0


class TestSpecParsing:
    def test_speedup_spec(self):
        pert = speedup_from_spec("sg1=2")
        assert pert.tag == "sg1" and pert.factor == 2.0
        for bad in ("sg1", "=2", "sg1=fast"):
            with pytest.raises(WhatIfError):
                speedup_from_spec(bad)

    def test_reassign_spec(self):
        pert = reassign_from_spec("sg2=gpu")
        assert (pert.tag, pert.proc, pert.duration_scale) == \
            ("sg2", "gpu", 1.0)
        scaled = reassign_from_spec("sg2=npu*0.5")
        assert scaled.proc == "npu" and scaled.duration_scale == 0.5
        for bad in ("sg2", "sg2=", "sg2=gpu*slow"):
            with pytest.raises(WhatIfError):
                reassign_from_spec(bad)
