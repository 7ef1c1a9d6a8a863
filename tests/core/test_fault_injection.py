"""Fault injection, typed engine errors, and retry-with-backoff."""

import pytest

from repro.core import (
    FAULT_ATTEMPT_FRACTION,
    BatchConfig,
    EngineConfig,
    LlmNpuEngine,
    LlmService,
    TierPolicy,
)
from repro.errors import (
    EngineError,
    PermanentEngineError,
    SchedulingError,
    TransientEngineError,
)
from repro.hw.sim import FaultInjector, FaultSpec

MODEL = "Qwen1.5-1.8B"
DEVICE = "Redmi K70 Pro"


class TestFaultInjector:
    def test_scripted_draws(self):
        inj = FaultInjector(FaultSpec(script=("transient", None,
                                              "permanent")))
        assert inj.draw() == "transient"
        assert inj.draw() is None
        assert inj.draw() == "permanent"
        assert inj.draw() is None  # past the script: fault-free
        assert inj.n_draws == 4
        assert inj.n_injected("transient") == 1
        assert inj.n_injected("permanent") == 1

    def test_check_raises_typed_errors(self):
        inj = FaultInjector(FaultSpec(script=("transient", "permanent")))
        with pytest.raises(TransientEngineError):
            inj.check()
        with pytest.raises(PermanentEngineError):
            inj.check()
        inj.check()  # no fault left

    def test_typed_errors_are_engine_errors(self):
        assert issubclass(TransientEngineError, EngineError)
        assert issubclass(PermanentEngineError, EngineError)

    def test_seeded_draws_are_deterministic(self):
        spec = FaultSpec(transient_rate=0.3, permanent_rate=0.1, seed=11)
        draws_a = [FaultInjector(spec).draw() for _ in range(1)]
        first = FaultInjector(spec)
        draws_a = [first.draw() for _ in range(64)]
        second = FaultInjector(spec)
        draws_b = [second.draw() for _ in range(64)]
        assert draws_a == draws_b
        assert "transient" in draws_a  # the rates actually fire
        assert "permanent" in draws_a

    def test_suspension_consumes_nothing(self):
        inj = FaultInjector(FaultSpec(script=("transient",)))
        with inj.suspended():
            assert inj.draw() is None
            assert inj.n_draws == 0
        with pytest.raises(TransientEngineError):
            inj.check()

    def test_spec_validation(self):
        with pytest.raises(SchedulingError):
            FaultSpec(transient_rate=1.2)
        with pytest.raises(SchedulingError):
            FaultSpec(transient_rate=0.7, permanent_rate=0.7)
        with pytest.raises(SchedulingError):
            FaultSpec(script=("flaky",))


class TestEngineHook:
    def test_infer_raises_then_recovers(self):
        engine = LlmNpuEngine.build(
            MODEL, DEVICE,
            fault_injector=FaultInjector(FaultSpec(script=("transient",))),
        )
        with pytest.raises(TransientEngineError):
            engine.infer(512, 2)
        report = engine.infer(512, 2)  # script exhausted: succeeds
        assert report.e2e_latency_s > 0

    def test_infer_permanent(self):
        engine = LlmNpuEngine.build(
            MODEL, DEVICE,
            fault_injector=FaultInjector(FaultSpec(script=("permanent",))),
        )
        with pytest.raises(PermanentEngineError):
            engine.infer(512, 2)

    def test_no_injector_is_fault_free(self):
        engine = LlmNpuEngine.build(MODEL, DEVICE)
        engine.check_fault()  # no-op
        assert engine.fault_injector is None


def tiers(max_retries=2, backoff=0.05, timeout=float("inf")):
    return {"interactive": TierPolicy(
        "interactive", 10, timeout_s=timeout,
        max_retries=max_retries, retry_backoff_s=backoff,
    )}


#: A real step loop: concurrency 2 keeps it off the ``sequential``
#: config that the per-request loop serves.
STEP_LOOP = BatchConfig(max_batch_tokens=1024, max_concurrency=2)


def run_one(fault_spec, batching=None, **tier_kwargs):
    svc = LlmService(DEVICE, EngineConfig(), admission=False,
                     fault_spec=fault_spec, tiers=tiers(**tier_kwargs),
                     batching=batching)
    svc.enqueue(MODEL, 512, 2, arrival_s=0.0, tier="interactive")
    return svc.run()[0]


@pytest.fixture(scope="module")
def clean_record():
    """The same request served fault-free by the per-request loop (the
    timing baseline of both loops)."""
    return run_one(None)


class TestServiceRetries:
    """Retry arithmetic on the per-request loop; the subclass below
    runs every test again on the step loop, against the same baseline,
    so both loops must agree on status, retries, ``service_s`` and
    ``retry_held_s``."""

    batching = None

    def serve(self, fault_spec, **tier_kwargs):
        record = run_one(fault_spec, self.batching, **tier_kwargs)
        assert record.batched == (self.batching is not None)
        return record

    def test_transient_retried_with_backoff(self, clean_record):
        record = self.serve(FaultSpec(script=("transient",)))
        assert record.status == "completed"
        assert record.retries == 1
        e2e = clean_record.service_s
        # dead attempt burns a fraction of the service time, then one
        # backoff period elapses, then the retry runs to completion
        held = FAULT_ATTEMPT_FRACTION * e2e + 0.05
        assert record.retry_held_s == pytest.approx(held, rel=1e-9)
        assert record.service_s == pytest.approx(held + e2e, rel=1e-9)

    def test_backoff_is_exponential(self, clean_record):
        record = self.serve(FaultSpec(script=("transient", "transient")))
        assert record.status == "completed"
        assert record.retries == 2
        e2e = clean_record.service_s
        held = (2 * FAULT_ATTEMPT_FRACTION * e2e  # two dead attempts
                + 0.05 + 0.10)                    # backoff doubles
        assert record.retry_held_s == pytest.approx(held, rel=1e-9)
        assert record.service_s == pytest.approx(held + e2e, rel=1e-9)

    def test_retry_cap_exhausted_fails(self, clean_record):
        record = self.serve(
            FaultSpec(script=("transient",) * 5), max_retries=2)
        assert record.status == "failed"
        assert record.retries == 2  # the cap
        assert record.report is None
        e2e = clean_record.service_s
        expected = 3 * FAULT_ATTEMPT_FRACTION * e2e + 0.05 + 0.10
        assert record.service_s == pytest.approx(expected, rel=1e-9)
        assert record.retry_held_s == pytest.approx(expected, rel=1e-9)

    def test_permanent_fault_never_retried(self, clean_record):
        record = self.serve(FaultSpec(script=("permanent",)),
                            max_retries=5)
        assert record.status == "failed"
        assert record.retries == 0
        expected = FAULT_ATTEMPT_FRACTION * clean_record.service_s
        assert record.service_s == pytest.approx(expected, rel=1e-9)
        assert record.retry_held_s == pytest.approx(expected, rel=1e-9)

    def test_retry_respects_deadline(self):
        # the first backoff period already crosses the deadline
        record = self.serve(FaultSpec(script=("transient",) * 5),
                            max_retries=5, backoff=10.0, timeout=1.0)
        assert record.status == "timeout"
        assert record.retries == 0
        assert record.report is None
        assert record.retry_held_s == record.service_s

    def test_submit_path_retries_too(self):
        svc = LlmService(DEVICE, admission=False,
                         fault_spec=FaultSpec(script=("transient",)),
                         tiers=tiers(), batching=self.batching)
        record = svc.submit(MODEL, 512, 2, tier="interactive")
        assert record.status == "completed"
        assert record.retries == 1
        assert not record.batched  # submit always serves per request


class TestServiceRetriesStepLoop(TestServiceRetries):
    batching = STEP_LOOP


class TestZeroFaultIdentity:
    def serve(self, fault_spec):
        svc = LlmService(DEVICE, EngineConfig(), admission=False,
                         fault_spec=fault_spec, tiers=tiers())
        for i in range(4):
            svc.enqueue(MODEL, 512 + 64 * i, 2, arrival_s=0.7 * i,
                        tier="interactive")
        return svc.run()

    def test_zero_rate_injector_is_byte_identical(self):
        """An attached injector with zero rates must not perturb
        anything relative to no injector at all."""
        without = self.serve(None)
        with_zero = self.serve(FaultSpec(transient_rate=0.0,
                                         permanent_rate=0.0, seed=123))
        assert [r.key() for r in without] == [r.key() for r in with_zero]

    def test_faulty_run_is_reproducible(self):
        spec = FaultSpec(transient_rate=0.5, seed=9)
        first = self.serve(spec)
        second = self.serve(spec)
        assert [r.key() for r in first] == [r.key() for r in second]
        assert any(r.retries > 0 for r in first)
