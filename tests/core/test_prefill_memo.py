"""The process-wide prefill memo is transparent.

Static chunk shapes (§3.2) make a chunked prefill's schedule a function
of the prepared chunk graphs it runs, ``(reused_chunks, n_chunks)``, and
of the scheduling arguments — not of the prompt length.  The memo keys
on exactly that content.  These tests prove that a memoized
``engine.prefill`` equals a direct ``run_prefill`` on the same plans,
cold or warm, that the key sees every post-construction change to the
graph set, and that shared traces cannot be mutated.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, LlmNpuEngine
from repro.core.pipeline import (
    PrefillMemo,
    clear_prefill_memo,
    prefill_memo_stats,
    run_prefill,
    simulate_prefill,
)
from repro.errors import SchedulingError
from repro.graph.builder import BuildOptions, GraphBuilder
from repro.graph.chunk import ChunkSharingGraph
from repro.hw.dma import DmaConfig
from repro.hw.soc import DEVICES
from repro.hw.trace import TraceEvent
from repro.model.config import PAPER_MODELS
from repro.obs import MetricsRegistry, engine_with_dma

CONFIGS = {
    "default": EngineConfig(),
    "gpu": EngineConfig(float_backend="gpu"),
    "fifo": EngineConfig(policy="fifo"),
    "chunk128": EngineConfig(chunk_len=128),
    "no-chunking": EngineConfig(chunking=False),
}

_ENGINES = {}


def engine_for(model, device, config):
    key = (model, device, config)
    if key not in _ENGINES:
        _ENGINES[key] = LlmNpuEngine(PAPER_MODELS[model], DEVICES[device],
                                     CONFIGS[config])
    return _ENGINES[key]


@pytest.fixture(autouse=True)
def cold_memo():
    clear_prefill_memo()
    yield
    clear_prefill_memo()


def direct_prefill(engine, prompt_tokens, cached_tokens=0):
    """The memo-free oracle: ``run_prefill`` on the plans the engine
    would run."""
    cfg = engine.config
    include_shadow = cfg.quant_mode == "shadow"
    if cfg.chunking:
        plans = engine.graph.plans_for_prompt(prompt_tokens, cached_tokens)
        extra = 0.0
    else:
        plans = [engine.builder.build_chunk(
            0, max(32, prompt_tokens),
            engine.shadow_profiles if include_shadow else None)]
        extra = engine.graph.naive_per_prompt_preparation_s()
    return run_prefill(plans, engine.device, prompt_tokens,
                       float_backend=cfg.float_backend, policy=cfg.policy,
                       include_shadow=include_shadow, extra_latency_s=extra,
                       shadow_backend=cfg.shadow_backend)


def assert_same_report(memoized, direct):
    for f in dataclasses.fields(memoized):
        if f.name != "trace":
            assert getattr(memoized, f.name) == getattr(direct, f.name), \
                f.name
    assert list(memoized.trace.events) == list(direct.trace.events)
    assert memoized == direct


@st.composite
def prefill_streams(draw, chunk_len, max_chunks):
    """(prompt, cached) pairs whose shapes fit ``max_chunks`` slots;
    short streams over few shapes so warm lookups happen."""
    shapes = draw(st.lists(
        st.integers(0, max_chunks - 1).flatmap(
            lambda r: st.tuples(st.just(r), st.integers(1, max_chunks - r))),
        min_size=1, max_size=3))
    stream = []
    for _ in range(draw(st.integers(1, 6))):
        reused, n = draw(st.sampled_from(shapes))
        remainder = draw(st.integers(0, chunk_len - 1))
        prompt = draw(st.integers(max(1, (n - 1) * chunk_len + 1 - remainder),
                                  n * chunk_len - remainder))
        stream.append((prompt, reused * chunk_len + remainder))
    return stream


class TestTransparency:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(),
           model=st.sampled_from(sorted(PAPER_MODELS)),
           device=st.sampled_from(sorted(DEVICES)),
           config=st.sampled_from(sorted(CONFIGS)),
           cold=st.booleans())
    def test_memoized_prefill_equals_direct_run(self, data, model, device,
                                                config, cold):
        if cold:
            clear_prefill_memo()
        engine = engine_for(model, device, config)
        stream = data.draw(prefill_streams(engine.config.chunk_len,
                                           engine.graph.max_chunks))
        for prompt, cached in stream:
            memoized = engine.prefill(prompt, cached)
            assert_same_report(memoized, direct_prefill(engine, prompt,
                                                        cached))

    def test_shape_hits_from_its_third_sighting(self):
        engine = engine_for("Qwen1.5-1.8B", "Redmi K70 Pro", "default")
        # 300 and 400 tokens both run chunks 0..1: one shape
        reports = [engine.prefill(p) for p in (300, 400, 300, 500)]
        stats = prefill_memo_stats()
        assert (stats["misses"], stats["hits"]) == (2, 2)
        assert stats["entries"] == 1
        assert stats["events"] == len(reports[0].trace.events)
        assert reports[2].trace is reports[1].trace
        assert [r.prompt_tokens for r in reports] == [300, 400, 300, 500]
        assert [r.padded_tokens for r in reports] == [212, 112, 212, 12]
        for report, prompt in zip(reports, (300, 400, 300, 500)):
            assert_same_report(report, direct_prefill(engine, prompt))

    def test_distinct_shapes_do_not_share(self):
        engine = engine_for("Qwen1.5-1.8B", "Redmi K70 Pro", "default")
        for _ in range(2):
            engine.prefill(100)
            engine.prefill(100, cached_tokens=256)  # chunk 1 only
        a, b = engine.prefill(100), engine.prefill(100, cached_tokens=256)
        assert a.trace is not b.trace
        assert a.trace.events != b.trace.events

    def test_metrics_mirror(self):
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
        registry = MetricsRegistry()
        engine.attach_metrics(registry)
        for _ in range(3):
            engine.prefill(200)
        values = {m["name"]: m["value"] for m in registry.snapshot()}
        assert values["prefill_memo_misses_total"] == 2.0
        assert values["prefill_memo_hits_total"] == 1.0


class TestKeyCompleteness:
    def test_dma_clone_does_not_reuse_the_cached_entry(self):
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
        for _ in range(3):
            plain = engine.prefill(512)
        assert prefill_memo_stats()["hits"] == 1

        dma = DmaConfig(buffers=2)
        clone = engine_with_dma(engine, dma)
        assert clone.graph.fingerprint != engine.graph.fingerprint
        # a DMA graph set built from scratch, bypassing the memo
        builder = GraphBuilder(engine.model, engine.device,
                               BuildOptions(dma=dma))
        fresh = ChunkSharingGraph(builder, 256, engine.graph.max_chunks,
                                  engine.shadow_profiles)
        assert fresh.fingerprint == clone.graph.fingerprint
        expected = run_prefill(fresh.plans_for_prompt(512), engine.device, 512)
        for _ in range(3):
            assert_same_report(clone.prefill(512), expected)
        assert clone.prefill(512).latency_s != plain.latency_s

    def test_scheduling_arguments_are_part_of_the_key(self):
        # same graph set (equal fingerprints), different schedules
        engines = [LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro",
                                      **kwargs)
                   for kwargs in ({}, {"policy": "in-order"},
                                  {"shadow_backend": "gpu"})]
        assert len({e.graph.fingerprint for e in engines}) == 1
        for _ in range(3):
            for engine in engines:
                assert_same_report(engine.prefill(700),
                                   direct_prefill(engine, 700))
        assert prefill_memo_stats()["entries"] == 3

    def test_fingerprint_is_content_not_identity(self):
        a = LlmNpuEngine.build("Gemma-2B", "Redmi K60 Pro")
        b = LlmNpuEngine.build("Gemma-2B", "Redmi K60 Pro")
        assert a.graph.fingerprint == b.graph.fingerprint
        a.prefill(300)
        b.prefill(300)  # second sighting of the same content: admitted
        assert prefill_memo_stats()["entries"] == 1
        assert b.prefill(300).trace is a.prefill(300).trace

    @pytest.mark.parametrize("model,device,kwargs", [
        ("Gemma-2B", "Redmi K60 Pro", {"pruning_rate": 0.5}),
        ("Gemma-2B", "Redmi K60 Pro", {"chunk_len": 128}),
        ("Gemma-2B", "Redmi K60 Pro", {"quant_mode": "per-group"}),
        ("Gemma-2B", "Redmi K70 Pro", {}),
        ("Qwen1.5-1.8B", "Redmi K60 Pro", {}),
    ])
    def test_every_content_field_changes_the_key(self, model, device,
                                                 kwargs):
        base = LlmNpuEngine.build("Gemma-2B", "Redmi K60 Pro")
        other = LlmNpuEngine.build(model, device, **kwargs)
        assert other.graph.fingerprint != base.graph.fingerprint
        for _ in range(3):
            base.prefill(100)
        for _ in range(3):
            assert_same_report(other.prefill(100),
                               direct_prefill(other, 100))


class TestSharedTracesAreFrozen:
    def shared_report(self):
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
        engine.prefill(256)
        engine.prefill(256)
        report = engine.prefill(256)
        assert prefill_memo_stats()["hits"] == 1
        return report

    def test_add_raises(self):
        trace = self.shared_report().trace
        n = len(trace.events)
        with pytest.raises(SchedulingError, match="frozen"):
            trace.add(TraceEvent("x", "npu", 0.0, 1.0))
        assert len(trace.events) == n
        assert isinstance(trace.events, tuple)

    def test_busy_by_processor_returns_a_copy(self):
        trace = self.shared_report().trace
        busy = trace.busy_by_processor()
        expected = dict(busy)
        busy["npu"] = -1.0
        assert trace.busy_by_processor() == expected
        assert expected == {p: trace.busy_seconds(p)
                            for p in trace.processors()}


class TestBound:
    def schedule(self, n_events):
        plans = LlmNpuEngine.build(
            "Qwen1.5-1.8B", "Redmi K70 Pro").graph.plans_for_prompt(256)
        schedule = simulate_prefill(plans)
        assert len(schedule.trace.events) >= n_events
        return schedule

    def test_lru_eviction_by_total_events(self):
        memo = PrefillMemo()
        schedule = self.schedule(1)
        size = len(schedule.trace.events)
        memo.MAX_EVENTS = 2 * size
        for key in ("a", "a", "b", "b", "a", "c", "c"):
            memo.lookup(key, lambda: schedule)
        # "a" was used after "b", so "b" is the LRU victim of "c"
        assert memo.stats() == {"hits": 1, "misses": 6, "entries": 2,
                                "events": 2 * size, "evictions": 1}
        assert memo.lookup("a", lambda: schedule)[1]
        assert not memo.lookup("b", lambda: schedule)[1]
        # an evicted key is re-admitted on its next sighting
        assert memo.lookup("b", lambda: schedule)[1]

    def test_oversized_schedule_is_never_admitted(self):
        memo = PrefillMemo()
        schedule = self.schedule(2)
        memo.MAX_EVENTS = len(schedule.trace.events) - 1
        for _ in range(3):
            assert not memo.lookup("big", lambda: schedule)[1]
        assert memo.stats()["entries"] == 0

